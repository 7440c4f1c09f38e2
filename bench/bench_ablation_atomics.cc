// Section 6.3 ablation: NIC atomicity level. At IBV_ATOMIC_HCA (the
// paper's ConnectX-3) RDMA CAS is atomic only against RDMA CAS, so the
// fallback handler and read-only transactions must lock even *local*
// records through the NIC (14.5 us vs 0.08 us for processor CAS). The
// paper measures ~15% throughput loss when the fallback path is hot.
// A GLOB-level NIC (e.g. QLogic QLE) removes that cost. Read-only
// transactions read local records in HTM unless htm_retry_limit is 0,
// so the read-only leg runs with it at 0: the paper's Fig. 8 leases.
#include <cstdio>

#include "bench/bench_util.h"
#include "src/workload/driver.h"
#include "src/workload/smallbank.h"

namespace {

using namespace drtm;

enum class Path {
  kNormal,        // SmallBank mix, HTM path
  kFallbackOnly,  // htm_retry_limit = 0: every txn runs 2PL
  kReadOnly,      // balance-only, htm_retry_limit = 0: RO txns lease
                  // two *local* records each
};

double Run(rdma::AtomicLevel level, Path path, uint64_t duration_ms) {
  txn::ClusterConfig config;
  config.num_nodes = 2;
  config.workers_per_node = 2;
  config.region_bytes = 24 << 20;
  // Closer-to-calibrated network so the 14.5 us vs 0.08 us CAS gap
  // (section 6.3) is visible through the simulation noise.
  config.latency = rdma::LatencyModel::Calibrated(0.5);
  config.atomic_level = level;
  if (path != Path::kNormal) {
    // Every transaction runs the 2PL fallback; read-only ones lease
    // their local records instead of reading them in HTM.
    config.htm_retry_limit = 0;
  }
  txn::Cluster cluster(config);
  workload::SmallBankDb::Params params;
  params.accounts_per_node = 5000;
  params.hot_accounts_per_node = 100;
  params.cross_node_probability = 0.05;
  workload::SmallBankDb db(&cluster, params);
  cluster.Start();
  db.Load();
  workload::RunOptions run;
  run.nodes = 2;
  run.workers_per_node = 2;
  run.warmup_ms = 150;
  run.duration_ms = duration_ms;
  run.record_latency = false;
  const workload::RunResult result =
      workload::RunWorkers(&cluster, run, [&](txn::Worker& worker) {
        if (path == Path::kReadOnly) {
          return db.RunBalance(&worker) == txn::TxnStatus::kCommitted;
        }
        return db.RunMix(&worker).status == txn::TxnStatus::kCommitted;
      });
  cluster.Stop();
  return result.Throughput();
}

const char* Name(Path path) {
  switch (path) {
    case Path::kNormal:
      return "normal (HTM path)";
    case Path::kFallbackOnly:
      return "fallback-only";
    case Path::kReadOnly:
      return "read-only (BAL)";
  }
  return "?";
}

}  // namespace

int main() {
  const uint64_t duration_ms = benchutil::DurationMs(600);
  benchutil::Header("Ablation (sec 6.3)", "NIC atomicity level: HCA vs GLOB");
  benchutil::PaperNote(
      "HCA-level NICs force RDMA CAS (14.5 us) instead of processor CAS "
      "(0.08 us) for local records in the fallback handler and read-only "
      "transactions; the paper measures ~15%% slowdown with a hot fallback");

  std::printf("%-22s %12s %12s %10s\n", "path", "hca_tps", "glob_tps",
              "glob_gain");
  for (const Path path :
       {Path::kNormal, Path::kFallbackOnly, Path::kReadOnly}) {
    const double hca = Run(rdma::AtomicLevel::kHca, path, duration_ms);
    const double glob = Run(rdma::AtomicLevel::kGlob, path, duration_ms);
    std::printf("%-22s %12.0f %12.0f %9.1f%%\n", Name(path), hca, glob,
                (glob / hca - 1.0) * 100);
  }
  return 0;
}
