// The benchmark's four workloads. Each one owns a two-node cluster
// (2 nodes x 2 workers) and its workload database; constructing it is
// the set-up the benchmark times (cluster construction, Start, Load).
//
//   tpcc-nolog           TPC-C standard mix, logging off (the durable
//                        variant stalls; see perfbench/README.md).
//   smallbank-contended  SmallBank on a small hot set over a full-weight
//                        wire; logging off.
//   smallbank-durable    SmallBank with uniform accounts over a 0.1-scale
//                        wire; NVRAM log and group commit on.
//   ycsb-b-uniform       YCSB-B over 400k records, location cache far
//                        smaller than the working set.
#ifndef PERFBENCH_SRC_WORKLOADS_H_
#define PERFBENCH_SRC_WORKLOADS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/bench_logic.h"
#include "src/txn/cluster.h"
#include "src/txn/transaction.h"

namespace perfbench {

inline constexpr int kNodes = 2;
inline constexpr int kWorkersPerNode = 2;

struct StepOutcome {
  int cls = 0;  // index into Workload::classes()
  drtm::txn::TxnStatus status = drtm::txn::TxnStatus::kCommitted;
};

class Workload {
 public:
  virtual ~Workload() = default;

  virtual drtm::txn::Cluster& cluster() = 0;
  // Transaction class names, indexed by StepOutcome::cls.
  virtual const std::vector<std::string>& classes() const = 0;

  // One transaction through the workload generator.
  virtual StepOutcome Step(drtm::txn::Worker& worker) = 0;

  // Output checks after the measured windows, with the cluster
  // quiescent. class_attempts counts attempts per class; `seed` picks
  // any sampled records. Returns false and explains in *error when any
  // check fails.
  virtual bool Check(const std::vector<uint64_t>& class_attempts,
                     uint64_t seed, std::string* error) = 0;

  // Read-only single-threaded probes on the loaded tables (probe.*
  // metrics, store.reads_per_remote_lookup). Keys follow the workload's
  // own distribution, drawn from `seed`.
  virtual MetricMap Probe(uint64_t seed) = 0;

  // Total keys in the ordered (B+ tree) tables; 0 for workloads without
  // them. Read between windows to derive store.btree_keys_per_txn.
  virtual uint64_t OrderedKeys() { return 0; }
};

// Every workload's transaction classes, in workload order; the traced
// run reports class.* metrics for all of them so each run carries the
// same metric names.
const std::vector<std::string>& AllClasses();

// Builds, starts and loads the named workload; nullptr for an unknown
// name.
std::unique_ptr<Workload> MakeWorkload(const std::string& name);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_WORKLOADS_H_
