#include "src/probes.h"

#include <vector>

#include "src/bench_logic.h"
#include "src/common/clock.h"
#include "src/htm/htm.h"
#include "src/store/remote_kv.h"

namespace perfbench {

namespace {

constexpr int kPasses = 5;

// Median over kPasses of pass() / ops, in ns per op.
template <typename Pass>
double MedianNsPerOp(size_t ops, Pass pass) {
  std::vector<double> per_op;
  for (int i = 0; i < kPasses; ++i) {
    const uint64_t begin = drtm::MonotonicNanos();
    pass();
    per_op.push_back(static_cast<double>(drtm::MonotonicNanos() - begin) /
                     static_cast<double>(ops));
  }
  return Median(per_op);
}

}  // namespace

double ProbeHtmEmptyRegionNs() {
  constexpr size_t kRegions = 20000;
  drtm::htm::HtmThread htm;
  return MedianNsPerOp(kRegions, [&htm] {
    for (size_t i = 0; i < kRegions; ++i) {
      htm.Transact([] {});
    }
  });
}

double ProbeHashGetNs(drtm::store::ClusterHashTable& table,
                      const std::vector<uint64_t>& keys) {
  std::vector<uint8_t> value(table.geometry().value_size);
  return MedianNsPerOp(keys.size(), [&] {
    for (const uint64_t key : keys) {
      table.Get(key, value.data());
    }
  });
}

double ProbeBtreeGetNs(drtm::store::BPlusTree& tree,
                       const std::vector<uint64_t>& keys) {
  std::vector<uint8_t> value(tree.value_size());
  return MedianNsPerOp(keys.size(), [&] {
    for (const uint64_t key : keys) {
      tree.Get(key, value.data());
    }
  });
}

RemoteProbe ProbeRemote(drtm::txn::Cluster& cluster, int target, int table,
                        const std::vector<uint64_t>& keys) {
  const drtm::store::Geometry& geometry =
      cluster.hash_table(target, table)->geometry();
  drtm::store::RemoteKv client(&cluster.fabric(), target, geometry,
                               /*cache=*/nullptr);
  RemoteProbe probe;
  std::vector<uint64_t> entries;
  uint64_t reads = 0;
  probe.lookup_ns = MedianNsPerOp(keys.size(), [&] {
    entries.clear();
    reads = 0;
    for (const uint64_t key : keys) {
      const drtm::store::RemoteEntryRef ref = client.Lookup(key);
      reads += static_cast<uint64_t>(ref.rdma_reads);
      if (ref.found) {
        entries.push_back(ref.entry_off);
      }
    }
  });
  probe.reads_per_lookup =
      Ratio(static_cast<double>(reads), static_cast<double>(keys.size()));
  if (!entries.empty()) {
    std::vector<uint8_t> entry(geometry.entry_size);
    probe.read_ns = MedianNsPerOp(entries.size(), [&] {
      for (const uint64_t off : entries) {
        cluster.fabric().Read(target, off, entry.data(), entry.size());
      }
    });
  }
  return probe;
}

}  // namespace perfbench
