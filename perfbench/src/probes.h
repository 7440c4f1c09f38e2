// Outside probes: single-threaded, read-only timings of one layer's
// primitive, run on the loaded tables after the measured windows. None
// of them writes a record, a lock or lease word, the WAL or a location
// cache. Each returns the median of several passes over its key list,
// in nanoseconds per operation.
#ifndef PERFBENCH_SRC_PROBES_H_
#define PERFBENCH_SRC_PROBES_H_

#include <cstdint>
#include <vector>

#include "src/store/bplus_tree.h"
#include "src/store/cluster_hash.h"
#include "src/txn/cluster.h"

namespace perfbench {

// An empty region on a private HtmThread: begin + commit cost.
double ProbeHtmEmptyRegionNs();

// ClusterHashTable::Get on the local node (strong accesses, no HTM).
double ProbeHashGetNs(drtm::store::ClusterHashTable& table,
                      const std::vector<uint64_t>& keys);

// BPlusTree::Get on the local node.
double ProbeBtreeGetNs(drtm::store::BPlusTree& tree,
                       const std::vector<uint64_t>& keys);

struct RemoteProbe {
  double lookup_ns = 0;         // uncached one-sided chain walk
  double reads_per_lookup = 0;  // RDMA READs that walk spent
  double read_ns = 0;           // one READ of a found entry (header+value)
};

// Uncached one-sided RemoteKv lookups into `target`'s copy of `table`
// (so the workload's location caches are left untouched), then single
// READs of the entries found.
RemoteProbe ProbeRemote(drtm::txn::Cluster& cluster, int target, int table,
                        const std::vector<uint64_t>& keys);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_PROBES_H_
