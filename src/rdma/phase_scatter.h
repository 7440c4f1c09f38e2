// Cross-node scatter-gather phase engine.
//
// A PhaseScatter owns one SendQueue per target node touched by one
// transaction phase. Callers post WQEs with To(node).Post*(...), then
// call Gather(): every target's doorbell is rung *asynchronously* (one
// per target, all submitted before any completion is polled), so the
// batches are in flight concurrently and the phase pays roughly the
// longest batch's modeled latency instead of the per-target sum — a
// transaction touching k nodes sees ~1 overlapped round trip where the
// serial per-target loop paid k (ROADMAP "overlap doorbells across
// different target nodes").
//
// Semantics: within one target, WQEs execute in post order and complete
// FIFO, exactly as SendQueue guarantees; across targets there is no
// ordering (real QPs to different nodes promise none either). Gather()
// reports completions grouped per target, in each target's post order,
// with the target id attached. A dead target's WQEs complete with
// kNodeDown individually, like the scalar verbs.
//
// A PhaseScatter is owned by one initiator thread, like the SendQueues
// it wraps. Latency accounting for the overlap lives in the SendQueue
// deadline mechanism (SubmitAsync/CompleteSubmission); the saved time
// (sum - max of the batch latencies) is recorded per phase via the
// stat::ScatterPhaseIds counter set handed to the constructor.
#ifndef SRC_RDMA_PHASE_SCATTER_H_
#define SRC_RDMA_PHASE_SCATTER_H_

#include <cstddef>
#include <memory>
#include <utility>
#include <vector>

#include "src/rdma/verbs_batch.h"
#include "src/stat/scatter_stats.h"

namespace drtm {
namespace rdma {

struct ScatterCompletion {
  int target = -1;
  Completion comp;
};

class PhaseScatter {
 public:
  // `ids` selects the per-phase counter set (stat/scatter_stats.h);
  // nullptr disables phase accounting (the rdma.batch.* metrics still
  // move through the underlying SendQueues).
  PhaseScatter(Fabric& fabric, SendQueue::Config config,
               const stat::ScatterPhaseIds* ids = nullptr);

  PhaseScatter(const PhaseScatter&) = delete;
  PhaseScatter& operator=(const PhaseScatter&) = delete;

  // The send queue for `target`, created on first use. Queues persist
  // across Gather() rounds, so wr_ids stay unique per target.
  SendQueue& To(int target);

  // WQEs posted across all targets but not yet gathered.
  size_t pending() const;
  // Distinct targets with at least one pending WQE.
  size_t pending_targets() const;

  // Rings one async doorbell per target that has pending WQEs — all of
  // them before polling anything — then completes every batch and
  // appends each target's completions (FIFO within the target, targets
  // in first-use order) to *out, including those of batches the window
  // already rang at post time. Returns the number of completions.
  size_t Gather(std::vector<ScatterCompletion>* out);

 private:
  Fabric& fabric_;
  const SendQueue::Config config_;
  const stat::ScatterPhaseIds* ids_;
  // First-use order; small per-phase cardinality makes linear scans
  // cheaper than a hash map.
  std::vector<std::pair<int, std::unique_ptr<SendQueue>>> queues_;
};

}  // namespace rdma
}  // namespace drtm

#endif  // SRC_RDMA_PHASE_SCATTER_H_
