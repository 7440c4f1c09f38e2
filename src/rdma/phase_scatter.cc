#include "src/rdma/phase_scatter.h"

#include <algorithm>

#include "src/stat/metrics.h"

namespace drtm {
namespace rdma {

PhaseScatter::PhaseScatter(Fabric& fabric, SendQueue::Config config,
                           const stat::ScatterPhaseIds* ids)
    : fabric_(fabric), config_(config), ids_(ids) {}

SendQueue& PhaseScatter::To(int target) {
  for (auto& [node, queue] : queues_) {
    if (node == target) {
      return *queue;
    }
  }
  queues_.emplace_back(target,
                       std::make_unique<SendQueue>(fabric_, target, config_));
  return *queues_.back().second;
}

size_t PhaseScatter::pending() const {
  size_t n = 0;
  for (const auto& [node, queue] : queues_) {
    n += queue->pending();
  }
  return n;
}

size_t PhaseScatter::pending_targets() const {
  size_t n = 0;
  for (const auto& [node, queue] : queues_) {
    if (queue->pending() > 0) {
      ++n;
    }
  }
  return n;
}

size_t PhaseScatter::Gather(std::vector<ScatterCompletion>* out) {
  // Scatter: ring every target's doorbell back to back without waiting.
  // Each submission stamps its own completion deadline, so the batches'
  // modeled in-flight windows overlap in wall time.
  size_t wqes = 0;
  size_t doorbells = 0;
  uint64_t sum_batch_ns = 0;
  uint64_t max_batch_ns = 0;
  for (auto& [node, queue] : queues_) {
    const SendQueue::Submission sub = queue->SubmitAsync();
    if (sub.wqes == 0) {
      continue;
    }
    wqes += sub.wqes;
    ++doorbells;
    sum_batch_ns += sub.batch_ns;
    max_batch_ns = std::max(max_batch_ns, sub.batch_ns);
  }
  // Gather: complete each batch (waiting only for its own remaining
  // deadline — everything after the longest one is already past) and
  // drain its completions tagged with the target. A batch that filled
  // the window was rung at post time and holds completions even when
  // nothing was left to submit here.
  size_t gathered = 0;
  for (auto& [node, queue] : queues_) {
    queue->CompleteSubmission();
    Completion comp;
    while (queue->PollCompletions(&comp, 1) == 1) {
      ++gathered;
      if (out != nullptr) {
        out->push_back(ScatterCompletion{node, comp});
      }
    }
  }
  if (ids_ != nullptr && wqes > 0) {
    stat::Registry& reg = stat::Registry::Global();
    reg.Add(ids_->rounds);
    reg.Add(ids_->doorbells, doorbells);
    reg.Add(ids_->wqes, wqes);
    reg.Add(ids_->overlap_saved_ns, sum_batch_ns - max_batch_ns);
    reg.Record(ids_->targets, doorbells);
  }
  return gathered;
}

}  // namespace rdma
}  // namespace drtm
