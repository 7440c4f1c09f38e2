// Closed loop: kNodes x kWorkersPerNode client threads, each with
// its own txn::Worker, run the workload's generator back to back — the
// next transaction starts only when the previous one returned (DrTM
// workers generate their own transactions and wait for each, paper
// section 7). After a warm-up the threads run through a sequence of
// measured windows; a window is either plain (latency samples only) or
// traced (one span per transaction call as well).
#ifndef PERFBENCH_SRC_CLOSED_LOOP_H_
#define PERFBENCH_SRC_CLOSED_LOOP_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/bench_logic.h"
#include "src/stat/metrics.h"
#include "src/workloads.h"

namespace perfbench {

// One transaction call of a traced window, from the calling thread.
struct Span {
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  uint16_t cls = 0;
  uint8_t status = 0;  // static_cast of txn::TxnStatus
  uint8_t thread = 0;
};

struct WindowSpec {
  double seconds = 0;
  bool traced = false;
};

struct WindowResult {
  WindowTotals totals;
  // Call time of every committed transaction that started in the
  // window.
  LatencyHistogram latency;
  std::vector<uint64_t> class_attempts;  // indexed by StepOutcome::cls
  // Traced windows only:
  std::vector<Span> spans;
  stat::Snapshot delta;             // registry delta over the window
  uint64_t ordered_keys_added = 0;  // Workload::OrderedKeys() delta
};

// Every worker's rng() is reseeded with MixSeed(seed, node, worker)
// before its first step.
std::vector<WindowResult> RunClosedLoop(Workload& workload, uint64_t seed,
                                        double warmup_seconds,
                                        const std::vector<WindowSpec>& windows);

// Writes spans as Chrome trace-event JSON ("X" complete events, one
// track per client thread), at most max_events of them, spread evenly
// over the window. Returns false if the file cannot be written.
bool WriteChromeTrace(const std::string& path, const std::vector<Span>& spans,
                      const std::vector<std::string>& classes,
                      size_t max_events);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_CLOSED_LOOP_H_
