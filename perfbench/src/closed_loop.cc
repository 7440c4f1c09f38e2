#include "src/closed_loop.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <thread>

#include "src/common/barrier.h"
#include "src/common/clock.h"

namespace perfbench {

namespace {

using drtm::txn::TxnStatus;

struct ThreadWindow {
  WindowTotals totals;
  LatencyHistogram latency;
  std::vector<uint64_t> class_attempts;
  std::vector<Span> spans;
};

const char* StatusName(uint8_t status) {
  switch (static_cast<TxnStatus>(status)) {
    case TxnStatus::kCommitted:
      return "committed";
    case TxnStatus::kAborted:
      return "aborted";
    case TxnStatus::kUserAbort:
      return "user_abort";
    case TxnStatus::kNodeFailure:
      return "node_failure";
  }
  return "unknown";
}

}  // namespace

std::vector<WindowResult> RunClosedLoop(
    Workload& workload, uint64_t seed, double warmup_seconds,
    const std::vector<WindowSpec>& windows) {
  constexpr int kThreads = kNodes * kWorkersPerNode;
  const int n = static_cast<int>(windows.size());
  const size_t classes = workload.classes().size();
  // 0 = warm-up, 1..n = measured window n-1, n+1 = stop.
  std::atomic<int> phase{0};
  std::vector<std::vector<ThreadWindow>> per_thread(
      kThreads, std::vector<ThreadWindow>(static_cast<size_t>(n)));
  drtm::Barrier start(kThreads + 1);

  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] {
      const int node = i % kNodes;
      const int worker_id = i / kNodes;
      drtm::txn::Worker worker(&workload.cluster(), node, worker_id);
      worker.rng().Seed(MixSeed(seed, node, worker_id));
      std::vector<ThreadWindow>& mine = per_thread[static_cast<size_t>(i)];
      for (size_t k = 0; k < mine.size(); ++k) {
        mine[k].class_attempts.assign(classes, 0);
        if (windows[k].traced) {
          mine[k].spans.reserve(size_t{1} << 18);
        }
      }
      start.Wait();
      for (;;) {
        const int p = phase.load(std::memory_order_acquire);
        if (p > n) {
          break;
        }
        const uint64_t begin = drtm::MonotonicNanos();
        const StepOutcome out = workload.Step(worker);
        const uint64_t end = drtm::MonotonicNanos();
        if (p == 0) {
          continue;
        }
        ThreadWindow& w = mine[static_cast<size_t>(p - 1)];
        ++w.totals.attempted;
        ++w.class_attempts[static_cast<size_t>(out.cls)];
        switch (out.status) {
          case TxnStatus::kCommitted:
            ++w.totals.committed;
            w.latency.Add(end - begin);
            break;
          case TxnStatus::kUserAbort:
            ++w.totals.user_aborts;
            break;
          case TxnStatus::kAborted:
          case TxnStatus::kNodeFailure:
            ++w.totals.failed;
            break;
        }
        if (windows[static_cast<size_t>(p - 1)].traced) {
          w.spans.push_back(Span{begin, end, static_cast<uint16_t>(out.cls),
                                 static_cast<uint8_t>(out.status),
                                 static_cast<uint8_t>(i)});
        }
      }
    });
  }

  // Window k runs from marks[k] to marks[k + 1]. The registry snapshot
  // briefly holds every shard's histogram latch, so it is taken only at
  // the edges of traced windows, keeping plain windows free of it.
  std::vector<std::chrono::steady_clock::time_point> marks;
  std::vector<stat::Snapshot> snapshots;
  std::vector<uint64_t> ordered_keys;
  auto mark = [&](int next_phase) {
    phase.store(next_phase, std::memory_order_release);
    marks.push_back(std::chrono::steady_clock::now());
    const size_t k = marks.size() - 1;  // window k starts, k - 1 ends
    const bool edge = (k < windows.size() && windows[k].traced) ||
                      (k > 0 && windows[k - 1].traced);
    snapshots.push_back(edge ? stat::Registry::Global().TakeSnapshot()
                             : stat::Snapshot());
    ordered_keys.push_back(edge ? workload.OrderedKeys() : 0);
  };
  start.Wait();
  std::this_thread::sleep_for(std::chrono::duration<double>(warmup_seconds));
  mark(1);
  for (int k = 0; k < n; ++k) {
    std::this_thread::sleep_until(
        marks.back() + std::chrono::duration_cast<std::chrono::nanoseconds>(
                           std::chrono::duration<double>(
                               windows[static_cast<size_t>(k)].seconds)));
    mark(k + 2);
  }
  for (std::thread& t : threads) {
    t.join();
  }

  std::vector<WindowResult> results(static_cast<size_t>(n));
  for (size_t k = 0; k < results.size(); ++k) {
    WindowResult& r = results[k];
    r.totals.threads = kThreads;
    r.totals.seconds =
        std::chrono::duration<double>(marks[k + 1] - marks[k]).count();
    r.class_attempts.assign(classes, 0);
    for (std::vector<ThreadWindow>& thread : per_thread) {
      ThreadWindow& w = thread[k];
      r.totals.attempted += w.totals.attempted;
      r.totals.committed += w.totals.committed;
      r.totals.user_aborts += w.totals.user_aborts;
      r.totals.failed += w.totals.failed;
      r.latency.Merge(w.latency);
      for (size_t c = 0; c < classes; ++c) {
        r.class_attempts[c] += w.class_attempts[c];
      }
      r.spans.insert(r.spans.end(), w.spans.begin(), w.spans.end());
      std::vector<Span>().swap(w.spans);
    }
    std::sort(r.spans.begin(), r.spans.end(),
              [](const Span& a, const Span& b) {
                return a.start_ns < b.start_ns;
              });
    if (windows[k].traced) {
      r.delta = snapshots[k + 1].DeltaSince(snapshots[k]);
      r.ordered_keys_added = ordered_keys[k + 1] - ordered_keys[k];
    }
  }
  return results;
}

bool WriteChromeTrace(const std::string& path, const std::vector<Span>& spans,
                      const std::vector<std::string>& classes,
                      size_t max_events) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  const size_t stride =
      max_events == 0
          ? 1
          : std::max<size_t>(1, (spans.size() + max_events - 1) / max_events);
  const uint64_t origin = spans.empty() ? 0 : spans.front().start_ns;
  std::fprintf(f, "{\"displayTimeUnit\":\"ns\",\"otherData\":{"
                  "\"spans_total\":%zu,\"spans_written_every\":%zu},"
                  "\"traceEvents\":[",
               spans.size(), stride);
  bool first = true;
  for (size_t i = 0; i < spans.size(); i += stride) {
    const Span& s = spans[i];
    std::fprintf(f,
                 "%s\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\","
                 "\"pid\":%d,\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f}",
                 first ? "" : ",", classes[s.cls].c_str(),
                 StatusName(s.status), s.thread % kNodes, s.thread,
                 static_cast<double>(s.start_ns - origin) / 1e3,
                 static_cast<double>(s.end_ns - s.start_ns) / 1e3);
    first = false;
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
