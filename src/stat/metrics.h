// Process-wide metrics registry: named counters and log-bucket latency
// histograms with per-thread sharded storage, snapshot/delta semantics,
// and no hot-path contention.
//
// Design:
//   * Registration (name -> dense id) takes a mutex and happens once per
//     site, typically through a function-local static.
//   * The hot path — Add(id) / Record(id, value) — touches only the
//     calling thread's shard: a cache-line-padded relaxed atomic per
//     counter, and a per-shard histogram array guarded by a spin latch
//     that is only ever contended by a concurrent snapshot.
//   * Threads are assigned shards round-robin; with fewer live threads
//     than kShards (64) every thread owns its shard exclusively. Shards
//     outlive threads, so counts from finished workers stay visible —
//     exactly what a bench that joins its workers before reporting needs.
//   * Snapshot() sums the shards into plain maps. DeltaSince() subtracts
//     an earlier snapshot, which is how benches report a steady-state
//     measurement window (snapshot after warmup, delta at the end).
#ifndef SRC_STAT_METRICS_H_
#define SRC_STAT_METRICS_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/cacheline.h"
#include "src/common/histogram.h"
#include "src/common/spin_latch.h"

namespace drtm {
namespace stat {

// Aggregated registry state at one instant. Plain data: copy, subtract,
// merge, export.
struct Snapshot {
  std::map<std::string, uint64_t> counters;
  std::map<std::string, Histogram> histograms;
  // Instantaneous levels (cache occupancy, configured capacity, window
  // depth). Unlike counters these can move both ways and are never
  // differenced: DeltaSince keeps the later snapshot's values verbatim.
  std::map<std::string, int64_t> gauges;

  uint64_t Counter(const std::string& name) const {
    auto it = counters.find(name);
    return it == counters.end() ? 0 : it->second;
  }
  const Histogram* Hist(const std::string& name) const {
    auto it = histograms.find(name);
    return it == histograms.end() ? nullptr : &it->second;
  }
  int64_t Gauge(const std::string& name) const {
    auto it = gauges.find(name);
    return it == gauges.end() ? 0 : it->second;
  }

  // This snapshot minus an earlier one: counter-wise subtraction (values
  // registered only in *this keep their full count) and bucket-wise
  // histogram subtraction. Histogram min/max are kept from *this — exact
  // window extrema are not recoverable from two cumulative snapshots.
  Snapshot DeltaSince(const Snapshot& earlier) const;

  // Accumulates another snapshot into this one (counter addition,
  // histogram merge). Used by benches that sum several run windows.
  void Merge(const Snapshot& other);
};

class Registry {
 public:
  // Most code uses the process-wide instance; tests build their own.
  static Registry& Global();

  Registry();
  ~Registry();

  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  // Returns a dense id for the named metric, registering it on first
  // use. Idempotent; safe from any thread. Names follow a dotted
  // lowercase convention with a unit suffix for timers, e.g.
  // "htm.abort.conflict", "phase.htm_attempt_ns".
  uint32_t CounterId(std::string_view name);
  uint32_t TimerId(std::string_view name);
  uint32_t GaugeId(std::string_view name);

  // Hot path. Ids must come from the matching *Id() on this registry.
  void Add(uint32_t counter_id, uint64_t delta = 1);
  void Record(uint32_t timer_id, uint64_t value);

  // Gauges are registry-level (not sharded): a level shared by all
  // threads, so increments and decrements from different threads net out
  // correctly. Still lock-free relaxed atomics — cheap enough for
  // install/evict paths, not meant for per-op hot loops.
  void GaugeSet(uint32_t gauge_id, int64_t value);
  void GaugeAdd(uint32_t gauge_id, int64_t delta);
  int64_t GaugeValue(uint32_t gauge_id) const;

  Snapshot TakeSnapshot();

  // Number of registered names (for tests / exporters).
  size_t num_counters() const;
  size_t num_timers() const;
  size_t num_gauges() const;

  static constexpr size_t kShards = 64;
  static constexpr size_t kMaxCounters = 256;
  static constexpr size_t kMaxTimers = 64;
  static constexpr size_t kMaxGauges = 256;

 private:
  struct alignas(kCacheLineSize) PaddedCounter {
    std::atomic<uint64_t> value{0};
  };

  struct alignas(kCacheLineSize) PaddedGauge {
    std::atomic<int64_t> value{0};
  };

  struct Shard {
    std::array<PaddedCounter, kMaxCounters> counters;
    // Guards hists against a concurrent TakeSnapshot(); the owning
    // thread is the only other party, so this latch is uncontended in
    // steady state.
    SpinLatch hist_latch;
    std::array<Histogram, kMaxTimers> hists;
  };

  Shard& LocalShard();

  mutable std::mutex mu_;
  std::vector<std::string> counter_names_;
  std::vector<std::string> timer_names_;
  std::vector<std::string> gauge_names_;
  std::map<std::string, uint32_t, std::less<>> counter_ids_;
  std::map<std::string, uint32_t, std::less<>> timer_ids_;
  std::map<std::string, uint32_t, std::less<>> gauge_ids_;
  std::array<std::unique_ptr<Shard>, kShards> shards_;
  std::array<PaddedGauge, kMaxGauges> gauges_;
};

}  // namespace stat
}  // namespace drtm

#endif  // SRC_STAT_METRICS_H_
