#include "src/stat/metrics.h"

#include <cassert>

namespace drtm {
namespace stat {

Snapshot Snapshot::DeltaSince(const Snapshot& earlier) const {
  Snapshot delta = *this;
  for (auto& [name, value] : delta.counters) {
    auto it = earlier.counters.find(name);
    if (it != earlier.counters.end()) {
      value -= std::min(value, it->second);
    }
  }
  for (auto& [name, hist] : delta.histograms) {
    auto it = earlier.histograms.find(name);
    if (it != earlier.histograms.end()) {
      hist.Subtract(it->second);
    }
  }
  // Gauges are levels, not totals: the later snapshot's values (already
  // copied into delta) are the right answer for any window.
  return delta;
}

void Snapshot::Merge(const Snapshot& other) {
  for (const auto& [name, value] : other.counters) {
    counters[name] += value;
  }
  for (const auto& [name, hist] : other.histograms) {
    histograms[name].Merge(hist);
  }
  for (const auto& [name, value] : other.gauges) {
    gauges[name] = value;  // latest window wins
  }
}

Registry& Registry::Global() {
  static Registry* registry = new Registry();  // immortal: worker threads
  return *registry;                            // may outlive main()'s exit
}

Registry::Registry() {
  for (auto& shard : shards_) {
    shard = std::make_unique<Shard>();
  }
}

Registry::~Registry() = default;

namespace {

// Round-robin shard assignment: a process-wide thread ordinal, not a
// hash, so the first kShards threads never collide. Shared across
// registries (the ordinal identifies the thread, not the metric).
uint32_t ThreadOrdinal() {
  static std::atomic<uint32_t> next{0};
  thread_local const uint32_t ordinal =
      next.fetch_add(1, std::memory_order_relaxed);
  return ordinal;
}

}  // namespace

Registry::Shard& Registry::LocalShard() {
  return *shards_[ThreadOrdinal() % kShards];
}

uint32_t Registry::CounterId(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = counter_ids_.find(name);
  if (it != counter_ids_.end()) {
    return it->second;
  }
  assert(counter_names_.size() < kMaxCounters && "raise Registry::kMaxCounters");
  const uint32_t id = static_cast<uint32_t>(counter_names_.size());
  counter_names_.emplace_back(name);
  counter_ids_.emplace(counter_names_.back(), id);
  return id;
}

uint32_t Registry::TimerId(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = timer_ids_.find(name);
  if (it != timer_ids_.end()) {
    return it->second;
  }
  assert(timer_names_.size() < kMaxTimers && "raise Registry::kMaxTimers");
  const uint32_t id = static_cast<uint32_t>(timer_names_.size());
  timer_names_.emplace_back(name);
  timer_ids_.emplace(timer_names_.back(), id);
  return id;
}

uint32_t Registry::GaugeId(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = gauge_ids_.find(name);
  if (it != gauge_ids_.end()) {
    return it->second;
  }
  assert(gauge_names_.size() < kMaxGauges && "raise Registry::kMaxGauges");
  const uint32_t id = static_cast<uint32_t>(gauge_names_.size());
  gauge_names_.emplace_back(name);
  gauge_ids_.emplace(gauge_names_.back(), id);
  return id;
}

void Registry::GaugeSet(uint32_t gauge_id, int64_t value) {
  std::atomic<int64_t>& gauge = gauges_[gauge_id].value;
  // Per-transaction setters mostly repeat the value; a store would still
  // pull the shared line exclusive into this core on every call.
  if (gauge.load(std::memory_order_relaxed) != value) {
    gauge.store(value, std::memory_order_relaxed);
  }
}

void Registry::GaugeAdd(uint32_t gauge_id, int64_t delta) {
  gauges_[gauge_id].value.fetch_add(delta, std::memory_order_relaxed);
}

int64_t Registry::GaugeValue(uint32_t gauge_id) const {
  return gauges_[gauge_id].value.load(std::memory_order_relaxed);
}

void Registry::Add(uint32_t counter_id, uint64_t delta) {
  LocalShard().counters[counter_id].value.fetch_add(delta,
                                                    std::memory_order_relaxed);
}

void Registry::Record(uint32_t timer_id, uint64_t value) {
  Shard& shard = LocalShard();
  SpinLatchGuard guard(shard.hist_latch);
  shard.hists[timer_id].Record(value);
}

Snapshot Registry::TakeSnapshot() {
  // Copy the name tables first so shard scanning runs without mu_.
  std::vector<std::string> counter_names;
  std::vector<std::string> timer_names;
  std::vector<std::string> gauge_names;
  {
    std::lock_guard<std::mutex> lock(mu_);
    counter_names = counter_names_;
    timer_names = timer_names_;
    gauge_names = gauge_names_;
  }
  Snapshot snapshot;
  for (size_t id = 0; id < counter_names.size(); ++id) {
    uint64_t total = 0;
    for (const auto& shard : shards_) {
      total += shard->counters[id].value.load(std::memory_order_relaxed);
    }
    snapshot.counters.emplace(counter_names[id], total);
  }
  for (size_t id = 0; id < timer_names.size(); ++id) {
    Histogram merged;
    for (const auto& shard : shards_) {
      SpinLatchGuard guard(shard->hist_latch);
      merged.Merge(shard->hists[id]);
    }
    snapshot.histograms.emplace(timer_names[id], std::move(merged));
  }
  for (size_t id = 0; id < gauge_names.size(); ++id) {
    snapshot.gauges.emplace(gauge_names[id],
                            gauges_[id].value.load(std::memory_order_relaxed));
  }
  return snapshot;
}

size_t Registry::num_counters() const {
  std::lock_guard<std::mutex> lock(mu_);
  return counter_names_.size();
}

size_t Registry::num_timers() const {
  std::lock_guard<std::mutex> lock(mu_);
  return timer_names_.size();
}

size_t Registry::num_gauges() const {
  std::lock_guard<std::mutex> lock(mu_);
  return gauge_names_.size();
}

}  // namespace stat
}  // namespace drtm
