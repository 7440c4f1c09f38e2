#include "src/bench_logic.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <string_view>
#include <utility>

namespace perfbench {

namespace {

uint64_t NearestRankIndex(uint64_t n, double p) {
  // The epsilon keeps p * n / 100 landing exactly on an integer (99.9 %
  // of 10000) from rounding up to the next rank.
  const double rank = std::ceil(p * static_cast<double>(n) / 100.0 - 1e-9);
  const uint64_t r = rank < 1 ? 1 : static_cast<uint64_t>(rank);
  return std::min(r, n);
}

uint64_t SplitMix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

// Sum of a timer's recorded values (the histogram keeps the exact sum
// behind its mean).
double HistSum(const stat::Snapshot& s, const char* name) {
  const drtm::Histogram* h = s.Hist(name);
  return h == nullptr ? 0 : h->Mean() * static_cast<double>(h->count());
}

double HistCount(const stat::Snapshot& s, const char* name) {
  const drtm::Histogram* h = s.Hist(name);
  return h == nullptr ? 0 : static_cast<double>(h->count());
}

// p-th percentile of a nanosecond timer, in microseconds; 0 when empty.
double HistPctUs(const stat::Snapshot& s, const char* name, double p) {
  const drtm::Histogram* h = s.Hist(name);
  if (h == nullptr || h->count() == 0) {
    return 0;
  }
  return static_cast<double>(h->Percentile(p)) / 1e3;
}

}  // namespace

uint64_t SamplesBeyond(uint64_t n, double p) {
  return n == 0 ? 0 : n - NearestRankIndex(n, p);
}

double HighestSupportedPercentile(uint64_t n) {
  for (const double p : {99.99, 99.9, 99.0, 90.0, 50.0}) {
    if (SamplesBeyond(n, p) >= kMinSamplesBeyond) {
      return p;
    }
  }
  return 0;
}

double SupportedPercentile(uint64_t n, double p) {
  return std::min(p, HighestSupportedPercentile(n));
}

uint64_t NearestRank(const std::vector<uint64_t>& sorted, double p) {
  if (sorted.empty()) {
    return 0;
  }
  return sorted[NearestRankIndex(sorted.size(), p) - 1];
}

LatencyHistogram::LatencyHistogram() : counts_(NumBuckets(), 0) {}

size_t LatencyHistogram::BucketOf(uint64_t ns) {
  constexpr uint64_t kExact = uint64_t{1} << kExactBits;
  constexpr uint64_t kHalf = kExact / 2;
  ns = std::min(ns, (uint64_t{1} << kMaxBits) - 1);
  if (ns < kExact) {
    return static_cast<size_t>(ns);
  }
  // ns >> shift keeps the top kExactBits bits, which lie in [kHalf,
  // kExact).
  const int shift = std::bit_width(ns) - kExactBits;
  return static_cast<size_t>(kExact + (static_cast<uint64_t>(shift) - 1) * kHalf +
                             ((ns >> shift) - kHalf));
}

uint64_t LatencyHistogram::BucketLower(size_t b) {
  constexpr uint64_t kExact = uint64_t{1} << kExactBits;
  constexpr uint64_t kHalf = kExact / 2;
  if (b < kExact) {
    return b;
  }
  const uint64_t shift = (b - kExact) / kHalf + 1;
  return (kHalf + (b - kExact) % kHalf) << shift;
}

uint64_t LatencyHistogram::BucketWidth(size_t b) {
  constexpr uint64_t kExact = uint64_t{1} << kExactBits;
  return b < kExact ? 1 : uint64_t{1} << ((b - kExact) / (kExact / 2) + 1);
}

size_t LatencyHistogram::NumBuckets() {
  return BucketOf((uint64_t{1} << kMaxBits) - 1) + 1;
}

void LatencyHistogram::Add(uint64_t ns) {
  ++counts_[BucketOf(ns)];
  ++count_;
}

void LatencyHistogram::Merge(const LatencyHistogram& other) {
  for (size_t b = 0; b < counts_.size(); ++b) {
    counts_[b] += other.counts_[b];
  }
  count_ += other.count_;
}

double LatencyHistogram::Percentile(double p) const {
  if (count_ == 0) {
    return 0;
  }
  const uint64_t rank = NearestRankIndex(count_, p);
  uint64_t below = 0;
  for (size_t b = 0; b < counts_.size(); ++b) {
    if (below + counts_[b] >= rank) {
      const double lower = static_cast<double>(BucketLower(b));
      const uint64_t width = BucketWidth(b);
      if (width == 1) {
        return lower;
      }
      const double k = static_cast<double>(rank - below) - 0.5;
      return lower + static_cast<double>(width) * k /
                         static_cast<double>(counts_[b]);
    }
    below += counts_[b];
  }
  return static_cast<double>(BucketLower(counts_.size() - 1));
}

double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

double Median(std::vector<double> values) {
  if (values.empty()) {
    return 0;
  }
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : (values[mid - 1] + values[mid]) / 2;
}

uint64_t MixSeed(uint64_t seed, int node, int worker) {
  const uint64_t who = (static_cast<uint64_t>(static_cast<uint32_t>(node))
                        << 32) |
                       static_cast<uint32_t>(worker);
  return SplitMix64(SplitMix64(seed) ^ SplitMix64(who));
}

std::string UnitOf(const std::string& metric) {
  static const std::pair<const char*, const char*> kSuffixes[] = {
      {"_pct", "%"},          {"_us", "us"},
      {"_ns", "ns"},          {"_s", "s"},
      {"_mb", "MB"},          {"_per_txn", "1/txn"},
      {"_per_ktxn", "1/ktxn"}, {"_per_epoch", "1/epoch"},
      {"_per_doorbell", "1/doorbell"}, {"_per_chain", "1/chain"},
      {"_per_remote_lookup", "1/lookup"}, {"tps", "1/s"},
  };
  for (const auto& [suffix, unit] : kSuffixes) {
    const std::string_view s(suffix);
    if (metric.size() >= s.size() &&
        metric.compare(metric.size() - s.size(), s.size(), s) == 0) {
      return unit;
    }
  }
  return "count";
}

MetricMap RegistryLayerMetrics(const stat::Snapshot& d,
                               const WindowTotals& w) {
  const auto c = [&d](const char* name) {
    return static_cast<double>(d.Counter(name));
  };
  const double txns = static_cast<double>(w.committed);
  const double worker_ns = static_cast<double>(w.threads) * w.seconds * 1e9;
  MetricMap m;

  // src/htm. Transaction-level attempts come from the attempt timer;
  // abort shares are over every emulated region (B+ tree ops included).
  const double regions = c("htm.commit") + c("htm.abort.total");
  const double attempts = HistCount(d, "phase.htm_attempt_ns");
  m["htm.attempts_per_txn"] = Ratio(attempts, txns);
  m["htm.conflict_abort_pct"] = 100 * Ratio(c("htm.abort.conflict"), regions);
  m["htm.capacity_abort_pct"] = 100 * Ratio(c("htm.abort.capacity"), regions);
  m["htm.attempt_p50_us"] = HistPctUs(d, "phase.htm_attempt_ns", 50);
  m["htm.attempt_p99_us"] = HistPctUs(d, "phase.htm_attempt_ns", 99);
  m["htm.busy_pct"] =
      100 * Ratio(HistSum(d, "phase.htm_attempt_ns"), worker_ns);

  // src/rdma. Scalar verbs record their modelled cost per opcode;
  // doorbell-batched ones record one batch cost per doorbell.
  m["rdma.reads_per_txn"] = Ratio(c("rdma.read.ops"), txns);
  m["rdma.cas_per_txn"] = Ratio(c("rdma.cas.ops"), txns);
  m["rdma.writes_per_txn"] = Ratio(c("rdma.write.ops"), txns);
  m["rdma.sends_per_txn"] = Ratio(c("rdma.send.ops"), txns);
  m["rdma.doorbells_per_txn"] = Ratio(c("rdma.batch.doorbells"), txns);
  m["rdma.wqes_per_doorbell"] =
      Ratio(c("rdma.batch.wqes"), c("rdma.batch.doorbells"));
  double wire_ns = 0;
  for (const char* timer : {"rdma.read_ns", "rdma.write_ns", "rdma.cas_ns",
                            "rdma.faa_ns", "rdma.send_ns", "rdma.batch_ns"}) {
    wire_ns += HistSum(d, timer);
  }
  m["rdma.wire_busy_pct"] = 100 * Ratio(wire_ns, worker_ns);

  // src/store location cache.
  m["store.cache_hit_pct"] =
      100 * Ratio(c("cache.hit"), c("cache.hit") + c("cache.miss"));
  m["store.cache_installs_per_ktxn"] = 1000 * Ratio(c("cache.install"), txns);

  // src/txn protocol.
  m["txn.fallback_pct"] = 100 * Ratio(c("txn.fallback"), txns);
  m["txn.fallback_p50_us"] = HistPctUs(d, "phase.fallback_ns", 50);
  m["txn.lock_abort_pct"] = 100 * Ratio(c("txn.lock_abort"), attempts);
  m["txn.start_conflicts_per_txn"] = Ratio(c("txn.start_conflict"), txns);
  m["txn.lock_backoffs_per_txn"] = Ratio(c("txn.lock_backoff"), txns);
  m["txn.lock_acquire_p99_us"] = HistPctUs(d, "phase.lock_acquire_ns", 99);
  m["txn.commit_phase_p50_us"] = HistPctUs(d, "phase.commit_ns", 50);
  m["txn.lease_wait_p99_us"] = HistPctUs(d, "phase.lease_wait_ns", 99);
  m["txn.ro_retry_pct"] =
      100 * Ratio(c("txn.readonly.retry"), c("txn.readonly.commit"));
  m["txn.chop_pieces_per_chain"] =
      Ratio(c("txn.chop.pieces"), c("txn.chop.chains"));

  // src/txn/nvram_log.
  m["log.records_per_epoch"] =
      Ratio(c("log.epoch.records"), c("log.epoch.sealed"));
  m["log.flushes_per_txn"] = Ratio(c("log.epoch.flushed"), txns);
  m["log.bytes_per_txn"] = Ratio(c("log.append.bytes"), txns);
  m["log.append_p50_us"] = HistPctUs(d, "phase.log_append_ns", 50);
  m["log.segment_full_per_ktxn"] = 1000 * Ratio(c("log.segment_full"), txns);
  m["log.ack_p50_us"] = HistPctUs(d, "txn.durability.ack_ns", 50);
  m["log.ack_p99_us"] = HistPctUs(d, "txn.durability.ack_ns", 99);
  return m;
}

}  // namespace perfbench
