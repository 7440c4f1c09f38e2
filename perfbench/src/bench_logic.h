// Pure helpers of the benchmark: the percentile rule, zero-safe ratios,
// per-worker seed mixing, and the per-layer metrics derived from a
// stat::Registry delta. Kept free of threads and clusters so the unit
// tests can drive them with hand-built inputs.
#ifndef PERFBENCH_SRC_BENCH_LOGIC_H_
#define PERFBENCH_SRC_BENCH_LOGIC_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/stat/metrics.h"

namespace perfbench {

namespace stat = drtm::stat;

using MetricMap = std::map<std::string, double>;

// A percentile is reported only when at least this many samples lie
// beyond it.
inline constexpr uint64_t kMinSamplesBeyond = 10;

// Number of samples strictly above the nearest-rank p-th percentile of
// n samples.
uint64_t SamplesBeyond(uint64_t n, double p);

// The highest of 99.99, 99.9, 99, 90 and 50 that has at least
// kMinSamplesBeyond samples beyond it; 0 when even the median does not.
double HighestSupportedPercentile(uint64_t n);

// min(p, HighestSupportedPercentile(n)).
double SupportedPercentile(uint64_t n, double p);

// Nearest-rank p-th percentile of ascending samples; 0 when empty.
uint64_t NearestRank(const std::vector<uint64_t>& sorted, double p);

// Fixed-size log-linear histogram of nanosecond call times. Values below
// 2^kExactBits ns are counted exactly; above, each octave has
// 2^(kExactBits - 1) buckets, so a bucket spans at most 0.2% of its
// values. Values at or above 2^kMaxBits ns land in the last bucket. Its
// memory does not depend on how many values it holds, so the benchmark's
// own share of the process's peak RSS stays the same at any throughput.
class LatencyHistogram {
 public:
  static constexpr int kExactBits = 10;
  static constexpr int kMaxBits = 36;  // ~69 s

  LatencyHistogram();

  void Add(uint64_t ns);
  void Merge(const LatencyHistogram& other);
  uint64_t count() const { return count_; }

  // Nearest-rank p-th percentile, interpolated linearly by rank inside
  // its bucket; 0 when empty.
  double Percentile(double p) const;

  static size_t BucketOf(uint64_t ns);
  // Smallest value of bucket b and the number of values it spans.
  static uint64_t BucketLower(size_t b);
  static uint64_t BucketWidth(size_t b);
  static size_t NumBuckets();

 private:
  std::vector<uint64_t> counts_;
  uint64_t count_ = 0;
};

// num / den, or 0 when den is 0.
double Ratio(double num, double den);

// Median of the values (mean of the middle two for an even count).
double Median(std::vector<double> values);

// Seed of worker (node, worker) for benchmark seed `seed`: distinct
// workers get unrelated streams, and the same triple always the same.
uint64_t MixSeed(uint64_t seed, int node, int worker);

// Unit of a metric, from its name's suffix: "_pct" -> "%", "_us" ->
// "us", "_per_txn" -> "1/txn", "tps" -> "1/s", and so on; "count" when
// no suffix matches.
std::string UnitOf(const std::string& metric);

// Outcome counts of one measured window.
struct WindowTotals {
  uint64_t attempted = 0;
  uint64_t committed = 0;
  uint64_t user_aborts = 0;  // body returned false (TPC-C's 1% rollback)
  uint64_t failed = 0;       // kAborted + kNodeFailure
  double seconds = 0;
  int threads = 0;
};

// The per-layer metrics backed by the registry delta of one window:
// htm.*, rdma.*, store.cache_*, txn.* and log.*. Every name is always
// present; a ratio whose base is zero (e.g. log.* with logging off)
// reads 0.
MetricMap RegistryLayerMetrics(const stat::Snapshot& delta,
                               const WindowTotals& window);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_BENCH_LOGIC_H_
