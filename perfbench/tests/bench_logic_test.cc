// Tests of the benchmark's own logic: the percentile rule, the per-layer
// ratios with zero bases, metric units, and seed determinism of the
// generated transaction stream.
#include <algorithm>
#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "src/bench_logic.h"
#include "src/common/rand.h"
#include "src/txn/cluster.h"
#include "src/txn/transaction.h"
#include "src/workload/smallbank.h"

namespace perfbench {
namespace {

TEST(PercentileRule, SamplesBeyondNearestRank) {
  EXPECT_EQ(SamplesBeyond(10000, 99.9), 10u);
  EXPECT_EQ(SamplesBeyond(1000, 99), 10u);
  EXPECT_EQ(SamplesBeyond(100, 50), 50u);
  EXPECT_EQ(SamplesBeyond(0, 50), 0u);
}

TEST(PercentileRule, HighestPercentileWithTenBeyond) {
  EXPECT_EQ(HighestSupportedPercentile(100000), 99.99);
  EXPECT_EQ(HighestSupportedPercentile(10000), 99.9);
  EXPECT_EQ(HighestSupportedPercentile(9999), 99.0);
  EXPECT_EQ(HighestSupportedPercentile(1000), 99.0);
  EXPECT_EQ(HighestSupportedPercentile(999), 90.0);
  EXPECT_EQ(HighestSupportedPercentile(20), 50.0);
  EXPECT_EQ(HighestSupportedPercentile(19), 0.0);
  EXPECT_EQ(SupportedPercentile(500, 99), 90.0);
  EXPECT_EQ(SupportedPercentile(50000, 99), 99.0);
}

TEST(PercentileRule, NearestRankOnSortedSamples) {
  std::vector<uint64_t> sorted;
  for (uint64_t i = 1; i <= 1000; ++i) {
    sorted.push_back(i);
  }
  EXPECT_EQ(NearestRank(sorted, 50), 500u);
  EXPECT_EQ(NearestRank(sorted, 99), 990u);
  EXPECT_EQ(NearestRank(sorted, 99.9), 999u);
  EXPECT_EQ(NearestRank(sorted, 100), 1000u);
  EXPECT_EQ(NearestRank({}, 50), 0u);
}

TEST(LatencyHistogram, BucketsTileTheRange) {
  for (size_t b = 0; b < LatencyHistogram::NumBuckets(); ++b) {
    const uint64_t lower = LatencyHistogram::BucketLower(b);
    const uint64_t width = LatencyHistogram::BucketWidth(b);
    ASSERT_EQ(LatencyHistogram::BucketOf(lower), b);
    ASSERT_EQ(LatencyHistogram::BucketOf(lower + width - 1), b);
    // A bucket spans at most 0.2% of its smallest value.
    ASSERT_LE(static_cast<double>(width - 1), 0.002 * static_cast<double>(lower))
        << b;
    if (b + 1 < LatencyHistogram::NumBuckets()) {
      ASSERT_EQ(LatencyHistogram::BucketLower(b + 1), lower + width);
    }
  }
  const uint64_t max = uint64_t{1} << LatencyHistogram::kMaxBits;
  EXPECT_EQ(LatencyHistogram::BucketOf(max),
            LatencyHistogram::NumBuckets() - 1);
}

TEST(LatencyHistogram, PercentilesTrackNearestRank) {
  LatencyHistogram small;
  for (uint64_t i = 1; i <= 1000; ++i) {
    small.Add(i);  // all in the exact range
  }
  EXPECT_EQ(small.count(), 1000u);
  EXPECT_EQ(small.Percentile(50), 500);
  EXPECT_EQ(small.Percentile(99.9), 999);
  EXPECT_EQ(LatencyHistogram().Percentile(50), 0);

  // Spread over five decades, split across two merged histograms.
  std::vector<uint64_t> values;
  LatencyHistogram a, b;
  drtm::Xoshiro256 rng(7);
  for (int i = 0; i < 50000; ++i) {
    const uint64_t v = 100 + rng.NextBounded(1000) *
                                 (uint64_t{1} << rng.NextBounded(14));
    values.push_back(v);
    (i % 2 == 0 ? a : b).Add(v);
  }
  a.Merge(b);
  EXPECT_EQ(a.count(), values.size());
  std::sort(values.begin(), values.end());
  for (const double p : {50.0, 90.0, 99.0, 99.9}) {
    const double exact = static_cast<double>(NearestRank(values, p));
    EXPECT_NEAR(a.Percentile(p), exact, 0.002 * exact) << p;
  }
}

TEST(LayerRatios, ZeroBasesReadZero) {
  EXPECT_EQ(Ratio(5, 0), 0);
  // An empty delta and an empty window: every metric present and 0.
  const MetricMap empty = RegistryLayerMetrics(stat::Snapshot(), WindowTotals());
  EXPECT_GT(empty.size(), 30u);
  for (const auto& [name, value] : empty) {
    EXPECT_EQ(value, 0) << name;
  }
}

TEST(LayerRatios, LoggingOffLeavesLogMetricsZero) {
  stat::Snapshot delta;
  delta.counters["rdma.read.ops"] = 30;
  delta.counters["rdma.batch.doorbells"] = 4;
  delta.counters["rdma.batch.wqes"] = 10;
  delta.counters["cache.hit"] = 1;
  delta.counters["cache.miss"] = 3;
  delta.histograms["phase.htm_attempt_ns"].Record(1000);
  delta.histograms["phase.htm_attempt_ns"].Record(3000);
  WindowTotals window;
  window.committed = 10;
  window.seconds = 1;
  window.threads = 4;
  const MetricMap m = RegistryLayerMetrics(delta, window);
  EXPECT_DOUBLE_EQ(m.at("rdma.reads_per_txn"), 3.0);
  EXPECT_DOUBLE_EQ(m.at("rdma.wqes_per_doorbell"), 2.5);
  EXPECT_DOUBLE_EQ(m.at("store.cache_hit_pct"), 25.0);
  EXPECT_DOUBLE_EQ(m.at("htm.attempts_per_txn"), 0.2);
  // 4000 ns busy over 4 threads x 1 s.
  EXPECT_DOUBLE_EQ(m.at("htm.busy_pct"), 100 * 4000 / 4e9);
  for (const auto& [name, value] : m) {
    EXPECT_TRUE(std::isfinite(value)) << name;
    if (name.rfind("log.", 0) == 0) {
      EXPECT_EQ(value, 0) << name;
    }
  }
}

TEST(Units, FromSuffix) {
  EXPECT_EQ(UnitOf("tps"), "1/s");
  EXPECT_EQ(UnitOf("lat_p999_us"), "us");
  EXPECT_EQ(UnitOf("setup_s"), "s");
  EXPECT_EQ(UnitOf("peak_rss_mb"), "MB");
  EXPECT_EQ(UnitOf("probe.hash_get_ns"), "ns");
  EXPECT_EQ(UnitOf("htm.busy_pct"), "%");
  EXPECT_EQ(UnitOf("rdma.cas_per_txn"), "1/txn");
  EXPECT_EQ(UnitOf("log.segment_full_per_ktxn"), "1/ktxn");
  EXPECT_EQ(UnitOf("store.reads_per_remote_lookup"), "1/lookup");
}

TEST(SeedDeterminism, MixSeedSeparatesWorkers) {
  EXPECT_EQ(MixSeed(7, 1, 0), MixSeed(7, 1, 0));
  EXPECT_NE(MixSeed(7, 1, 0), MixSeed(8, 1, 0));
  EXPECT_NE(MixSeed(7, 1, 0), MixSeed(7, 0, 1));
  EXPECT_NE(MixSeed(7, 0, 0), MixSeed(7, 0, 1));
}

// The transaction stream one reseeded worker generates on a fresh
// database: class sequence plus final money total.
struct Stream {
  std::vector<int> classes;
  int64_t money = 0;
};

Stream SmallBankStream(uint64_t seed) {
  drtm::txn::ClusterConfig config;
  config.num_nodes = 2;
  config.workers_per_node = 1;
  config.region_bytes = size_t{16} << 20;
  drtm::txn::Cluster cluster(config);
  drtm::workload::SmallBankDb::Params params;
  params.accounts_per_node = 500;
  params.hot_accounts_per_node = 20;
  params.cross_node_probability = 0.1;
  drtm::workload::SmallBankDb db(&cluster, params);
  cluster.Start();
  db.Load();
  Stream stream;
  {
    drtm::txn::Worker worker(&cluster, 0, 0);
    worker.rng().Seed(MixSeed(seed, 0, 0));
    for (int i = 0; i < 400; ++i) {
      const auto r = db.RunMix(&worker);
      EXPECT_EQ(r.status, drtm::txn::TxnStatus::kCommitted);
      stream.classes.push_back(static_cast<int>(r.type));
    }
  }
  stream.money = db.TotalMoney();
  cluster.Stop();
  return stream;
}

TEST(SeedDeterminism, SameSeedSameOpStream) {
  const Stream a = SmallBankStream(11);
  const Stream b = SmallBankStream(11);
  const Stream c = SmallBankStream(12);
  EXPECT_EQ(a.classes, b.classes);
  EXPECT_EQ(a.money, b.money);
  EXPECT_NE(a.classes, c.classes);
}

}  // namespace
}  // namespace perfbench
