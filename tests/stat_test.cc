// Telemetry subsystem tests: registry counter/timer semantics under
// threads, snapshot/delta windows, RTM abort-taxonomy classification
// from raw status bits, JSON round-trips, and the BENCH_* report schema.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <thread>
#include <vector>

#include "src/stat/abort_taxonomy.h"
#include "src/stat/bench_report.h"
#include "src/stat/json.h"
#include "src/stat/metrics.h"
#include "src/stat/timer.h"

namespace drtm {
namespace stat {
namespace {

TEST(Registry, CounterIdIsIdempotent) {
  Registry registry;
  const uint32_t a = registry.CounterId("test.a");
  const uint32_t b = registry.CounterId("test.b");
  EXPECT_NE(a, b);
  EXPECT_EQ(a, registry.CounterId("test.a"));
  EXPECT_EQ(registry.num_counters(), 2u);
}

TEST(Registry, CountersSumAcrossThreads) {
  Registry registry;
  const uint32_t id = registry.CounterId("test.threaded");
  constexpr int kThreads = 8;
  constexpr uint64_t kPerThread = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (uint64_t i = 0; i < kPerThread; ++i) {
        registry.Add(id);
      }
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  EXPECT_EQ(registry.TakeSnapshot().Counter("test.threaded"),
            kThreads * kPerThread);
}

TEST(Registry, CountsFromJoinedThreadsPersist) {
  Registry registry;
  const uint32_t id = registry.CounterId("test.joined");
  std::thread worker([&] { registry.Add(id, 7); });
  worker.join();
  EXPECT_EQ(registry.TakeSnapshot().Counter("test.joined"), 7u);
}

TEST(Registry, SnapshotWhileRecording) {
  Registry registry;
  const uint32_t counter = registry.CounterId("test.live");
  const uint32_t timer = registry.TimerId("test.live_ns");
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    while (!stop.load(std::memory_order_acquire)) {
      registry.Add(counter);
      registry.Record(timer, 100);
    }
  });
  uint64_t last_count = 0;
  uint64_t last_hist = 0;
  for (int i = 0; i < 50; ++i) {
    const Snapshot snap = registry.TakeSnapshot();
    const uint64_t count = snap.Counter("test.live");
    EXPECT_GE(count, last_count);  // monotone across snapshots
    last_count = count;
    const Histogram* hist = snap.Hist("test.live_ns");
    ASSERT_NE(hist, nullptr);
    EXPECT_GE(hist->count(), last_hist);
    last_hist = hist->count();
  }
  stop.store(true);
  writer.join();
}

TEST(Registry, DeltaSinceSubtractsWindow) {
  Registry registry;
  const uint32_t counter = registry.CounterId("test.win");
  const uint32_t timer = registry.TimerId("test.win_ns");
  registry.Add(counter, 5);
  registry.Record(timer, 10);
  registry.Record(timer, 20);
  const Snapshot begin = registry.TakeSnapshot();
  registry.Add(counter, 3);
  registry.Record(timer, 30);
  const Snapshot delta = registry.TakeSnapshot().DeltaSince(begin);
  EXPECT_EQ(delta.Counter("test.win"), 3u);
  const Histogram* hist = delta.Hist("test.win_ns");
  ASSERT_NE(hist, nullptr);
  EXPECT_EQ(hist->count(), 1u);
}

TEST(Registry, DeltaKeepsLateRegisteredNames) {
  Registry registry;
  registry.Add(registry.CounterId("test.early"), 2);
  const Snapshot begin = registry.TakeSnapshot();
  registry.Add(registry.CounterId("test.late"), 9);
  const Snapshot delta = registry.TakeSnapshot().DeltaSince(begin);
  EXPECT_EQ(delta.Counter("test.early"), 0u);
  EXPECT_EQ(delta.Counter("test.late"), 9u);
}

TEST(Registry, MergeAccumulates) {
  Registry registry;
  const uint32_t counter = registry.CounterId("test.merge");
  const uint32_t timer = registry.TimerId("test.merge_ns");
  registry.Add(counter, 4);
  registry.Record(timer, 50);
  Snapshot a = registry.TakeSnapshot();
  const Snapshot b = registry.TakeSnapshot();
  a.Merge(b);
  EXPECT_EQ(a.Counter("test.merge"), 8u);
  EXPECT_EQ(a.Hist("test.merge_ns")->count(), 2u);
}

TEST(Registry, GaugesSetAddAndSnapshot) {
  Registry registry;
  const uint32_t id = registry.GaugeId("test.level");
  EXPECT_EQ(id, registry.GaugeId("test.level"));
  EXPECT_EQ(registry.num_gauges(), 1u);
  registry.GaugeSet(id, 10);
  registry.GaugeAdd(id, 5);
  registry.GaugeAdd(id, -12);  // levels move both ways
  EXPECT_EQ(registry.GaugeValue(id), 3);
  EXPECT_EQ(registry.TakeSnapshot().Gauge("test.level"), 3);
  EXPECT_EQ(registry.TakeSnapshot().Gauge("test.unregistered"), 0);
}

TEST(Registry, GaugesNetAcrossThreads) {
  Registry registry;
  const uint32_t id = registry.GaugeId("test.net");
  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 1000; ++i) {
        registry.GaugeAdd(id, 1);
        registry.GaugeAdd(id, -1);
      }
      registry.GaugeAdd(id, 1);
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  EXPECT_EQ(registry.GaugeValue(id), kThreads);
}

TEST(Registry, DeltaKeepsGaugeLevels) {
  Registry registry;
  const uint32_t id = registry.GaugeId("test.occupancy");
  registry.GaugeSet(id, 100);
  const Snapshot begin = registry.TakeSnapshot();
  registry.GaugeSet(id, 40);
  // Gauges are levels, not rates: a delta window reports the later
  // snapshot's level verbatim, never the (meaningless) difference.
  const Snapshot delta = registry.TakeSnapshot().DeltaSince(begin);
  EXPECT_EQ(delta.Gauge("test.occupancy"), 40);
}

TEST(Registry, MergeTakesLatestGauge) {
  Registry registry;
  const uint32_t id = registry.GaugeId("test.depth");
  registry.GaugeSet(id, 7);
  Snapshot a = registry.TakeSnapshot();
  registry.GaugeSet(id, 9);
  const Snapshot b = registry.TakeSnapshot();
  a.Merge(b);
  EXPECT_EQ(a.Gauge("test.depth"), 9);
}

TEST(ScopedTimer, RecordsAndCancels) {
  Registry registry;
  const uint32_t id = registry.TimerId("test.scope_ns");
  { ScopedTimer timer(id, &registry); }
  {
    ScopedTimer timer(id, &registry);
    timer.Cancel();
  }
  EXPECT_EQ(registry.TakeSnapshot().Hist("test.scope_ns")->count(), 1u);
}

// --- abort taxonomy ----------------------------------------------------------

TEST(AbortTaxonomy, ClassifiesRawRtmBits) {
  EXPECT_EQ(ClassifyRtmStatus(kRtmConflictBit), AbortCause::kConflict);
  EXPECT_EQ(ClassifyRtmStatus(kRtmConflictBit | kRtmRetryBit),
            AbortCause::kConflict);
  EXPECT_EQ(ClassifyRtmStatus(kRtmCapacityBit), AbortCause::kCapacity);
  // Capacity wins over the conflict bit it is usually reported with.
  EXPECT_EQ(ClassifyRtmStatus(kRtmCapacityBit | kRtmConflictBit),
            AbortCause::kCapacity);
  EXPECT_EQ(ClassifyRtmStatus(kRtmExplicitBit | (7u << 24)),
            AbortCause::kExplicit);
  EXPECT_EQ(ClassifyRtmStatus(kRtmRetryBit), AbortCause::kRetry);
  EXPECT_EQ(ClassifyRtmStatus(0), AbortCause::kUnknown);
  EXPECT_EQ(RtmUserCode(kRtmExplicitBit | (7u << 24)), 7u);
}

TEST(AbortTaxonomy, RecordsOutcomesIntoCounters) {
  Registry registry;
  RecordHtmOutcome(~0u, &registry);  // commit
  RecordHtmOutcome(kRtmConflictBit, &registry);
  RecordHtmOutcome(kRtmCapacityBit | kRtmConflictBit, &registry);
  RecordHtmOutcome(kRtmExplicitBit | (3u << 24), &registry);
  const Snapshot snap = registry.TakeSnapshot();
  EXPECT_EQ(snap.Counter("htm.commit"), 1u);
  EXPECT_EQ(snap.Counter("htm.abort.total"), 3u);
  EXPECT_EQ(snap.Counter("htm.abort.conflict"), 1u);
  EXPECT_EQ(snap.Counter("htm.abort.capacity"), 1u);
  EXPECT_EQ(snap.Counter("htm.abort.explicit"), 1u);
  EXPECT_EQ(snap.Counter("htm.abort.explicit.code3"), 1u);
  EXPECT_EQ(snap.Counter("htm.abort.retry"), 0u);
}

// --- JSON --------------------------------------------------------------------

TEST(Json, RoundTripsValues) {
  Json root = Json::Object();
  root.Set("int", Json::Number(uint64_t{1234567}));
  root.Set("float", Json::Number(2.5));
  root.Set("text", Json::Str("a\"b\\c\n"));
  root.Set("flag", Json::Bool(true));
  Json arr = Json::Array();
  arr.Append(Json::Number(1));
  arr.Append(Json::Null());
  root.Set("arr", std::move(arr));

  Json parsed;
  ASSERT_TRUE(Json::Parse(root.Dump(/*pretty=*/true), &parsed));
  EXPECT_EQ(parsed.Find("int")->AsNumber(), 1234567);
  EXPECT_EQ(parsed.Find("float")->AsNumber(), 2.5);
  EXPECT_EQ(parsed.Find("text")->AsString(), "a\"b\\c\n");
  EXPECT_TRUE(parsed.Find("flag")->AsBool());
  EXPECT_EQ(parsed.Find("arr")->size(), 2u);
}

TEST(Json, RejectsMalformedInput) {
  Json out;
  EXPECT_FALSE(Json::Parse("{", &out));
  EXPECT_FALSE(Json::Parse("[1,]", &out));
  EXPECT_FALSE(Json::Parse("{\"a\":1} trailing", &out));
  EXPECT_FALSE(Json::Parse("nul", &out));
}

// --- bench report schema -----------------------------------------------------

Snapshot MakeStats() {
  Registry registry;
  RecordHtmOutcome(kRtmConflictBit, &registry);
  RecordHtmOutcome(kRtmExplicitBit | (1u << 24), &registry);
  registry.Add(registry.CounterId("txn.fallback"), 2);
  registry.Record(registry.TimerId("phase.htm_attempt_ns"), 1500);
  registry.Record(registry.TimerId("phase.commit_ns"), 900);
  registry.Record(registry.TimerId("phase.fallback_ns"), 12000);
  registry.GaugeSet(registry.GaugeId("cache.occupied_entries"), 77);
  return registry.TakeSnapshot();
}

TEST(BenchReport, EmitsSchemaV1) {
  BenchReport report;
  report.bench = "unit";
  report.title = "unit test report";
  report.AddConfig("threads", "4");
  BenchReport::Series& series = report.AddSeries("tput");
  series.points.push_back(
      BenchReport::Point{{{"threads", "4"}}, {{"tps", 123.5}}});
  report.stats = MakeStats();

  Json parsed;
  ASSERT_TRUE(Json::Parse(report.ToJson().Dump(), &parsed));
  EXPECT_EQ(parsed.Find("schema_version")->AsNumber(), 1);
  EXPECT_EQ(parsed.Find("bench")->AsString(), "unit");
  EXPECT_EQ(parsed.Find("config")->Find("threads")->AsString(), "4");

  const Json* series_json = parsed.Find("series");
  ASSERT_EQ(series_json->size(), 1u);
  const Json& point = series_json->at(0).Find("points")->at(0);
  EXPECT_EQ(point.Find("labels")->Find("threads")->AsString(), "4");
  EXPECT_EQ(point.Find("values")->Find("tps")->AsNumber(), 123.5);

  // All six abort-cause keys, always.
  const Json* causes = parsed.Find("abort_causes");
  for (const char* key :
       {"explicit", "retry", "conflict", "capacity", "fallback", "user"}) {
    ASSERT_TRUE(causes->Has(key)) << key;
  }
  EXPECT_EQ(causes->Find("conflict")->AsNumber(), 1);
  EXPECT_EQ(causes->Find("explicit")->AsNumber(), 1);
  EXPECT_EQ(causes->Find("fallback")->AsNumber(), 2);

  // Histogram entries carry the full quantile block.
  const Json* hist = parsed.Find("histograms")->Find("phase.htm_attempt_ns");
  ASSERT_NE(hist, nullptr);
  for (const char* key :
       {"count", "min", "max", "mean", "p50", "p90", "p99", "p999"}) {
    ASSERT_TRUE(hist->Has(key)) << key;
  }
  EXPECT_EQ(hist->Find("count")->AsNumber(), 1);

  // Gauge levels ride along as their own block.
  const Json* gauges = parsed.Find("gauges");
  ASSERT_NE(gauges, nullptr);
  EXPECT_EQ(gauges->Find("cache.occupied_entries")->AsNumber(), 77);
}

TEST(BenchReport, WritesFileAndRoundTrips) {
  BenchReport report;
  report.bench = "unit_file";
  report.title = "file round trip";
  report.stats = MakeStats();
  const char* dir = std::getenv("TEST_TMPDIR");
  const std::string path = report.WriteJsonFile(dir != nullptr ? dir : ".");
  ASSERT_FALSE(path.empty());
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream text;
  text << in.rdbuf();
  Json parsed;
  EXPECT_TRUE(Json::Parse(text.str(), &parsed));
  EXPECT_EQ(parsed.Find("bench")->AsString(), "unit_file");
  std::remove(path.c_str());
}

}  // namespace
}  // namespace stat
}  // namespace drtm
