// The DrTM benchmark binary.
//
//   drtm_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                  [--out-dir <dir>]
//
// Sets the workload up (an untraced run times set-ups before and after
// the windows and reports their median), warms up for two
// seconds, then measures a closed loop of 2 nodes x 2 workers for
// --seconds. With --trace 0 the window is split into ten
// plain sub-windows and the end-to-end metrics are their medians; with
// --trace 1 a traced half sits between two plain quarters and the
// per-layer metrics are reported (registry delta, per-class spans,
// probes, tracing cost). Output checks run after the windows; if any
// fails the run reports no numbers and exits 1. The last line of stdout
// is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// With --out-dir the run also writes <workload>-trace<t>.json (seed,
// sample counts, every metric) and, when traced, the spans as Chrome
// trace-event JSON in <workload>-spans.json.
#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "src/bench_logic.h"
#include "src/closed_loop.h"
#include "src/workloads.h"

namespace perfbench {
namespace {

// An untraced run times set-ups on both sides of the windows: before
// them (the last set-up is the instance measured) and after them, each
// side repeating until it has spent kSetupSeconds and made at least
// kMinSetupsPerSide set-ups. On a shared host set-up time drifts in
// phases of about a second, so set-ups spread over both ends of the run
// see more of those phases than a short back-to-back burst would.
constexpr double kSetupSeconds = 3.0;
constexpr int kMinSetupsPerSide = 5;
constexpr int kSubWindows = 10;
constexpr double kWarmupSeconds = 2.0;
constexpr size_t kMaxTraceEvents = 100000;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  std::string out_dir;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
      continue;
    }
    if (flag == "--out-dir") {
      args->out_dir = value;
      continue;
    }
    if (flag == "--seed") {
      args->seed = std::strtoull(value, &end, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value, &end);
    } else if (flag == "--trace") {
      args->trace = static_cast<int>(std::strtol(value, &end, 10));
    } else {
      return false;
    }
    if (end == value || *end != '\0') {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && args->seconds > 0 &&
         args->seconds <= 600 && (args->trace == 0 || args->trace == 1);
}

std::string JsonNumber(double v) {
  char buf[64];
  const auto r = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, r.ptr);
}

std::string MetricsJson(const MetricMap& metrics) {
  std::string out = "{";
  for (const auto& [name, value] : metrics) {
    if (out.size() > 1) {
      out += ", ";
    }
    out += "\"" + name + "\": {\"value\": " + JsonNumber(value) +
           ", \"unit\": \"" + UnitOf(name) + "\"}";
  }
  return out + "}";
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

double Us(uint64_t ns) { return static_cast<double>(ns) / 1e3; }

// Per-class share of attempts and call-time percentiles of committed
// calls, from the traced window's spans. Every class of every workload
// is present; a class the workload does not run reads 0.
void AddClassMetrics(const Workload& workload, const std::vector<Span>& spans,
                     MetricMap* out) {
  const std::vector<std::string>& mine = workload.classes();
  std::vector<std::vector<uint64_t>> latency(mine.size());
  for (const Span& s : spans) {
    if (static_cast<drtm::txn::TxnStatus>(s.status) ==
        drtm::txn::TxnStatus::kCommitted) {
      latency[s.cls].push_back(s.end_ns - s.start_ns);
    }
  }
  for (const std::string& cls : AllClasses()) {
    (*out)["class." + cls + ".share_pct"] = 0;
    (*out)["class." + cls + ".lat_p50_us"] = 0;
    (*out)["class." + cls + ".lat_p99_us"] = 0;
  }
  std::vector<uint64_t> attempts(mine.size(), 0);
  for (const Span& s : spans) {
    ++attempts[s.cls];
  }
  for (size_t c = 0; c < mine.size(); ++c) {
    std::vector<uint64_t>& lat = latency[c];
    std::sort(lat.begin(), lat.end());
    const std::string base = "class." + mine[c];
    (*out)[base + ".share_pct"] =
        100 * Ratio(static_cast<double>(attempts[c]),
                    static_cast<double>(spans.size()));
    (*out)[base + ".lat_p50_us"] = Us(NearestRank(lat, 50));
    (*out)[base + ".lat_p99_us"] =
        Us(NearestRank(lat, SupportedPercentile(lat.size(), 99)));
  }
}

int Run(const Args& args) {
  // Set-up: cluster construction + Start + Load, timed. A traced run
  // sets up once; setup_s comes from the untraced runs.
  std::vector<double> setup_seconds;
  auto set_up = [&] {
    const auto begin = std::chrono::steady_clock::now();
    std::unique_ptr<Workload> w = MakeWorkload(args.workload);
    setup_seconds.push_back(
        std::chrono::duration<double>(std::chrono::steady_clock::now() - begin)
            .count());
    return w;
  };
  // Whether one side of the run has set up enough times.
  auto side_done = [&](size_t first) {
    double spent = 0;
    for (size_t i = first; i < setup_seconds.size(); ++i) {
      spent += setup_seconds[i];
    }
    return args.trace == 1 ||
           (setup_seconds.size() - first >= kMinSetupsPerSide &&
            spent >= kSetupSeconds);
  };
  std::unique_ptr<Workload> workload;
  do {
    workload.reset();
    workload = set_up();
    if (workload == nullptr) {
      std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
      return 2;
    }
  } while (!side_done(0));

  // Untraced: kSubWindows back-to-back plain windows, reported as
  // medians so that a burst of host noise moves one of them rather than
  // the result. Traced: a traced half between two plain quarters, so the
  // tracing cost is taken against plain throughput on both sides of it
  // (TPC-C's tables grow, which slows a run down as it goes).
  std::vector<WindowSpec> windows;
  if (args.trace == 0) {
    windows.assign(kSubWindows, {args.seconds / kSubWindows, false});
  } else {
    windows = {{args.seconds / 4, false},
               {args.seconds / 2, true},
               {args.seconds / 4, false}};
  }
  const std::vector<WindowResult> results =
      RunClosedLoop(*workload, args.seed, kWarmupSeconds, windows);

  WindowTotals all;
  std::vector<uint64_t> class_attempts(workload->classes().size(), 0);
  for (const WindowResult& r : results) {
    all.attempted += r.totals.attempted;
    all.committed += r.totals.committed;
    all.user_aborts += r.totals.user_aborts;
    all.failed += r.totals.failed;
    for (size_t c = 0; c < class_attempts.size(); ++c) {
      class_attempts[c] += r.class_attempts[c];
    }
  }

  std::vector<std::string> errors;
  std::string check_error;
  if (!workload->Check(class_attempts, args.seed, &check_error)) {
    errors.push_back(check_error);
  }

  // Per plain window: tps and the call-time percentiles.
  std::vector<double> tps, p50, p99, p999;
  double plain_seconds = 0;
  size_t samples = 0;
  for (size_t k = 0; k < results.size(); ++k) {
    const WindowResult& r = results[k];
    if (windows[k].traced) {
      continue;
    }
    if (HighestSupportedPercentile(r.latency.count()) < 99.9) {
      errors.push_back("a window has only " +
                       std::to_string(r.latency.count()) +
                       " committed samples; p99.9 needs 10000");
    }
    tps.push_back(
        Ratio(static_cast<double>(r.totals.committed), r.totals.seconds));
    p50.push_back(r.latency.Percentile(50) / 1e3);
    p99.push_back(r.latency.Percentile(99) / 1e3);
    p999.push_back(r.latency.Percentile(99.9) / 1e3);
    plain_seconds += r.totals.seconds;
    samples += r.latency.count();
    std::fprintf(stderr, "window %zu: tps=%.1f p50=%.3fus p99=%.3fus "
                 "p99.9=%.3fus\n", k, tps.back(), p50.back(), p99.back(),
                 p999.back());
  }
  const double plain_tps = Median(tps);
  MetricMap metrics;
  if (args.trace == 0) {
    metrics["tps"] = plain_tps;
    metrics["lat_p50_us"] = Median(p50);
    metrics["lat_p99_us"] = Median(p99);
    metrics["peak_rss_mb"] = PeakRssMb();
  } else {
    const WindowResult& traced = results[1];
    metrics = RegistryLayerMetrics(traced.delta, traced.totals);
    // The p99.9 of the plain quarters. It is reported without a bound:
    // on a shared 4-vCPU host it tracks vCPU preemption (see README).
    metrics["lat_p999_us"] = Median(p999);
    AddClassMetrics(*workload, traced.spans, &metrics);
    for (const auto& [name, value] : workload->Probe(args.seed)) {
      metrics[name] = value;
    }
    const double txns = static_cast<double>(traced.totals.committed);
    metrics["store.btree_keys_per_txn"] =
        Ratio(static_cast<double>(traced.ordered_keys_added), txns);
    const double attempted = static_cast<double>(all.attempted);
    metrics["failed_pct"] =
        100 * Ratio(static_cast<double>(all.failed), attempted);
    metrics["user_abort_pct"] =
        100 * Ratio(static_cast<double>(all.user_aborts), attempted);
    metrics["trace_overhead_pct"] =
        100 * (1 - Ratio(txns / traced.totals.seconds, plain_tps));
    if (!args.out_dir.empty()) {
      const std::string path =
          args.out_dir + "/" + args.workload + "-spans.json";
      if (!WriteChromeTrace(path, traced.spans, workload->classes(),
                            kMaxTraceEvents)) {
        errors.push_back("cannot write " + path);
      }
    }
  }
  for (const auto& [name, value] : metrics) {
    if (!std::isfinite(value)) {
      errors.push_back("metric " + name + " is not finite");
    }
  }
  workload.reset();
  if (args.trace == 0) {
    const size_t before = setup_seconds.size();
    do {
      set_up();
    } while (!side_done(before));
    metrics["setup_s"] = Median(setup_seconds);
  }

  // Human-readable report on stderr.
  std::fprintf(stderr, "setup_s per instance:");
  for (const double t : setup_seconds) {
    std::fprintf(stderr, " %.4f", t);
  }
  std::fprintf(stderr, "\n");
  std::fprintf(stderr,
               "workload=%s seed=%llu trace=%d window=%.3fs samples=%zu "
               "attempted=%llu committed=%llu user_aborts=%llu failed=%llu\n",
               args.workload.c_str(),
               static_cast<unsigned long long>(args.seed), args.trace,
               plain_seconds, samples,
               static_cast<unsigned long long>(all.attempted),
               static_cast<unsigned long long>(all.committed),
               static_cast<unsigned long long>(all.user_aborts),
               static_cast<unsigned long long>(all.failed));
  for (const auto& [name, value] : metrics) {
    std::fprintf(stderr, "  %-36s %14.4f %s\n", name.c_str(), value,
                 UnitOf(name).c_str());
  }
  for (const std::string& e : errors) {
    std::fprintf(stderr, "CHECK FAILED: %s\n", e.c_str());
  }

  const bool correct = errors.empty();
  const std::string metrics_json = correct ? MetricsJson(metrics) : "{}";
  if (!args.out_dir.empty()) {
    const std::string path = args.out_dir + "/" + args.workload + "-trace" +
                             std::to_string(args.trace) + ".json";
    if (std::FILE* f = std::fopen(path.c_str(), "w")) {
      std::fprintf(f,
                   "{\"workload\": \"%s\", \"seed\": %llu, \"trace\": %d, "
                   "\"window_s\": %s, \"latency_samples\": %zu, "
                   "\"committed\": %llu, \"user_aborts\": %llu, "
                   "\"metrics\": %s}\n",
                   args.workload.c_str(),
                   static_cast<unsigned long long>(args.seed), args.trace,
                   JsonNumber(plain_seconds).c_str(), samples,
                   static_cast<unsigned long long>(all.committed),
                   static_cast<unsigned long long>(all.user_aborts),
                   metrics_json.c_str());
      std::fclose(f);
    }
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(all.attempted),
              static_cast<unsigned long long>(all.failed),
              metrics_json.c_str());
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: %s --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--out-dir <dir>]\n",
                 argv[0]);
    return 2;
  }
  return perfbench::Run(args);
}
