// perfbench: the repository benchmark.
//
//   perfbench --workload paper-analytics|serve-genealogy|serve-churn-1m
//             --seed N --seconds S --trace 0|1 [--workdir DIR]
//
// With --trace 0 the last stdout line carries the end-to-end metrics;
// with --trace 1 it carries the per-layer metrics, measured from a
// traced phase that follows an untraced one of the same length (their
// difference is the tracing overhead). Lines before it ("# key value")
// hold the run stamp, sample counts and per-family breakdowns. The exit
// code is non-zero on any correctness mismatch.

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <limits>
#include <string>

#include "workloads.h"

namespace perfbench {
namespace {

/// Per-layer metrics of the traced run that go on the result line, in
/// output order. Every workload reports each of them: a layer a
/// workload leaves idle reports 0, so the only absolute times here are
/// those of layers every workload runs (parse, eval); the time of the
/// other layers appears as its share of the latency it belongs to
/// (per op class, per write, per set-up). The absolute per-layer times
/// are printed as "# layer.<name>" report lines.
struct LayerMetricSpec {
  const char* name;
  const char* unit;
};
constexpr LayerMetricSpec kLayerMetrics[] = {
    {"parser.parse_us", "us"},
    {"eval.eval_us", "us"},
    {"semopt.optimize_pct", "%"},
    {"semopt.sequences_unfolded", "count"},
    {"semopt.applied", "count"},
    {"magic.rewrite_pct", "%"},
    {"eval.rounds", "count"},
    {"eval.bindings", "count"},
    {"eval.derived", "count"},
    {"eval.dups", "count"},
    {"eval.plan_hit_ratio", "ratio"},
    {"eval.plan_lookups", "count"},
    {"eval.answers_per_derived", "ratio"},
    {"exec.morsels", "count"},
    {"exec.steal_ratio", "ratio"},
    {"server.queue_wait_pct", "%"},
    {"server.eval_pct", "%"},
    {"protocol.overhead_pct", "%"},
    {"ivm.maintenance_pct", "%"},
    {"ivm.overdeleted", "count"},
    {"ivm.recounted", "count"},
    {"ivm.rederived", "count"},
    {"snapshot.relations_cloned", "count"},
    {"snapshot.live_generations", "count"},
    {"storage.tuples_bytes", "bytes"},
    {"io.bulk_load_pct", "%"},
    {"trace.overhead_heavy_p50_pct", "%"},
    {"trace.overhead_ops_pct", "%"},
};

int Usage() {
  std::cerr << "usage: perfbench --workload paper-analytics|serve-genealogy|"
               "serve-churn-1m --seed N --seconds S --trace 0|1 "
               "[--workdir DIR]\n";
  return 2;
}

}  // namespace

void PhaseResult::Merge(const PhaseResult& other) {
  heavy.Merge(other.heavy);
  light.Merge(other.light);
  done_at.insert(done_at.end(), other.done_at.begin(), other.done_at.end());
  attempted += other.attempted;
  failed += other.failed;
}

void TimedSamples::Merge(const TimedSamples& other) {
  at_.insert(at_.end(), other.at_.begin(), other.at_.end());
  values_.insert(values_.end(), other.values_.begin(), other.values_.end());
}

double TimedSamples::WindowedQuantile(double q, double seconds) const {
  if (values_.empty() || seconds <= 0) return 0;
  const double beyond = static_cast<double>(values_.size()) * (1 - q);
  const size_t windows =
      std::clamp<size_t>(static_cast<size_t>(beyond / 10), 1, 10);
  std::vector<Samples> split(windows);
  for (size_t i = 0; i < values_.size(); ++i) {
    const size_t w = static_cast<size_t>(at_[i] / seconds *
                                         static_cast<double>(windows));
    split[std::min(w, windows - 1)].Add(values_[i]);
  }
  std::vector<double> per_window;
  for (const Samples& s : split) {
    if (s.count() > 0) per_window.push_back(s.Quantile(q));
  }
  return InterquartileMean(per_window);
}

void PhaseResult::Fail(bool heavy_op, double at_s) {
  ++failed;
  (heavy_op ? heavy : light)
      .Add(at_s, std::numeric_limits<double>::infinity());
}

double PhaseResult::OpsPerSecond() const {
  // Window k runs from the first completion at or after second k to the
  // first completion at or after second k+1; its rate is the ops in
  // between over that exact span.
  std::vector<double> t = done_at;
  std::sort(t.begin(), t.end());
  std::vector<double> rates;
  size_t begin = 0;
  for (double edge = 1; edge <= seconds; edge += 1) {
    const size_t end = static_cast<size_t>(
        std::lower_bound(t.begin(), t.end(), edge) - t.begin());
    if (end >= t.size()) break;
    if (end > begin && t[end] > t[begin]) {
      rates.push_back(static_cast<double>(end - begin) / (t[end] - t[begin]));
    }
    begin = end;
  }
  if (rates.empty()) return static_cast<double>(completed()) / seconds;
  return InterquartileMean(rates);
}

PhaseClock::PhaseClock(double seconds, uint64_t min_heavy, uint64_t min_light)
    : start_ns_(NowNs()), seconds_(seconds), min_heavy_(min_heavy),
      min_light_(min_light) {}

bool PhaseClock::Running() const {
  const double elapsed = Elapsed();
  if (elapsed < seconds_) return true;
  if (elapsed >= 3 * seconds_) return false;
  return heavy_.load(std::memory_order_relaxed) < min_heavy_ ||
         light_.load(std::memory_order_relaxed) < min_light_;
}

SetupTimer::SetupTimer(std::string workload, int repeats,
                       std::function<semopt::Status()> set_up, Report* report)
    : workload_(std::move(workload)), repeats_(repeats),
      set_up_(std::move(set_up)) {
  report->Note("stamp.setup_repeats", std::to_string(repeats));
}

bool SetupTimer::Run(int n) {
  for (int r = 0; r < n; ++r) {
    const uint64_t t0 = NowNs();
    const semopt::Status st = set_up_();
    times_.push_back(SecondsSince(t0));
    if (!st.ok()) {
      std::cerr << workload_ << " set-up: " << st.ToString() << "\n";
      return false;
    }
  }
  return true;
}

void ReportEndToEnd(Report* report, const std::vector<double>& setup_times,
                    const PhaseResult& phase, double peak_rss_mb) {
  std::string all;
  for (double t : setup_times) {
    if (!all.empty()) all += ' ';
    all += Num(t);
  }
  report->Note("setup.samples_s", all);
  report->Metric("setup_s", Median(setup_times), "s");
  report->Metric("ops_per_s", phase.OpsPerSecond(), "1/s");
  const double s = phase.seconds;
  report->Metric("heavy_p50_ms", phase.heavy.WindowedQuantile(0.5, s) / 1e6,
                 "ms");
  report->Metric("heavy_p90_ms", phase.heavy.WindowedQuantile(0.9, s) / 1e6,
                 "ms");
  report->Metric("light_p50_us", phase.light.WindowedQuantile(0.5, s) / 1e3,
                 "us");
  report->Metric("light_p90_us", phase.light.WindowedQuantile(0.9, s) / 1e3,
                 "us");
  report->Metric("peak_rss_mb", peak_rss_mb, "MB");
}

void NoteSamples(Report* report, const std::string& prefix,
                 const PhaseResult& phase) {
  report->Note(prefix + ".heavy_samples", std::to_string(phase.heavy.count()));
  report->Note(prefix + ".light_samples", std::to_string(phase.light.count()));
  report->Note(prefix + ".attempted", std::to_string(phase.attempted));
  report->Note(prefix + ".failed", std::to_string(phase.failed));
  report->Note(prefix + ".failed_ratio",
               phase.attempted == 0 ? 0.0
                                    : static_cast<double>(phase.failed) /
                                          static_cast<double>(phase.attempted));
  report->Note(prefix + ".seconds", phase.seconds);
  for (auto [name, samples] :
       {std::pair<const char*, const TimedSamples*>{"heavy", &phase.heavy},
        {"light", &phase.light}}) {
    if (!samples->SupportsTail(0.9)) {
      report->Note(prefix + ".warning", std::string(name) +
                                            " p90 has fewer than 10 samples "
                                            "beyond it");
    }
  }
}

void AddOverhead(LayerMetrics* layers, const PhaseResult& untraced,
                 const PhaseResult& traced) {
  const double base_p50 = untraced.heavy.WindowedQuantile(0.5, untraced.seconds);
  const double p50 = traced.heavy.WindowedQuantile(0.5, traced.seconds);
  const double base_ops = untraced.OpsPerSecond();
  const double ops = traced.OpsPerSecond();
  (*layers)["trace.overhead_heavy_p50_pct"] =
      base_p50 > 0 ? (p50 / base_p50 - 1) * 100 : 0;
  (*layers)["trace.overhead_ops_pct"] =
      base_ops > 0 ? (1 - ops / base_ops) * 100 : 0;
}

double Percent(double part, double whole) {
  return whole == 0 ? 0 : 100 * part / whole;
}

void ReportPerLayer(Report* report, const LayerMetrics& layers) {
  auto listed = [](const std::string& name) {
    for (const LayerMetricSpec& spec : kLayerMetrics) {
      if (name == spec.name) return true;
    }
    return false;
  };
  for (const auto& [name, value] : layers) {
    if (!listed(name)) report->Note("layer." + name, value);
  }
  for (const LayerMetricSpec& spec : kLayerMetrics) {
    auto it = layers.find(spec.name);
    report->Metric(spec.name, it == layers.end() ? 0.0 : it->second,
                   spec.unit);
  }
}

}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::RunConfig config;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return perfbench::Usage();
    const char* value = argv[++i];
    if (arg == "--workload") {
      config.workload = value;
    } else if (arg == "--seed") {
      config.seed = std::strtoull(value, nullptr, 10);
    } else if (arg == "--seconds") {
      config.seconds = std::strtod(value, nullptr);
    } else if (arg == "--trace") {
      config.trace = std::strcmp(value, "0") != 0;
    } else if (arg == "--workdir") {
      config.workdir = value;
    } else {
      return perfbench::Usage();
    }
  }
  if (config.seconds <= 0) return perfbench::Usage();

  perfbench::Report report;
  int rc = 0;
  if (config.workload == "paper-analytics") {
    rc = perfbench::RunPaperAnalytics(config, &report);
  } else if (config.workload == "serve-genealogy") {
    rc = perfbench::RunServeGenealogy(config, &report);
  } else if (config.workload == "serve-churn-1m") {
    rc = perfbench::RunServeChurn(config, &report);
  } else {
    return perfbench::Usage();
  }
  if (rc != 0) return rc;
  report.Print();
  return report.correct() ? 0 : 1;
}
