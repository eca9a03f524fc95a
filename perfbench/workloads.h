// The three workloads of the repository benchmark and the measurement
// scaffolding they share (closed-loop phases, the metrics of the result
// line).

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "support.h"
#include "util/status.h"

namespace perfbench {

/// Each runs set-up, the correctness gate, warm-up and the measured
/// phase(s), and fills `report`. Returns non-zero when the workload
/// could not run at all (set-up failure); correctness mismatches are
/// recorded in the report instead.
int RunPaperAnalytics(const RunConfig& config, Report* report);
int RunServeGenealogy(const RunConfig& config, Report* report);
int RunServeChurn(const RunConfig& config, Report* report);

/// Latencies of one op class, each with its completion time (seconds
/// since phase start).
class TimedSamples {
 public:
  void Add(double at_s, double value) {
    at_.push_back(at_s);
    values_.push_back(value);
  }
  void Merge(const TimedSamples& other);
  size_t count() const { return values_.size(); }
  /// Splits the phase's `seconds` into up to ten equal windows, as many
  /// as keep ten samples beyond the q-quantile in each, and returns the
  /// interquartile mean of the windows' q-quantiles.
  double WindowedQuantile(double q, double seconds) const;
  /// True when the whole phase holds ten samples beyond the q-quantile.
  bool SupportsTail(double q) const { return TailSupported(count(), q); }

 private:
  std::vector<double> at_;
  std::vector<double> values_;
};

/// Client-observed outcome of one measured phase. Every workload sorts
/// its operations into two classes: heavy (fixpoint queries, or view
/// writes on serve-churn-1m) and light (point lookups, or the compile
/// step of each pipeline op on paper-analytics). Latencies are ns.
struct PhaseResult {
  TimedSamples heavy;
  TimedSamples light;
  /// Completion time of each successful op, seconds since phase start.
  std::vector<double> done_at;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  double seconds = 0;

  void Merge(const PhaseResult& other);
  /// Counts a failed op (transport failure or error response): it enters
  /// its class's latency samples as +infinity, missing every limit.
  void Fail(bool heavy_op, double at_s);
  uint64_t completed() const { return attempted - failed; }
  /// Completed ops per second: the interquartile mean over the phase's
  /// whole one-second windows.
  double OpsPerSecond() const;
};

/// When a closed-loop phase stops: after `seconds`, once both classes
/// hold enough samples for their p90 (by default 100 each, ten beyond
/// it); never later than three times `seconds`.
class PhaseClock {
 public:
  explicit PhaseClock(double seconds, uint64_t min_heavy = 100,
                      uint64_t min_light = 100);
  bool Running() const;
  void Observed(bool heavy) {
    (heavy ? heavy_ : light_).fetch_add(1, std::memory_order_relaxed);
  }
  double Elapsed() const { return SecondsSince(start_ns_); }

 private:
  uint64_t start_ns_;
  double seconds_;
  uint64_t min_heavy_;
  uint64_t min_light_;
  std::atomic<uint64_t> heavy_{0};
  std::atomic<uint64_t> light_{0};
};

/// Times a workload's set-up `repeats` times, split before and after
/// the measured phases so that the median samples more than one moment
/// of a noisy host. Each call of `set_up` replaces the previous
/// deployment; the last one before the measured phases serves them.
class SetupTimer {
 public:
  SetupTimer(std::string workload, int repeats,
             std::function<semopt::Status()> set_up, Report* report);
  /// Runs the first half of the repeats, or the rest. False, after
  /// printing the error, when a set-up fails.
  bool Before() { return Run((repeats_ + 1) / 2); }
  bool After() { return Run(repeats_ / 2); }
  const std::vector<double>& times() const { return times_; }

 private:
  bool Run(int n);

  std::string workload_;
  int repeats_;
  std::function<semopt::Status()> set_up_;
  std::vector<double> times_;
};

/// Adds the end-to-end metrics (tracing off) to `report`; setup_s is the
/// median of `setup_times`, and `peak_rss_mb` is read right after the
/// measured phase (before the gate and the later set-ups).
void ReportEndToEnd(Report* report, const std::vector<double>& setup_times,
                    const PhaseResult& phase, double peak_rss_mb);

/// Notes the sample counts behind each percentile.
void NoteSamples(Report* report, const std::string& prefix,
                 const PhaseResult& phase);

/// The per-layer metrics of the traced run, keyed by metric name.
/// Layers a workload leaves idle keep their 0.
using LayerMetrics = std::map<std::string, double>;

/// Fills the tracing-overhead entries: traced minus untraced, as a
/// percentage of untraced, on heavy p50 and on throughput.
void AddOverhead(LayerMetrics* layers, const PhaseResult& untraced,
                 const PhaseResult& traced);

/// Adds every per-layer metric of the result line, in its fixed order,
/// and notes the other entries of `layers` (absolute per-layer times)
/// as "# layer.<name>" lines.
void ReportPerLayer(Report* report, const LayerMetrics& layers);

/// `part` as a percentage of `whole` (0 when `whole` is 0).
double Percent(double part, double whole);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
