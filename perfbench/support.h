// Shared machinery of the repository benchmark: run configuration,
// exact-sample latency sets, the benchmark's own spans, the loopback
// protocol client, query-log parsing and the result printer.
//
// Everything here measures the engine from outside: it times calls into
// public functions and reads public counters; nothing under src/ is
// instrumented for the benchmark.

#ifndef PERFBENCH_SUPPORT_H_
#define PERFBENCH_SUPPORT_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "server/protocol.h"
#include "storage/database.h"

namespace perfbench {

/// Command-line settings of one benchmark process.
struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  /// Length of the measured phase (the traced run measures it twice:
  /// once untraced, once traced).
  double seconds = 10;
  bool trace = false;
  /// Directory for the run's files (snapshots, query logs, spans).
  std::string workdir = ".";
};

uint64_t NowNs();

inline double SecondsSince(uint64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) * 1e-9;
}

/// True when `count` samples leave at least ten above their q-quantile
/// (the rule for reporting a tail percentile).
inline bool TailSupported(size_t count, double q) {
  return static_cast<double>(count) * (1.0 - q) >= 10;
}

/// Latency samples kept exactly (no bucketing), so percentiles carry
/// every digit the clock gave.
class Samples {
 public:
  void Add(double v) { values_.push_back(v); }
  void Merge(const Samples& other);
  size_t count() const { return values_.size(); }
  /// Linear interpolation between order statistics; 0 when empty.
  double Quantile(double q) const;
  double Mean() const;
  bool SupportsTail(double q) const { return TailSupported(count(), q); }

 private:
  mutable std::vector<double> values_;
  mutable bool sorted_ = false;
};

/// Median of a small vector of set-up times.
double Median(std::vector<double> values);

/// Mean of the middle half of `values` (a quarter dropped at each end):
/// a stall confined to a few of a run's windows does not move it, and
/// a host that runs fast for part of a run moves it in proportion
/// instead of flipping it between the fast and the slow value.
double InterquartileMean(std::vector<double> values);

/// One span of the benchmark's own tracing: a call into one layer.
struct Span {
  const char* name = "";
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  int parent = -1;  ///< index of the enclosing span in the same Tracer
  uint64_t op = 0;  ///< the operation this span belongs to
};

/// Span recorder for one client thread. Disabled tracers cost a branch.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }
  /// Starts a new operation; spans opened until the next call carry its
  /// id.
  void BeginOp(uint64_t op) { op_ = op; }
  int Open(const char* name);
  void Close(int index);

  const std::vector<Span>& spans() const { return spans_; }

  /// Self time (duration minus child spans) summed per span name, ns.
  std::map<std::string, uint64_t> SelfNsByName() const;

 private:
  bool enabled_;
  uint64_t op_ = 0;
  int open_ = -1;
  std::vector<Span> spans_;
};

/// Opens a span for the lifetime of the scope.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name)
      : tracer_(tracer), index_(tracer->enabled() ? tracer->Open(name) : -1) {}
  ~ScopedSpan() {
    if (index_ >= 0) tracer_->Close(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  int index_;
};

/// Writes every span of `tracers` as Chrome trace JSON (one track per
/// tracer). Returns false when the file cannot be written.
bool WriteSpans(const std::string& path,
                const std::vector<const Tracer*>& tracers);

/// Blocking client for the server's line protocol on one loopback
/// connection.
class Client {
 public:
  explicit Client(uint16_t port);
  ~Client();
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  bool connected() const { return fd_ >= 0; }
  /// Sends one request line and reads the whole response into `body`.
  /// Returns false on a transport failure.
  bool Request(const std::string& line, std::string* body);

 private:
  int fd_ = -1;
  semopt::LineBuffer lines_;
};

/// True when a `?-` response carries answers rather than a Status text.
bool IsAnswerResponse(const std::string& body);

/// The answer rows of a `?-` response (the "N answer(s)" line dropped).
std::set<std::string> AnswerRows(const std::string& body);

/// Renders tuples one per line, as a set (order-free comparison).
std::set<std::string> TupleSet(const std::vector<semopt::Tuple>& tuples);

/// Unsigned field of a flat JSON object line; false when absent.
bool JsonU64(const std::string& line, const char* key, uint64_t* out);
/// String field of a flat JSON object line (no escape handling beyond
/// \" and \\); false when absent.
bool JsonStr(const std::string& line, const char* key, std::string* out);

/// Lines of a text file (empty when unreadable).
std::vector<std::string> ReadLines(const std::string& path);

/// Peak resident set size of this process, MiB (VmHWM).
double PeakRssMb();

/// Counter value from the process-wide metrics registry.
uint64_t RegistryCounter(const char* name);

/// The benchmark's result: the BENCHMARK.json metrics (printed on the last
/// line as JSON) and free-form report lines printed before it.
class Report {
 public:
  void Metric(const std::string& name, double value, const std::string& unit);
  /// A "# key value" report line (run stamp, sample counts, per-family
  /// breakdowns, tracing overhead).
  void Note(const std::string& key, const std::string& value);
  void Note(const std::string& key, double value);

  /// Every op sent counts as attempted; failed ones also as failed.
  void AddAttempts(uint64_t attempted, uint64_t failed) {
    attempted_ += attempted;
    failed_ += failed;
  }

  /// Records a correctness failure (the run then reports correct=false
  /// and the process exits non-zero).
  void Mismatch(const std::string& what);
  bool correct() const { return mismatches_.empty(); }

  /// Prints the notes, then the one-line JSON result.
  void Print() const;

 private:
  std::vector<std::pair<std::string, std::string>> notes_;
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics_;
  std::vector<std::string> mismatches_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

/// Notes the run stamp: build type (non-Release builds are flagged),
/// core count, CPU model, and the workload's client/connection/thread
/// settings.
void StampRun(Report* report, const RunConfig& config, int client_threads,
              int connections, size_t num_threads);

/// Formats a number with all its digits.
std::string Num(double v);

}  // namespace perfbench

#endif  // PERFBENCH_SUPPORT_H_
