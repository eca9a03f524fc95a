// Tests for the observability subsystem (src/obs/): span tracer JSON
// export, metrics registry, the EvalStats facade, and the end-to-end
// EvalOptions::trace_path / collect_metrics plumbing. The concurrency
// tests run under TSan in CI.

#include <atomic>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "eval/fixpoint.h"
#include "io/binary_io.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "shell/shell.h"
#include "storage/column_view.h"
#include "storage/relation.h"
#include "storage/snapshot.h"
#include "storage/storage_metrics.h"
#include "util/string_util.h"
#include "test_helpers.h"

#include "gtest/gtest.h"

namespace semopt {
namespace {

using testing_util::MustParse;
using testing_util::MustParseFacts;

// ---------------------------------------------------------------------------
// Minimal JSON parser — just enough to verify the tracer emits valid,
// structurally correct Chrome trace_event documents.

struct JsonValue {
  enum Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = kNull;
  bool bool_value = false;
  double number = 0;
  std::string str;
  std::vector<JsonValue> array;
  std::map<std::string, JsonValue> object;

  const JsonValue* Get(const std::string& key) const {
    auto it = object.find(key);
    return it == object.end() ? nullptr : &it->second;
  }
};

class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : text_(text) {}

  bool Parse(JsonValue* out) {
    SkipWs();
    if (!ParseValue(out)) return false;
    SkipWs();
    return pos_ == text_.size();
  }

 private:
  void SkipWs() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\n' || text_[pos_] == '\t' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }
  bool Consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }
  bool ParseValue(JsonValue* out) {
    SkipWs();
    if (pos_ >= text_.size()) return false;
    char c = text_[pos_];
    if (c == '{') return ParseObject(out);
    if (c == '[') return ParseArray(out);
    if (c == '"') {
      out->kind = JsonValue::kString;
      return ParseString(&out->str);
    }
    if (c == 't' || c == 'f') return ParseBool(out);
    if (c == 'n') return ParseNull(out);
    return ParseNumber(out);
  }
  bool ParseObject(JsonValue* out) {
    out->kind = JsonValue::kObject;
    if (!Consume('{')) return false;
    SkipWs();
    if (Consume('}')) return true;
    while (true) {
      SkipWs();
      std::string key;
      if (!ParseString(&key)) return false;
      SkipWs();
      if (!Consume(':')) return false;
      JsonValue value;
      if (!ParseValue(&value)) return false;
      out->object.emplace(std::move(key), std::move(value));
      SkipWs();
      if (Consume(',')) continue;
      return Consume('}');
    }
  }
  bool ParseArray(JsonValue* out) {
    out->kind = JsonValue::kArray;
    if (!Consume('[')) return false;
    SkipWs();
    if (Consume(']')) return true;
    while (true) {
      JsonValue value;
      if (!ParseValue(&value)) return false;
      out->array.push_back(std::move(value));
      SkipWs();
      if (Consume(',')) continue;
      return Consume(']');
    }
  }
  bool ParseString(std::string* out) {
    if (!Consume('"')) return false;
    while (pos_ < text_.size() && text_[pos_] != '"') {
      char c = text_[pos_++];
      if (c == '\\') {
        if (pos_ >= text_.size()) return false;
        char esc = text_[pos_++];
        switch (esc) {
          case '"':
            *out += '"';
            break;
          case '\\':
            *out += '\\';
            break;
          case 'n':
            *out += '\n';
            break;
          case 't':
            *out += '\t';
            break;
          case 'r':
            *out += '\r';
            break;
          case 'u': {
            if (pos_ + 4 > text_.size()) return false;
            pos_ += 4;  // decoded value unused by the tests
            *out += '?';
            break;
          }
          default:
            return false;
        }
      } else {
        *out += c;
      }
    }
    return Consume('"');
  }
  bool ParseBool(JsonValue* out) {
    out->kind = JsonValue::kBool;
    if (text_.substr(pos_, 4) == "true") {
      out->bool_value = true;
      pos_ += 4;
      return true;
    }
    if (text_.substr(pos_, 5) == "false") {
      out->bool_value = false;
      pos_ += 5;
      return true;
    }
    return false;
  }
  bool ParseNull(JsonValue* out) {
    out->kind = JsonValue::kNull;
    if (text_.substr(pos_, 4) == "null") {
      pos_ += 4;
      return true;
    }
    return false;
  }
  bool ParseNumber(JsonValue* out) {
    out->kind = JsonValue::kNumber;
    size_t start = pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '-' || text_[pos_] == '+' || text_[pos_] == '.' ||
            text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
    }
    if (pos_ == start) return false;
    out->number = std::stod(std::string(text_.substr(start, pos_ - start)));
    return true;
  }

  std::string_view text_;
  size_t pos_ = 0;
};

/// Parses a trace document and returns its traceEvents array, failing
/// the test on malformed JSON.
[[maybe_unused]] std::vector<JsonValue> MustParseTrace(
    const std::string& json) {
  JsonValue root;
  JsonParser parser(json);
  EXPECT_TRUE(parser.Parse(&root)) << "invalid JSON: " << json;
  EXPECT_EQ(root.kind, JsonValue::kObject);
  const JsonValue* events = root.Get("traceEvents");
  EXPECT_NE(events, nullptr);
  if (events == nullptr) return {};
  EXPECT_EQ(events->kind, JsonValue::kArray);
  return events->array;
}

[[maybe_unused]] const JsonValue* FindEvent(
    const std::vector<JsonValue>& events, const std::string& name) {
  for (const JsonValue& e : events) {
    const JsonValue* n = e.Get("name");
    if (n != nullptr && n->str == name) return &e;
  }
  return nullptr;
}

[[maybe_unused]] size_t CountEvents(const std::vector<JsonValue>& events,
                                    const std::string& name) {
  size_t count = 0;
  for (const JsonValue& e : events) {
    const JsonValue* n = e.Get("name");
    if (n != nullptr && n->str == name) ++count;
  }
  return count;
}

// ---------------------------------------------------------------------------
// Tracer unit tests. Each test owns the global session (ctest runs
// each TEST in its own process via gtest_discover_tests).

#ifndef SEMOPT_DISABLE_TRACING

TEST(TraceTest, OffByDefaultAndRecordsNothingWhenDisabled) {
  ASSERT_FALSE(obs::TracingEnabled());
  {
    obs::TraceSpan span("ignored");
    span.AddArg("x", 1);
  }
  obs::TraceInstant("also_ignored");
  // A session started afterwards must not see the earlier spans.
  obs::StartTracing();
  std::vector<JsonValue> events = MustParseTrace(obs::StopTracingToJson());
  EXPECT_TRUE(events.empty());
  EXPECT_FALSE(obs::TracingEnabled());
}

TEST(TraceTest, SpansNestAndCarryArgs) {
  obs::StartTracing();
  {
    obs::TraceSpan outer("outer");
    outer.AddArg("depth", 0);
    {
      obs::TraceSpan inner("inner");
      inner.AddArg("depth", 1);
      inner.AddArg("tuples", 42);
    }
  }
  obs::TraceInstant("marker");
  std::vector<JsonValue> events = MustParseTrace(obs::StopTracingToJson());
  ASSERT_EQ(events.size(), 3u);

  const JsonValue* outer = FindEvent(events, "outer");
  const JsonValue* inner = FindEvent(events, "inner");
  const JsonValue* marker = FindEvent(events, "marker");
  ASSERT_NE(outer, nullptr);
  ASSERT_NE(inner, nullptr);
  ASSERT_NE(marker, nullptr);

  // Complete events with timestamps/durations; inner nests inside
  // outer on the same thread lane.
  EXPECT_EQ(outer->Get("ph")->str, "X");
  EXPECT_EQ(inner->Get("ph")->str, "X");
  EXPECT_EQ(marker->Get("ph")->str, "i");
  EXPECT_EQ(outer->Get("tid")->number, inner->Get("tid")->number);
  double outer_start = outer->Get("ts")->number;
  double outer_end = outer_start + outer->Get("dur")->number;
  double inner_start = inner->Get("ts")->number;
  double inner_end = inner_start + inner->Get("dur")->number;
  EXPECT_GE(inner_start, outer_start);
  EXPECT_LE(inner_end, outer_end);

  const JsonValue* args = inner->Get("args");
  ASSERT_NE(args, nullptr);
  EXPECT_EQ(args->Get("depth")->number, 1);
  EXPECT_EQ(args->Get("tuples")->number, 42);
}

TEST(TraceTest, DynamicNamesAreEscaped) {
  obs::StartTracing();
  std::string tricky = "rule \"r0\"\nwith\\escapes";
  { obs::TraceSpan span(tricky); }
  std::vector<JsonValue> events = MustParseTrace(obs::StopTracingToJson());
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].Get("name")->str, tricky);
}

TEST(TraceTest, StopWritesFileAndClearsBuffers) {
  std::string path = ::testing::TempDir() + "/semopt_trace_test.json";
  obs::StartTracing();
  { obs::TraceSpan span("alpha"); }
  Result<size_t> written = obs::StopTracing(path);
  ASSERT_TRUE(written.ok()) << written.status();
  EXPECT_EQ(*written, 1u);

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream buffer;
  buffer << in.rdbuf();
  std::vector<JsonValue> events = MustParseTrace(buffer.str());
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].Get("name")->str, "alpha");
  EXPECT_EQ(events[0].Get("cat")->str, "semopt");

  // A second session starts empty.
  obs::StartTracing();
  EXPECT_TRUE(MustParseTrace(obs::StopTracingToJson()).empty());
  std::remove(path.c_str());
}

TEST(TraceTest, StopToUnwritablePathFails) {
  obs::StartTracing();
  { obs::TraceSpan span("lost"); }
  Result<size_t> written = obs::StopTracing("/nonexistent-dir/trace.json");
  EXPECT_FALSE(written.ok());
  EXPECT_FALSE(obs::TracingEnabled());
}

TEST(TraceTest, ConcurrentSpansFromManyThreads) {
  // Exercised under TSan in CI: worker threads record spans while the
  // main thread starts/stops sessions.
  constexpr int kThreads = 4;
  constexpr int kSpansPerThread = 500;
  obs::StartTracing();
  std::atomic<bool> go{false};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&go, t] {
      while (!go.load(std::memory_order_acquire)) {
      }
      for (int i = 0; i < kSpansPerThread; ++i) {
        obs::TraceSpan span(t % 2 == 0 ? "even" : "odd");
        span.AddArg("i", i);
      }
    });
  }
  go.store(true, std::memory_order_release);
  for (std::thread& t : threads) t.join();
  std::vector<JsonValue> events = MustParseTrace(obs::StopTracingToJson());
  EXPECT_EQ(events.size(), static_cast<size_t>(kThreads * kSpansPerThread));
  EXPECT_EQ(CountEvents(events, "even"), 2u * kSpansPerThread);
  EXPECT_EQ(CountEvents(events, "odd"), 2u * kSpansPerThread);
  EXPECT_EQ(obs::DroppedEvents(), 0u);
}

TEST(TraceTest, ConcurrentStartStopWhileRecording) {
  // Races session boundaries against recorders; correctness here is
  // "no crash, no TSan report, always-valid JSON".
  std::atomic<bool> stop{false};
  std::thread recorder([&stop] {
    while (!stop.load(std::memory_order_acquire)) {
      obs::TraceSpan span("racing");
      span.AddArg("x", 1);
    }
  });
  for (int i = 0; i < 50; ++i) {
    obs::StartTracing();
    { obs::TraceSpan span("session"); }
    MustParseTrace(obs::StopTracingToJson());
  }
  stop.store(true, std::memory_order_release);
  recorder.join();
  EXPECT_FALSE(obs::TracingEnabled());
}

#endif  // SEMOPT_DISABLE_TRACING

TEST(TraceTest, ScopedTraceFileWritesWhenNoSessionActive) {
  std::string path = ::testing::TempDir() + "/semopt_scoped_trace.json";
  {
    obs::ScopedTraceFile scoped(path);
#ifndef SEMOPT_DISABLE_TRACING
    EXPECT_TRUE(obs::TracingEnabled());
#endif
    obs::TraceSpan span("scoped_work");
  }
  EXPECT_FALSE(obs::TracingEnabled());
#ifndef SEMOPT_DISABLE_TRACING
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream buffer;
  buffer << in.rdbuf();
  std::vector<JsonValue> events = MustParseTrace(buffer.str());
  EXPECT_NE(FindEvent(events, "scoped_work"), nullptr);
  std::remove(path.c_str());
#endif
}

// ---------------------------------------------------------------------------
// Metrics registry.

TEST(MetricsTest, CounterAndGauge) {
  obs::MetricsRegistry registry;
  obs::Counter& c = registry.GetCounter("test.counter");
  c.Add();
  c.Add(41);
  EXPECT_EQ(c.value(), 42u);
  EXPECT_EQ(&registry.GetCounter("test.counter"), &c);  // stable identity

  obs::Gauge& g = registry.GetGauge("test.gauge");
  g.Set(-7);
  EXPECT_EQ(g.value(), -7);
  EXPECT_EQ(registry.size(), 2u);
}

TEST(MetricsTest, HistogramBucketsAndStats) {
  EXPECT_EQ(obs::Histogram::BucketFor(0), 0u);
  EXPECT_EQ(obs::Histogram::BucketFor(1), 1u);
  EXPECT_EQ(obs::Histogram::BucketFor(2), 2u);
  EXPECT_EQ(obs::Histogram::BucketFor(3), 2u);
  EXPECT_EQ(obs::Histogram::BucketFor(4), 3u);
  EXPECT_EQ(obs::Histogram::BucketFor(UINT64_MAX),
            obs::HistogramSnapshot::kBuckets - 1);

  obs::MetricsRegistry registry;
  obs::Histogram& h = registry.GetHistogram("test.hist");
  for (uint64_t v : {0, 1, 2, 3, 100}) h.Observe(v);
  obs::HistogramSnapshot snap = h.Snapshot();
  EXPECT_EQ(snap.count, 5u);
  EXPECT_EQ(snap.sum, 106u);
  EXPECT_EQ(snap.min, 0u);
  EXPECT_EQ(snap.max, 100u);
  EXPECT_DOUBLE_EQ(snap.Mean(), 106.0 / 5.0);
  EXPECT_EQ(snap.buckets[0], 1u);  // 0
  EXPECT_EQ(snap.buckets[1], 1u);  // 1
  EXPECT_EQ(snap.buckets[2], 2u);  // 2, 3
  EXPECT_EQ(snap.buckets[7], 1u);  // 100 in [64,128)

  h.Reset();
  snap = h.Snapshot();
  EXPECT_EQ(snap.count, 0u);
  EXPECT_EQ(snap.min, 0u);
}

TEST(MetricsTest, EmitIsSortedByNameAcrossKinds) {
  obs::MetricsRegistry registry;
  registry.GetCounter("b.counter").Add(2);
  registry.GetGauge("a.gauge").Set(1);
  registry.GetHistogram("c.hist").Observe(5);

  struct RecordingSink : obs::MetricsSink {
    std::vector<std::string> names;
    void OnCounter(std::string_view name, uint64_t) override {
      names.emplace_back(name);
    }
    void OnGauge(std::string_view name, int64_t) override {
      names.emplace_back(name);
    }
    void OnHistogram(std::string_view name,
                     const obs::HistogramSnapshot&) override {
      names.emplace_back(name);
    }
  };
  RecordingSink sink;
  registry.Emit(sink);
  ASSERT_EQ(sink.names.size(), 3u);
  EXPECT_EQ(sink.names[0], "a.gauge");
  EXPECT_EQ(sink.names[1], "b.counter");
  EXPECT_EQ(sink.names[2], "c.hist");

  std::string text = registry.ToText();
  EXPECT_NE(text.find("b.counter 2"), std::string::npos);
  EXPECT_NE(text.find("a.gauge 1"), std::string::npos);
  EXPECT_NE(text.find("c.hist count=1"), std::string::npos);

  registry.ResetAll();
  EXPECT_EQ(registry.GetCounter("b.counter").value(), 0u);
}

TEST(MetricsTest, ConcurrentCounterUpdates) {
  // TSan-exercised: many threads bumping the same counter/histogram.
  obs::MetricsRegistry registry;
  obs::Counter& c = registry.GetCounter("test.concurrent");
  obs::Histogram& h = registry.GetHistogram("test.concurrent_hist");
  constexpr int kThreads = 4;
  constexpr int kIters = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c, &h] {
      for (int i = 0; i < kIters; ++i) {
        c.Add();
        h.Observe(static_cast<uint64_t>(i));
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(c.value(), static_cast<uint64_t>(kThreads * kIters));
  obs::HistogramSnapshot snap = h.Snapshot();
  EXPECT_EQ(snap.count, static_cast<uint64_t>(kThreads * kIters));
  EXPECT_EQ(snap.min, 0u);
  EXPECT_EQ(snap.max, static_cast<uint64_t>(kIters - 1));
}

// ---------------------------------------------------------------------------
// EvalStats facade.

TEST(EvalStatsTest, AddMergesPerRuleAndBalance) {
  EvalStats a;
  a.derived_tuples = 3;
  a.per_rule["r0"] = RuleStats{1, 3, 0};
  a.round_balance.push_back(RoundBalance{1, 4, 0, 10, 20});

  EvalStats b;
  b.derived_tuples = 2;
  b.per_rule["r0"] = RuleStats{2, 2, 1};
  b.per_rule["r1"] = RuleStats{1, 0, 5};
  b.round_balance.push_back(RoundBalance{2, 4, 5, 5, 20});

  a.Add(b);
  EXPECT_EQ(a.derived_tuples, 5u);
  EXPECT_EQ(a.per_rule["r0"].applications, 3u);
  EXPECT_EQ(a.per_rule["r0"].derived, 5u);
  EXPECT_EQ(a.per_rule["r0"].duplicates, 1u);
  EXPECT_EQ(a.per_rule["r1"].duplicates, 5u);
  ASSERT_EQ(a.round_balance.size(), 2u);
  EXPECT_DOUBLE_EQ(a.round_balance[0].MeanTuples(), 5.0);
  EXPECT_EQ(a.round_balance[0].round, 1u);
  EXPECT_EQ(a.round_balance[0].workers, 4u);
  EXPECT_EQ(a.round_balance[0].min_tuples, 0u);
  EXPECT_EQ(a.round_balance[0].max_tuples, 10u);
  EXPECT_EQ(a.round_balance[1].round, 2u);
}

TEST(EvalStatsTest, PublishToRegistry) {
  EvalStats stats;
  stats.iterations = 4;
  stats.derived_tuples = 100;
  stats.per_rule["r0"] = RuleStats{2, 80, 7};
  stats.round_balance.push_back(RoundBalance{1, 2, 10, 90, 100});

  obs::MetricsRegistry registry;
  stats.PublishTo(registry);
  EXPECT_EQ(registry.GetCounter("eval.iterations").value(), 4u);
  EXPECT_EQ(registry.GetCounter("eval.derived_tuples").value(), 100u);
  EXPECT_EQ(registry.GetCounter("eval.rule.r0.derived").value(), 80u);
  EXPECT_EQ(registry.GetCounter("eval.rule.r0.duplicates").value(), 7u);
  obs::HistogramSnapshot max_hist =
      registry.GetHistogram("eval.round_tuples_per_worker_max").Snapshot();
  EXPECT_EQ(max_hist.count, 1u);
  EXPECT_EQ(max_hist.max, 90u);
}

TEST(StorageObsTest, ColumnsBytesGaugeTracksLiveViews) {
  obs::MetricsRegistry registry;
  Relation rel(PredicateId{InternSymbol("obs_cols"), 2});
  for (int i = 0; i < 512; ++i) {
    rel.Insert({Term::Int(i), Term::Int(-i)});
  }
  std::shared_ptr<const ColumnView> view = rel.EnsureColumns();
  storage_metrics::PublishTo(registry);
  const int64_t published =
      registry.GetGauge("storage.columns_bytes").value();
  // The gauge mirrors the live total; with this view held it is at
  // least this view's footprint.
  EXPECT_EQ(published, storage_metrics::LiveColumnsBytes());
  EXPECT_GE(published, view->ByteSize());
  EXPECT_GE(view->ByteSize(),
            static_cast<int64_t>(512 * 2 * sizeof(uint64_t)));
  // And it shows up in the Prometheus dump alongside tuples_bytes.
  std::string text = obs::ExportPrometheus(registry);
  EXPECT_NE(text.find("storage_columns_bytes"), std::string::npos);
}

TEST(StorageObsTest, BulkLoadCountersAccumulateInGlobalRegistry) {
  obs::MetricsRegistry& global = obs::MetricsRegistry::Global();
  const uint64_t rows_before =
      global.GetCounter("io.bulk_load.rows").value();
  const uint64_t bytes_before =
      global.GetCounter("io.bulk_load.bytes").value();
  const uint64_t us_before = global.GetCounter("io.bulk_load.us").value();

  Database db = MustParseFacts("obs_bulk(1, a). obs_bulk(2, b). obs_bulk(3, c).");
  std::ostringstream os;
  Result<size_t> saved = SaveBinary(os, db);
  ASSERT_TRUE(saved.ok()) << saved.status();
  std::string image = os.str();
  Database loaded;
  Result<BulkLoadStats> stats =
      LoadBinary(image.data(), image.size(), &loaded);
  ASSERT_TRUE(stats.ok()) << stats.status();

  EXPECT_EQ(global.GetCounter("io.bulk_load.rows").value(),
            rows_before + 3);
  EXPECT_EQ(global.GetCounter("io.bulk_load.bytes").value(),
            bytes_before + image.size());
  EXPECT_GE(global.GetCounter("io.bulk_load.us").value(), us_before);
}

TEST(StorageObsTest, SteadyDeltaWriteReusesAndStatsExportsIt) {
  obs::MetricsRegistry& global = obs::MetricsRegistry::Global();
  obs::Counter& cloned = global.GetCounter("storage.snapshot.relations_cloned");
  obs::Counter& reused = global.GetCounter("storage.snapshot.relations_reused");
  obs::Counter& replayed = global.GetCounter("storage.snapshot.rows_replayed");
  const PredicateId pred{InternSymbol("obs_delta"), 1};
  SnapshotStore store(MustParseFacts("obs_delta(0)."));
  auto write = [&](int64_t v) {
    ASSERT_TRUE(store.ApplyDelta([&](const Database&) -> Result<DatabaseDelta> {
      DatabaseDelta delta;
      delta.try_emplace(pred, 1).first->second.inserted.Append(
          Tuple{Term::Int(v)});
      return delta;
    }).ok());
  };
  // The first two writes leave a kept copy no generation references.
  write(1);
  write(2);
  const uint64_t cloned_before = cloned.value();
  const uint64_t reused_before = reused.value();
  const uint64_t replayed_before = replayed.value();
  write(3);
  EXPECT_EQ(cloned.value(), cloned_before);
  EXPECT_EQ(reused.value(), reused_before + 1);
  EXPECT_EQ(replayed.value(), replayed_before + 1);  // write 2's one row

  // `:stats` exports the publish-path counters next to each other.
  Shell shell;
  const std::string stats = shell.Execute(":stats");
  for (const char* name : {"semopt_storage_snapshot_relations_cloned ",
                           "semopt_storage_snapshot_relations_reused ",
                           "semopt_storage_snapshot_rows_replayed "}) {
    EXPECT_NE(stats.find(name), std::string::npos) << name << "\n" << stats;
  }
  EXPECT_NE(stats.find(StrCat("semopt_storage_snapshot_relations_reused ",
                              reused.value())),
            std::string::npos);
}

// ---------------------------------------------------------------------------
// End-to-end plumbing through the evaluators.

constexpr char kTransitiveClosure[] = R"(
  t(X, Y) :- e(X, Y).
  t(X, Y) :- t(X, Z), e(Z, Y).
)";

constexpr char kChainFacts[] =
    "e(a, b). e(b, c). e(c, d). e(d, f). e(f, g).";

TEST(EvalObsTest, SerialCollectMetricsFillsPerRule) {
  Program program = MustParse(kTransitiveClosure);
  program.AutoLabelRules();
  Database edb = MustParseFacts(kChainFacts);
  EvalOptions options;
  options.collect_metrics = true;
  EvalStats stats;
  Result<Database> idb = Evaluate(program, edb, options, &stats);
  ASSERT_TRUE(idb.ok()) << idb.status();
  ASSERT_EQ(stats.per_rule.size(), 2u);
  size_t derived_total = 0;
  for (const auto& [label, rs] : stats.per_rule) {
    EXPECT_GT(rs.applications, 0u) << label;
    derived_total += rs.derived;
  }
  EXPECT_EQ(derived_total, stats.derived_tuples);
  // Balance rows need more than one lane.
  ASSERT_FALSE(stats.rounds.empty());
  EXPECT_TRUE(stats.round_balance.empty());
  // Default path stays lean.
  EvalStats plain;
  ASSERT_TRUE(Evaluate(program, edb, EvalOptions(), &plain).ok());
  EXPECT_TRUE(plain.per_rule.empty());
  EXPECT_TRUE(plain.round_balance.empty());
}

TEST(EvalObsTest, ParallelCollectMetricsFillsBalance) {
  Program program = MustParse(kTransitiveClosure);
  program.AutoLabelRules();
  Database edb = MustParseFacts(kChainFacts);
  EvalOptions options;
  options.collect_metrics = true;
  options.num_threads = 2;
  EvalStats stats;
  Result<Database> idb = Evaluate(program, edb, options, &stats);
  ASSERT_TRUE(idb.ok()) << idb.status();
  ASSERT_FALSE(stats.round_balance.empty());
  ASSERT_EQ(stats.round_balance.size(), stats.rounds.size());
  for (size_t i = 0; i < stats.round_balance.size(); ++i) {
    const RoundBalance& rb = stats.round_balance[i];
    EXPECT_EQ(rb.round, stats.rounds[i].round);
    EXPECT_EQ(rb.workers, 2u);
    EXPECT_LE(rb.min_tuples, rb.max_tuples);
    EXPECT_LE(rb.max_tuples, rb.total_tuples);
    EXPECT_GT(rb.round, 0u);
  }
  size_t derived_total = 0;
  for (const auto& [label, rs] : stats.per_rule) derived_total += rs.derived;
  EXPECT_EQ(derived_total, stats.derived_tuples);
}

#ifndef SEMOPT_DISABLE_TRACING

// One engine, one span tree at every lane count: eval > stratum > round >
// plan / <rule label> / merge > commit.
void ExpectOneSpanTree(size_t threads) {
  Program program = MustParse(kTransitiveClosure);
  program.AutoLabelRules();
  Database edb = MustParseFacts(kChainFacts);
  std::string path = ::testing::TempDir() + "/semopt_eval_trace_" +
                     std::to_string(threads) + ".json";
  EvalOptions options;
  options.trace_path = path;
  options.num_threads = threads;
  ASSERT_TRUE(Evaluate(program, edb, options, nullptr).ok());
  ASSERT_FALSE(obs::TracingEnabled());

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream buffer;
  buffer << in.rdbuf();
  std::vector<JsonValue> events = MustParseTrace(buffer.str());
  EXPECT_NE(FindEvent(events, "eval"), nullptr);
  EXPECT_GE(CountEvents(events, "stratum"), 1u);
  // The 5-edge chain needs several semi-naive rounds.
  EXPECT_GE(CountEvents(events, "round"), 3u);
  EXPECT_GE(CountEvents(events, "plan"), 1u);
  EXPECT_GE(CountEvents(events, "merge"), 1u);
  EXPECT_GE(CountEvents(events, "commit"), 1u);
  // Per-rule task spans are named by rule label (AutoLabelRules => r0, r1).
  EXPECT_GE(CountEvents(events, "r0"), 1u);
  EXPECT_GE(CountEvents(events, "r1"), 1u);
  const JsonValue* round = FindEvent(events, "round");
  ASSERT_NE(round, nullptr);
  const JsonValue* args = round->Get("args");
  ASSERT_NE(args, nullptr);
  EXPECT_EQ(args->Get("workers")->number, static_cast<double>(threads));
  std::remove(path.c_str());
}

TEST(EvalObsTest, TracePathProducesStratumRoundRuleSpans) {
  ExpectOneSpanTree(1);
}

TEST(EvalObsTest, ParallelTraceHasTaskAndMergeSpans) {
  ExpectOneSpanTree(2);
}

#endif  // SEMOPT_DISABLE_TRACING

// ---------------------------------------------------------------------------
// HistogramSnapshot::Percentile — the one quantile estimator shared by
// `:stats`, the Prometheus exposition, and bench::LatencyRecorder.

TEST(PercentileTest, EmptyAndZeroOnly) {
  obs::Histogram h;
  EXPECT_DOUBLE_EQ(h.Snapshot().Percentile(0.5), 0.0);
  for (int i = 0; i < 10; ++i) h.Observe(0);
  // Bucket 0 is the point value 0: exact at every quantile.
  EXPECT_DOUBLE_EQ(h.Snapshot().Percentile(0.01), 0.0);
  EXPECT_DOUBLE_EQ(h.Snapshot().Percentile(0.99), 0.0);
}

TEST(PercentileTest, SingleSampleIsExact) {
  obs::Histogram h;
  h.Observe(777);
  // Clamping to [min, max] makes one-sample histograms report the
  // sample itself, not a bucket midpoint.
  EXPECT_DOUBLE_EQ(h.Snapshot().Percentile(0.5), 777.0);
  EXPECT_DOUBLE_EQ(h.Snapshot().Percentile(0.99), 777.0);
}

TEST(PercentileTest, WithinOnePowerOfTwoBand) {
  obs::Histogram h;
  for (uint64_t v = 1; v <= 1000; ++v) h.Observe(v);
  obs::HistogramSnapshot snap = h.Snapshot();
  // Uniform 1..1000: true p50 = 500, p90 = 900, p99 = 990. The
  // estimate interpolates inside a power-of-two bucket, so it can be
  // off by at most that bucket's width.
  struct {
    double q;
    double truth;
  } cases[] = {{0.50, 500}, {0.90, 900}, {0.99, 990}};
  for (const auto& c : cases) {
    const double est = snap.Percentile(c.q);
    EXPECT_GE(est, c.truth / 2) << "q=" << c.q;
    EXPECT_LE(est, c.truth * 2) << "q=" << c.q;
  }
  // Quantiles are monotone in q.
  EXPECT_LE(snap.Percentile(0.5), snap.Percentile(0.9));
  EXPECT_LE(snap.Percentile(0.9), snap.Percentile(0.99));
  // Extremes clamp to the observed range.
  EXPECT_GE(snap.Percentile(0.0), 1.0);
  EXPECT_LE(snap.Percentile(0.0), 2.0);
  EXPECT_DOUBLE_EQ(snap.Percentile(1.0), 1000.0);
}

TEST(PercentileTest, BimodalSeparatesModes) {
  obs::Histogram h;
  for (int i = 0; i < 90; ++i) h.Observe(10);
  for (int i = 0; i < 10; ++i) h.Observe(100000);
  obs::HistogramSnapshot snap = h.Snapshot();
  EXPECT_LT(snap.Percentile(0.5), 100.0);       // in the fast mode
  EXPECT_GT(snap.Percentile(0.95), 50000.0);    // in the slow mode
}

// ---------------------------------------------------------------------------
// Prometheus text exposition.

TEST(PrometheusExportTest, NameSanitization) {
  EXPECT_EQ(obs::PrometheusName("eval.plan_cache.hit"),
            "semopt_eval_plan_cache_hit");
  EXPECT_EQ(obs::PrometheusName("a-b c"), "semopt_a_b_c");
}

TEST(PrometheusExportTest, CounterGaugeAndSummarySeries) {
  obs::MetricsRegistry registry;
  registry.GetCounter("eval.derived_tuples").Add(42);
  registry.GetGauge("server.sched.heavy.queue_depth").Set(3);
  obs::Histogram& h = registry.GetHistogram("server.sched.heavy.wait_us");
  for (uint64_t v : {100, 200, 400, 800}) h.Observe(v);

  const std::string text = obs::ExportPrometheus(registry);
  EXPECT_NE(text.find("# TYPE semopt_eval_derived_tuples counter\n"
                      "semopt_eval_derived_tuples 42\n"),
            std::string::npos)
      << text;
  EXPECT_NE(
      text.find("# TYPE semopt_server_sched_heavy_queue_depth gauge\n"
                "semopt_server_sched_heavy_queue_depth 3\n"),
      std::string::npos)
      << text;
  EXPECT_NE(text.find("# TYPE semopt_server_sched_heavy_wait_us summary"),
            std::string::npos);
  EXPECT_NE(text.find("semopt_server_sched_heavy_wait_us{quantile=\"0.5\"} "),
            std::string::npos);
  EXPECT_NE(text.find("semopt_server_sched_heavy_wait_us{quantile=\"0.99\"} "),
            std::string::npos);
  EXPECT_NE(text.find("semopt_server_sched_heavy_wait_us_sum 1500\n"),
            std::string::npos);
  EXPECT_NE(text.find("semopt_server_sched_heavy_wait_us_count 4\n"),
            std::string::npos);
  // Every line is a comment or a sample; no blank or torn lines.
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    ASSERT_FALSE(line.empty());
    if (line[0] == '#') {
      EXPECT_EQ(line.rfind("# TYPE semopt_", 0), 0u) << line;
    } else {
      EXPECT_EQ(line.rfind("semopt_", 0), 0u) << line;
      EXPECT_NE(line.find(' '), std::string::npos) << line;
    }
  }
}

TEST(PrometheusExportTest, EmptyRegistryExportsNothing) {
  obs::MetricsRegistry registry;
  EXPECT_EQ(obs::ExportPrometheus(registry), "");
}

}  // namespace
}  // namespace semopt
