// Per-query observability: QueryProfile JSON stability, the structured
// query log's non-torn JSONL guarantee under concurrent sessions (run
// under TSan in CI), scheduler queue-wait accounting under forced
// queueing, the `:profile` golden surface, and the session-level
// logging pipeline (every query — including failures — yields exactly
// one record).

#include <unistd.h>

#include <cctype>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <mutex>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "obs/query_log.h"
#include "server/scheduler.h"
#include "shell/shell.h"

#include "gtest/gtest.h"
#include "test_helpers.h"

namespace semopt {
namespace {

std::string TempPath(const char* tag) {
  return testing::TempDir() + "semopt_query_obs_" + tag + "_" +
         std::to_string(::getpid()) + ".jsonl";
}

std::vector<std::string> ReadLines(const std::string& path) {
  std::ifstream in(path);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

/// Structural JSON-line check: object braces, balanced quoting, no
/// embedded newline (by construction of ReadLines), and ``"key":``
/// present for each required key. A torn or interleaved write fails
/// the brace/quote checks with overwhelming probability.
void ExpectJsonRecord(const std::string& line,
                      const std::vector<std::string>& required_keys) {
  ASSERT_FALSE(line.empty());
  EXPECT_EQ(line.front(), '{') << line;
  EXPECT_EQ(line.back(), '}') << line;
  int depth = 0;
  bool in_string = false;
  bool escaped = false;
  int quotes = 0;
  for (char c : line) {
    if (escaped) {
      escaped = false;
      continue;
    }
    if (in_string) {
      if (c == '\\') escaped = true;
      if (c == '"') in_string = false, ++quotes;
      continue;
    }
    if (c == '"') in_string = true, ++quotes;
    if (c == '{' || c == '[') ++depth;
    if (c == '}' || c == ']') --depth;
    ASSERT_GE(depth, 0) << line;
  }
  EXPECT_EQ(depth, 0) << line;
  EXPECT_FALSE(in_string) << line;
  EXPECT_EQ(quotes % 2, 0) << line;
  for (const std::string& key : required_keys) {
    EXPECT_NE(line.find("\"" + key + "\":"), std::string::npos)
        << "missing key " << key << " in " << line;
  }
}

/// Extracts the numeric value of a top-level ``"key":N`` field.
uint64_t JsonField(const std::string& line, const std::string& key) {
  size_t pos = line.find("\"" + key + "\":");
  EXPECT_NE(pos, std::string::npos) << key << " in " << line;
  if (pos == std::string::npos) return 0;
  pos += key.size() + 3;
  return std::strtoull(line.c_str() + pos, nullptr, 10);
}

// ---------------------------------------------------------------------------
// QueryProfile::ToJson

TEST(QueryProfileJsonTest, AllStableKeysPresent) {
  obs::QueryProfile p;
  p.ctx = {7, 3, 500000};
  p.query = "t(1, Y)";
  p.query_class = "heavy";
  p.answers = 3;
  p.total_us = 120;
  p.parse_us = 5;
  p.queue_wait_us = 10;
  p.pin_us = 1;
  p.eval_us = 90;
  p.render_us = 4;
  p.pinned_epoch = 2;
  p.eval.eval_ns = 80000;
  p.eval.plan_cache_hits = 4;
  p.eval.plan_cache_misses = 1;
  p.eval.iterations = 3;
  p.eval.derived_tuples = 9;
  p.eval.duplicate_tuples = 2;
  p.eval.bindings_explored = 40;
  p.eval.peak_delta_tuples = 5;
  p.eval.rounds.push_back({1, 1, 30000, 0, 5, 5});
  p.eval.rounds.push_back({1, 2, 20000, 5, 0, 0});
  p.eval.per_rule["r1"] = RuleStats{2, 9, 2, 70000};

  const std::string json = p.ToJson();
  ExpectJsonRecord(
      json, {"qid", "sid", "query", "class", "ok", "answers", "total_us",
             "parse_us", "queue_wait_us", "pin_us", "eval_us", "fixpoint_us",
             "render_us", "pinned_epoch", "budget_us", "plan_cache_hits",
             "plan_cache_misses", "iterations", "derived", "duplicates",
             "bindings", "peak_delta", "rounds", "rules"});
  EXPECT_EQ(JsonField(json, "qid"), 7u);
  EXPECT_EQ(JsonField(json, "sid"), 3u);
  EXPECT_EQ(JsonField(json, "queue_wait_us"), 10u);
  EXPECT_EQ(JsonField(json, "pinned_epoch"), 2u);
  EXPECT_EQ(JsonField(json, "fixpoint_us"), 80u);
  EXPECT_EQ(JsonField(json, "derived"), 9u);
  EXPECT_NE(json.find("\"ok\":true"), std::string::npos);
  EXPECT_NE(json.find("\"class\":\"heavy\""), std::string::npos);
  // Two round objects, in execution order.
  EXPECT_NE(json.find("\"rounds\":[{\"stratum\":1,\"round\":1,\"us\":30,"),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"rules\":[{\"label\":\"r1\",\"applications\":2,"
                      "\"derived\":9,\"duplicates\":2,\"us\":70}]"),
            std::string::npos)
      << json;
}

TEST(QueryProfileJsonTest, EscapesQueryTextAndError) {
  obs::QueryProfile p;
  p.ctx = {1, 1, 0};
  p.query = "t(\"a\\b\",\nY)";
  p.ok = false;
  p.error = "bad \"thing\"";
  const std::string json = p.ToJson();
  ExpectJsonRecord(json, {"qid", "query", "error"});
  EXPECT_NE(json.find("\\\"a\\\\b\\\""), std::string::npos) << json;
  EXPECT_NE(json.find("\\n"), std::string::npos) << json;
  EXPECT_NE(json.find("\"ok\":false"), std::string::npos);
  // Budget 0 is omitted.
  EXPECT_EQ(json.find("budget_us"), std::string::npos);
}

// ---------------------------------------------------------------------------
// QueryLog: concurrent JSONL validity and the slow mirror.

TEST(QueryLogTest, ConcurrentRecordsAreValidNonTornJsonl) {
  const std::string path = TempPath("concurrent");
  std::remove(path.c_str());
  obs::QueryLog log;
  ASSERT_TRUE(log.OpenLog(path).ok());

  constexpr int kThreads = 8;
  constexpr int kPerThread = 50;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&log, t] {
      for (int i = 0; i < kPerThread; ++i) {
        obs::QueryProfile p;
        p.ctx.query_id = static_cast<uint64_t>(t * kPerThread + i + 1);
        p.ctx.session_id = static_cast<uint64_t>(t + 1);
        // Long-ish payload so a torn write would be visible.
        p.query = "q" + std::to_string(t) + "(X), X > " + std::to_string(i) +
                  ", pad(\"" + std::string(64, 'x') + "\")";
        p.total_us = static_cast<uint64_t>(i);
        p.eval.rounds.push_back(
            {1, 1, static_cast<uint64_t>(i) * 1000, 0, 1, 1});
        log.Record(p, /*slow_threshold_us=*/0);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  log.Close();

  std::vector<std::string> lines = ReadLines(path);
  ASSERT_EQ(lines.size(), static_cast<size_t>(kThreads * kPerThread));
  EXPECT_EQ(log.records(), static_cast<uint64_t>(kThreads * kPerThread));
  std::set<uint64_t> qids;
  for (const std::string& line : lines) {
    ExpectJsonRecord(line, {"qid", "sid", "query", "total_us", "rounds"});
    qids.insert(JsonField(line, "qid"));
  }
  // Every record arrived exactly once: no loss, no duplication, no
  // interleaving (a torn pair would merge two qids into one line).
  EXPECT_EQ(qids.size(), static_cast<size_t>(kThreads * kPerThread));
  EXPECT_EQ(*qids.begin(), 1u);
  EXPECT_EQ(*qids.rbegin(), static_cast<uint64_t>(kThreads * kPerThread));
  std::remove(path.c_str());
}

TEST(QueryLogTest, SlowMirrorRespectsThreshold) {
  const std::string path = TempPath("log");
  const std::string slow_path = TempPath("slow");
  std::remove(path.c_str());
  std::remove(slow_path.c_str());
  obs::QueryLog log;
  ASSERT_TRUE(log.OpenLog(path).ok());
  ASSERT_TRUE(log.OpenSlowLog(slow_path).ok());
  log.set_slow_threshold_us(1000);

  obs::QueryProfile fast;
  fast.ctx.query_id = 1;
  fast.total_us = 999;
  log.Record(fast);
  obs::QueryProfile slow;
  slow.ctx.query_id = 2;
  slow.total_us = 1000;
  log.Record(slow);
  // A per-query override (session `:slowlog`) beats the log default.
  obs::QueryProfile override_slow;
  override_slow.ctx.query_id = 3;
  override_slow.total_us = 500;
  log.Record(override_slow, /*slow_threshold_us=*/400);
  log.Close();

  EXPECT_EQ(log.records(), 3u);
  EXPECT_EQ(log.slow_records(), 2u);
  EXPECT_EQ(ReadLines(path).size(), 3u);
  std::vector<std::string> slow_lines = ReadLines(slow_path);
  ASSERT_EQ(slow_lines.size(), 2u);
  EXPECT_EQ(JsonField(slow_lines[0], "qid"), 2u);
  EXPECT_EQ(JsonField(slow_lines[1], "qid"), 3u);
  std::remove(path.c_str());
  std::remove(slow_path.c_str());
}

TEST(QueryLogTest, NoStreamsOpenIsANoOp) {
  obs::QueryLog log;
  obs::QueryProfile p;
  p.total_us = 5000;
  log.Record(p, 1);  // must not crash or count
  EXPECT_EQ(log.records(), 0u);
  EXPECT_EQ(log.slow_records(), 0u);
}

// ---------------------------------------------------------------------------
// Scheduler queue-wait accounting under forced queueing.

TEST(SchedulerWaitTest, ForcedQueueingYieldsNonzeroTailWait) {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  obs::Histogram& hist = registry.GetHistogram("server.sched.heavy.wait_us");

  SessionScheduler::Options options;
  options.max_heavy = 1;  // full serialization: everyone else queues
  options.max_light = 8;
  SessionScheduler scheduler(options);

  // Hold the only slot, then queue every caller behind it one at a time
  // (each is started once the previous one is seen waiting), so arrival
  // order is known without reading a clock.
  SessionScheduler::Ticket gate = scheduler.Admit(QueryClass::kHeavy);
  hist.Reset();
  constexpr int kThreads = 8;
  constexpr int kPerThread = 12;  // 96 admissions total
  constexpr int kCallers = kThreads * kPerThread;
  std::mutex mu;
  std::vector<int> order;
  std::vector<uint64_t> waits;
  std::vector<std::thread> threads;
  for (int c = 0; c < kCallers; ++c) {
    threads.emplace_back([&, c] {
      uint64_t waited_us = 0;
      SessionScheduler::Ticket ticket =
          scheduler.Admit(QueryClass::kHeavy, &waited_us);
      {
        std::lock_guard<std::mutex> lock(mu);
        order.push_back(c);
        waits.push_back(waited_us);
      }
      ticket.Release();
    });
    while (scheduler.queued(QueryClass::kHeavy) != static_cast<size_t>(c + 1)) {
      std::this_thread::yield();
    }
  }
  gate.Release();
  for (std::thread& t : threads) t.join();

  ASSERT_EQ(waits.size(), static_cast<size_t>(kCallers));
  // FIFO: tickets are admitted in arrival order.
  std::vector<int> arrival(kCallers);
  for (int c = 0; c < kCallers; ++c) arrival[static_cast<size_t>(c)] = c;
  EXPECT_EQ(order, arrival);

  obs::HistogramSnapshot snap = hist.Snapshot();
  EXPECT_EQ(snap.count, static_cast<uint64_t>(kCallers));
  EXPECT_GE(snap.Percentile(0.5), snap.Percentile(0.1));
  hist.Reset();
}

// ---------------------------------------------------------------------------
// Session pipeline: logging and the `:profile` surface.

TEST(SessionQueryLogTest, EveryQueryLogsOneRecordIncludingErrors) {
  const std::string path = TempPath("session");
  std::remove(path.c_str());
  Shell shell;
  EXPECT_NE(shell.Execute(":qlog " + path).find("query log"),
            std::string::npos);
  shell.Execute("t(X, Y) :- e(X, Y).");
  shell.Execute("t(X, Z) :- t(X, Y), e(Y, Z).");
  shell.Execute("e(1, 2).");
  shell.Execute("e(2, 3).");
  shell.Execute("?- t(1, Y).");
  shell.Execute("?- ((");        // parse error: still one record
  shell.Execute("?- e(9, Y).");  // no answers: still one record
  shell.Execute(":qlog off");    // closes the log, draining the buffer

  std::vector<std::string> lines = ReadLines(path);
  ASSERT_EQ(lines.size(), 3u);
  for (const std::string& line : lines) {
    ExpectJsonRecord(line,
                     {"qid", "sid", "query", "ok", "answers", "total_us",
                      "parse_us", "queue_wait_us", "pin_us", "eval_us",
                      "render_us", "pinned_epoch", "plan_cache_hits",
                      "plan_cache_misses", "iterations", "rounds"});
  }
  EXPECT_NE(lines[0].find("\"ok\":true"), std::string::npos);
  EXPECT_GE(JsonField(lines[0], "answers"), 2u);
  EXPECT_GE(JsonField(lines[0], "iterations"), 2u);
  EXPECT_NE(lines[1].find("\"ok\":false"), std::string::npos);
  EXPECT_NE(lines[1].find("\"error\":"), std::string::npos);
  EXPECT_EQ(JsonField(lines[2], "answers"), 0u);
  // Monotonic qids, one session id throughout.
  EXPECT_LT(JsonField(lines[0], "qid"), JsonField(lines[1], "qid"));
  EXPECT_LT(JsonField(lines[1], "qid"), JsonField(lines[2], "qid"));
  EXPECT_EQ(JsonField(lines[0], "sid"), JsonField(lines[2], "sid"));
  std::remove(path.c_str());
}

TEST(SessionQueryLogTest, SlowlogThresholdGatesTheMirror) {
  const std::string path = TempPath("session_all");
  const std::string slow_path = TempPath("session_slow");
  std::remove(path.c_str());
  std::remove(slow_path.c_str());
  Shell shell;
  shell.Execute(":qlog " + path);
  shell.Execute("e(1, 2).");
  // Absurdly high threshold: nothing mirrors.
  shell.Execute(":slowlog 60000000");
  shell.Execute("?- e(1, Y).");
  shell.Execute(":qlog off");  // records sit buffered until the log closes
  std::vector<std::string> lines = ReadLines(path);
  ASSERT_EQ(lines.size(), 1u);
  // Threshold 1us: everything mirrors — but the session log has no
  // slow stream, so only the counter moves. Status text round-trips.
  EXPECT_NE(shell.Execute(":slowlog").find("60000000"), std::string::npos);
  shell.Execute(":slowlog off");
  EXPECT_NE(shell.Execute(":slowlog").find("host default"),
            std::string::npos);
  std::remove(path.c_str());
  std::remove(slow_path.c_str());
}

/// Digit-run normalization: timings and ids vary per run; shape must
/// not. Every maximal run of digits becomes '#'.
std::string NormalizeDigits(const std::string& text) {
  std::string out;
  bool in_digits = false;
  for (char c : text) {
    if (std::isdigit(static_cast<unsigned char>(c))) {
      if (!in_digits) out += '#';
      in_digits = true;
    } else {
      out += c;
      in_digits = false;
    }
  }
  return out;
}

TEST(ProfileGoldenTest, FixedQueryRendersStableShape) {
  Shell shell;
  shell.Execute("t(X, Y) :- e(X, Y).");
  shell.Execute("t(X, Z) :- t(X, Y), e(Y, Z).");
  shell.Execute("e(1, 2).");
  shell.Execute("e(2, 3).");
  shell.Execute("e(3, 4).");
  shell.Execute("?- t(1, Y).");
  const std::string got = NormalizeDigits(shell.Execute(":profile"));
  // t's recursion keeps argument 0 fixed, so the constant is pushed
  // into the exit rule of the specialized copy t$q and read from the
  // one-row seed relation.
  const std::string want = R"(query ## (session #): t(#, Y)
  path: pushed (t[#] = #)
  answers: #
  total # us = parse # + queue # + pin # + eval # + render #
  fixpoint # us, pinned epoch #
  plan cache: # hits / # misses; iterations #, derived #, duplicates #, peak delta #
  work: rule applications #, bindings #, comparisons #, residue checks #, batches #, morsels #, steals #
  rounds (stratum/round: time, delta in -> out, derived):
    s#/r#: # us, # -> #, derived #
    s#/r#: # us, # -> #, derived #
    s#/r#: # us, # -> #, derived #
    s#/r#: # us, # -> #, derived #
    s#/r#: # us, # -> #, derived #
stratum # (recursive, # rules):
r#$q: t$q(X, Y) :- query$seed($k#), e(X, Y), X = $k#.
  #. query$seed($k#)  [scan] est~#
  #. X = $k#  [bind]
  #. e(X, Y)  [probe cols #] est~#
  actual: # application(s), # derived, # duplicate(s), # us (#.#% of eval)
r#$q: t$q(X, Z) :- t$q(X, Y), e(Y, Z).
  #. t$q(X, Y)  [scan] est~#.#
  #. e(Y, Z)  [probe cols #] est~#.#
  actual: # application(s), # derived, # duplicate(s), # us (#.#% of eval)
stratum # (non-recursive, # rule):
query$: query$answer(Y) :- query$seed($k#), t$q($k#, Y).
  #. t$q($k#, Y)  [scan] est~#.#
  #. query$seed($k#)  [probe cols #] (batch: fused into prior step) est~#.#
  actual: # application(s), # derived, # duplicate(s), # us (#.#% of eval))";
  EXPECT_EQ(got, want);
}

size_t Occurrences(const std::string& text, const std::string& needle) {
  size_t n = 0;
  for (size_t pos = text.find(needle); pos != std::string::npos;
       pos = text.find(needle, pos + needle.size())) {
    ++n;
  }
  return n;
}

TEST(ProfileGoldenTest, MultiLaneProfileRendersEachSectionOnce) {
  Shell shell;
  shell.Execute(":threads 4");
  shell.Execute("t(X, Y) :- e(X, Y).");
  shell.Execute("t(X, Z) :- t(X, Y), e(Y, Z).");
  for (int i = 0; i < 40; ++i) {
    shell.Execute("e(" + std::to_string(i) + ", " + std::to_string(i + 1) +
                  ").");
  }
  const std::string out = shell.Execute(":profile t(X, 40).");
  EXPECT_NE(out.find("path: magic"), std::string::npos) << out;
  for (const char* section :
       {"fixpoint ", "plan cache: ", "iterations ", "peak delta ", "work: ",
        "bindings ", "steals ", "rounds (", "balance ("}) {
    EXPECT_EQ(Occurrences(out, section), 1u) << section << " in\n" << out;
  }
  // One balance row per round, each with all four lanes.
  const obs::QueryProfile& profile = shell.processor().last_profile();
  EXPECT_EQ(Occurrences(out, " 4 lanes, "), profile.eval.rounds.size())
      << out;
}

TEST(ProfileGoldenTest, ProfileWithExplicitQueryAndRuleTimeSum) {
  Shell shell;
  shell.Execute("t(X, Y) :- e(X, Y).");
  shell.Execute("t(X, Z) :- t(X, Y), e(Y, Z).");
  // A chain long enough that rule execution dominates: the per-rule
  // exec times must account for the bulk of the fixpoint time.
  for (int i = 0; i < 64; ++i) {
    shell.Execute("e(" + std::to_string(i) + ", " + std::to_string(i + 1) +
                  ").");
  }
  const std::string out = shell.Execute(":profile t(0, Y), Y > 60.");
  EXPECT_NE(out.find("query #"), std::string::npos) << out;
  // Y is not kept fixed by t's recursion, so the bound goal takes magic
  // sets; the query rule reads the adorned answers and the seed.
  EXPECT_NE(out.find("path: magic"), std::string::npos) << out;
  EXPECT_NE(out.find("query$: query$answer(Y) :- query$seed($k0, $k1), "
                     "t$bf($k0, Y), Y > $k1."),
            std::string::npos)
      << out;
  EXPECT_NE(out.find("% of eval)"), std::string::npos);
  EXPECT_EQ(out.find("(not executed)"), std::string::npos) << out;

  // The profile's per-rule times sum to at most the whole-eval time
  // (they are disjoint slices of it) and, on a rule-dominated
  // workload, to a substantial share of the fixpoint time.
  ASSERT_TRUE(shell.processor().have_last_profile());
  const obs::QueryProfile& profile = shell.processor().last_profile();
  ASSERT_FALSE(profile.eval.per_rule.empty());
  uint64_t rule_sum_us = 0;
  for (const auto& [label, r] : profile.eval.per_rule) {
    rule_sum_us += r.exec_ns / 1000;
  }
  EXPECT_GT(rule_sum_us, 0u);
  EXPECT_LE(rule_sum_us, profile.eval_us + profile.eval_us / 10 + 200);
}

TEST(ProfileGoldenTest, ProfileWithoutPriorQueryExplains) {
  Shell shell;
  EXPECT_NE(shell.Execute(":profile").find("no query to profile"),
            std::string::npos);
}

}  // namespace
}  // namespace semopt
