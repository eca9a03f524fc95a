// E11: concurrent query serving. Drives the QueryServer over real
// loopback sockets with 1/4/16/64 concurrent sessions, each issuing a
// mixed stream of light point lookups and heavy recursive queries, and
// reports end-to-end throughput plus client-observed latency
// percentiles (p50/p99, microseconds). The questions this answers:
//   - does snapshot pinning + the shared plan cache + two-class
//     admission keep per-request latency flat as sessions multiply?
//   - how far does aggregate throughput scale before the admission
//     limits (not the clients) become the ceiling?
//   - what does always-on query logging cost? (BM_ServingLogged runs
//     the identical workload with the structured query log enabled and
//     a 100ms slow-query mirror; the acceptance bar is within 3% of
//     BM_Serving at 64 sessions — see EXPERIMENTS.md E12.)
// Light and heavy requests are timed separately: admission keeps the
// light tail bounded even while heavy fixpoints saturate their class.
// Percentiles come from bench::LatencyRecorder (the shared log-bucket
// histogram), not an ad-hoc sort.
//
// Two socket-free legs isolate the fixed cost a heavy request pays
// before its join: BM_PlanCacheHit times one plan-cache hit (private
// and shared cache), the lookup every rule of every round makes, and
// BM_PushedBoundGoal times one pushed bound goal end to end in the
// library (PlanQuery + RunQueryPlan through the shared cache + answer
// rendering), the serving path minus the protocol.
//
// Artifact: bench/BENCH_e11.json (see EXPERIMENTS.md).

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "eval/plan_cache.h"
#include "eval/shared_plan_cache.h"
#include "magic/query_paths.h"
#include "parser/parser.h"
#include "server/protocol.h"
#include "server/server.h"
#include "storage/database.h"

namespace semopt {
namespace {

constexpr int kChain = 96;  // e(0,1)..e(95,96); closure = 4656 tuples

Database ChainDatabase() {
  Database db;
  for (int i = 0; i < kChain; ++i) {
    Status st = db.AddFact(Atom("e", {Term::Int(i), Term::Int(i + 1)}));
    if (!st.ok()) std::abort();
  }
  return db;
}

/// Blocking protocol client on one socket.
class BenchClient {
 public:
  explicit BenchClient(uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    if (fd_ < 0 ||
        ::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
      std::abort();
    }
  }
  ~BenchClient() {
    if (fd_ >= 0) ::close(fd_);
  }

  /// Sends one request, drains the dot-terminated response; returns
  /// false on transport failure.
  bool Request(const std::string& line) {
    std::string wire = line + "\n";
    size_t off = 0;
    while (off < wire.size()) {
      ssize_t n = ::send(fd_, wire.data() + off, wire.size() - off,
                         MSG_NOSIGNAL);
      if (n <= 0) return false;
      off += static_cast<size_t>(n);
    }
    char buf[4096];
    while (true) {
      std::optional<std::string> received = lines_.PopLine();
      if (received.has_value()) {
        if (*received == ".") return true;
        continue;
      }
      ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
      if (n <= 0) return false;
      lines_.Feed(std::string_view(buf, static_cast<size_t>(n)));
    }
  }

 private:
  int fd_ = -1;
  LineBuffer lines_;
};

/// One serving run: `sessions` client threads, each issuing
/// `kRequestsPerSession` requests (every 5th heavy). Latency samples
/// land in the shared recorders (lock-free Observe).
struct RunResult {
  double seconds = 0;
  size_t requests = 0;
  bool ok = true;
};

RunResult RunServingWorkload(uint16_t port, int sessions,
                             bench::LatencyRecorder* light,
                             bench::LatencyRecorder* heavy) {
  constexpr int kRequestsPerSession = 40;
  RunResult result;
  std::atomic<bool> failed{false};
  std::atomic<size_t> requests{0};

  const auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  for (int s = 0; s < sessions; ++s) {
    threads.emplace_back([&, s] {
      BenchClient client(port);
      // Session setup (untimed): the recursive program.
      if (!client.Request("t(X, Y) :- e(X, Y).") ||
          !client.Request("t(X, Z) :- t(X, Y), e(Y, Z).")) {
        failed.store(true);
        return;
      }
      for (int i = 0; i < kRequestsPerSession; ++i) {
        const bool is_heavy = i % 5 == 4;
        const std::string request =
            is_heavy ? "?- t(0, Y), Y > 90."
                     : "?- e(" + std::to_string((s + i) % kChain) + ", Y).";
        const auto t0 = std::chrono::steady_clock::now();
        if (!client.Request(request)) {
          failed.store(true);
          return;
        }
        const uint64_t us =
            static_cast<uint64_t>(
                std::chrono::duration_cast<std::chrono::microseconds>(
                    std::chrono::steady_clock::now() - t0)
                    .count());
        (is_heavy ? heavy : light)->Observe(us);
        requests.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  result.seconds = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - start)
                       .count();
  result.ok = !failed.load();
  result.requests = requests.load();
  return result;
}

/// Shared body of BM_Serving / BM_ServingLogged: `logged` turns on the
/// structured query log (to a scratch file) with the slow-query mirror
/// armed at 100ms. At low session counts the mirror stays cold (no
/// request takes 100ms of work); at 64 sessions queue wait pushes a
/// slice of total_us past the threshold, so the logged leg exercises
/// both streams — the worst case the 3% overhead bar is meant to
/// cover (EXPERIMENTS.md E12).
void RunServingBench(::benchmark::State& state, bool logged) {
  const int sessions = static_cast<int>(state.range(0));
  QueryServer::Options options;
  options.threads_per_query = 1;
  std::string log_path;
  if (logged) {
    log_path = "/tmp/semopt_bench_e11_qlog_" +
               std::to_string(::getpid()) + ".jsonl";
    options.query_log_path = log_path;
    options.slow_log_path = log_path + ".slow";
    options.slow_query_us = 100000;
  }
  QueryServer server(ChainDatabase(), options);
  if (!server.Start().ok()) {
    state.SkipWithError("server failed to start");
    return;
  }

  bench::LatencyRecorder light, heavy;
  size_t requests = 0;
  for (auto _ : state) {
    RunResult run =
        RunServingWorkload(server.port(), sessions, &light, &heavy);
    if (!run.ok) {
      state.SkipWithError("client transport failure");
      break;
    }
    state.SetIterationTime(run.seconds);
    requests += run.requests;
  }
  const uint64_t logged_records = server.query_log().records();
  server.Stop();
  if (!log_path.empty()) {
    ::unlink(log_path.c_str());
    ::unlink((log_path + ".slow").c_str());
  }

  state.SetItemsProcessed(static_cast<int64_t>(requests));
  state.counters["sessions"] = sessions;
  state.counters["light_p50_us"] =
      static_cast<double>(light.PercentileUs(0.50));
  state.counters["light_p99_us"] =
      static_cast<double>(light.PercentileUs(0.99));
  state.counters["heavy_p50_us"] =
      static_cast<double>(heavy.PercentileUs(0.50));
  state.counters["heavy_p99_us"] =
      static_cast<double>(heavy.PercentileUs(0.99));
  state.counters["plan_cache_hits"] =
      static_cast<double>(server.plan_cache().hits());
  if (logged) {
    state.counters["logged_records"] = static_cast<double>(logged_records);
  }
}

void BM_Serving(::benchmark::State& state) { RunServingBench(state, false); }

/// One warm plan-cache hit for a three-literal rule over the chain;
/// arg 1 goes through the sharded SharedPlanCache the server uses.
void BM_PlanCacheHit(::benchmark::State& state) {
  const bool shared = state.range(0) == 1;
  Database db = ChainDatabase();
  DatabaseSource source(&db);
  Result<Rule> rule = ParseRule("p(X, Z) :- e(X, Y), e(Y, Z), Z > 3.");
  Result<RuleExecutor> exec =
      rule.ok() ? RuleExecutor::Create(*rule) : rule.status();
  if (!exec.ok()) {
    state.SkipWithError(exec.status().ToString().c_str());
    return;
  }
  PlanCache private_cache;
  SharedPlanCache shared_cache;
  PlanCacheInterface& cache =
      shared ? static_cast<PlanCacheInterface&>(shared_cache) : private_cache;
  EvalStats stats;
  if (!cache.Get(*exec, source, -1, &stats).ok()) {
    state.SkipWithError("plan failed");
    return;
  }
  for (auto _ : state) {
    Result<RuleExecutor::PreparedPlan> plan =
        cache.Get(*exec, source, -1, &stats);
    ::benchmark::DoNotOptimize(plan);
  }
  state.counters["hits"] = static_cast<double>(stats.plan_cache_hits);
  state.counters["misses"] = static_cast<double>(stats.plan_cache_misses);
}

/// The fixed cost of one pushed bound goal `t(90, Y)` (6 answers): the
/// query-path choice, the pushed program's fixpoint through a warm
/// shared plan cache, and the answer rendering.
void BM_PushedBoundGoal(::benchmark::State& state) {
  Result<Program> program = ParseProgram(
      "t(X, Y) :- e(X, Y).\n"
      "t(X, Z) :- t(X, Y), e(Y, Z).\n");
  Result<std::vector<Literal>> body = ParseLiteralList("t(90, Y)");
  if (!program.ok() || !body.ok()) {
    state.SkipWithError("parse failed");
    return;
  }
  std::vector<Term> projection = {Term::Var("Y")};
  Database db = ChainDatabase();
  SharedPlanCache cache;
  EvalOptions options;
  options.plan_cache = &cache;
  size_t answers = 0, lookups = 0, hits = 0, queries = 0;
  for (auto _ : state) {
    Result<QueryPlan> plan = PlanQuery(*program, *body, projection);
    if (!plan.ok() || plan->path != QueryPath::kPushed) {
      state.SkipWithError("t(90, Y) did not take the pushed path");
      return;
    }
    EvalStats stats;
    Result<QueryResult> result = RunQueryPlan(*plan, db, options, &stats);
    if (!result.ok()) {
      state.SkipWithError(result.status().ToString().c_str());
      return;
    }
    std::string out;
    result->AppendTo(&out);
    ::benchmark::DoNotOptimize(out);
    answers = result->size();
    lookups += stats.plan_cache_hits + stats.plan_cache_misses;
    hits += stats.plan_cache_hits;
    ++queries;
  }
  state.counters["answers"] = static_cast<double>(answers);
  state.counters["plan_lookups_per_query"] =
      static_cast<double>(lookups) / static_cast<double>(queries);
  state.counters["plan_hit_ratio"] =
      static_cast<double>(hits) / static_cast<double>(lookups);
}

void BM_ServingLogged(::benchmark::State& state) {
  RunServingBench(state, true);
}

BENCHMARK(BM_Serving)
    ->Arg(1)
    ->Arg(4)
    ->Arg(16)
    ->Arg(64)
    ->UseManualTime()
    ->Unit(::benchmark::kMillisecond)
    ->Iterations(3);

BENCHMARK(BM_ServingLogged)
    ->Arg(1)
    ->Arg(16)
    ->Arg(64)
    ->UseManualTime()
    ->Unit(::benchmark::kMillisecond)
    ->Iterations(3);

BENCHMARK(BM_PlanCacheHit)->ArgName("shared")->Arg(0)->Arg(1);

BENCHMARK(BM_PushedBoundGoal)->Unit(::benchmark::kMicrosecond);

}  // namespace
}  // namespace semopt

SEMOPT_BENCH_MAIN();
