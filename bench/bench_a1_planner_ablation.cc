// Ablation A1 (DESIGN.md §2(7), §15): the join planner.
//
// The engine plans every rule execution from the current sizes and
// per-column distinct sketches of its input relations (the cost
// enumerator, CostPlanner::Enumerate); EXPERIMENTS.md A1 records the
// size-blind and greedy regimes' numbers for comparison. The legs:
//  - BM_A1_Original / BM_A1_Optimized: the university workload, for
//    the original and for the semantically optimized program, planning
//    included (a private plan cache per evaluation).
//  - BM_A1_Fanout: a join where a smallest-relation-first pick opens
//    with a relation that fans out ~80x, while the distinct sketches
//    see through it.
//  - BM_A1_University: the optimized university program.
// The Fanout and University legs verify their fixpoint against a
// cache-less evaluation before timing and then run through a session
// PlanCache, so the timed steady state plans zero times per iteration
// (the `plan_misses` counter).

#include "bench_common.h"
#include "eval/plan_cache.h"
#include "parser/parser.h"
#include "workload/university.h"

namespace semopt {
namespace {

UniversityParams Params() {
  UniversityParams params;
  params.num_students = 200;
  params.num_professors = 100;
  params.fields_per_thesis = 2;
  params.seed = 2024;
  return params;
}

void Run(::benchmark::State& state, bool optimized) {
  Result<Program> program = UniversityProgram();
  Program to_run = *program;
  if (optimized) to_run = bench::OptimizeOrDie(state, *program);
  Database edb = GenerateUniversityDb(Params());
  EvalStats stats;
  for (auto _ : state) {
    stats = EvalStats();
    Result<Database> idb = Evaluate(to_run, edb, EvalOptions(), &stats);
    if (!idb.ok()) {
      state.SkipWithError(idb.status().ToString().c_str());
      return;
    }
  }
  bench::PublishStats(state, stats);
}

void BM_A1_Original(::benchmark::State& state) {
  Run(state, /*optimized=*/false);
}
void BM_A1_Optimized(::benchmark::State& state) {
  Run(state, /*optimized=*/true);
}

BENCHMARK(BM_A1_Original)->Unit(::benchmark::kMillisecond);
BENCHMARK(BM_A1_Optimized)->Unit(::benchmark::kMillisecond);

// --- plan-cached legs ---

/// src joins into hub on a 25-value skew column; filt pins A almost
/// uniquely. hub is the smallest relation, so a smallest-first pick
/// would open with it and fan every hub row out into ~80 src probes;
/// the distinct sketches order src -> filt -> hub instead and the
/// intermediate never grows.
Database FanoutDb() {
  Database db;
  for (int i = 0; i < 2000; ++i) {
    Status st = db.AddFact(Atom("src", {Term::Int(i), Term::Int(i % 25)}));
    if (st.ok()) {
      st = db.AddFact(Atom("filt", {Term::Int(i), Term::Int(i % 76)}));
    }
    if (!st.ok()) std::abort();
  }
  for (int b = 0; b < 25; ++b) {
    for (int c = 0; c < 76; ++c) {
      if (!db.AddFact(Atom("hub", {Term::Int(b), Term::Int(c)})).ok()) {
        std::abort();
      }
    }
  }
  return db;
}

Program FanoutProgram(::benchmark::State& state) {
  Result<Program> program = ParseProgram(R"(
    q(A, C) :- src(A, B), hub(B, C), filt(A, C).
    r(A, C) :- q(A, C).
    r(A, C) :- r(A, B), q(B, C).
  )");
  if (!program.ok()) {
    state.SkipWithError(program.status().ToString().c_str());
    return Program();
  }
  return *program;
}

/// One timed leg: verifies the plan-cached fixpoint against a
/// cache-less evaluation before the clock starts, then times through a
/// session PlanCache (steady state: the warmup iteration plans, timed
/// iterations hit every round).
void RunCachedLeg(::benchmark::State& state, const Program& program,
                  const Database& edb) {
  PlanCache cache;
  EvalOptions options;
  options.plan_cache = &cache;
  Result<Database> fresh_idb = Evaluate(program, edb, EvalOptions());
  Result<Database> cached_idb = Evaluate(program, edb, options);
  if (!fresh_idb.ok() || !cached_idb.ok()) {
    state.SkipWithError("pre-timing evaluation failed");
    return;
  }
  if (!fresh_idb->SameFactsAs(*cached_idb)) {
    state.SkipWithError("plan-cached and fresh fixpoints differ");
    return;
  }

  EvalStats stats;
  for (auto _ : state) {
    stats = EvalStats();
    Result<Database> idb = Evaluate(program, edb, options, &stats);
    if (!idb.ok()) {
      state.SkipWithError(idb.status().ToString().c_str());
      return;
    }
  }
  bench::PublishStats(state, stats);
  // 0 in steady state: every timed round replays a memoized plan.
  state.counters["plan_misses"] =
      static_cast<double>(stats.plan_cache_misses);
}

void BM_A1_Fanout(::benchmark::State& state) {
  Program program = FanoutProgram(state);
  Database edb = FanoutDb();
  RunCachedLeg(state, program, edb);
}

void BM_A1_University(::benchmark::State& state) {
  Result<Program> program = UniversityProgram();
  Program to_run = bench::OptimizeOrDie(state, *program);
  Database edb = GenerateUniversityDb(Params());
  RunCachedLeg(state, to_run, edb);
}

BENCHMARK(BM_A1_Fanout)->Unit(::benchmark::kMillisecond);
BENCHMARK(BM_A1_University)->Unit(::benchmark::kMillisecond);

}  // namespace
}  // namespace semopt

SEMOPT_BENCH_MAIN();
