// Experiment E10: block-at-a-time (batched) join execution, with and
// without the vectorized kernels, at identical plans and results.
//
// Claims measured:
//   * streaming frame blocks through the step pipeline (probe-key
//     gathering + ProbeBatch + tight extend loops, block head flushes)
//     on join-heavy fixpoints, with the SIMD kernels on and off;
//   * the cross-round plan cache removes steady-state planning/index
//     tolls (hits are published as counters).
//
// Series: the E1 university workload (recursive eval with fan-out), the
// E6 chain-shaped university full evaluation, and the E8 genealogy
// workload (1 and 4 threads). Every config runs with
// eval.batch_size=1024 (Batch) and =1024 with simd=off (BatchScalar —
// the vectorized-kernel ablation); before timing, both modes are
// evaluated once and the benchmark aborts unless the derived tuple
// counts are bit-identical and the fixpoints set-equal.

#include <set>
#include <string>

#include "bench_common.h"
#include "eval/rule_executor.h"
#include "workload/genealogy.h"
#include "workload/university.h"

namespace semopt {
namespace {

EvalOptions OptionsFor(size_t batch_size, size_t threads,
                       SimdMode simd = SimdMode::kAuto) {
  EvalOptions options;
  options.batch_size = batch_size;
  options.num_threads = threads;
  options.simd = simd;
  return options;
}

EvalStats EvaluateModeOrDie(::benchmark::State& state, const Program& program,
                            const Database& edb, size_t batch_size,
                            size_t threads, SimdMode simd = SimdMode::kAuto) {
  bench::MaybeEnableTracingFromEnv();
  EvalStats stats;
  Result<Database> idb =
      Evaluate(program, edb, OptionsFor(batch_size, threads, simd), &stats);
  if (!idb.ok()) {
    state.SkipWithError(idb.status().ToString().c_str());
  }
  return stats;
}

/// One-time per (tag, config): evaluates the batched vectorized and
/// batched scalar (simd=off) modes and aborts the benchmark unless both
/// derive bit-identical counts and set-equal fixpoints. Runs outside
/// the timed loop.
void VerifyModesAgreeOnce(::benchmark::State& state, const std::string& tag,
                          const Program& program, const Database& edb,
                          size_t threads) {
  static std::set<std::string>* verified = new std::set<std::string>();
  if (!verified->insert(tag).second) return;
  EvalStats batch_stats, scalar_stats;
  Result<Database> batch_idb = Evaluate(
      program, edb, OptionsFor(RuleExecutor::kDefaultBatchSize, threads),
      &batch_stats);
  Result<Database> scalar_idb = Evaluate(
      program, edb,
      OptionsFor(RuleExecutor::kDefaultBatchSize, threads, SimdMode::kOff),
      &scalar_stats);
  if (!batch_idb.ok() || !scalar_idb.ok()) {
    state.SkipWithError("verification evaluation failed");
    return;
  }
  if (batch_stats.derived_tuples != scalar_stats.derived_tuples ||
      batch_stats.duplicate_tuples != scalar_stats.duplicate_tuples ||
      batch_stats.bindings_explored != scalar_stats.bindings_explored ||
      !batch_idb->SameFactsAs(*scalar_idb)) {
    state.SkipWithError("vectorized and scalar batched modes disagree");
  }
}

void PublishBatchStats(::benchmark::State& state, const EvalStats& stats) {
  bench::PublishStats(state, stats);
  state.counters["cache_hit"] = static_cast<double>(stats.plan_cache_hits);
  state.counters["cache_miss"] = static_cast<double>(stats.plan_cache_misses);
  state.counters["batches"] = static_cast<double>(stats.batches);
}

// ------------------------------------------------------------- E1 config

UniversityParams E1ParamsFor(const ::benchmark::State& state) {
  UniversityParams params;
  params.num_students = static_cast<size_t>(state.range(0));
  params.num_professors = params.num_students / 2;
  params.fields_per_thesis = 2;
  params.num_fields = 12;
  params.seed = 1234;
  return params;
}

void RunE1(::benchmark::State& state, size_t batch_size,
           SimdMode simd = SimdMode::kAuto) {
  Result<Program> program = UniversityProgram();
  Database edb = GenerateUniversityDb(E1ParamsFor(state));
  VerifyModesAgreeOnce(state,
                       "e1/" + std::to_string(state.range(0)), *program, edb,
                       /*threads=*/1);
  EvalStats stats;
  for (auto _ : state) {
    stats = EvaluateModeOrDie(state, *program, edb, batch_size, 1, simd);
  }
  PublishBatchStats(state, stats);
}

void BM_E10_E1_University_Batch(::benchmark::State& state) {
  RunE1(state, RuleExecutor::kDefaultBatchSize);
}
void BM_E10_E1_University_BatchScalar(::benchmark::State& state) {
  RunE1(state, RuleExecutor::kDefaultBatchSize, SimdMode::kOff);
}

// ------------------------------------------------------------- E6 config

UniversityParams E6ParamsFor(const ::benchmark::State& state) {
  UniversityParams params;
  params.num_students = static_cast<size_t>(state.range(0));
  params.num_professors = params.num_students / 2;
  params.fields_per_thesis = 2;
  params.num_departments = 8;
  params.seed = 321;
  return params;
}

void RunE6(::benchmark::State& state, size_t batch_size,
           SimdMode simd = SimdMode::kAuto) {
  Result<Program> program = UniversityProgram();
  Database edb = GenerateUniversityDb(E6ParamsFor(state));
  VerifyModesAgreeOnce(state,
                       "e6/" + std::to_string(state.range(0)), *program, edb,
                       /*threads=*/1);
  EvalStats stats;
  for (auto _ : state) {
    stats = EvaluateModeOrDie(state, *program, edb, batch_size, 1, simd);
  }
  PublishBatchStats(state, stats);
}

void BM_E10_E6_UniversityChain_Batch(::benchmark::State& state) {
  RunE6(state, RuleExecutor::kDefaultBatchSize);
}
void BM_E10_E6_UniversityChain_BatchScalar(::benchmark::State& state) {
  RunE6(state, RuleExecutor::kDefaultBatchSize, SimdMode::kOff);
}

// ------------------------------------------------------------- E8 config

GenealogyParams E8ParamsFor(const ::benchmark::State& state) {
  GenealogyParams params;
  params.num_families = static_cast<size_t>(state.range(0));
  params.generations = 7;
  params.children_per_person = 2;
  params.seed = 99;
  return params;
}

void RunE8(::benchmark::State& state, size_t batch_size,
           SimdMode simd = SimdMode::kAuto) {
  Result<Program> program = GenealogyProgram();
  Database edb = GenerateGenealogyDb(E8ParamsFor(state));
  size_t threads = static_cast<size_t>(state.range(1));
  VerifyModesAgreeOnce(state,
                       "e8/" + std::to_string(state.range(0)) + "/" +
                           std::to_string(threads),
                       *program, edb, threads);
  EvalStats stats;
  for (auto _ : state) {
    stats = EvaluateModeOrDie(state, *program, edb, batch_size, threads, simd);
  }
  PublishBatchStats(state, stats);
}

void BM_E10_E8_Genealogy_Batch(::benchmark::State& state) {
  RunE8(state, RuleExecutor::kDefaultBatchSize);
}
void BM_E10_E8_Genealogy_BatchScalar(::benchmark::State& state) {
  RunE8(state, RuleExecutor::kDefaultBatchSize, SimdMode::kOff);
}

void E1E6Args(::benchmark::internal::Benchmark* b) {
  for (int students : {200, 400, 800, 1600, 3200}) b->Args({students});
  b->ArgNames({"students"});
  b->Unit(::benchmark::kMillisecond);
}

void E8Args(::benchmark::internal::Benchmark* b) {
  for (int threads : {1, 4}) b->Args({64, threads});
  b->ArgNames({"families", "threads"});
  b->Unit(::benchmark::kMillisecond);
}

BENCHMARK(BM_E10_E1_University_Batch)->Apply(E1E6Args);
BENCHMARK(BM_E10_E1_University_BatchScalar)->Apply(E1E6Args);
BENCHMARK(BM_E10_E6_UniversityChain_Batch)->Apply(E1E6Args);
BENCHMARK(BM_E10_E6_UniversityChain_BatchScalar)->Apply(E1E6Args);
BENCHMARK(BM_E10_E8_Genealogy_Batch)->Apply(E8Args);
BENCHMARK(BM_E10_E8_Genealogy_BatchScalar)->Apply(E8Args);

}  // namespace
}  // namespace semopt

SEMOPT_BENCH_MAIN();
