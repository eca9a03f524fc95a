// Experiment E8: parallel fixpoint scaling.
//
// Measures the morsel-driven semi-naive fixpoint engine (src/exec/) at
// 1/2/4/8 worker lanes, on the genealogy and organization workloads,
// for both the original and the semantically optimized program. One
// lane runs unpartitioned plans, one task per rule execution, so the
// 1-thread rows are the single-lane baseline. With more lanes each
// round carves the frozen delta into ~batch_size-row morsels pulled off
// a shared cursor, so the `bindings` counter is invariant across the
// multi-lane thread counts (tests/morsel_test.cc) and those rows differ
// in wall clock only.
//
// Results are set-equal across thread counts (tests/morsel_test.cc);
// this benchmark quantifies the wall-clock effect only. Speedup is
// bounded by the machine's core count — on a single-core machine every
// thread count collapses to one lane plus overhead. Read the
// hw_cores / hw_governor context keys stamped into the JSON output
// before interpreting a scaling curve.

#include "bench_common.h"
#include "workload/genealogy.h"
#include "workload/organization.h"

namespace semopt {
namespace {

EvalStats EvaluateThreadedOrDie(::benchmark::State& state,
                                const Program& program, const Database& edb,
                                size_t num_threads) {
  bench::MaybeEnableTracingFromEnv();
  EvalOptions options;
  options.num_threads = num_threads;
  EvalStats stats;
  Result<Database> idb = Evaluate(program, edb, options, &stats);
  if (!idb.ok()) {
    state.SkipWithError(idb.status().ToString().c_str());
  }
  return stats;
}

GenealogyParams GenealogyParamsFor(const ::benchmark::State& state) {
  GenealogyParams params;
  params.num_families = static_cast<size_t>(state.range(1));
  params.generations = 7;
  params.children_per_person = 2;
  params.seed = 99;
  return params;
}

OrganizationParams OrganizationParamsFor(const ::benchmark::State& state) {
  OrganizationParams params;
  params.num_employees = static_cast<size_t>(state.range(1));
  params.num_levels = 7;
  params.seed = 99;
  return params;
}

void BM_E8_Genealogy(::benchmark::State& state) {
  Result<Program> program = GenealogyProgram();
  Database edb = GenerateGenealogyDb(GenealogyParamsFor(state));
  size_t threads = static_cast<size_t>(state.range(0));
  {
    EvalOptions options;
    options.num_threads = threads;
    bench::MaybeWriteBenchTrace(threads == 4 ? "e8_genealogy_t4" : nullptr,
                                *program, edb, options);
  }
  EvalStats stats;
  for (auto _ : state) {
    stats = EvaluateThreadedOrDie(state, *program, edb, threads);
  }
  bench::PublishStats(state, stats);
}

void BM_E8_GenealogyOptimized(::benchmark::State& state) {
  Result<Program> program = GenealogyProgram();
  Program optimized = bench::OptimizeOrDie(state, *program);
  Database edb = GenerateGenealogyDb(GenealogyParamsFor(state));
  size_t threads = static_cast<size_t>(state.range(0));
  EvalStats stats;
  for (auto _ : state) {
    stats = EvaluateThreadedOrDie(state, optimized, edb, threads);
  }
  bench::PublishStats(state, stats);
}

void BM_E8_Organization(::benchmark::State& state) {
  Result<Program> program = OrganizationProgram();
  Database edb = GenerateOrganizationDb(OrganizationParamsFor(state));
  size_t threads = static_cast<size_t>(state.range(0));
  EvalStats stats;
  for (auto _ : state) {
    stats = EvaluateThreadedOrDie(state, *program, edb, threads);
  }
  bench::PublishStats(state, stats);
}

void BM_E8_OrganizationOptimized(::benchmark::State& state) {
  Result<Program> program = OrganizationProgram();
  Program optimized = bench::OptimizeOrDie(state, *program);
  Database edb = GenerateOrganizationDb(OrganizationParamsFor(state));
  size_t threads = static_cast<size_t>(state.range(0));
  EvalStats stats;
  for (auto _ : state) {
    stats = EvaluateThreadedOrDie(state, optimized, edb, threads);
  }
  bench::PublishStats(state, stats);
}

void E8GenealogyArgs(::benchmark::internal::Benchmark* b) {
  for (int threads : {1, 2, 4, 8}) {
    for (int families : {40, 80}) {
      b->Args({threads, families});
    }
  }
  b->ArgNames({"threads", "families"});
  b->Unit(::benchmark::kMillisecond);
}

void E8OrganizationArgs(::benchmark::internal::Benchmark* b) {
  for (int threads : {1, 2, 4, 8}) {
    for (int employees : {400, 800}) {
      b->Args({threads, employees});
    }
  }
  b->ArgNames({"threads", "employees"});
  b->Unit(::benchmark::kMillisecond);
}

BENCHMARK(BM_E8_Genealogy)->Apply(E8GenealogyArgs);
BENCHMARK(BM_E8_GenealogyOptimized)->Apply(E8GenealogyArgs);
BENCHMARK(BM_E8_Organization)->Apply(E8OrganizationArgs);
BENCHMARK(BM_E8_OrganizationOptimized)->Apply(E8OrganizationArgs);

}  // namespace
}  // namespace semopt

SEMOPT_BENCH_MAIN();
