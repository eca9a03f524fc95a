// E9: flat tuple storage microbenchmarks.
//
// Times the arena-backed Relation (TupleStore + RowId-only indexes) on
// insert, indexed insert, probe, clear/refill and scan, plus the
// columnar-select and batch-hash kernel ablations. The pre-flat
// storage baseline (std::vector<Tuple> rows, an unordered_set dedup
// copy, map-keyed indexes over materialized key tuples) is no longer
// built; its numbers are a recorded row in EXPERIMENTS.md E9, taken
// from BENCH_e9.json. Workloads are deterministic (SplitMix64) so runs
// stay comparable with that record.

#include <cmath>
#include <cstdint>
#include <vector>

#include "benchmark/benchmark.h"

#include "ast/atom.h"
#include "bench_common.h"
#include "storage/column_view.h"
#include "storage/relation.h"
#include "storage/tuple.h"
#include "storage/vector_kernels.h"
#include "util/hash_util.h"

namespace semopt {
namespace {

PredicateId BenchPred(const char* name, uint32_t arity) {
  return PredicateId{InternSymbol(name), arity};
}

/// Deterministic binary workload of `n` tuples. `dense == 0`: each
/// coordinate spans [0, 2n) — inserts are near-unique and probe keys
/// near-distinct (EDB load shape). `dense == 1`: the pair domain is
/// ~1.7n, so ~25% of inserts are duplicates and probe keys repeat —
/// the re-derivation churn semi-naive deltas see (E1 reports dups ≈
/// derived). Values are near-sequential small ints, like interned
/// SymbolIds.
std::vector<Tuple> MakeWorkload(int64_t n, int64_t dense) {
  std::vector<Tuple> rows;
  rows.reserve(n);
  SplitMix64 rng(0xe9u);
  const uint64_t side =
      dense != 0 ? static_cast<uint64_t>(
                       std::sqrt(1.7 * static_cast<double>(n)) + 1.0)
                 : static_cast<uint64_t>(n) * 2;
  for (int64_t i = 0; i < n; ++i) {
    rows.push_back(Tuple{Term::Int(static_cast<int64_t>(rng.Below(side))),
                         Term::Int(static_cast<int64_t>(rng.Below(side)))});
  }
  return rows;
}

void BM_FlatInsert(benchmark::State& state) {
  const int64_t n = state.range(0);
  std::vector<Tuple> rows = MakeWorkload(n, state.range(1));
  for (auto _ : state) {
    Relation rel(BenchPred("e9_flat_insert", 2));
    for (const Tuple& t : rows) benchmark::DoNotOptimize(rel.Insert(t));
    benchmark::DoNotOptimize(rel.size());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_FlatInsert)->Args({100000, 0})
    ->Args({400000, 0})
    ->Args({100000, 1})
    ->Args({400000, 1})
    ->Unit(benchmark::kMillisecond);

void BM_FlatInsertIndexed(benchmark::State& state) {
  const int64_t n = state.range(0);
  std::vector<Tuple> rows = MakeWorkload(n, state.range(1));
  for (auto _ : state) {
    Relation rel(BenchPred("e9_flat_insert_idx", 2));
    rel.EnsureIndex({0});
    for (const Tuple& t : rows) benchmark::DoNotOptimize(rel.Insert(t));
    benchmark::DoNotOptimize(rel.size());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_FlatInsertIndexed)
    ->Args({100000, 0})
    ->Args({400000, 0})
    ->Args({100000, 1})
    ->Args({400000, 1})
    ->Unit(benchmark::kMillisecond);

void BM_FlatProbe(benchmark::State& state) {
  const int64_t n = state.range(0);
  std::vector<Tuple> rows = MakeWorkload(n, state.range(1));
  Relation rel(BenchPred("e9_flat_probe", 2));
  rel.EnsureIndex({0});
  for (const Tuple& t : rows) rel.Insert(t);
  for (auto _ : state) {
    size_t hits = 0;
    for (const Tuple& t : rows) {
      // The allocation-free path: key values read straight from `t`.
      hits += rel.Probe({0}, t.data()).size();
    }
    benchmark::DoNotOptimize(hits);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_FlatProbe)->Args({100000, 0})
    ->Args({400000, 0})
    ->Args({100000, 1})
    ->Args({400000, 1})
    ->Unit(benchmark::kMillisecond);

void BM_FlatClearRefill(benchmark::State& state) {
  // Delta double-buffer pattern: Clear() keeps capacity, so refills are
  // allocation-free in steady state.
  const int64_t n = state.range(0);
  std::vector<Tuple> rows = MakeWorkload(n, state.range(1));
  Relation rel(BenchPred("e9_flat_refill", 2));
  for (const Tuple& t : rows) rel.Insert(t);
  for (auto _ : state) {
    rel.Clear();
    for (const Tuple& t : rows) benchmark::DoNotOptimize(rel.Insert(t));
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_FlatClearRefill)->Args({100000, 0})->Args({100000, 1})->Unit(benchmark::kMillisecond);

void BM_FlatScan(benchmark::State& state) {
  const int64_t n = state.range(0);
  std::vector<Tuple> rows = MakeWorkload(n, state.range(1));
  Relation rel(BenchPred("e9_flat_scan", 2));
  for (const Tuple& t : rows) rel.Insert(t);
  for (auto _ : state) {
    int64_t sum = 0;
    for (RowRef row : rel.rows()) sum += row[0].int_value();
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() * rel.size());
}
BENCHMARK(BM_FlatScan)->Args({400000, 0})->Args({400000, 1})->Unit(benchmark::kMillisecond);

/// Constant-filter ablation over the columnar snapshot: simd:1 runs the
/// selection-vector SelectEq kernel over the cached ColumnView's u64
/// payload lane; simd:0 is the row-at-a-time Term-compare loop the
/// executor used before columnar scans. Hit sets are asserted equal
/// before timing.
void BM_ColumnarSelect(benchmark::State& state) {
  const int64_t n = state.range(0);
  const bool simd = state.range(1) != 0;
  std::vector<Tuple> rows = MakeWorkload(n, /*dense=*/1);
  Relation rel(BenchPred("e9_columnar_select", 2));
  for (const Tuple& t : rows) rel.Insert(t);
  std::shared_ptr<const ColumnView> view = rel.EnsureColumns();
  const uint32_t end = static_cast<uint32_t>(view->rows());
  const Value needle = rows[static_cast<size_t>(n) / 2][0];
  {
    std::vector<uint32_t> vec_sel, row_sel;
    view->SelectEq(0, needle, 0, end, &vec_sel);
    for (uint32_t i = 0; i < end; ++i) {
      if (view->value(i, 0) == needle) row_sel.push_back(i);
    }
    if (vec_sel != row_sel) {
      state.SkipWithError("columnar and row-loop hit sets disagree");
      return;
    }
  }
  std::vector<uint32_t> sel;
  for (auto _ : state) {
    sel.clear();
    if (simd) {
      view->SelectEq(0, needle, 0, end, &sel);
    } else {
      for (uint32_t i = 0; i < end; ++i) {
        if (view->value(i, 0) == needle) sel.push_back(i);
      }
    }
    benchmark::DoNotOptimize(sel.data());
  }
  state.SetItemsProcessed(state.iterations() * end);
}
BENCHMARK(BM_ColumnarSelect)
    ->Args({400000, 0})
    ->Args({400000, 1})
    ->ArgNames({"n", "simd"})
    ->Unit(benchmark::kMillisecond);

/// Row-hash ablation: the 4-chain interleaved HashValuesBatch kernel
/// against the sequential per-row reference, over the same flat
/// value buffer. Outputs are bit-identical by contract (and checked).
void BM_BatchHash(benchmark::State& state) {
  const int64_t n = state.range(0);
  const bool simd = state.range(1) != 0;
  std::vector<Tuple> rows = MakeWorkload(n, /*dense=*/0);
  std::vector<Value> flat;
  flat.reserve(static_cast<size_t>(n) * 2);
  for (const Tuple& t : rows) {
    flat.push_back(t[0]);
    flat.push_back(t[1]);
  }
  std::vector<size_t> out(static_cast<size_t>(n)), ref(static_cast<size_t>(n));
  HashValuesBatch(flat.data(), 2, out.size(), out.data());
  HashValuesBatchScalar(flat.data(), 2, ref.size(), ref.data());
  if (out != ref) {
    state.SkipWithError("batched and scalar hashes disagree");
    return;
  }
  for (auto _ : state) {
    if (simd) {
      HashValuesBatch(flat.data(), 2, out.size(), out.data());
    } else {
      HashValuesBatchScalar(flat.data(), 2, out.size(), out.data());
    }
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_BatchHash)
    ->Args({400000, 0})
    ->Args({400000, 1})
    ->ArgNames({"n", "simd"})
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace semopt

SEMOPT_BENCH_MAIN();
