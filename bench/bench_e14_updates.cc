// E14: sustained update-stream maintenance. Streams mixed add/delete
// batches into a materialized IDB from 1/4/16 concurrent sessions —
// writes serialized exactly like the server's writer path — and
// reports fact-level updates/sec plus batch latency percentiles. Three
// legs:
//   - BM_Updates_Incremental: counting/DRed maintenance through
//     IncrementalEvaluator::ApplyUpdates — cost O(|Δ| affected), the
//     tentpole claim of DESIGN §16.
//   - BM_Updates_Recompute: the pre-IVM behaviour — every batch mutates
//     the EDB and re-runs the full fixpoint.
//   - BM_Updates_Published: the same incremental batches end to end the
//     way the server runs them — IncrementalEvaluator::ApplyUpdates
//     inside a SnapshotStore::ApplyDelta write, publishing each batch's
//     net delta as a new generation — while one reader loop keeps
//     pinning the head. Its batch latency next to the Incremental leg's
//     is the cost of publishing; `clones_per_batch` (relations
//     deep-copied per write) should stay ~0 and `reused_per_batch`
//     count the kept copies the store recycled instead; `query_p50_us`
//     times the reader's pin-and-probe.
// The first two legs publish nothing, so their batch time is pure
// maintenance.
// The acceptance bar (EXPERIMENTS.md E14): incremental ≥10× recompute
// at the 1M-fact configuration, and `steady_plan_misses` = 0 — after
// warm-up every maintenance join replays a memoized plan.
//
// The base EDB takes the columnar generator→loader path: the workload
// generator emits a v1 binary snapshot through ColumnarSnapshotWriter
// (never materializing a row-wise Database) and the bench bulk-loads
// it, so the million-fact base costs one write + one mmap-free read.
//
// Churn model: each session appends fresh random edges and deletes the
// edges it added two batches earlier, so after warm-up every deletion
// hits a present tuple and the edge count stays in steady state —
// deletions genuinely sever derivations instead of no-oping.
//
// Artifact: bench/BENCH_e14.json (see EXPERIMENTS.md).

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <deque>
#include <filesystem>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "eval/incremental.h"
#include "io/binary_io.h"
#include "storage/database.h"
#include "storage/snapshot.h"
#include "util/hash_util.h"
#include "workload/update_stream.h"

namespace semopt {
namespace {

constexpr int kAddsPerBatch = 32;
constexpr int kDelsPerBatch = 32;
// Warm-up primes the plan cache AND fills the churn pipeline: from the
// third batch on, every deletion hits an edge added two batches ago,
// so the last warm-up batches already have the steady-state shape.
constexpr int kWarmupBatches = 16;

/// `facts` is the total base EDB size. The graph is kept subcritical —
/// twice as many nodes as edges (mean out-degree 0.5) — so reachable
/// cones stay small and bounded: deleting an edge severs a handful of
/// tuples instead of cascading through a giant component. That is the
/// regime the O(|Δ|) claim is about; the supercritical regime where
/// every deletion invalidates most of the recursion is measured by the
/// differential tests, not this bench.
UpdateStreamParams ParamsFor(int64_t facts) {
  UpdateStreamParams params;
  params.num_edges = static_cast<size_t>(facts) / 3;
  params.num_nodes = 2 * params.num_edges;
  params.num_sources = 4;
  params.seed = 7;
  return params;
}

/// Generator → binary snapshot → bulk loader (the columnar path).
Database LoadBaseEdb(::benchmark::State& state,
                     const UpdateStreamParams& params) {
  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("semopt_bench_e14_" + std::to_string(::getpid()) + ".bin"))
          .string();
  Database base;
  Result<size_t> written = WriteUpdateStreamSnapshot(path, params);
  if (!written.ok()) {
    state.SkipWithError(written.status().ToString().c_str());
    return base;
  }
  Result<BulkLoadStats> loaded = LoadBinaryFile(path, &base);
  ::unlink(path.c_str());
  if (!loaded.ok()) {
    state.SkipWithError(loaded.status().ToString().c_str());
  }
  return base;
}

/// One session's update stream: fresh adds now, delete them two
/// batches later. Deterministic per (seed, session).
class SessionChurn {
 public:
  SessionChurn(const UpdateStreamParams& params, int session)
      : params_(params), rng_(params.seed * 0x51ed2701ULL + session) {}

  void NextBatch(std::vector<Atom>* adds, std::vector<Atom>* dels) {
    adds->clear();
    dels->clear();
    std::vector<Atom> fresh;
    for (int i = 0; i < kAddsPerBatch; ++i) {
      fresh.push_back(UpdateStreamEdge(params_, rng_));
    }
    *adds = fresh;
    if (pending_.size() >= 2) {
      *dels = pending_.front();
      pending_.pop_front();
    } else {
      for (int i = 0; i < kDelsPerBatch; ++i) {
        dels->push_back(UpdateStreamEdge(params_, rng_));
      }
    }
    pending_.push_back(std::move(fresh));
  }

 private:
  UpdateStreamParams params_;
  SplitMix64 rng_;
  std::deque<std::vector<Atom>> pending_;
};

uint64_t ElapsedUs(std::chrono::steady_clock::time_point t0) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - t0)
          .count());
}

void RunUpdateBench(::benchmark::State& state, bool incremental) {
  const UpdateStreamParams params = ParamsFor(state.range(0));
  const int sessions = static_cast<int>(state.range(1));
  const int batches_per_session = incremental ? 20 : 5;

  Result<Program> program = UpdateStreamProgram();
  if (!program.ok()) {
    state.SkipWithError(program.status().ToString().c_str());
    return;
  }
  Database base = LoadBaseEdb(state, params);
  if (base.TotalTuples() == 0) return;
  const size_t base_facts = base.TotalTuples();

  EvalOptions options;

  // Initial materialization (untimed) — both legs start from the same
  // fixpoint over the bulk-loaded base.
  std::unique_ptr<IncrementalEvaluator> inc;
  Database edb;  // recompute leg's mutable base
  Database idb;
  if (incremental) {
    Result<IncrementalEvaluator> created =
        IncrementalEvaluator::Create(*program, std::move(base), options);
    if (!created.ok()) {
      state.SkipWithError(created.status().ToString().c_str());
      return;
    }
    inc = std::make_unique<IncrementalEvaluator>(std::move(*created));
  } else {
    edb = std::move(base);
    Result<Database> full = Evaluate(*program, edb, options, nullptr);
    if (!full.ok()) {
      state.SkipWithError(full.status().ToString().c_str());
      return;
    }
    idb = std::move(*full);
  }

  bench::LatencyRecorder batch_lat;
  EvalStats steady_stats;
  IvmStats steady_ivm;
  size_t fact_updates = 0;
  // The server's writer_mu_ discipline: sessions' writes serialize.
  std::mutex writer_mu;

  // Churn generators persist across warm-up and measured phases so the
  // delete-what-you-added pipeline (and the plan cache it shapes) is
  // already in steady state when the clock starts.
  std::vector<SessionChurn> churns;
  for (int s = 0; s < sessions; ++s) churns.emplace_back(params, s);

  for (auto _ : state) {
    // One session body; `measured` selects warm-up vs timed counters.
    auto run_sessions = [&](int batches, bool measured) {
      std::atomic<bool> failed{false};
      std::vector<std::thread> threads;
      for (int s = 0; s < sessions; ++s) {
        threads.emplace_back([&, s] {
          SessionChurn& churn = churns[s];
          std::vector<Atom> adds, dels;
          for (int b = 0; b < batches && !failed.load(); ++b) {
            churn.NextBatch(&adds, &dels);
            const auto t0 = std::chrono::steady_clock::now();
            {
              std::lock_guard<std::mutex> lock(writer_mu);
              if (incremental) {
                Result<IvmStats> applied = inc->ApplyUpdates(
                    adds, dels, measured ? &steady_stats : nullptr);
                if (!applied.ok()) {
                  failed.store(true);
                  break;
                }
                if (measured) steady_ivm.Add(*applied);
              } else {
                Result<DatabaseDelta> delta = StageBatch(edb, adds, dels);
                if (!delta.ok()) {
                  failed.store(true);
                  break;
                }
                edb.ApplyDelta(*delta);
                Result<Database> full =
                    Evaluate(*program, edb, options, nullptr);
                if (!full.ok()) {
                  failed.store(true);
                  break;
                }
                idb = std::move(*full);
              }
            }
            if (measured) batch_lat.Observe(ElapsedUs(t0));
          }
        });
      }
      for (std::thread& t : threads) t.join();
      return !failed.load();
    };

    // Warm-up: prime plan caches and fill the churn pipeline so every
    // measured deletion hits a present tuple.
    if (!run_sessions(kWarmupBatches, /*measured=*/false)) {
      state.SkipWithError("warm-up batch failed");
      break;
    }
    const auto start = std::chrono::steady_clock::now();
    bool ok = run_sessions(batches_per_session, /*measured=*/true);
    const double seconds = std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - start)
                               .count();
    if (!ok) {
      state.SkipWithError("update batch failed");
      break;
    }
    state.SetIterationTime(seconds);
    fact_updates += static_cast<size_t>(sessions) * batches_per_session *
                    (kAddsPerBatch + kDelsPerBatch);
  }

  state.SetItemsProcessed(static_cast<int64_t>(fact_updates));
  state.counters["sessions"] = sessions;
  state.counters["base_facts"] = static_cast<double>(base_facts);
  state.counters["batch_p50_us"] =
      static_cast<double>(batch_lat.PercentileUs(0.50));
  state.counters["batch_p99_us"] =
      static_cast<double>(batch_lat.PercentileUs(0.99));
  if (incremental) {
    // The acceptance gate: after warm-up, maintenance joins replay
    // memoized plans — zero planning in steady state.
    state.counters["steady_plan_misses"] =
        static_cast<double>(steady_stats.plan_cache_misses);
    state.counters["maint_us_per_batch"] =
        steady_ivm.batches == 0
            ? 0.0
            : static_cast<double>(steady_ivm.maintenance_us) /
                  static_cast<double>(steady_ivm.batches);
    state.counters["overdeleted"] =
        static_cast<double>(steady_ivm.overdeleted);
    state.counters["rederived"] = static_cast<double>(steady_ivm.rederived);
    state.counters["recounted"] = static_cast<double>(steady_ivm.recounted);
    state.counters["net_deleted"] =
        static_cast<double>(steady_ivm.net_deleted);
    state.counters["net_inserted"] =
        static_cast<double>(steady_ivm.net_inserted);
  }
}

/// The published leg: `sessions` writer threads stream batches through
/// IncrementalEvaluator::ApplyUpdates inside SnapshotStore::ApplyDelta
/// (the server's write path), while one reader thread loops pinning the
/// head and probing the maintained relations.
void BM_Updates_Published(::benchmark::State& state) {
  const UpdateStreamParams params = ParamsFor(state.range(0));
  const int sessions = static_cast<int>(state.range(1));
  constexpr int kBatchesPerSession = 20;

  Result<Program> program = UpdateStreamProgram();
  if (!program.ok()) {
    state.SkipWithError(program.status().ToString().c_str());
    return;
  }
  Database base = LoadBaseEdb(state, params);
  if (base.TotalTuples() == 0) return;
  const size_t base_facts = base.TotalTuples();

  // Initial materialization (untimed), published the way `.materialize`
  // does it: one bulk write that copies the view's IDB into the head.
  Result<IncrementalEvaluator> view =
      IncrementalEvaluator::Create(*program, base.CloneShared());
  if (!view.ok()) {
    state.SkipWithError(view.status().ToString().c_str());
    return;
  }
  SnapshotStore store(std::move(base));
  if (!store.Mutate([&](Database* db) {
             db->CopyRelationsFrom(view->idb());
             return Status::Ok();
           }).ok()) {
    state.SkipWithError("initial publish failed");
    return;
  }

  const PredicateId reach{InternSymbol("reach"), 1};
  const PredicateId dark{InternSymbol("dark"), 1};
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  obs::Counter& cloned =
      registry.GetCounter("storage.snapshot.relations_cloned");
  obs::Counter& reused =
      registry.GetCounter("storage.snapshot.relations_reused");
  obs::Counter& replayed = registry.GetCounter("storage.snapshot.rows_replayed");

  bench::LatencyRecorder batch_lat, query_lat;
  IvmStats steady_ivm;
  size_t fact_updates = 0;
  uint64_t cloned_delta = 0, reused_delta = 0, replayed_delta = 0;
  std::vector<SessionChurn> churns;
  for (int s = 0; s < sessions; ++s) churns.emplace_back(params, s);

  for (auto _ : state) {
    std::atomic<bool> stop{false};
    std::atomic<uint64_t> hits{0};
    // The reader: pin, probe both maintained relations at a random
    // node, release — a point-lookup session between writes.
    std::thread reader([&] {
      SplitMix64 rng(params.seed);
      while (!stop.load(std::memory_order_relaxed)) {
        const auto t0 = std::chrono::steady_clock::now();
        DatabaseSnapshot snap = store.Pin();
        const Tuple node{
            Term::Int(static_cast<int64_t>(rng.Below(params.num_nodes)))};
        for (const PredicateId& pred : {reach, dark}) {
          const Relation* rel = snap.db().Find(pred);
          if (rel != nullptr && rel->Contains(node)) hits.fetch_add(1);
        }
        snap = DatabaseSnapshot();
        query_lat.Observe(ElapsedUs(t0));
      }
    });

    auto run_sessions = [&](int batches, bool measured) {
      std::atomic<bool> failed{false};
      std::vector<std::thread> threads;
      for (int s = 0; s < sessions; ++s) {
        threads.emplace_back([&, s] {
          std::vector<Atom> adds, dels;
          for (int b = 0; b < batches && !failed.load(); ++b) {
            churns[s].NextBatch(&adds, &dels);
            const auto t0 = std::chrono::steady_clock::now();
            Result<uint64_t> epoch = store.ApplyDelta(
                [&](const Database&) -> Result<DatabaseDelta> {
                  DatabaseDelta delta;
                  SEMOPT_ASSIGN_OR_RETURN(
                      IvmStats applied,
                      view->ApplyUpdates(adds, dels, nullptr, &delta));
                  // Runs under the store's writer lock: serialized.
                  if (measured) steady_ivm.Add(applied);
                  return delta;
                });
            if (!epoch.ok()) {
              failed.store(true);
              break;
            }
            if (measured) batch_lat.Observe(ElapsedUs(t0));
          }
        });
      }
      for (std::thread& t : threads) t.join();
      return !failed.load();
    };

    bool ok = run_sessions(kWarmupBatches, /*measured=*/false);
    const uint64_t cloned_before = cloned.value();
    const uint64_t reused_before = reused.value();
    const uint64_t replayed_before = replayed.value();
    const auto start = std::chrono::steady_clock::now();
    ok = ok && run_sessions(kBatchesPerSession, /*measured=*/true);
    const double seconds = std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - start)
                               .count();
    stop.store(true);
    reader.join();
    if (!ok) {
      state.SkipWithError("update batch failed");
      break;
    }
    cloned_delta += cloned.value() - cloned_before;
    reused_delta += reused.value() - reused_before;
    replayed_delta += replayed.value() - replayed_before;
    state.SetIterationTime(seconds);
    fact_updates += static_cast<size_t>(sessions) * kBatchesPerSession *
                    (kAddsPerBatch + kDelsPerBatch);
    ::benchmark::DoNotOptimize(hits.load());
  }

  const double batches = std::max<double>(1.0, steady_ivm.batches);
  state.SetItemsProcessed(static_cast<int64_t>(fact_updates));
  state.counters["sessions"] = sessions;
  state.counters["base_facts"] = static_cast<double>(base_facts);
  state.counters["batch_p50_us"] =
      static_cast<double>(batch_lat.PercentileUs(0.50));
  state.counters["batch_p99_us"] =
      static_cast<double>(batch_lat.PercentileUs(0.99));
  state.counters["query_p50_us"] =
      static_cast<double>(query_lat.PercentileUs(0.50));
  state.counters["query_p99_us"] =
      static_cast<double>(query_lat.PercentileUs(0.99));
  state.counters["maint_us_per_batch"] =
      static_cast<double>(steady_ivm.maintenance_us) / batches;
  state.counters["clones_per_batch"] =
      static_cast<double>(cloned_delta) / batches;
  state.counters["reused_per_batch"] =
      static_cast<double>(reused_delta) / batches;
  state.counters["rows_replayed_per_batch"] =
      static_cast<double>(replayed_delta) / batches;
}

void BM_Updates_Incremental(::benchmark::State& state) {
  RunUpdateBench(state, /*incremental=*/true);
}

void BM_Updates_Recompute(::benchmark::State& state) {
  RunUpdateBench(state, /*incremental=*/false);
}

// Args: {total base facts, sessions}. The 1M-fact rows are the
// acceptance configuration; the recompute leg runs fewer batches per
// session (5 vs 20) because each batch pays a full fixpoint, and skips
// the 1M multi-session rows — serialized full recomputes at that scale
// measure nothing new.
BENCHMARK(BM_Updates_Incremental)
    ->Args({100000, 1})
    ->Args({100000, 4})
    ->Args({100000, 16})
    ->Args({1000000, 1})
    ->Args({1000000, 4})
    ->Args({1000000, 16})
    ->UseManualTime()
    ->Unit(::benchmark::kMillisecond)
    ->Iterations(1);

// The published leg at the same 1-session configurations as the
// IVM-only rows above, plus 4 writer sessions at 1M facts.
BENCHMARK(BM_Updates_Published)
    ->Args({100000, 1})
    ->Args({1000000, 1})
    ->Args({1000000, 4})
    ->UseManualTime()
    ->Unit(::benchmark::kMillisecond)
    ->Iterations(1);

BENCHMARK(BM_Updates_Recompute)
    ->Args({100000, 1})
    ->Args({100000, 4})
    ->Args({100000, 16})
    ->Args({1000000, 1})
    ->UseManualTime()
    ->Unit(::benchmark::kMillisecond)
    ->Iterations(1);

}  // namespace
}  // namespace semopt

SEMOPT_BENCH_MAIN();
