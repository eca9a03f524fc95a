// SnapshotStore semantics: epoch counting, pinned-generation
// immutability, atomic publication, and deferred reclamation. The
// concurrency cases at the bottom are the TSan targets for the
// snapshot protocol: readers pinning/unpinning while a writer
// publishes must neither race nor ever observe a half-applied write.

#include <atomic>
#include <set>
#include <thread>
#include <utility>
#include <vector>

#include "eval/query.h"
#include "obs/metrics.h"
#include "storage/snapshot.h"

#include "gtest/gtest.h"
#include "test_helpers.h"

namespace semopt {
namespace {

using testing_util::MustParse;
using testing_util::MustParseFacts;
using testing_util::RelationSize;

Status AddFactTo(Database* db, const char* pred, int a, int b) {
  return db->AddFact(Atom(pred, {Term::Int(a), Term::Int(b)}));
}

TEST(SnapshotStoreTest, PinReadsTheHeadGeneration) {
  SnapshotStore store(MustParseFacts("e(a, b). e(b, c)."));
  EXPECT_EQ(store.epoch(), 1u);
  DatabaseSnapshot snap = store.Pin();
  EXPECT_TRUE(snap.valid());
  EXPECT_EQ(snap.epoch(), 1u);
  EXPECT_EQ(RelationSize(snap.db(), "e", 2), 2u);
  EXPECT_EQ(store.live_generations(), 1u);
}

TEST(SnapshotStoreTest, MutatePublishesANewEpochForNewReaders) {
  SnapshotStore store(MustParseFacts("e(a, b)."));
  Result<uint64_t> epoch = store.Mutate([](Database* db) {
    return AddFactTo(db, "e", 1, 2);
  });
  ASSERT_TRUE(epoch.ok());
  EXPECT_EQ(*epoch, 2u);
  EXPECT_EQ(store.epoch(), 2u);
  DatabaseSnapshot snap = store.Pin();
  EXPECT_EQ(snap.epoch(), 2u);
  EXPECT_EQ(RelationSize(snap.db(), "e", 2), 2u);
}

TEST(SnapshotStoreTest, PinnedReaderKeepsItsFrozenGeneration) {
  SnapshotStore store(MustParseFacts("e(a, b)."));
  DatabaseSnapshot old_snap = store.Pin();
  ASSERT_TRUE(store.Mutate([](Database* db) {
    return AddFactTo(db, "e", 1, 2);
  }).ok());
  // The pinned reader still sees exactly the generation it pinned …
  EXPECT_EQ(old_snap.epoch(), 1u);
  EXPECT_EQ(RelationSize(old_snap.db(), "e", 2), 1u);
  // … while a fresh pin sees the new one; both generations are live.
  DatabaseSnapshot new_snap = store.Pin();
  EXPECT_EQ(RelationSize(new_snap.db(), "e", 2), 2u);
  EXPECT_EQ(store.live_generations(), 2u);
}

TEST(SnapshotStoreTest, ReclaimsRetiredGenerationsOnceUnpinned) {
  SnapshotStore store(MustParseFacts("e(a, b)."));
  {
    DatabaseSnapshot snap = store.Pin();
    ASSERT_TRUE(store.Mutate([](Database* db) {
      return AddFactTo(db, "e", 1, 2);
    }).ok());
    EXPECT_EQ(store.live_generations(), 2u);
    EXPECT_EQ(store.reclaimed(), 0u);
  }
  // The destructor unpinned the last reference to generation 1.
  EXPECT_EQ(store.live_generations(), 1u);
  EXPECT_EQ(store.reclaimed(), 1u);
}

TEST(SnapshotStoreTest, UnpinnedWritesReclaimImmediately) {
  SnapshotStore store(MustParseFacts("e(a, b)."));
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(store.Mutate([&](Database* db) {
      return AddFactTo(db, "e", i, i);
    }).ok());
  }
  // Nobody pinned the superseded generations: each publish reclaimed
  // its predecessor on the spot.
  EXPECT_EQ(store.epoch(), 4u);
  EXPECT_EQ(store.live_generations(), 1u);
  EXPECT_EQ(store.reclaimed(), 3u);
}

TEST(SnapshotStoreTest, OldPinHoldsEveryLaterGenerationAlive) {
  // A reader pinned at epoch 1 blocks reclamation of generations
  // retired after it (they may still be reachable from its epoch in a
  // more general MVCC; the store is conservative), and everything
  // collapses once it unpins.
  SnapshotStore store(MustParseFacts("e(a, b)."));
  {
    DatabaseSnapshot snap = store.Pin();
    for (int i = 0; i < 3; ++i) {
      ASSERT_TRUE(store.Mutate([&](Database* db) {
        return AddFactTo(db, "e", i, i);
      }).ok());
    }
    EXPECT_EQ(store.live_generations(), 4u);
  }
  EXPECT_EQ(store.live_generations(), 1u);
  EXPECT_EQ(store.reclaimed(), 3u);
}

TEST(SnapshotStoreTest, FailedMutationPublishesNothing) {
  SnapshotStore store(MustParseFacts("e(a, b)."));
  Result<uint64_t> result = store.Mutate([](Database* db) {
    // Partial work before the failure must not leak into any
    // generation: the clone is discarded whole.
    SEMOPT_RETURN_IF_ERROR(AddFactTo(db, "e", 7, 7));
    return Status::InvalidArgument("boom");
  });
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(store.epoch(), 1u);
  DatabaseSnapshot snap = store.Pin();
  EXPECT_EQ(RelationSize(snap.db(), "e", 2), 1u);
}

TEST(SnapshotStoreTest, MoveTransfersThePin) {
  SnapshotStore store(MustParseFacts("e(a, b)."));
  DatabaseSnapshot outer;
  {
    DatabaseSnapshot inner = store.Pin();
    outer = std::move(inner);
  }  // inner's destructor must not unpin: outer owns the pin now
  ASSERT_TRUE(store.Mutate([](Database* db) {
    return AddFactTo(db, "e", 1, 2);
  }).ok());
  EXPECT_EQ(store.live_generations(), 2u);
  outer = DatabaseSnapshot();
  EXPECT_EQ(store.live_generations(), 1u);
}

TEST(SnapshotStoreTest, MutateClonesOnlyTouchedRelations) {
  // Copy-on-write at relation granularity: publishing a new generation
  // deep-copies only the relations the write touched; everything else
  // is the same Relation object shared by pointer across generations.
  SnapshotStore store(
      MustParseFacts("e(a, b). big(x, y). big(y, z)."));
  const PredicateId e_pred{InternSymbol("e"), 2};
  const PredicateId big_pred{InternSymbol("big"), 2};
  DatabaseSnapshot first = store.Pin();
  const Relation* e_before = first.db().Find(e_pred);
  const Relation* big_before = first.db().Find(big_pred);
  ASSERT_NE(e_before, nullptr);
  ASSERT_NE(big_before, nullptr);

  obs::Counter& cloned = obs::MetricsRegistry::Global().GetCounter(
      "storage.snapshot.relations_cloned");
  const uint64_t cloned_before = cloned.value();
  ASSERT_TRUE(store.Mutate([](Database* db) {
    return AddFactTo(db, "e", 1, 2);
  }).ok());

  DatabaseSnapshot second = store.Pin();
  // The touched relation was detached (one clone, counted) …
  EXPECT_NE(second.db().Find(e_pred), e_before);
  EXPECT_EQ(cloned.value(), cloned_before + 1);
  // … the untouched one is pointer-identical across generations.
  EXPECT_EQ(second.db().Find(big_pred), big_before);
  // The pinned base generation is unaffected by the write.
  EXPECT_EQ(RelationSize(first.db(), "e", 2), 1u);
  EXPECT_EQ(RelationSize(second.db(), "e", 2), 2u);

  // A later write that only creates a new relation clones nothing:
  // both survivors stay shared into the third generation.
  const Relation* e_second = second.db().Find(e_pred);
  ASSERT_TRUE(store.Mutate([](Database* db) {
    return AddFactTo(db, "fresh", 7, 7);
  }).ok());
  DatabaseSnapshot third = store.Pin();
  EXPECT_EQ(third.db().Find(e_pred), e_second);
  EXPECT_EQ(third.db().Find(big_pred), big_before);
  EXPECT_EQ(cloned.value(), cloned_before + 1);
}

TEST(SnapshotStoreTest, UnmanagedSnapshotWrapsACallerDatabase) {
  Database db = MustParseFacts("e(a, b).");
  DatabaseSnapshot snap = DatabaseSnapshot::Unmanaged(&db);
  EXPECT_TRUE(snap.valid());
  EXPECT_EQ(snap.epoch(), 0u);
  EXPECT_EQ(RelationSize(snap.db(), "e", 2), 1u);
}

// --- delta writes (ApplyDelta) ---

const PredicateId kEdge{InternSymbol("e"), 2};

using Edges = std::set<std::pair<int, int>>;

/// A delta write erasing `erase` and inserting `insert` into e/2.
SnapshotStore::DeltaFn EdgeDelta(const Edges& erase, const Edges& insert) {
  return [erase, insert](const Database&) -> Result<DatabaseDelta> {
    DatabaseDelta delta;
    RelationDelta& d = delta.try_emplace(kEdge, 2).first->second;
    for (const auto& [a, b] : erase) {
      d.erased.Append(Tuple{Term::Int(a), Term::Int(b)});
    }
    for (const auto& [a, b] : insert) {
      d.inserted.Append(Tuple{Term::Int(a), Term::Int(b)});
    }
    return delta;
  };
}

Edges EdgesOf(const Database& db) {
  Edges out;
  const Relation* rel = db.Find(kEdge);
  if (rel == nullptr) return out;
  for (RowRef row : rel->rows()) {
    out.emplace(static_cast<int>(row[0].int_value()),
                static_cast<int>(row[1].int_value()));
  }
  return out;
}

uint64_t CounterValue(const char* name) {
  return obs::MetricsRegistry::Global().GetCounter(name).value();
}

/// Steady churn against `want`: write i adds (i, i) and retracts the
/// edge written two steps earlier.
void ChurnStep(SnapshotStore* store, Edges* want, int i) {
  Edges erase, insert{{i, i}};
  if (want->count({i - 2, i - 2}) > 0) erase.insert({i - 2, i - 2});
  ASSERT_TRUE(store->ApplyDelta(EdgeDelta(erase, insert)).ok());
  for (const auto& edge : erase) want->erase(edge);
  want->insert(insert.begin(), insert.end());
}

TEST(SnapshotDeltaTest, SteadyWritesAlternateBetweenTwoCopies) {
  SnapshotStore store(MustParseFacts("e(100, 100). e(101, 101)."));
  Edges want = {{100, 100}, {101, 101}};
  const uint64_t cloned_before =
      CounterValue("storage.snapshot.relations_cloned");
  const uint64_t reused_before =
      CounterValue("storage.snapshot.relations_reused");
  const uint64_t replayed_before =
      CounterValue("storage.snapshot.rows_replayed");

  std::vector<const Relation*> objects;
  objects.push_back(store.Pin().db().Find(kEdge));
  constexpr int kWrites = 8;
  for (int i = 0; i < kWrites; ++i) {
    ChurnStep(&store, &want, i);
    DatabaseSnapshot snap = store.Pin();
    EXPECT_EQ(EdgesOf(snap.db()), want) << "after write " << i;
    objects.push_back(snap.db().Find(kEdge));
  }
  // Only the first write finds no kept copy and deep-copies the base
  // relation; from then on the two copies trade places every write.
  EXPECT_NE(objects[1], objects[0]);
  for (size_t i = 2; i < objects.size(); ++i) {
    EXPECT_EQ(objects[i], objects[i - 2]) << "write " << i - 1;
    EXPECT_NE(objects[i], objects[i - 1]) << "write " << i - 1;
  }
  EXPECT_EQ(CounterValue("storage.snapshot.relations_cloned"),
            cloned_before + 1);
  EXPECT_EQ(CounterValue("storage.snapshot.relations_reused"),
            reused_before + kWrites - 1);
  // Each reuse replays the previous write's rows (1 or 2 per write).
  EXPECT_GE(CounterValue("storage.snapshot.rows_replayed"),
            replayed_before + kWrites - 1);
  EXPECT_EQ(store.live_generations(), 1u);
}

TEST(SnapshotDeltaTest, PinHeldAcrossTwoWritesForcesOneClone) {
  SnapshotStore store(MustParseFacts("e(100, 100)."));
  Edges want = {{100, 100}};
  for (int i = 0; i < 3; ++i) ChurnStep(&store, &want, i);  // steady state
  const uint64_t cloned_before =
      CounterValue("storage.snapshot.relations_cloned");
  const uint64_t reused_before =
      CounterValue("storage.snapshot.relations_reused");
  {
    DatabaseSnapshot pinned = store.Pin();
    const Edges frozen = want;
    // The first write's kept copy belongs to a reclaimed generation:
    // reused. The second write's kept copy is the pinned relation
    // itself, so it must deep-copy instead.
    ChurnStep(&store, &want, 3);
    ChurnStep(&store, &want, 4);
    EXPECT_EQ(CounterValue("storage.snapshot.relations_cloned"),
              cloned_before + 1);
    EXPECT_EQ(CounterValue("storage.snapshot.relations_reused"),
              reused_before + 1);
    EXPECT_EQ(EdgesOf(pinned.db()), frozen);
    EXPECT_EQ(EdgesOf(store.Pin().db()), want);
  }
  // Released: the store reuses kept copies again.
  ChurnStep(&store, &want, 5);
  ChurnStep(&store, &want, 6);
  EXPECT_EQ(CounterValue("storage.snapshot.relations_cloned"),
            cloned_before + 1);
  EXPECT_EQ(CounterValue("storage.snapshot.relations_reused"),
            reused_before + 3);
  EXPECT_EQ(EdgesOf(store.Pin().db()), want);
}

TEST(SnapshotDeltaTest, BulkMutateDropsTheKeptCopy) {
  SnapshotStore store(MustParseFacts("e(100, 100). other(1, 1)."));
  Edges want = {{100, 100}};
  for (int i = 0; i < 3; ++i) ChurnStep(&store, &want, i);
  const uint64_t cloned_before =
      CounterValue("storage.snapshot.relations_cloned");

  // A bulk write to another relation leaves e's kept copy alone …
  ASSERT_TRUE(store.Mutate([](Database* db) {
    return AddFactTo(db, "other", 2, 2);
  }).ok());
  ChurnStep(&store, &want, 3);
  EXPECT_EQ(CounterValue("storage.snapshot.relations_cloned"),
            cloned_before + 1);  // just the Mutate's own detach of other
  // … but one that writes e replaces it, so the kept copy no longer
  // replays to the live relation and is dropped: the next delta write
  // deep-copies, and the one after reuses again.
  ASSERT_TRUE(store.Mutate([&](Database* db) {
    return AddFactTo(db, "e", 500, 500);
  }).ok());
  want.insert({500, 500});
  EXPECT_EQ(CounterValue("storage.snapshot.relations_cloned"),
            cloned_before + 2);
  ChurnStep(&store, &want, 4);
  EXPECT_EQ(CounterValue("storage.snapshot.relations_cloned"),
            cloned_before + 3);
  ChurnStep(&store, &want, 5);
  EXPECT_EQ(CounterValue("storage.snapshot.relations_cloned"),
            cloned_before + 3);
  EXPECT_EQ(EdgesOf(store.Pin().db()), want);
}

TEST(SnapshotDeltaTest, ReusedCopyCarriesIndexesReadersBuilt) {
  SnapshotStore store(MustParseFacts("e(100, 7). e(101, 7)."));
  Edges want = {{100, 7}, {101, 7}};
  for (int i = 0; i < 3; ++i) ChurnStep(&store, &want, i);
  const std::vector<uint32_t> by_target = {1};
  {
    // A reader builds an index on the live relation (as the rule
    // executor does at plan time).
    DatabaseSnapshot snap = store.Pin();
    const Relation* live = snap.db().Find(kEdge);
    const_cast<Relation*>(live)->EnsureIndex(by_target);
    ASSERT_TRUE(live->HasIndex(by_target));
  }
  const Relation* previous = store.Pin().db().Find(kEdge);
  ChurnStep(&store, &want, 3);
  DatabaseSnapshot snap = store.Pin();
  const Relation* reused = snap.db().Find(kEdge);
  ASSERT_NE(reused, previous);
  // The other copy came back, and it already has the reader's index,
  // kept consistent with the rows it holds.
  EXPECT_TRUE(reused->HasIndex(by_target));
  EXPECT_EQ(reused->Probe(by_target, Tuple{Term::Int(7)}).size(), 2u);
  EXPECT_EQ(EdgesOf(snap.db()), want);
}

TEST(SnapshotDeltaTest, NewRelationAndFailedDeltaWrite) {
  SnapshotStore store(Database{});
  // A relation the head does not have yet is created by the write.
  ASSERT_TRUE(store.ApplyDelta(EdgeDelta({}, {{1, 2}})).ok());
  EXPECT_EQ(EdgesOf(store.Pin().db()), (Edges{{1, 2}}));
  // A failing delta function publishes nothing.
  const uint64_t epoch = store.epoch();
  Result<uint64_t> failed = store.ApplyDelta(
      [](const Database&) -> Result<DatabaseDelta> {
        return Status::InvalidArgument("boom");
      });
  EXPECT_FALSE(failed.ok());
  EXPECT_EQ(store.epoch(), epoch);
  // The created relation's predecessor (empty) is its kept copy, so
  // even the second write clones nothing.
  const uint64_t cloned_before =
      CounterValue("storage.snapshot.relations_cloned");
  ASSERT_TRUE(store.ApplyDelta(EdgeDelta({{1, 2}}, {{3, 4}})).ok());
  EXPECT_EQ(EdgesOf(store.Pin().db()), (Edges{{3, 4}}));
  EXPECT_EQ(CounterValue("storage.snapshot.relations_cloned"), cloned_before);
}

// --- concurrency (TSan targets) ---

TEST(SnapshotStoreConcurrencyTest, ReadersNeverSeePartialPublishes) {
  // Writers add facts in pairs inside one Mutate. Readers continuously
  // pin and check the invariant that both facts of a pair are present
  // or neither is — a torn (half-applied) publication fails the count
  // parity check.
  SnapshotStore store(Database{});
  std::atomic<bool> stop{false};
  std::atomic<bool> torn{false};

  std::vector<std::thread> readers;
  for (int r = 0; r < 4; ++r) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        DatabaseSnapshot snap = store.Pin();
        const Relation* rel = snap.db().Find(
            PredicateId{InternSymbol("pair"), 2});
        const size_t n = rel == nullptr ? 0 : rel->size();
        if (n % 2 != 0) torn.store(true, std::memory_order_relaxed);
      }
    });
  }

  std::vector<std::thread> writers;
  for (int w = 0; w < 2; ++w) {
    writers.emplace_back([&, w] {
      for (int i = 0; i < 50; ++i) {
        const int base = w * 1000 + i * 2;
        ASSERT_TRUE(store.Mutate([&](Database* db) {
          SEMOPT_RETURN_IF_ERROR(AddFactTo(db, "pair", base, base));
          return AddFactTo(db, "pair", base + 1, base + 1);
        }).ok());
      }
    });
  }
  for (std::thread& t : writers) t.join();
  stop.store(true);
  for (std::thread& t : readers) t.join();

  EXPECT_FALSE(torn.load());
  EXPECT_EQ(store.epoch(), 101u);  // 100 publishes after epoch 1
  DatabaseSnapshot final_snap = store.Pin();
  EXPECT_EQ(RelationSize(final_snap.db(), "pair", 2), 200u);
  EXPECT_EQ(store.live_generations(), 1u);
}

TEST(SnapshotStoreConcurrencyTest, ConcurrentQueriesOverPinnedSnapshots) {
  // Full read path under churn: each reader pins a snapshot and runs a
  // recursive query over it (index builds included) while a writer
  // keeps publishing. Every result must be internally consistent: the
  // closure size for n base edges of a chain is n(n+1)/2.
  Database initial;
  int edges = 4;
  for (int i = 0; i < edges; ++i) {
    ASSERT_TRUE(AddFactTo(&initial, "e", i, i + 1).ok());
  }
  SnapshotStore store(std::move(initial));
  Program program = MustParse(R"(
    t(X, Y) :- e(X, Y).
    t(X, Z) :- t(X, Y), e(Y, Z).
  )");

  std::atomic<bool> stop{false};
  std::atomic<bool> inconsistent{false};
  std::vector<std::thread> readers;
  for (int r = 0; r < 4; ++r) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        DatabaseSnapshot snap = store.Pin();
        const size_t n = testing_util::RelationSize(snap.db(), "e", 2);
        Result<QueryResult> result =
            AnswerQuery(program, snap.db(), "t(X, Y)");
        if (!result.ok() || result->size() != n * (n + 1) / 2) {
          inconsistent.store(true, std::memory_order_relaxed);
        }
      }
    });
  }
  for (; edges < 24; ++edges) {
    const int from = edges;
    ASSERT_TRUE(store.Mutate([&](Database* db) {
      return AddFactTo(db, "e", from, from + 1);
    }).ok());
  }
  stop.store(true);
  for (std::thread& t : readers) t.join();
  EXPECT_FALSE(inconsistent.load());
}

TEST(SnapshotStoreConcurrencyTest, DeltaWritesNeverDisturbPinnedReaders) {
  // Readers pin, fingerprint the edge set, yield, and fingerprint it
  // again while a writer streams delta writes that recycle kept copies
  // (or clone, whenever a reader still holds the copy). A pinned
  // generation must never change underneath its reader, and every
  // published edge count must stay even (edges are written in pairs).
  SnapshotStore store(Database{});
  std::atomic<bool> stop{false};
  std::atomic<bool> changed{false};
  std::atomic<bool> torn{false};
  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        DatabaseSnapshot snap = store.Pin();
        const Edges first = EdgesOf(snap.db());
        if (first.size() % 2 != 0) torn.store(true);
        std::this_thread::yield();
        if (EdgesOf(snap.db()) != first) changed.store(true);
      }
    });
  }
  Edges want;
  for (int i = 0; i < 200; ++i) {
    Edges erase, insert{{i, 0}, {i, 1}};
    if (i >= 3) erase = {{i - 3, 0}, {i - 3, 1}};
    ASSERT_TRUE(store.ApplyDelta(EdgeDelta(erase, insert)).ok());
    for (const auto& edge : erase) want.erase(edge);
    want.insert(insert.begin(), insert.end());
  }
  stop.store(true);
  for (std::thread& t : readers) t.join();
  EXPECT_FALSE(changed.load());
  EXPECT_FALSE(torn.load());
  EXPECT_EQ(EdgesOf(store.Pin().db()), want);
}

}  // namespace
}  // namespace semopt
