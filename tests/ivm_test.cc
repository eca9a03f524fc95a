#include "eval/incremental.h"

#include <map>
#include <string>
#include <vector>

#include "eval/fixpoint.h"
#include "util/hash_util.h"
#include "util/string_util.h"

#include "gtest/gtest.h"
#include "test_helpers.h"

namespace semopt {
namespace {

using testing_util::MustParse;
using testing_util::MustParseFacts;
using testing_util::RelationRows;

// Differential suite for incremental view maintenance: after every
// ApplyUpdates batch, the evaluator's materialized IDB must equal the
// from-scratch fixpoint over the mutated EDB, tuple for tuple. The
// schedules are adversarial on purpose — deletions of absent facts,
// duplicate insertions, tuples deleted and re-added in one batch — and
// the programs cover each maintenance regime: counting (non-recursive
// strata), DRed (recursive strata), negation below and above recursion,
// and arity-0 predicates.

struct TestProgram {
  const char* name;
  const char* source;
  // EDB relations random facts are drawn from ({pred, arity}).
  std::vector<std::pair<const char*, int>> edb;
  // Facts always present in the initial EDB (never deleted), used where
  // a rule needs a guard predicate.
  const char* base_facts;
};

const TestProgram kPrograms[] = {
    {"transitive_closure",
     R"(t(X, Y) :- e(X, Y).
        t(X, Y) :- t(X, Z), e(Z, Y).)",
     {{"e", 2}},
     ""},
    {"counting_with_negation",
     R"(ok(X) :- n(X), not banned(X).
        pair(X, Y) :- ok(X), ok(Y).)",
     {{"n", 1}, {"banned", 1}},
     ""},
    {"negation_below_recursion",
     R"(good(X) :- n(X), not blocked(X).
        path(X, Y) :- e(X, Y), good(X), good(Y).
        path(X, Y) :- path(X, Z), path(Z, Y).)",
     {{"n", 1}, {"blocked", 1}, {"e", 2}},
     ""},
    {"negation_above_recursion",
     R"(t(X, Y) :- e(X, Y).
        t(X, Y) :- t(X, Z), e(Z, Y).
        unreachable(X, Y) :- n(X), n(Y), not t(X, Y).)",
     {{"e", 2}, {"n", 1}},
     ""},
    {"multi_stratum_diamond",
     R"(a(X) :- n(X).
        b(X) :- a(X), e(X, Y).
        c(X) :- b(X).
        c(X) :- a(X), special(X).)",
     {{"n", 1}, {"e", 2}, {"special", 1}},
     ""},
    {"arity_zero",
     R"(some_edge() :- e(X, Y).
        silent() :- marker(), not some_edge().)",
     {{"e", 2}, {"marker", 0}},
     "marker()."},
};

Atom RandomFact(const TestProgram& tp, SplitMix64& rng) {
  const auto& [pred, arity] = tp.edb[rng.Below(tp.edb.size())];
  std::vector<Term> args;
  for (int i = 0; i < arity; ++i) {
    args.push_back(Term::Sym(StrCat("v", rng.Below(6))));
  }
  return Atom(pred, std::move(args));
}

// (program, seed, batch_size, num_threads)
class IvmDifferential
    : public ::testing::TestWithParam<std::tuple<int, int, int, int>> {};

TEST_P(IvmDifferential, MatchesFromScratchFixpoint) {
  const auto& [prog_idx, seed, batch_size, threads] = GetParam();
  const TestProgram& tp = kPrograms[prog_idx];
  Program program = MustParse(tp.source);

  EvalOptions options;
  options.batch_size = batch_size;
  options.num_threads = threads;

  SplitMix64 rng(static_cast<uint64_t>(seed) * 9176 + prog_idx * 131 + 7);

  // Reference ground truth: the current EDB as a ToString-keyed fact
  // set, mutated with the same del-then-add batch semantics.
  std::map<std::string, Atom> facts;
  Database initial_edb = MustParseFacts(tp.base_facts);
  // Named, not a temporary: ranging over `MustParse(...).rules()`
  // would destroy the Program before the loop body runs.
  const Program base_facts = MustParse(tp.base_facts);
  for (const Rule& r : base_facts.rules()) {
    facts.emplace(r.head().ToString(), r.head());
  }
  for (int i = 0; i < 8; ++i) {
    Atom f = RandomFact(tp, rng);
    if (facts.emplace(f.ToString(), f).second) {
      ASSERT_TRUE(initial_edb.AddFact(f).ok());
    }
  }

  Result<IncrementalEvaluator> inc =
      IncrementalEvaluator::Create(program, initial_edb.Clone(), options);
  ASSERT_TRUE(inc.ok()) << inc.status();

  for (int step = 0; step < 8; ++step) {
    std::vector<Atom> adds;
    std::vector<Atom> dels;
    size_t num_dels = rng.Below(4);
    size_t num_adds = rng.Below(4);
    for (size_t i = 0; i < num_dels; ++i) {
      if (!facts.empty() && rng.Below(2) == 0) {
        // Delete a present fact.
        auto it = facts.begin();
        std::advance(it, rng.Below(facts.size()));
        dels.push_back(it->second);
      } else {
        // Delete a random fact (often absent: must be a no-op).
        dels.push_back(RandomFact(tp, rng));
      }
    }
    for (size_t i = 0; i < num_adds; ++i) {
      adds.push_back(RandomFact(tp, rng));
      if (rng.Below(4) == 0) adds.push_back(adds.back());  // duplicate
    }

    for (const Atom& d : dels) facts.erase(d.ToString());
    for (const Atom& a : adds) facts.emplace(a.ToString(), a);

    Result<IvmStats> st = inc->ApplyUpdates(adds, dels);
    ASSERT_TRUE(st.ok()) << tp.name << " step " << step << ": "
                         << st.status();

    Database reference_edb;
    for (const auto& [unused, atom] : facts) {
      ASSERT_TRUE(reference_edb.AddFact(atom).ok());
    }
    Result<Database> recomputed = Evaluate(program, reference_edb, options);
    ASSERT_TRUE(recomputed.ok()) << recomputed.status();
    ASSERT_TRUE(inc->edb().SameFactsAs(reference_edb))
        << tp.name << " step " << step << ": EDB diverged";
    ASSERT_TRUE(inc->idb().SameFactsAs(*recomputed))
        << tp.name << " step " << step << ": IDB diverged after batch "
        << st->ToString();
  }
}

INSTANTIATE_TEST_SUITE_P(
    Schedules, IvmDifferential,
    ::testing::Combine(::testing::Range(0, 6), ::testing::Values(1, 2, 3),
                       ::testing::Values(1, 1024), ::testing::Values(1, 4)),
    [](const auto& info) {
      return StrCat(kPrograms[std::get<0>(info.param)].name, "_s",
                    std::get<1>(info.param), "_b", std::get<2>(info.param),
                    "_t", std::get<3>(info.param));
    });

// Large mixed batches through the batched executor path: 200-fact adds
// and bulk deletes must land in one ApplyUpdates call each.
TEST(IvmTest, LargeMixedBatches) {
  Program program = MustParse(R"(
    t(X, Y) :- e(X, Y).
    t(X, Y) :- t(X, Z), e(Z, Y).
  )");
  EvalOptions options;
  options.batch_size = 1024;

  Result<IncrementalEvaluator> inc =
      IncrementalEvaluator::Create(program, Database(), options);
  ASSERT_TRUE(inc.ok()) << inc.status();

  // A 100-node chain plus 100 cross edges, inserted in one batch.
  std::vector<Atom> adds;
  for (int i = 0; i < 100; ++i) {
    adds.push_back(Atom("e", {Term::Sym(StrCat("n", i)),
                              Term::Sym(StrCat("n", i + 1))}));
    adds.push_back(
        Atom("e", {Term::Sym(StrCat("n", i)), Term::Sym("sink")}));
  }
  Result<IvmStats> st = inc->ApplyUpdates(adds, {});
  ASSERT_TRUE(st.ok()) << st.status();
  EXPECT_EQ(st->edb_inserted, 200u);

  Database reference_edb;
  for (const Atom& a : adds) ASSERT_TRUE(reference_edb.AddFact(a).ok());
  Result<Database> full = Evaluate(program, reference_edb, options);
  ASSERT_TRUE(full.ok());
  ASSERT_TRUE(inc->idb().SameFactsAs(*full));

  // Cut the chain in the middle in one bulk delete; half the closure
  // collapses, the sink edges survive.
  std::vector<Atom> dels;
  for (int i = 40; i < 60; ++i) {
    dels.push_back(Atom("e", {Term::Sym(StrCat("n", i)),
                              Term::Sym(StrCat("n", i + 1))}));
  }
  st = inc->ApplyUpdates({}, dels);
  ASSERT_TRUE(st.ok()) << st.status();
  EXPECT_EQ(st->edb_deleted, 20u);
  EXPECT_GT(st->net_deleted, 0u);

  Database after_edb;
  std::set<std::string> gone;
  for (const Atom& d : dels) gone.insert(d.ToString());
  for (const Atom& a : adds) {
    if (gone.count(a.ToString()) == 0) {
      ASSERT_TRUE(after_edb.AddFact(a).ok());
    }
  }
  Result<Database> recomputed = Evaluate(program, after_edb, options);
  ASSERT_TRUE(recomputed.ok());
  ASSERT_TRUE(inc->idb().SameFactsAs(*recomputed));
}

// Steady-state batches must hit the plan cache: after a warm-up batch,
// further batches of the same shape plan nothing new. The ballast graph
// keeps every relation's ⌊log2(size)⌋ band stable across batches — the
// size-aware cache re-plans on band shifts by design, so the assertion
// holds only once sizes dwarf the per-batch delta (as in production).
TEST(IvmTest, SteadyStatePlansAreCached) {
  Program program = MustParse(R"(
    t(X, Y) :- e(X, Y).
    t(X, Y) :- t(X, Z), e(Z, Y).
  )");
  Database ballast;
  for (int i = 0; i < 40; ++i) {
    // Disconnected edges: closure stays the edge set itself.
    ASSERT_TRUE(ballast
                    .AddFact(Atom("e", {Term::Sym(StrCat("a", i)),
                                        Term::Sym(StrCat("b", i))}))
                    .ok());
  }
  Result<IncrementalEvaluator> inc =
      IncrementalEvaluator::Create(program, std::move(ballast));
  ASSERT_TRUE(inc.ok()) << inc.status();

  auto update = [&](const char* x, const char* y, bool add) -> EvalStats {
    Atom e("e", {Term::Sym(x), Term::Sym(y)});
    EvalStats stats;
    Result<IvmStats> st = add ? inc->ApplyUpdates({e}, {}, &stats)
                              : inc->ApplyUpdates({}, {e}, &stats);
    EXPECT_TRUE(st.ok()) << st.status();
    return stats;
  };
  // Warm up both the insert and the delete rule sets with an isolated
  // edge, then replay the same shape on fresh endpoints.
  update("x1", "y1", /*add=*/true);
  update("x1", "y1", /*add=*/false);

  EvalStats warm_add = update("x2", "y2", /*add=*/true);
  EXPECT_EQ(warm_add.plan_cache_misses, 0u)
      << "insert batch planned fresh rules";
  EvalStats warm_del = update("x2", "y2", /*add=*/false);
  EXPECT_EQ(warm_del.plan_cache_misses, 0u)
      << "delete batch planned fresh rules";
}

// IvmStats totals accumulate across batches and publish under eval.ivm.
TEST(IvmTest, StatsAccumulateAndPublish) {
  Program program = MustParse("t(X, Y) :- e(X, Y).");
  Result<IncrementalEvaluator> inc =
      IncrementalEvaluator::Create(program, Database());
  ASSERT_TRUE(inc.ok()) << inc.status();

  uint64_t before =
      obs::MetricsRegistry::Global().GetCounter("eval.ivm.batches").value();
  Atom e("e", {Term::Sym("a"), Term::Sym("b")});
  ASSERT_TRUE(inc->ApplyUpdates({e}, {}).ok());
  ASSERT_TRUE(inc->ApplyUpdates({}, {e}).ok());
  EXPECT_EQ(inc->totals().batches, 2u);
  EXPECT_EQ(inc->totals().edb_inserted, 1u);
  EXPECT_EQ(inc->totals().edb_deleted, 1u);
  EXPECT_EQ(inc->totals().net_inserted, 1u);
  EXPECT_EQ(inc->totals().net_deleted, 1u);
  EXPECT_EQ(
      obs::MetricsRegistry::Global().GetCounter("eval.ivm.batches").value(),
      before + 2);
  EXPECT_FALSE(inc->totals().ToString().empty());
}

// The delta handed back per batch is exactly the settled net change,
// EDB and IDB: applying it to a copy of the pre-batch state yields the
// post-batch state. A borrowed (CloneShared) EDB is never written
// through, and a rejected batch changes nothing.
TEST(IvmTest, DeltaReplaysOntoAPublishedCopy) {
  Program program = MustParse(R"(
    t(X, Y) :- e(X, Y).
    t(X, Y) :- t(X, Z), e(Z, Y).
    lonely(X) :- n(X), not t(X, X).
  )");
  Database base = MustParseFacts(
      "e(1, 2). e(2, 3). e(3, 1). n(1). n(2). n(3). n(4).");
  const Database original = base.Clone();
  Result<IncrementalEvaluator> inc =
      IncrementalEvaluator::Create(program, base.CloneShared());
  ASSERT_TRUE(inc.ok()) << inc.status();
  Database published = base.Clone();
  published.CopyRelationsFrom(inc->idb());

  auto edge = [](int a, int b) {
    return Atom("e", {Term::Int(a), Term::Int(b)});
  };
  const std::vector<std::pair<std::vector<Atom>, std::vector<Atom>>>
      batches = {
          {{edge(4, 4)}, {edge(3, 1)}},
          {{edge(3, 1), edge(1, 4)}, {edge(4, 4), edge(9, 9)}},
          {{edge(2, 3)}, {edge(2, 3), edge(1, 2)}},
      };
  for (const auto& [adds, dels] : batches) {
    DatabaseDelta delta;
    ASSERT_TRUE(inc->ApplyUpdates(adds, dels, nullptr, &delta).ok());
    published.ApplyDelta(delta);
    Database want = inc->edb().Clone();
    want.CopyRelationsFrom(inc->idb());
    EXPECT_TRUE(published.SameFactsAs(want)) << published.ToString();
  }
  EXPECT_TRUE(base.SameFactsAs(original)) << base.ToString();

  // An IDB fact anywhere in the batch rejects it before the EDB moves.
  const Database before = inc->edb().Clone();
  DatabaseDelta delta;
  Result<IvmStats> rejected = inc->ApplyUpdates(
      {edge(5, 5), Atom("t", {Term::Int(1), Term::Int(1)})}, {edge(1, 4)},
      nullptr, &delta);
  EXPECT_FALSE(rejected.ok());
  EXPECT_TRUE(inc->edb().SameFactsAs(before));
}

}  // namespace
}  // namespace semopt
