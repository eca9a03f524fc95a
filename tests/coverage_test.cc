// Cross-cutting behaviour tests for details not covered by the
// module-level suites: cardinality-aware planning, magic-rule slicing,
// semi-naive delta plumbing, workload generator knobs, and rendering.

#include "eval/fixpoint.h"
#include "eval/rule_executor.h"
#include "magic/magic_sets.h"
#include "obs/query_log.h"
#include "semopt/expansion.h"
#include "semopt/runtime_residues.h"
#include "util/string_util.h"
#include "workload/university.h"

#include "gtest/gtest.h"
#include "test_helpers.h"

namespace semopt {
namespace {

using testing_util::ExpectRuleMatchesReference;
using testing_util::MustEvaluate;
using testing_util::MustParse;
using testing_util::MustParseFacts;
using testing_util::MustParseRule;
using testing_util::RelationRows;

PredicateId Pred(const char* name, uint32_t arity) {
  return PredicateId{InternSymbol(name), arity};
}

class DbSource : public RelationSource {
 public:
  explicit DbSource(const Database* db) : db_(db) {}
  const Relation* Full(const PredicateId& pred) const override {
    return db_->Find(pred);
  }
  const Relation* Delta(const PredicateId& pred) const override {
    auto it = deltas_.find(pred);
    return it == deltas_.end() ? nullptr : it->second;
  }
  void SetDelta(const PredicateId& pred, const Relation* rel) {
    deltas_[pred] = rel;
  }

 private:
  const Database* db_;
  std::map<PredicateId, const Relation*> deltas_;
};

TEST(PlannerTest, ProbesSmallerRelationFirstOnTies) {
  // Rule body: big(X, Y), small(X, Z) — after nothing is bound, both
  // have zero bound args; the planner must scan `small` first, so the
  // number of explored bindings is |small| + matches, not |big| + ...
  Database db;
  for (int i = 0; i < 200; ++i) {
    db.AddTuple("big", {Term::Int(i), Term::Int(i + 1)});
  }
  db.AddTuple("small", {Term::Int(5), Term::Sym("z")});

  Rule rule = MustParseRule("q(X, Y, Z) :- big(X, Y), small(X, Z)");
  Result<RuleExecutor> exec = RuleExecutor::Create(rule);
  ASSERT_TRUE(exec.ok());
  DbSource source(&db);
  EvalStats stats;
  size_t results = 0;
  exec->Execute(source, -1,
                [&](const TupleBuffer& block) { results += block.size(); },
                &stats);
  EXPECT_EQ(results, 1u);
  // small scan (1) + probe into big on X (1 match) = 2 bindings. A
  // big-first plan would explore 201.
  EXPECT_LE(stats.bindings_explored, 2u);
  EXPECT_LE(ExpectRuleMatchesReference(rule, db).bindings_explored, 2u);
}

TEST(PlannerTest, DeltaRelationSizeInformsThePlan) {
  // When the delta for `big` is tiny, the planner should drive from it
  // even though the full relation is large.
  Database db;
  for (int i = 0; i < 100; ++i) {
    db.AddTuple("big", {Term::Int(i), Term::Int(i + 1)});
    db.AddTuple("other", {Term::Int(i + 1), Term::Int(i + 2)});
  }
  Relation delta(Pred("big", 2));
  delta.Insert({Term::Int(7), Term::Int(8)});

  Rule rule = MustParseRule("q(X, Z) :- big(X, Y), other(Y, Z)");
  Result<RuleExecutor> exec = RuleExecutor::Create(rule);
  ASSERT_TRUE(exec.ok());
  DbSource source(&db);
  source.SetDelta(Pred("big", 2), &delta);
  EvalStats stats;
  size_t results = 0;
  exec->Execute(source, /*delta_literal=*/0,
                [&](const TupleBuffer& block) { results += block.size(); },
                &stats);
  EXPECT_EQ(results, 1u);
  EXPECT_LE(stats.bindings_explored, 2u);
  EXPECT_LE(ExpectRuleMatchesReference(rule, db, /*delta_literal=*/0, &delta)
                .bindings_explored,
            2u);
}

TEST(ExecutorDeltaTest, DeltaLiteralReadsDeltaOthersReadFull) {
  Database db;
  db.AddTuple("p", {Term::Sym("full_only")});
  Relation delta(Pred("p", 1));
  delta.Insert({Term::Sym("delta_only")});

  // p appears twice; only the designated occurrence reads the delta.
  Rule rule = MustParseRule("q(X, Y) :- p(X), p(Y)");
  Result<RuleExecutor> exec = RuleExecutor::Create(rule);
  ASSERT_TRUE(exec.ok());
  DbSource source(&db);
  source.SetDelta(Pred("p", 1), &delta);
  std::vector<std::string> rows;
  exec->Execute(source, /*delta_literal=*/0,
                [&](const TupleBuffer& block) {
                  for (size_t i = 0; i < block.size(); ++i) {
                    rows.push_back(TupleToString(block.row(i)));
                  }
                },
                nullptr);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0], "(delta_only, full_only)");
  ExpectRuleMatchesReference(rule, db, /*delta_literal=*/0, &delta);
}

TEST(MagicSlicingTest, OffPathFanOutLiteralsStayOutOfMagicRules) {
  // The `noise` literal shares no variable on the guard->recursive-arg
  // path, so magic rules must not contain it.
  Program p = MustParse(R"(
    r0: t(X, Y) :- base(X, Y).
    r1: t(X, Y) :- e(X, Z), noise(X, N), big_noise(N, M), t(Z, Y).
  )");
  Result<MagicRewrite> rewrite =
      MagicSets(p, Atom("t", {Term::Sym("a"), Term::Var("Y")}));
  ASSERT_TRUE(rewrite.ok()) << rewrite.status();
  for (const Rule& rule : rewrite->program.rules()) {
    if (!StartsWith(rule.label(), "magic")) continue;
    for (const Literal& lit : rule.body()) {
      if (!lit.IsRelational()) continue;
      EXPECT_NE(lit.atom().predicate_name(), "noise") << rule;
      EXPECT_NE(lit.atom().predicate_name(), "big_noise") << rule;
    }
  }
  // And the rewrite still answers correctly.
  Database edb = MustParseFacts(R"(
    base(c, d). e(a, b). e(b, c).
    noise(a, 1). noise(b, 2). big_noise(1, 10). big_noise(2, 20).
  )");
  Result<std::vector<Tuple>> answers =
      AnswerWithMagic(p, edb, Atom("t", {Term::Sym("a"), Term::Var("Y")}));
  ASSERT_TRUE(answers.ok());
  EXPECT_EQ(answers->size(), 1u);  // t(a, d) through e-chain + base
}

TEST(RuntimeResiduesTest, EliminationReducesJoinWorkOnChains) {
  // The evaluation-paradigm baseline must actually exploit the
  // unconditional elimination (fewer bindings than plain evaluation).
  Result<Program> p = UniversityProgram();
  ASSERT_TRUE(p.ok());
  Database edb;
  for (int i = 0; i < 20; ++i) {
    edb.AddTuple("works_with", {Term::Sym(StrCat("p", i)),
                                Term::Sym(StrCat("p", i + 1))});
    edb.AddTuple("expert", {Term::Sym(StrCat("p", i)), Term::Sym("db")});
  }
  edb.AddTuple("expert", {Term::Sym("p20"), Term::Sym("db")});
  edb.AddTuple("super", {Term::Sym("p20"), Term::Sym("s"), Term::Sym("t")});
  edb.AddTuple("field", {Term::Sym("t"), Term::Sym("db")});

  EvalStats plain, runtime;
  MustEvaluate(*p, edb, &plain);
  Result<Database> rt = EvaluateWithRuntimeResidues(*p, edb, &runtime);
  ASSERT_TRUE(rt.ok());
  EXPECT_LT(runtime.bindings_explored, plain.bindings_explored);
  EXPECT_GT(runtime.runtime_residue_checks, 0u);
}

TEST(WorkloadKnobsTest, FieldsPerThesisMultipliesFieldTuples) {
  UniversityParams one;
  one.num_students = 50;
  one.num_fields = 12;
  one.fields_per_thesis = 1;
  one.seed = 4;
  UniversityParams three = one;
  three.fields_per_thesis = 3;
  Database a = GenerateUniversityDb(one);
  Database b = GenerateUniversityDb(three);
  EXPECT_GT(testing_util::RelationSize(b, "field", 2),
            2 * testing_util::RelationSize(a, "field", 2));
}

TEST(WorkloadKnobsTest, DepartmentsPartitionCollaboration) {
  UniversityParams params;
  params.num_professors = 40;
  params.num_students = 10;
  params.num_departments = 4;
  params.seed = 6;
  Database db = GenerateUniversityDb(params);
  const Relation* works_with = db.Find(Pred("works_with", 2));
  ASSERT_NE(works_with, nullptr);
  // Every edge stays within a 10-professor block.
  for (RowRef row : works_with->rows()) {
    int a = std::atoi(row[0].name().c_str() + 4);  // "profN"
    int b = std::atoi(row[1].name().c_str() + 4);
    EXPECT_EQ(a / 10, b / 10) << row[0] << " " << row[1];
  }
}

TEST(RenderingTest, EvalStatsAndResidueToString) {
  obs::QueryProfile profile;
  profile.eval.iterations = 3;
  profile.eval.derived_tuples = 7;
  std::string s = profile.Render();
  EXPECT_NE(s.find("iterations 3"), std::string::npos) << s;
  EXPECT_NE(s.find("derived 7"), std::string::npos) << s;
}

TEST(EvaluationTest, ZeroAryPredicatesFlowThroughRules) {
  Program p = MustParse(R"(
    enabled :- switch_on.
    out(X) :- enabled, in(X).
  )");
  Database with = MustParseFacts("switch_on. in(a).");
  Database idb = MustEvaluate(p, with);
  EXPECT_EQ(testing_util::RelationSize(idb, "out", 1), 1u);

  Database without = MustParseFacts("in(a).");
  Database idb2 = MustEvaluate(p, without);
  EXPECT_EQ(testing_util::RelationSize(idb2, "out", 1), 0u);
}

TEST(EvaluationTest, ComparisonOnlyJoinsAcrossRelations) {
  Program p = MustParse(R"(
    older(A, B) :- person(A, Aa), person(B, Ba), Aa > Ba.
  )");
  Database edb = MustParseFacts("person(x, 30). person(y, 20). person(z, 40).");
  Database idb = MustEvaluate(p, edb);
  EXPECT_EQ(RelationRows(idb, "older", 2),
            (std::vector<std::string>{"(x, y)", "(z, x)", "(z, y)"}));
}


TEST(AblationFlagsTest, UnslicedMagicStillCorrect) {
  Program p = MustParse(R"(
    r0: t(X, Y) :- base(X, Y).
    r1: t(X, Y) :- e(X, Z), noise(X, N), t(Z, Y).
  )");
  Database edb = MustParseFacts(
      "base(c, d). e(a, b). e(b, c). noise(a, 1). noise(b, 2).");
  Atom query("t", {Term::Sym("a"), Term::Var("Y")});
  MagicOptions unsliced;
  unsliced.slice_magic_bodies = false;
  Result<std::vector<Tuple>> a =
      AnswerWithMagic(p, edb, query, nullptr, unsliced);
  Result<std::vector<Tuple>> b = AnswerWithMagic(p, edb, query);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->size(), b->size());
  EXPECT_EQ(a->size(), 1u);
}


TEST(LexerEdgeTest, PrimedVariablesRoundTrip) {
  // The paper writes primed variables (X', X''); the lexer accepts
  // primes inside identifiers and the printer reproduces them.
  Rule rule = MustParseRule("p(X') :- q(X', X'')");
  EXPECT_EQ(rule.ToString(), "p(X') :- q(X', X'').");
  Result<Rule> reparsed = ParseRule(rule.ToString());
  ASSERT_TRUE(reparsed.ok());
  EXPECT_EQ(*reparsed, rule);
}

TEST(RelationPropertyTest, ProbeEqualsLinearScan) {
  SplitMix64 rng(41);
  Relation rel(Pred("r", 3));
  for (int i = 0; i < 200; ++i) {
    rel.Insert({Term::Int(static_cast<int64_t>(rng.Below(6))),
                Term::Int(static_cast<int64_t>(rng.Below(6))),
                Term::Int(static_cast<int64_t>(rng.Below(6)))});
  }
  rel.EnsureIndex({0, 2});
  for (uint64_t key0 = 0; key0 < 6; ++key0) {
    for (uint64_t key2 = 0; key2 < 6; ++key2) {
      Tuple key{Term::Int(static_cast<int64_t>(key0)),
                Term::Int(static_cast<int64_t>(key2))};
      std::set<size_t> probed;
      for (uint32_t row : rel.Probe({0, 2}, key)) probed.insert(row);
      std::set<size_t> scanned;
      for (size_t i = 0; i < rel.size(); ++i) {
        if (rel.row(i)[0] == key[0] && rel.row(i)[2] == key[1]) {
          scanned.insert(i);
        }
      }
      EXPECT_EQ(probed, scanned) << key0 << "," << key2;
    }
  }
}

TEST(UnfoldBookkeepingTest, RecursiveArgsChainInterfaces) {
  Program p = MustParse(R"(
    r0: anc(X, Xa, Y, Ya) :- par(X, Xa, Y, Ya).
    r1: anc(X, Xa, Y, Ya) :- anc(X, Xa, Z, Za), par(Z, Za, Y, Ya).
  )");
  Result<UnfoldedSequence> u = Unfold(p, ExpansionSequence{{1, 1, 1}});
  ASSERT_TRUE(u.ok());
  ASSERT_EQ(u->recursive_args.size(), 3u);
  // Interfaces: Z_i's first two args are the invariant (X, Xa); the
  // last two are fresh per level and distinct across levels.
  for (const auto& args : u->recursive_args) {
    ASSERT_EQ(args.size(), 4u);
    EXPECT_EQ(args[0], Term::Var("X"));
    EXPECT_EQ(args[1], Term::Var("Xa"));
  }
  EXPECT_NE(u->recursive_args[0][2], u->recursive_args[1][2]);
  EXPECT_NE(u->recursive_args[1][2], u->recursive_args[2][2]);
}

}  // namespace
}  // namespace semopt
