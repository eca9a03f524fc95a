// Differential coverage for the query paths of AnswerGoal
// (src/magic/query_paths.cc): on random programs — linear and non-linear
// recursion, mutual recursion, stratified negation, repeated head
// variables — and random bodies, every chosen path (edb, pushed, magic,
// sliced) must return the answers of the full-fixpoint AnswerQuery and
// of the test-side reference evaluator, at one lane and at four. Hand-
// written cases pin which path each query shape takes. This suite runs
// under TSan and ASan/UBSan in CI.

#include <algorithm>
#include <map>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "ast/rename.h"
#include "magic/query_paths.h"
#include "parser/parser.h"
#include "util/string_util.h"
#include "workload/genealogy.h"

#include "gtest/gtest.h"
#include "test_helpers.h"

namespace semopt {
namespace {

using testing_util::MustParse;
using testing_util::MustParseFacts;
using testing_util::ReferenceEvaluate;

std::vector<std::string> SortedRows(const std::vector<Tuple>& tuples) {
  std::vector<std::string> rows;
  for (const Tuple& t : tuples) rows.push_back(TupleToString(t));
  std::sort(rows.begin(), rows.end());
  return rows;
}

std::vector<Term> ProjectionOf(const std::vector<Literal>& body) {
  std::vector<Term> projection;
  for (SymbolId v : CollectVariables(body)) projection.push_back(Term::Var(v));
  return projection;
}

/// The rules of `program`, one per line (its constraints left out).
std::string RulesText(const Program& program) {
  std::string text;
  for (const Rule& rule : program.rules()) text += rule.ToString() + "\n";
  return text;
}

std::string BodyText(const std::vector<Literal>& body) {
  std::string text;
  for (const Literal& lit : body) {
    if (!text.empty()) text += ", ";
    text += lit.ToString();
  }
  return text;
}

/// The reference answers: `query$answer(projection) :- body` added to
/// `program`, evaluated by the reference evaluator.
std::vector<std::string> ReferenceAnswers(const Program& program,
                                          const Database& edb,
                                          const std::vector<Literal>& body) {
  const std::vector<Term> projection = ProjectionOf(body);
  Program extended = program;
  extended.AddRule(Rule("query$", Atom("query$answer", projection), body));
  Result<Database> idb = ReferenceEvaluate(extended, edb);
  EXPECT_TRUE(idb.ok()) << idb.status().ToString();
  if (!idb.ok()) return {};
  const Relation* answers = idb->Find(
      PredicateId{InternSymbol("query$answer"),
                  static_cast<uint32_t>(projection.size())});
  return answers == nullptr ? std::vector<std::string>{}
                            : SortedRows(answers->CopyRows());
}

/// Checks AnswerGoal against AnswerQuery and the reference at threads
/// {1, 4}; returns the path AnswerGoal chose.
QueryPath ExpectPathMatches(const Program& program, const Database& edb,
                            const std::vector<Literal>& body) {
  const std::string text = BodyText(body);
  const std::vector<Term> projection = ProjectionOf(body);
  const std::vector<std::string> reference =
      ReferenceAnswers(program, edb, body);
  QueryPath path = QueryPath::kSliced;
  for (size_t threads : {size_t{1}, size_t{4}}) {
    EvalOptions options;
    options.num_threads = threads;
    Result<QueryResult> full =
        AnswerQuery(program, edb, body, projection, options);
    EXPECT_TRUE(full.ok()) << text << ": " << full.status().ToString();
    QueryPlan plan;
    Result<QueryResult> goal =
        AnswerGoal(program, edb, body, projection, options, nullptr, &plan);
    EXPECT_TRUE(goal.ok()) << text << ": " << goal.status().ToString();
    if (!full.ok() || !goal.ok()) return plan.path;
    path = plan.path;
    EXPECT_EQ(SortedRows(full->tuples), reference)
        << text << " (AnswerQuery) threads=" << threads;
    EXPECT_EQ(SortedRows(goal->tuples), reference)
        << text << " (" << QueryPathName(plan.path)
        << " path) threads=" << threads << "\n"
        << plan.program.ToString();
    // Each answer row once: the paths deduplicate as AnswerQuery does.
    EXPECT_EQ(goal->tuples.size(), reference.size()) << text;
  }
  return path;
}

// ------------------------------------------------------ random programs

/// One random program: a few rule families with disjoint IDB names,
/// each with randomized shape (left or right recursion, a comparison
/// inside the recursion, a negation threshold).
Program RandomProgram(std::mt19937& rng) {
  std::uniform_int_distribution<int> coin(0, 1);
  std::uniform_int_distribution<int> threshold(3, 9);
  std::string text;
  // Linear recursion with one carried column: left-linear keeps
  // positions 0 and 1 fixed, right-linear keeps 1 and 2.
  if (coin(rng)) {
    text += "lin(X, C, Y) :- g(X, C, Y).\n";
    text += coin(rng) ? "lin(X, C, Z) :- lin(X, C, Y), e(Y, Z)"
                      : "lin(X, C, Z) :- e(X, Y), lin(Y, C, Z)";
    text += coin(rng) ? ", X != Z.\n" : ".\n";
  }
  // Non-linear recursion: two occurrences, never pushed.
  if (coin(rng)) {
    text += "nl(X, Y) :- e(X, Y).\n";
    text += "nl(X, Z) :- nl(X, Y), nl(Y, Z).\n";
  }
  // Mutual recursion: the SCC {ma, mb} is never pushed.
  if (coin(rng)) {
    text += "ma(X, Y) :- e(X, Y).\n";
    text += "ma(X, Z) :- mb(X, Y), e(Y, Z).\n";
    text += "mb(X, Z) :- ma(X, Y), f(Y, Z).\n";
  }
  // Stratified negation, inside the recursion and above it.
  if (coin(rng)) {
    text += StrCat("bad(X) :- f(X, Y), Y > ", threshold(rng), ".\n");
    text += "r(X, Y) :- e(X, Y).\n";
    text += "r(X, Z) :- r(X, Y), e(Y, Z), not bad(Z).\n";
    text += "ok(X, Y) :- r(X, Y), not bad(X).\n";
  }
  // Repeated head variables: the exit rule's head repeats X.
  if (coin(rng) || text.empty()) {
    text += "q(X, X, Y) :- e(X, Y).\n";
    text += "q(X, Y, Z) :- q(X, Y, W), f(W, Z).\n";
  }
  return MustParse(text);
}

Database RandomEdb(std::mt19937& rng) {
  std::uniform_int_distribution<int64_t> node(0, 9);
  Database edb;
  for (int i = 0; i < 18; ++i) {
    edb.AddTuple("e", {Term::Int(node(rng)), Term::Int(node(rng))});
    edb.AddTuple("f", {Term::Int(node(rng)), Term::Int(node(rng))});
  }
  for (int i = 0; i < 10; ++i) {
    edb.AddTuple("g", {Term::Int(node(rng)), Term::Int(node(rng) % 3),
                       Term::Int(node(rng))});
  }
  return edb;
}

/// A random safe body over `program`'s predicates and the EDB: one or
/// two relational literals whose arguments are constants, fresh or
/// repeated variables, plus comparisons and an occasional negated EDB
/// literal over bound variables.
std::vector<Literal> RandomBody(const Program& program, std::mt19937& rng) {
  std::vector<PredicateId> preds = {
      PredicateId{InternSymbol("e"), 2}, PredicateId{InternSymbol("f"), 2},
      PredicateId{InternSymbol("g"), 3}};
  for (const PredicateId& p : program.IdbPredicates()) {
    preds.push_back(p);
    preds.push_back(p);  // IDB goals twice as likely
  }
  std::uniform_int_distribution<size_t> pick(0, preds.size() - 1);
  std::uniform_int_distribution<int> percent(0, 99);
  std::uniform_int_distribution<int64_t> constant(0, 9);
  std::vector<Literal> body;
  std::vector<Term> vars;
  int fresh = 0;
  const int relational = percent(rng) < 25 ? 2 : 1;
  for (int l = 0; l < relational; ++l) {
    const PredicateId p = preds[pick(rng)];
    std::vector<Term> args;
    for (uint32_t i = 0; i < p.arity; ++i) {
      const int roll = percent(rng);
      if (roll < 25) {
        args.push_back(Term::Int(constant(rng)));
      } else if (roll < 40 && !vars.empty()) {
        args.push_back(vars[std::uniform_int_distribution<size_t>(
            0, vars.size() - 1)(rng)]);
      } else {
        vars.push_back(Term::Var(StrCat("V", fresh++)));
        args.push_back(vars.back());
      }
    }
    body.push_back(Literal::Relational(Atom(p.name, std::move(args))));
  }
  if (vars.empty()) return body;
  static constexpr ComparisonOp kOps[] = {
      ComparisonOp::kLt, ComparisonOp::kLe, ComparisonOp::kGt,
      ComparisonOp::kGe, ComparisonOp::kNe, ComparisonOp::kEq};
  std::uniform_int_distribution<size_t> var(0, vars.size() - 1);
  std::uniform_int_distribution<size_t> op(0, 5);
  const int comparisons = percent(rng) % 3;
  for (int c = 0; c < comparisons; ++c) {
    const Term rhs =
        percent(rng) < 70 ? Term::Int(constant(rng)) : vars[var(rng)];
    body.push_back(Literal::Comparison(vars[var(rng)], kOps[op(rng)], rhs));
  }
  if (percent(rng) < 15) {
    body.push_back(Literal::NegatedRelational(
        Atom("f", {vars[var(rng)], Term::Int(constant(rng))})));
  }
  return body;
}

TEST(QueryPathDifferentialTest, EveryPathMatchesTheFullFixpoint) {
  std::mt19937 rng(20261019);
  std::map<QueryPath, int> taken;
  for (int trial = 0; trial < 40; ++trial) {
    const Program program = RandomProgram(rng);
    const Database edb = RandomEdb(rng);
    for (int q = 0; q < 8; ++q) {
      const std::vector<Literal> body = RandomBody(program, rng);
      ++taken[ExpectPathMatches(program, edb, body)];
      if (::testing::Test::HasFailure()) {
        FAIL() << "program:\n" << program.ToString();
      }
    }
  }
  // The random mix reaches every path.
  for (QueryPath path : {QueryPath::kEdb, QueryPath::kPushed,
                         QueryPath::kMagic, QueryPath::kSliced}) {
    EXPECT_GT(taken[path], 0) << QueryPathName(path);
  }
}

// --------------------------------------------------- hand-written paths

class QueryPathChoiceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Result<Program> program = GenealogyProgram();
    ASSERT_TRUE(program.ok()) << program.status();
    program_ = *program;
    GenealogyParams params;
    params.num_families = 3;
    params.generations = 4;
    params.seed = 11;
    edb_ = GenerateGenealogyDb(params);
  }

  /// The path `text` takes; also checks its answers.
  QueryPath PathOf(const std::string& text) {
    Result<std::vector<Literal>> body = ParseLiteralList(text);
    EXPECT_TRUE(body.ok()) << body.status();
    return ExpectPathMatches(program_, edb_, *body);
  }

  Program program_;
  Database edb_;
};

TEST_F(QueryPathChoiceTest, InvariantSelectionsArePushed) {
  // r1 keeps X and Xa fixed: anc(X, Xa, Z, Za) -> anc(X, Xa, Y, Ya).
  EXPECT_EQ(PathOf("anc(pers1, Xa, Y, Ya)"), QueryPath::kPushed);
  EXPECT_EQ(PathOf("anc(X, Xa, Y, Ya), Xa > 5"), QueryPath::kPushed);
  EXPECT_EQ(PathOf("anc(X, Xa, Y, Ya), X = pers2, Xa >= 60"),
            QueryPath::kPushed);
}

TEST_F(QueryPathChoiceTest, BoundNonInvariantGoalTakesMagic) {
  EXPECT_EQ(PathOf("anc(X, Xa, pers5, Ya)"), QueryPath::kMagic);
  // A constant on a non-invariant position rules pushing out even when
  // another constant sits on an invariant one.
  EXPECT_EQ(PathOf("anc(pers1, Xa, pers5, Ya)"), QueryPath::kMagic);
}

TEST_F(QueryPathChoiceTest, NonInvariantComparisonIsSliced) {
  // Ya changes along the recursion, so `Ya > 5` cannot enter it.
  EXPECT_EQ(PathOf("anc(X, Xa, Y, Ya), Ya > 5"), QueryPath::kSliced);
  EXPECT_EQ(PathOf("anc(X, Xa, Y, Ya), par(Y, Ya, Z, Za)"),
            QueryPath::kSliced);
}

TEST_F(QueryPathChoiceTest, SlicedPlanKeepsTheConeAndItsConstants) {
  const std::string text = "anc(X, Xa, Y, Ya), Ya > 5";
  Result<std::vector<Literal>> body = ParseLiteralList(text);
  ASSERT_TRUE(body.ok());
  const Rule query("query$", Atom("query$answer", ProjectionOf(*body)), *body);
  // The cone is the whole program: the plan is what AnswerQuery
  // evaluates, constants in the query rule and no seed relation.
  Result<QueryPlan> whole = PlanQuery(program_, *body, ProjectionOf(*body));
  ASSERT_TRUE(whole.ok()) << whole.status();
  EXPECT_EQ(whole->path, QueryPath::kSliced);
  EXPECT_TRUE(whole->seed.empty());
  Program extended = program_;
  extended.AddRule(query);
  EXPECT_EQ(RulesText(whole->program), RulesText(extended));

  // A rule outside the cone is left out.
  Program wider = program_;
  wider.AddRule(MustParse("sib(X, Y) :- par(X, Xa, P, Pa), par(Y, Ya, P, Pa).")
                    .rules()
                    .front());
  Result<QueryPlan> sliced = PlanQuery(wider, *body, ProjectionOf(*body));
  ASSERT_TRUE(sliced.ok()) << sliced.status();
  EXPECT_EQ(sliced->path, QueryPath::kSliced);
  EXPECT_EQ(RulesText(sliced->program), RulesText(extended));
  EXPECT_EQ(ExpectPathMatches(wider, edb_, *body), QueryPath::kSliced);
}

TEST_F(QueryPathChoiceTest, AnswerWithMagicRunsTheMagicPath) {
  // A bound third argument, taken from a par fact so that it has
  // answers.
  const Relation* par = edb_.Find(PredicateId{InternSymbol("par"), 4});
  ASSERT_NE(par, nullptr);
  const Term bound = par->CopyRows().back()[2];
  Result<std::vector<Literal>> body = ParseLiteralList(
      StrCat("anc(X, Xa, ", bound.ToString(), ", Ya)"));
  ASSERT_TRUE(body.ok());
  const Atom& goal = body->front().atom();
  Result<QueryPlan> chosen = PlanQuery(program_, *body, ProjectionOf(*body));
  Result<QueryPlan> magic = PlanMagic(program_, goal);
  ASSERT_TRUE(chosen.ok()) << chosen.status();
  ASSERT_TRUE(magic.ok()) << magic.status();
  EXPECT_EQ(chosen->path, QueryPath::kMagic);
  EXPECT_EQ(chosen->program.ToString(), magic->program.ToString());
  EXPECT_EQ(chosen->seed, magic->seed);

  Result<std::vector<Tuple>> answers = AnswerWithMagic(program_, edb_, goal);
  Result<QueryResult> full =
      AnswerQuery(program_, edb_, *body, ProjectionOf(*body));
  ASSERT_TRUE(answers.ok()) << answers.status();
  ASSERT_TRUE(full.ok()) << full.status();
  ASSERT_FALSE(full->empty());
  std::vector<Tuple> want;
  for (const Tuple& row : full->tuples) {
    want.push_back({row[0], row[1], bound, row[2]});
  }
  EXPECT_EQ(SortedRows(*answers), SortedRows(want));
}

TEST_F(QueryPathChoiceTest, EdbOnlyBodyRunsNoFixpoint) {
  Result<std::vector<Literal>> body = ParseLiteralList("par(pers1, A, P, Pa)");
  ASSERT_TRUE(body.ok());
  EvalStats stats;
  QueryPlan plan;
  Result<QueryResult> result = AnswerGoal(
      program_, edb_, *body, ProjectionOf(*body), EvalOptions(), &stats, &plan);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(plan.path, QueryPath::kEdb);
  EXPECT_EQ(stats.iterations, 0u);
  EXPECT_TRUE(stats.rounds.empty());
  EXPECT_EQ(PathOf("par(pers1, A, P, Pa), Pa > 30"), QueryPath::kEdb);
}

TEST_F(QueryPathChoiceTest, PushedPlanKeepsConstantsOutOfTheRuleText) {
  // Two constants, one plan text: the constants live in the seed row.
  auto plan_of = [&](const std::string& text) {
    Result<std::vector<Literal>> body = ParseLiteralList(text);
    EXPECT_TRUE(body.ok());
    Result<QueryPlan> plan = PlanQuery(program_, *body, ProjectionOf(*body));
    EXPECT_TRUE(plan.ok());
    return *plan;
  };
  const QueryPlan a = plan_of("anc(X, Xa, Y, Ya), Xa > 100");
  const QueryPlan b = plan_of("anc(X, Xa, Y, Ya), Xa > 107");
  EXPECT_EQ(a.program.ToString(), b.program.ToString());
  EXPECT_NE(a.seed, b.seed);
  ASSERT_EQ(a.pushed.size(), 1u);
  EXPECT_EQ(a.pushed[0], "anc[1] > 100");
  // The specialized exit rule carries the selection; r1's copy reads
  // the specialized predicate.
  const std::string text = a.program.ToString();
  EXPECT_NE(text.find("r0$q: anc$q(X, Xa, Y, Ya) :- query$seed($k0), "
                      "par(X, Xa, Y, Ya), Xa > $k0."),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("r1$q: anc$q(X, Xa, Y, Ya) :- anc$q(X, Xa, Z, Za), "
                      "par(Z, Za, Y, Ya)."),
            std::string::npos)
      << text;
}

TEST(QueryPathMagicTest, NegatedIdbInsideTheRecursionKeepsItsRules) {
  // The magic rewrite reads `bad` under negation; its original rules
  // must come along, or `not bad(Z)` reads an empty relation.
  const Program program = MustParse(R"(
    bad(X) :- f(X, Y), Y > 4.
    r(X, Y) :- e(X, Y).
    r(X, Z) :- r(X, Y), e(Y, Z), not bad(Z).
  )");
  const Database edb = MustParseFacts(R"(
    e(1, 2). e(2, 3). e(3, 4). e(4, 5).
    f(3, 9). f(4, 1).
  )");
  Result<std::vector<Literal>> body = ParseLiteralList("r(X, 4)");
  ASSERT_TRUE(body.ok());
  EXPECT_EQ(ExpectPathMatches(program, edb, *body), QueryPath::kMagic);
}

}  // namespace
}  // namespace semopt
