#include "magic/adornment.h"
#include "magic/magic_sets.h"

#include "gtest/gtest.h"
#include "test_helpers.h"
#include "util/hash_util.h"

namespace semopt {
namespace {

using testing_util::MustEvaluate;
using testing_util::MustParse;
using testing_util::MustParseFacts;

TEST(AdornmentTest, ForAtomAndPrinting) {
  Atom atom("t", {Term::Sym("a"), Term::Var("Y")});
  Adornment a = Adornment::ForAtom(atom, {});
  EXPECT_EQ(a.ToString(), "bf");
  EXPECT_TRUE(a.IsBound(0));
  EXPECT_FALSE(a.IsBound(1));
  EXPECT_EQ(a.BoundPositions(), (std::vector<uint32_t>{0}));

  Adornment with_bound =
      Adornment::ForAtom(Atom("t", {Term::Var("X"), Term::Var("Y")}),
                         {InternSymbol("Y")});
  EXPECT_EQ(with_bound.ToString(), "fb");
  EXPECT_TRUE(Adornment::ForAtom(Atom("t", {Term::Var("X")}), {}).AllFree());
}

TEST(AdornmentTest, GeneratedNames) {
  Adornment a = Adornment::ForAtom(Atom("t", {Term::Sym("a"), Term::Var("Y")}),
                                   {});
  EXPECT_EQ(SymbolName(AdornedName(InternSymbol("t"), a)), "t$bf");
  EXPECT_EQ(SymbolName(MagicName(InternSymbol("t"), a)), "magic$t$bf");
}

std::vector<std::string> SortedTuples(const std::vector<Tuple>& tuples) {
  std::vector<std::string> out;
  for (const Tuple& t : tuples) out.push_back(TupleToString(t));
  std::sort(out.begin(), out.end());
  return out;
}

TEST(MagicSetsTest, BoundQueryOnTransitiveClosure) {
  Program p = MustParse(R"(
    r0: t(X, Y) :- e(X, Y).
    r1: t(X, Y) :- e(X, Z), t(Z, Y).
  )");
  Database edb = MustParseFacts(R"(
    e(a, b). e(b, c). e(c, d).
    e(x, y). e(y, z).
  )");
  Atom query("t", {Term::Sym("a"), Term::Var("Y")});
  Result<std::vector<Tuple>> answers = AnswerWithMagic(p, edb, query);
  ASSERT_TRUE(answers.ok()) << answers.status();
  EXPECT_EQ(SortedTuples(*answers),
            (std::vector<std::string>{"(a, b)", "(a, c)", "(a, d)"}));
}

TEST(MagicSetsTest, MagicAvoidsIrrelevantComputation) {
  Program p = MustParse(R"(
    r0: t(X, Y) :- e(X, Y).
    r1: t(X, Y) :- e(X, Z), t(Z, Y).
  )");
  // Two disconnected components; querying inside one must not derive
  // tuples for the other.
  Database edb;
  for (int i = 0; i < 20; ++i) {
    edb.AddTuple("e", {Term::Sym("a" + std::to_string(i)),
                       Term::Sym("a" + std::to_string(i + 1))});
    edb.AddTuple("e", {Term::Sym("b" + std::to_string(i)),
                       Term::Sym("b" + std::to_string(i + 1))});
  }
  Atom query("t", {Term::Sym("a19"), Term::Var("Y")});

  EvalStats magic_stats;
  Result<std::vector<Tuple>> answers =
      AnswerWithMagic(p, edb, query, &magic_stats);
  ASSERT_TRUE(answers.ok());
  EXPECT_EQ(answers->size(), 1u);

  EvalStats full_stats;
  MustEvaluate(p, edb, &full_stats);
  EXPECT_LT(magic_stats.derived_tuples, full_stats.derived_tuples);
}

TEST(MagicSetsTest, FreeQueryStillCorrect) {
  Program p = MustParse(R"(
    r0: t(X, Y) :- e(X, Y).
    r1: t(X, Y) :- e(X, Z), t(Z, Y).
  )");
  Database edb = MustParseFacts("e(a, b). e(b, c).");
  Atom query("t", {Term::Var("X"), Term::Var("Y")});
  Result<std::vector<Tuple>> answers = AnswerWithMagic(p, edb, query);
  ASSERT_TRUE(answers.ok()) << answers.status();
  EXPECT_EQ(SortedTuples(*answers),
            (std::vector<std::string>{"(a, b)", "(a, c)", "(b, c)"}));
}

TEST(MagicSetsTest, RepeatedQueryVariable) {
  Program p = MustParse(R"(
    r0: t(X, Y) :- e(X, Y).
    r1: t(X, Y) :- e(X, Z), t(Z, Y).
  )");
  Database edb = MustParseFacts("e(a, b). e(b, a). e(b, c).");
  Atom query("t", {Term::Var("X"), Term::Var("X")});  // cycles only
  Result<std::vector<Tuple>> answers = AnswerWithMagic(p, edb, query);
  ASSERT_TRUE(answers.ok());
  EXPECT_EQ(SortedTuples(*answers),
            (std::vector<std::string>{"(a, a)", "(b, b)"}));
}

TEST(MagicSetsTest, RejectsEdbQuery) {
  Program p = MustParse("t(X, Y) :- e(X, Y).");
  EXPECT_FALSE(MagicSets(p, Atom("e", {Term::Var("X"), Term::Var("Y")})).ok());
}

TEST(MagicSetsTest, LeftLinearAndComparisonBodies) {
  Program p = MustParse(R"(
    r0: anc(X, Y) :- par(X, Y).
    r1: anc(X, Y) :- anc(X, Z), par(Z, Y).
  )");
  Database edb = MustParseFacts("par(a, b). par(b, c). par(c, d).");
  Atom query("anc", {Term::Sym("a"), Term::Var("Y")});
  Result<std::vector<Tuple>> answers = AnswerWithMagic(p, edb, query);
  ASSERT_TRUE(answers.ok()) << answers.status();
  EXPECT_EQ(answers->size(), 3u);
}

// Property: magic-sets answers equal plain-evaluation answers on random
// graphs and random query constants.
class MagicRandom : public ::testing::TestWithParam<int> {};

TEST_P(MagicRandom, AgreesWithPlainEvaluation) {
  SplitMix64 rng(GetParam() * 31 + 7);
  Database edb;
  const int n = 10;
  for (int i = 0; i < 25; ++i) {
    edb.AddTuple("e", {Term::Sym("v" + std::to_string(rng.Below(n))),
                       Term::Sym("v" + std::to_string(rng.Below(n)))});
  }
  Program p = MustParse(R"(
    r0: t(X, Y) :- e(X, Y).
    r1: t(X, Y) :- e(X, Z), t(Z, Y).
  )");
  Term bound = Term::Sym("v" + std::to_string(rng.Below(n)));
  Atom query("t", {bound, Term::Var("Y")});

  Result<std::vector<Tuple>> magic_answers = AnswerWithMagic(p, edb, query);
  ASSERT_TRUE(magic_answers.ok()) << magic_answers.status();

  Database idb = MustEvaluate(p, edb);
  std::vector<std::string> expected;
  const Relation* t = idb.Find(PredicateId{InternSymbol("t"), 2});
  ASSERT_NE(t, nullptr);
  for (RowRef row : t->rows()) {
    if (row[0] == bound) expected.push_back(TupleToString(row));
  }
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(SortedTuples(*magic_answers), expected);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MagicRandom, ::testing::Range(1, 11));

}  // namespace
}  // namespace semopt
