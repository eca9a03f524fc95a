#ifndef SEMOPT_TESTS_TEST_HELPERS_H_
#define SEMOPT_TESTS_TEST_HELPERS_H_

#include <algorithm>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "ast/program.h"
#include "eval/fixpoint.h"
#include "eval/rule_executor.h"
#include "parser/parser.h"
#include "reference_eval.h"
#include "storage/database.h"

#include "gtest/gtest.h"

namespace semopt {
namespace testing_util {

/// Parses a program or fails the test.
inline Program MustParse(std::string_view source) {
  Result<Program> result = ParseProgram(source);
  EXPECT_TRUE(result.ok()) << result.status();
  return result.ok() ? std::move(result).value() : Program();
}

inline Rule MustParseRule(std::string_view source) {
  Result<Rule> result = ParseRule(source);
  EXPECT_TRUE(result.ok()) << result.status();
  return result.ok() ? std::move(result).value() : Rule();
}

inline Constraint MustParseConstraint(std::string_view source) {
  Result<Constraint> result = ParseConstraint(source);
  EXPECT_TRUE(result.ok()) << result.status();
  return result.ok() ? std::move(result).value() : Constraint();
}

inline Literal MustParseLiteral(std::string_view source) {
  Result<Literal> result = ParseLiteral(source);
  EXPECT_TRUE(result.ok()) << result.status();
  return result.ok() ? std::move(result).value()
                     : Literal::Comparison(Term::Int(0), ComparisonOp::kEq,
                                           Term::Int(0));
}

/// Builds a Database from whitespace-separated ground atoms, e.g.
/// "edge(a, b). edge(b, c)."
inline Database MustParseFacts(std::string_view source) {
  Database db;
  Result<Program> parsed = ParseProgram(source);
  EXPECT_TRUE(parsed.ok()) << parsed.status();
  if (parsed.ok()) {
    for (const Rule& rule : parsed->rules()) {
      EXPECT_TRUE(rule.IsFact()) << rule;
      Status st = db.AddFact(rule.head());
      EXPECT_TRUE(st.ok()) << st;
    }
  }
  return db;
}

/// Evaluates and returns the IDB, failing the test on error.
inline Database MustEvaluate(const Program& program, const Database& edb,
                             EvalStats* stats = nullptr) {
  Result<Database> result = Evaluate(program, edb, EvalOptions(), stats);
  EXPECT_TRUE(result.ok()) << result.status();
  return result.ok() ? std::move(result).value() : Database();
}

/// Sorted string rendering of a relation's tuples (order-insensitive
/// comparison helper).
inline std::vector<std::string> RelationRows(const Database& db,
                                             std::string_view pred,
                                             uint32_t arity) {
  std::vector<std::string> rows;
  const Relation* rel =
      db.Find(PredicateId{InternSymbol(pred), arity});
  if (rel != nullptr) {
    for (RowRef t : rel->rows()) rows.push_back(TupleToString(t));
  }
  std::sort(rows.begin(), rows.end());
  return rows;
}

/// Number of tuples of `pred` in `db` (0 when absent).
inline size_t RelationSize(const Database& db, std::string_view pred,
                           uint32_t arity) {
  const Relation* rel = db.Find(PredicateId{InternSymbol(pred), arity});
  return rel == nullptr ? 0 : rel->size();
}

/// Evaluates `program` over `edb` with `base` at every
/// threads {1, 2, 8} × batch size {1, 2, 5, 1024} and expects each run
/// to derive exactly the reference evaluator's fixpoint (facts and
/// derived-tuple count).
inline void ExpectMatchesReference(const Program& program, const Database& edb,
                                   const EvalOptions& base = EvalOptions()) {
  Result<Database> reference = ReferenceEvaluate(program, edb);
  ASSERT_TRUE(reference.ok()) << reference.status();
  for (size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
    for (size_t batch : {size_t{1}, size_t{2}, size_t{5}, size_t{1024}}) {
      EvalOptions options = base;
      options.num_threads = threads;
      options.batch_size = batch;
      EvalStats stats;
      Result<Database> result = Evaluate(program, edb, options, &stats);
      const std::string where = "threads=" + std::to_string(threads) +
                                " batch=" + std::to_string(batch);
      ASSERT_TRUE(result.ok()) << result.status() << " " << where;
      EXPECT_TRUE(reference->SameFactsAs(*result)) << where;
      EXPECT_EQ(stats.derived_tuples, reference->TotalTuples()) << where;
      EXPECT_GT(stats.iterations, 0u) << where;
    }
  }
}

/// Full relations from `full`; `delta`, when non-null, is the delta of
/// its own predicate.
class DeltaDbSource : public RelationSource {
 public:
  DeltaDbSource(const Database* full, const Relation* delta)
      : full_(full), delta_(delta) {}
  const Relation* Full(const PredicateId& pred) const override {
    return full_->Find(pred);
  }
  const Relation* Delta(const PredicateId& pred) const override {
    return delta_ != nullptr && pred == delta_->pred() ? delta_ : nullptr;
  }

 private:
  const Database* full_;
  const Relation* delta_;
};

/// One Prepare + ExecutePlanBatched run of `exec` at `batch_size`:
/// every derived head row (duplicates kept) as sorted strings.
/// `vectorize` selects the SIMD/selection-vector step paths or the
/// scalar loops.
inline std::vector<std::string> RunRuleBatched(
    const RuleExecutor& exec, const RelationSource& source, int delta_literal,
    size_t batch_size, EvalStats* stats = nullptr, bool vectorize = true) {
  Result<RuleExecutor::PreparedPlan> plan = exec.Prepare(source, delta_literal);
  EXPECT_TRUE(plan.ok()) << plan.status();
  std::vector<std::string> out;
  if (!plan.ok()) return out;
  exec.ExecutePlanBatched(
      *plan, source, delta_literal,
      [&](const TupleBuffer& block) {
        EXPECT_LE(block.size(), batch_size);
        for (size_t i = 0; i < block.size(); ++i) {
          out.push_back(TupleToString(block.row(i)));
        }
      },
      stats, batch_size, /*morsel_begin=*/0, RuleExecutor::kNoMorsel,
      /*scratch=*/nullptr, vectorize);
  std::sort(out.begin(), out.end());
  return out;
}

/// Runs `rule` over `db` (its `delta_literal` reading `delta`) at block
/// sizes {1, 2, 3, 1024} — three that force mid-scan flushes, one that
/// never flushes early — × vectorized paths {off, on}, and expects
/// every run to derive ReferenceRuleRows' head multiset, with
/// bindings_explored and comparison_checks equal across the grid.
/// Returns the stats of the last run, whose logical counters every run
/// shares.
inline EvalStats ExpectRuleMatchesReference(
    const Rule& rule, const Database& db, int delta_literal = -1,
    const Relation* delta = nullptr) {
  Result<RuleExecutor> exec = RuleExecutor::Create(rule);
  Result<std::vector<Tuple>> reference =
      ReferenceRuleRows(rule, db, delta_literal, delta);
  if (!exec.ok() || !reference.ok()) {
    ADD_FAILURE() << rule << ": " << exec.status() << " / "
                  << reference.status();
    return EvalStats();
  }
  std::vector<std::string> want;
  for (const Tuple& t : *reference) want.push_back(TupleToString(t));
  std::sort(want.begin(), want.end());
  DeltaDbSource source(&db, delta);
  std::optional<EvalStats> first;
  EvalStats stats;
  for (size_t batch_size : {size_t{1}, size_t{2}, size_t{3}, size_t{1024}}) {
    for (bool vectorize : {false, true}) {
      stats = EvalStats();
      const std::string where = " batch_size=" + std::to_string(batch_size) +
                                " simd=" + std::to_string(vectorize);
      EXPECT_EQ(RunRuleBatched(*exec, source, delta_literal, batch_size,
                               &stats, vectorize),
                want)
          << rule << where;
      if (!first.has_value()) {
        first = stats;
        continue;
      }
      EXPECT_EQ(stats.bindings_explored, first->bindings_explored)
          << rule << where;
      EXPECT_EQ(stats.comparison_checks, first->comparison_checks)
          << rule << where;
    }
  }
  return stats;
}

}  // namespace testing_util
}  // namespace semopt

#endif  // SEMOPT_TESTS_TEST_HELPERS_H_
