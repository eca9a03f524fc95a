#ifndef SEMOPT_EVAL_QUERY_H_
#define SEMOPT_EVAL_QUERY_H_

#include <string>
#include <string_view>
#include <vector>

#include "ast/program.h"
#include "eval/fixpoint.h"
#include "storage/database.h"
#include "util/result.h"

namespace semopt {

/// The answer to a query: one row per distinct binding of the
/// projection variables, in derivation order.
struct QueryResult {
  /// The projected variables, in the order given to AnswerQuery.
  std::vector<SymbolId> variables;
  std::vector<Tuple> tuples;

  bool empty() const { return tuples.empty(); }
  size_t size() const { return tuples.size(); }

  /// Renders one row per line: "X=a, Y=b".
  std::string ToString() const;

  /// Appends ToString()'s text to `out` (the server renders answers
  /// straight into its response this way).
  void AppendTo(std::string* out) const;
};

/// Answers a conjunctive query `body` over `program`+`edb`, projecting
/// onto `projection` (each must be a variable occurring in the body).
/// Internally builds the rule `query$(projection) :- body`, evaluates
/// every rule of `program` with it, and reads off the answer relation.
/// This is the full-fixpoint path: the oracle the query paths of
/// AnswerGoal (magic/query_paths.h) are tested against.
Result<QueryResult> AnswerQuery(const Program& program, const Database& edb,
                                const std::vector<Literal>& body,
                                const std::vector<Term>& projection,
                                const EvalOptions& options = EvalOptions(),
                                EvalStats* stats = nullptr);

/// Parses `query_text` (a literal list, e.g. "anc(X, Xa, Y, Ya), Ya > 50")
/// and answers it, projecting onto all its variables in first-occurrence
/// order.
Result<QueryResult> AnswerQuery(const Program& program, const Database& edb,
                                std::string_view query_text,
                                const EvalOptions& options = EvalOptions(),
                                EvalStats* stats = nullptr);

}  // namespace semopt

#endif  // SEMOPT_EVAL_QUERY_H_
