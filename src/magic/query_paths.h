#ifndef SEMOPT_MAGIC_QUERY_PATHS_H_
#define SEMOPT_MAGIC_QUERY_PATHS_H_

#include <string>
#include <vector>

#include "ast/program.h"
#include "eval/fixpoint.h"
#include "eval/query.h"
#include "magic/magic_sets.h"
#include "storage/database.h"
#include "util/result.h"

namespace semopt {

/// How a query is answered (DESIGN.md §17). PlanQuery takes the first
/// path that applies, in this order.
enum class QueryPath {
  /// No body literal names an IDB predicate: the query rule runs once
  /// over the database. No fixpoint, no rounds.
  kEdb,
  /// A body literal p(...) whose selections touch only the positions
  /// p's recursion passes unchanged: a copy p$q of p with the
  /// selections conjoined to its exit rules.
  kPushed,
  /// The body is one IDB goal with constants: magic sets.
  kMagic,
  /// Everything else: the query rule with the rules of the body's
  /// dependency cone (every rule, when the cone is the whole program:
  /// then it runs exactly what AnswerQuery runs).
  kSliced,
};

/// "edb", "pushed", "magic" or "sliced".
const char* QueryPathName(QueryPath path);

/// A query path and the rules it runs, chosen from the program and the
/// query body alone (no data is read), so a server can classify a
/// query before it admits it and pins a snapshot.
struct QueryPlan {
  QueryPath path = QueryPath::kSliced;
  /// The projected variables.
  std::vector<SymbolId> variables;
  /// kEdb: the one rule `query$answer(projection) :- body`. Other
  /// paths: every rule the fixpoint evaluates, the query rule included.
  Program program;
  /// kPushed and kMagic lift every constant of the body into one column
  /// of the one-row relation `query$seed` (body order), so their rules
  /// — and their plan-cache keys — are the same for every constant.
  /// kEdb and kSliced keep the constants in their rules. Empty: no seed
  /// relation is added.
  Tuple seed;
  /// kPushed: the selections conjoined to the exit rules of the
  /// specialized predicate, by argument position, e.g. "anc[1] > 105".
  std::vector<std::string> pushed;
};

/// Chooses the query path for `body` over `program`, projecting onto
/// `projection` (variables of the body). The kPushed conditions on a
/// positive body literal p(...): p's dependency SCC is {p}; every
/// recursive rule of p has exactly one p-occurrence in its body; and
/// every constant, repeated variable and comparison on the literal
/// touches only invariant positions — position i is invariant when
/// every recursive rule's head has a variable V at i and its body
/// p-occurrence has V at i too.
Result<QueryPlan> PlanQuery(const Program& program,
                            const std::vector<Literal>& body,
                            const std::vector<Term>& projection);

/// The magic path for the one goal `query`, projecting onto its
/// variables in first-occurrence order. Unlike PlanQuery, it does not
/// require `query` to be bound.
Result<QueryPlan> PlanMagic(const Program& program, const Atom& query,
                            const MagicOptions& options = MagicOptions());

/// The database `plan`'s rules read: a copy-on-write overlay of `db`
/// (Database::CloneShared) plus the seed relation, when the plan has
/// one.
Database QueryPlanDatabase(const QueryPlan& plan, const Database& db);

/// Runs `plan` over `db`. The answers equal AnswerQuery's on the
/// program and body the plan was built from. The edb path runs its one
/// rule on the calling thread, unpartitioned, whatever
/// `options.num_threads` says; the other paths run the fixpoint engine
/// with `options`.
Result<QueryResult> RunQueryPlan(const QueryPlan& plan, const Database& db,
                                 const EvalOptions& options = EvalOptions(),
                                 EvalStats* stats = nullptr);

/// Query-directed answering: PlanQuery, then RunQueryPlan. `plan`, when
/// given, receives the chosen plan. The session path (shell and server)
/// runs these two steps with admission between them.
Result<QueryResult> AnswerGoal(const Program& program, const Database& db,
                               const std::vector<Literal>& body,
                               const std::vector<Term>& projection,
                               const EvalOptions& options = EvalOptions(),
                               EvalStats* stats = nullptr,
                               QueryPlan* plan = nullptr);

}  // namespace semopt

#endif  // SEMOPT_MAGIC_QUERY_PATHS_H_
