#ifndef SEMOPT_EVAL_EXPLAIN_H_
#define SEMOPT_EVAL_EXPLAIN_H_

#include <string>
#include <vector>

#include "ast/program.h"
#include "eval/fixpoint.h"
#include "storage/database.h"
#include "util/result.h"

namespace semopt {

/// A proof tree for one derived fact — the runtime counterpart of the
/// proof trees the paper's framework reasons about (§2). Leaves are EDB
/// facts or satisfied evaluable conditions; internal nodes carry the
/// rule that produced them.
struct ProofNode {
  /// The ground literal established at this node (a fact, a satisfied
  /// comparison, or a satisfied negated literal).
  Literal fact = Literal::Relational(Atom(SymbolId(0), {}));
  /// Label of the rule applied ("" for leaves).
  std::string rule_label;
  /// Subproofs for the rule's body literals, in body order.
  std::vector<ProofNode> children;

  /// Pretty-prints the tree, e.g.:
  ///   t(a, c)                       [r1]
  ///   ├─ t(a, b)                    [r0]
  ///   │  └─ e(a, b)
  ///   └─ e(b, c)
  std::string ToString() const;
};

/// Finds a proof of the ground atom `goal` over `program` + `edb`,
/// using the materialized IDB `idb` as the derivability oracle (compute
/// it with Evaluate first). Searches rules depth-first with an on-path
/// loop check — complete because every derivable fact has a proof
/// without repeated goals on a path. Returns NotFound when the goal is
/// not derivable.
Result<ProofNode> Explain(const Program& program, const Database& edb,
                          const Database& idb, const Atom& goal);

/// Convenience: evaluates the program and explains in one step.
Result<ProofNode> ExplainFromScratch(const Program& program,
                                     const Database& edb, const Atom& goal);

/// EXPLAIN ANALYZE for a bottom-up evaluation: renders each rule's join
/// plan (planned against the EDB cardinalities, the order a fresh
/// evaluation's first rounds use) annotated with what actually happened
/// — per-rule applications/derived/duplicates/time from
/// `stats.per_rule` (present when the evaluation ran with
/// EvalOptions::collect_metrics). The totals and rounds of the same
/// evaluation are QueryProfile::Render's. `stats` must come from
/// evaluating `program` over `edb` (the server's `:profile` re-runs the
/// query with collect_metrics to produce it).
std::string ExplainAnalyze(const Program& program, const Database& edb,
                           const EvalStats& stats);

}  // namespace semopt

#endif  // SEMOPT_EVAL_EXPLAIN_H_
