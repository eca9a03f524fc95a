#ifndef SEMOPT_MAGIC_MAGIC_SETS_H_
#define SEMOPT_MAGIC_MAGIC_SETS_H_

#include "ast/program.h"
#include "obs/eval_stats.h"
#include "eval/fixpoint.h"
#include "magic/adornment.h"
#include "storage/database.h"
#include "util/result.h"

namespace semopt {

/// The result of the magic-sets transformation for one query.
struct MagicRewrite {
  /// The rewritten program: magic rules, seed fact, and guarded adorned
  /// rules.
  Program program;
  /// Predicate holding the query answers after evaluation (the adorned
  /// query predicate).
  PredicateId answer_pred{0, 0};
  /// The adornment of the query.
  Adornment query_adornment;
};

/// Options for the rewriting.
struct MagicOptions {
  /// Slice magic-rule bodies down to the guard→bound-argument variable
  /// connection path (default; a sound over-approximation of the magic
  /// sets). Disable for ablation bench A2.
  bool slice_magic_bodies = true;
};

/// Applies the magic-sets rewriting (generalized supplementary-free
/// variant with full left-to-right sideways information passing) to
/// `program` for the query atom `query`. Constant arguments of `query`
/// are bound; variables are free. Only IDB predicates are adorned; EDB
/// literals pass bindings but are kept as-is.
///
/// The rewritten program computes, for the adorned query predicate,
/// exactly the tuples relevant to the query — evaluate it with the
/// standard engine and read `answer_pred`, or use `AnswerWithMagic`.
Result<MagicRewrite> MagicSets(const Program& program, const Atom& query,
                               const MagicOptions& options = MagicOptions());

/// Convenience: runs the magic query path for `query` (PlanMagic in
/// magic/query_paths.h, the one `?-` takes for a bound goal) over
/// `edb`, and returns the answer tuples, one per distinct binding of
/// `query`'s variables, with its constants in place. `eval_options`
/// selects the evaluation engine (threads, tracing, metrics) for the
/// rewritten program.
Result<std::vector<Tuple>> AnswerWithMagic(
    const Program& program, const Database& edb, const Atom& query,
    EvalStats* stats = nullptr, const MagicOptions& options = MagicOptions(),
    const EvalOptions& eval_options = EvalOptions());

}  // namespace semopt

#endif  // SEMOPT_MAGIC_MAGIC_SETS_H_
