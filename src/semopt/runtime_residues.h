#ifndef SEMOPT_SEMOPT_RUNTIME_RESIDUES_H_
#define SEMOPT_SEMOPT_RUNTIME_RESIDUES_H_

#include "ast/program.h"
#include "obs/eval_stats.h"
#include "storage/database.h"
#include "util/result.h"

namespace semopt {

/// The evaluation-paradigm baseline (paper §1: Chakravarthy et al.,
/// Lee & Han): residues are applied to the subqueries computed in each
/// iteration of the bottom-up loop, instead of being pushed into the
/// program once at compile time.
///
/// Model implemented here (documented in DESIGN.md): the evaluator
/// tracks *per-rule* deltas (one-level derivation provenance, after
/// Lee & Han's specialization). At every iteration, for every pair
/// (consuming rule r, producing rule r'), the engine re-derives the
/// residues of each IC against the depth-2 subquery r·r' — this is the
/// recurring run-time residue-application cost the transformation
/// approach avoids — and then evaluates r against delta(r') with the
/// residue exploited (redundant atom skipped, or iteration pruned).
/// Depth-1 (rule-level) residues are exploited the same way.
///
/// The computed fixpoint is identical to plain evaluation on databases
/// satisfying the ICs; `stats->runtime_residue_checks` counts the
/// subsumption tests performed during evaluation.
Result<Database> EvaluateWithRuntimeResidues(const Program& program,
                                             const Database& edb,
                                             EvalStats* stats = nullptr);

}  // namespace semopt

#endif  // SEMOPT_SEMOPT_RUNTIME_RESIDUES_H_
