#ifndef SEMOPT_EVAL_CONSTRAINT_CHECK_H_
#define SEMOPT_EVAL_CONSTRAINT_CHECK_H_

#include <string>
#include <vector>

#include "ast/rule.h"
#include "obs/eval_stats.h"
#include "storage/database.h"
#include "util/result.h"

namespace semopt {

/// One witness of an integrity-constraint violation: a ground
/// instantiation of the IC body for which the head fails.
struct ConstraintViolation {
  std::string constraint_label;
  std::string description;
};

/// Checks whether `edb` satisfies `ic`: for every substitution making
/// the body true, the head must be true (for a denial, the body must be
/// unsatisfiable). The IC may mention only EDB predicates and evaluable
/// predicates (the paper's assumption 4).
Result<bool> Satisfies(const Database& edb, const Constraint& ic);

/// Checks all of `ics`; collects up to `max_violations` witnesses
/// (0 = just report the first), and stops the body joins once it has
/// them. `stats`, when given, receives the joins' counters.
Result<std::vector<ConstraintViolation>> CheckConstraints(
    const Database& edb, const std::vector<Constraint>& ics,
    size_t max_violations = 1, EvalStats* stats = nullptr);

/// Repairs `edb` in place so it satisfies `ics`, by *deleting* body-
/// supporting facts of violated ground instances (the first database
/// literal of each violated instance is removed) and iterating to a
/// fixpoint. Used by workload generators to manufacture IC-satisfying
/// EDBs; deletion repair always terminates because the database only
/// shrinks. Returns the number of deleted facts.
Result<size_t> RepairByDeletion(Database* edb,
                                const std::vector<Constraint>& ics);

}  // namespace semopt

#endif  // SEMOPT_EVAL_CONSTRAINT_CHECK_H_
