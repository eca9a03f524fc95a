#ifndef SEMOPT_EVAL_COMPONENT_PLAN_H_
#define SEMOPT_EVAL_COMPONENT_PLAN_H_

#include <set>
#include <vector>

#include "ast/program.h"
#include "eval/rule_executor.h"
#include "util/result.h"

namespace semopt {

/// One rule of an evaluation component, compiled for execution.
struct PlannedRule {
  RuleExecutor executor;
  PredicateId head{0, 0};
  /// Original-body indices of positive relational literals whose
  /// predicate belongs to the rule's own recursion component.
  std::vector<int> recursive_literals;
};

/// A strongly connected component of the predicate dependency graph
/// together with its compiled rules, in evaluation (reverse
/// topological) order. The fixpoint engine's input, also read by
/// `:profile`/`:plan` and incremental maintenance.
struct EvalComponent {
  std::set<PredicateId> preds;
  std::vector<PlannedRule> rules;
  bool recursive = false;
};

/// Compiles `program` into evaluation components: Tarjan SCCs in
/// callees-first order, one RuleExecutor per rule, recursive literals
/// identified. Fails on unsafe rules and on negation of a predicate
/// inside its own recursion component (unstratifiable).
Result<std::vector<EvalComponent>> PlanComponents(const Program& program);

}  // namespace semopt

#endif  // SEMOPT_EVAL_COMPONENT_PLAN_H_
