#ifndef SEMOPT_AST_RULE_H_
#define SEMOPT_AST_RULE_H_

#include <optional>
#include <ostream>
#include <string>
#include <vector>

#include "ast/atom.h"

namespace semopt {

/// A Datalog rule `head :- body.` An empty body makes the rule a fact.
/// Rules may carry a label (`r0`, `r1`, ...) used to name expansion
/// sequences, mirroring the paper's notation.
class Rule {
 public:
  Rule() = default;
  Rule(Atom head, std::vector<Literal> body)
      : head_(std::move(head)), body_(std::move(body)) {}
  Rule(std::string label, Atom head, std::vector<Literal> body)
      : label_(std::move(label)),
        head_(std::move(head)),
        body_(std::move(body)) {}

  const std::string& label() const { return label_; }
  void set_label(std::string label) { label_ = std::move(label); }

  const Atom& head() const { return head_; }
  Atom& mutable_head() { return head_; }

  const std::vector<Literal>& body() const { return body_; }
  std::vector<Literal>& mutable_body() { return body_; }

  bool IsFact() const { return body_.empty(); }

  /// All relational body literals, in order (skipping comparisons).
  std::vector<Atom> RelationalBodyAtoms() const;

  /// True if the body contains a (positive, relational) occurrence of
  /// `pred`; for linear rules there is at most one.
  bool BodyUses(const PredicateId& pred) const;

  /// Number of positive relational body occurrences of `pred`.
  int CountBodyUses(const PredicateId& pred) const;

  bool operator==(const Rule& other) const {
    // Labels are metadata; equality is structural.
    return head_ == other.head_ && body_ == other.body_;
  }
  bool operator!=(const Rule& other) const { return !(*this == other); }

  /// Structural hash consistent with operator==: head and body, label
  /// ignored.
  size_t Hash() const;

  /// Renders "head :- b1, b2, ..., bn." (or "head." for a fact), with the
  /// label prefix "label: " when a label is set.
  std::string ToString() const;

 private:
  std::string label_;
  Atom head_;
  std::vector<Literal> body_;
};

std::ostream& operator<<(std::ostream& os, const Rule& rule);

/// An integrity constraint `D1, ..., Dk, E1, ..., Em -> A.` following the
/// paper's notation: the body is a conjunction of database literals D_i
/// and evaluable literals E_j, and the (optional) head A is a single
/// literal of either type. An absent head denotes the empty clause
/// (denial constraint): the body must never hold.
class Constraint {
 public:
  Constraint() = default;
  Constraint(std::vector<Literal> body, std::optional<Literal> head)
      : body_(std::move(body)), head_(std::move(head)) {}
  Constraint(std::string label, std::vector<Literal> body,
             std::optional<Literal> head)
      : label_(std::move(label)),
        body_(std::move(body)),
        head_(std::move(head)) {}

  const std::string& label() const { return label_; }
  void set_label(std::string label) { label_ = std::move(label); }

  const std::vector<Literal>& body() const { return body_; }
  std::vector<Literal>& mutable_body() { return body_; }

  const std::optional<Literal>& head() const { return head_; }
  std::optional<Literal>& mutable_head() { return head_; }

  /// Database literals of the body, in order.
  std::vector<Atom> DatabaseBody() const;

  /// Evaluable literals of the body, in order.
  std::vector<Literal> EvaluableBody() const;

  bool operator==(const Constraint& other) const {
    return body_ == other.body_ && head_ == other.head_;
  }
  bool operator!=(const Constraint& other) const {
    return !(*this == other);
  }

  /// Renders "b1, ..., bn -> head." ("b1, ..., bn -> ." for a denial).
  std::string ToString() const;

 private:
  std::string label_;
  std::vector<Literal> body_;
  std::optional<Literal> head_;
};

std::ostream& operator<<(std::ostream& os, const Constraint& constraint);

}  // namespace semopt

#endif  // SEMOPT_AST_RULE_H_
