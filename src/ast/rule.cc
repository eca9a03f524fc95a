#include "ast/rule.h"

#include <sstream>

#include "util/hash_util.h"
#include "util/string_util.h"

namespace semopt {

std::vector<Atom> Rule::RelationalBodyAtoms() const {
  std::vector<Atom> atoms;
  for (const Literal& l : body_) {
    if (l.IsRelational()) atoms.push_back(l.atom());
  }
  return atoms;
}

bool Rule::BodyUses(const PredicateId& pred) const {
  return CountBodyUses(pred) > 0;
}

int Rule::CountBodyUses(const PredicateId& pred) const {
  int count = 0;
  for (const Literal& l : body_) {
    if (l.IsRelational() && !l.negated() && l.atom().pred_id() == pred) {
      ++count;
    }
  }
  return count;
}

size_t Rule::Hash() const {
  size_t seed = head_.Hash();
  for (const Literal& lit : body_) HashCombine(&seed, lit);
  return seed;
}

std::string Rule::ToString() const {
  std::ostringstream os;
  if (!label_.empty()) os << label_ << ": ";
  os << head_;
  if (!body_.empty()) os << " :- " << JoinToString(body_, ", ");
  os << ".";
  return os.str();
}

std::ostream& operator<<(std::ostream& os, const Rule& rule) {
  return os << rule.ToString();
}

std::vector<Atom> Constraint::DatabaseBody() const {
  std::vector<Atom> atoms;
  for (const Literal& l : body_) {
    if (l.IsRelational()) atoms.push_back(l.atom());
  }
  return atoms;
}

std::vector<Literal> Constraint::EvaluableBody() const {
  std::vector<Literal> lits;
  for (const Literal& l : body_) {
    if (l.IsComparison()) lits.push_back(l);
  }
  return lits;
}

std::string Constraint::ToString() const {
  std::ostringstream os;
  if (!label_.empty()) os << label_ << ": ";
  os << JoinToString(body_, ", ") << " -> ";
  if (head_.has_value()) os << *head_;
  os << ".";
  return os.str();
}

std::ostream& operator<<(std::ostream& os, const Constraint& constraint) {
  return os << constraint.ToString();
}

}  // namespace semopt
