#ifndef SEMOPT_TESTS_REFERENCE_EVAL_H_
#define SEMOPT_TESTS_REFERENCE_EVAL_H_

// A naive, stratified bottom-up evaluator: the oracle the fixpoint
// engine is checked against, plus its one-rule form (ReferenceRuleRows)
// that the rule executor is checked against. It shares no code with the
// engine — no RuleExecutor, PlanComponents, plan cache or src/exec/ —
// and reads only the AST and the Database: relations are copied into
// std::sets, every rule of a stratum re-runs over them until nothing
// changes, and each body is solved one literal at a time, matching the
// rows that agree on the literal's first bound column.

#include <algorithm>
#include <functional>
#include <map>
#include <set>
#include <utility>
#include <vector>

#include "ast/program.h"
#include "storage/database.h"
#include "util/result.h"

namespace semopt {
namespace testing_util {
namespace reference_internal {

using Facts = std::map<PredicateId, std::set<Tuple>>;
/// Variable bindings, in binding order (so backtracking truncates).
using Binding = std::vector<std::pair<SymbolId, Value>>;
/// Rows of a predicate by the value of one column, built on first use
/// and dropped whenever the facts change.
using Index = std::map<std::pair<PredicateId, size_t>,
                       std::multimap<Value, const Tuple*>>;

/// Integers order before symbols; symbols order by name.
inline int CompareTerms(const Term& a, const Term& b) {
  const bool a_int = a.kind() == TermKind::kIntConst;
  const bool b_int = b.kind() == TermKind::kIntConst;
  if (a_int != b_int) return a_int ? -1 : 1;
  if (a_int) return a.int_value() < b.int_value() ? -1 : (a == b ? 0 : 1);
  return a.name().compare(b.name());
}

inline bool CompareHolds(ComparisonOp op, int cmp) {
  switch (op) {
    case ComparisonOp::kEq: return cmp == 0;
    case ComparisonOp::kNe: return cmp != 0;
    case ComparisonOp::kLt: return cmp < 0;
    case ComparisonOp::kLe: return cmp <= 0;
    case ComparisonOp::kGt: return cmp > 0;
    case ComparisonOp::kGe: return cmp >= 0;
  }
  return false;
}

/// The value of `t` under `b`, or null for an unbound variable.
inline const Value* Lookup(const Term& t, const Binding& b) {
  if (t.IsConstant()) return &t;
  for (const auto& [var, value] : b) {
    if (var == t.symbol()) return &value;
  }
  return nullptr;
}

/// Extends `b` so `args` matches `row`; false on a clash.
inline bool Match(const std::vector<Term>& args, const Tuple& row,
                  Binding* b) {
  for (size_t i = 0; i < args.size(); ++i) {
    const Value* v = Lookup(args[i], *b);
    if (v == nullptr) {
      b->emplace_back(args[i].symbol(), row[i]);
    } else if (*v != row[i]) {
      return false;
    }
  }
  return true;
}

/// Calls `emit` for every extension of `b` satisfying the literals of
/// `body` not yet `done`. Filters run as soon as they are ground, `=`
/// binds one unbound side; `*unsafe` is set when no literal can run.
inline void Solve(const std::vector<Literal>& body, std::vector<bool>& done,
                  const Facts& facts, Index& index, Binding& b,
                  const std::function<void(const Binding&)>& emit,
                  bool* unsafe) {
  int next = -1;
  for (size_t i = 0; i < body.size() && next < 0; ++i) {
    const Literal& lit = body[i];
    if (done[i] || (lit.IsRelational() && !lit.negated())) continue;
    bool ready = true;
    if (lit.IsRelational()) {
      for (const Term& t : lit.atom().args()) {
        ready = ready && Lookup(t, b) != nullptr;
      }
    } else {
      const bool l = Lookup(lit.lhs(), b) != nullptr;
      const bool r = Lookup(lit.rhs(), b) != nullptr;
      ready = (l && r) ||
              (lit.op() == ComparisonOp::kEq && !lit.negated() && (l || r));
    }
    if (ready) next = static_cast<int>(i);
  }
  for (size_t i = 0; i < body.size() && next < 0; ++i) {
    if (!done[i] && body[i].IsRelational() && !body[i].negated()) {
      next = static_cast<int>(i);
    }
  }
  if (next < 0) {
    for (bool d : done) *unsafe = *unsafe || !d;
    if (!*unsafe) emit(b);
    return;
  }
  const Literal& lit = body[next];
  const size_t mark = b.size();
  done[next] = true;
  if (lit.IsComparison()) {
    const Value* l = Lookup(lit.lhs(), b);
    const Value* r = Lookup(lit.rhs(), b);
    if (l == nullptr) b.emplace_back(lit.lhs().symbol(), *r);
    if (r == nullptr) b.emplace_back(lit.rhs().symbol(), *l);
    const int cmp = CompareTerms(*Lookup(lit.lhs(), b), *Lookup(lit.rhs(), b));
    if (CompareHolds(lit.op(), cmp) != lit.negated()) {
      Solve(body, done, facts, index, b, emit, unsafe);
    }
  } else {
    auto it = facts.find(lit.atom().pred_id());
    const std::set<Tuple> none;
    const std::set<Tuple>& rows = it == facts.end() ? none : it->second;
    const std::vector<Term>& args = lit.atom().args();
    auto visit = [&](const Tuple& row) {
      if (Match(args, row, &b)) {
        Solve(body, done, facts, index, b, emit, unsafe);
      }
      b.erase(b.begin() + mark, b.end());
    };
    size_t col = 0;
    while (col < args.size() && Lookup(args[col], b) == nullptr) ++col;
    if (lit.negated()) {
      Tuple row;
      for (const Term& t : args) row.push_back(*Lookup(t, b));
      if (rows.count(row) == 0) {
        Solve(body, done, facts, index, b, emit, unsafe);
      }
    } else if (col == args.size()) {
      for (const Tuple& row : rows) visit(row);
    } else {
      auto [slot, fresh] = index.try_emplace({lit.atom().pred_id(), col});
      if (fresh) {
        for (const Tuple& row : rows) slot->second.emplace(row[col], &row);
      }
      auto [lo, hi] = slot->second.equal_range(*Lookup(args[col], b));
      for (auto hit = lo; hit != hi; ++hit) visit(*hit->second);
    }
  }
  b.erase(b.begin() + mark, b.end());
  done[next] = false;
}

/// Appends to `heads` one head row of `rule` per satisfying binding of
/// `body` (the rule's own body, or a variant of it); false when the rule
/// is unsafe.
inline bool SolveHeads(const Rule& rule, const std::vector<Literal>& body,
                       const Facts& facts, Index& index,
                       std::vector<Tuple>* heads) {
  std::vector<bool> done(body.size(), false);
  Binding binding;
  bool unsafe = false;
  Solve(body, done, facts, index, binding,
        [&](const Binding& b) {
          Tuple head;
          for (const Term& t : rule.head().args()) {
            const Value* v = Lookup(t, b);
            if (v == nullptr) return void(unsafe = true);
            head.push_back(*v);
          }
          heads->push_back(std::move(head));
        },
        &unsafe);
  return !unsafe;
}

}  // namespace reference_internal

/// The least stratified model of `program` over `edb`: one relation per
/// rule head (IDB facts only, EDB facts of an IDB predicate ignored, as
/// the engine does). Fails on unstratifiable negation or unsafe rules.
inline Result<Database> ReferenceEvaluate(const Program& program,
                                          const Database& edb) {
  using namespace reference_internal;
  std::map<PredicateId, size_t> stratum;
  for (const Rule& rule : program.rules()) stratum[rule.head().pred_id()] = 0;
  // A head sits above every negated IDB body predicate and no lower than
  // any positive one; a stratum past the predicate count means a cycle
  // through negation.
  for (bool changed = true; changed;) {
    changed = false;
    for (const Rule& rule : program.rules()) {
      size_t& s = stratum[rule.head().pred_id()];
      for (const Literal& lit : rule.body()) {
        if (!lit.IsRelational()) continue;
        auto it = stratum.find(lit.atom().pred_id());
        if (it == stratum.end()) continue;
        const size_t need = it->second + (lit.negated() ? 1 : 0);
        if (need > s) s = need, changed = true;
      }
      if (s > stratum.size()) {
        return Status::InvalidArgument("reference: unstratifiable negation");
      }
    }
  }
  Facts facts;
  for (const PredicateId& p : edb.Predicates()) {
    if (stratum.count(p) > 0) continue;
    for (RowRef row : edb.Find(p)->rows()) {
      facts[p].emplace(row.begin(), row.end());
    }
  }
  Index index;
  size_t top = 0;
  for (const auto& [pred, s] : stratum) top = std::max(top, s);
  for (size_t s = 0; s <= top; ++s) {
    for (bool changed = true; changed;) {
      changed = false;
      for (const Rule& rule : program.rules()) {
        if (stratum[rule.head().pred_id()] != s) continue;
        std::vector<Tuple> derived;
        if (!SolveHeads(rule, rule.body(), facts, index, &derived)) {
          return Status::InvalidArgument("reference: unsafe rule");
        }
        index.clear();
        for (Tuple& t : derived) {
          changed = facts[rule.head().pred_id()].insert(std::move(t)).second ||
                    changed;
        }
      }
    }
  }
  Database idb;
  for (const auto& [pred, s] : stratum) {
    Relation& rel = idb.GetOrCreate(pred);
    for (const Tuple& t : facts[pred]) rel.Insert(t);
  }
  return idb;
}

/// Every head row `rule` derives over `db` in one application: one row
/// per satisfying body binding, duplicates kept, sorted. That multiset
/// does not depend on join order, so it is the rule executor's oracle
/// at any plan, block size or kernel choice. When `delta_literal` >= 0,
/// that body literal (a positive relational one) reads `delta` — as a
/// semi-naive delta variant does — and every other literal reads `db`.
/// Fails on unsafe rules.
inline Result<std::vector<Tuple>> ReferenceRuleRows(
    const Rule& rule, const Database& db, int delta_literal = -1,
    const Relation* delta = nullptr) {
  using namespace reference_internal;
  Facts facts;
  for (const PredicateId& p : db.Predicates()) {
    for (RowRef row : db.Find(p)->rows()) {
      facts[p].emplace(row.begin(), row.end());
    }
  }
  // The delta occurrence reads a private predicate holding the delta
  // rows, so Solve needs no notion of deltas.
  std::vector<Literal> body = rule.body();
  if (delta_literal >= 0) {
    Literal& lit = body[static_cast<size_t>(delta_literal)];
    const Atom renamed("reference$delta", lit.atom().args());
    std::set<Tuple>& rows = facts[renamed.pred_id()];
    if (delta != nullptr) {
      for (RowRef row : delta->rows()) rows.emplace(row.begin(), row.end());
    }
    lit = Literal::Relational(renamed);
  }
  std::vector<Tuple> heads;
  Index index;
  if (!SolveHeads(rule, body, facts, index, &heads)) {
    return Status::InvalidArgument("reference: unsafe rule");
  }
  std::sort(heads.begin(), heads.end());
  return heads;
}

}  // namespace testing_util
}  // namespace semopt

#endif  // SEMOPT_TESTS_REFERENCE_EVAL_H_
