#include "eval/query.h"

#include "ast/rename.h"
#include "parser/parser.h"
#include "util/string_util.h"

namespace semopt {

std::string QueryResult::ToString() const {
  std::string out;
  AppendTo(&out);
  return out;
}

void QueryResult::AppendTo(std::string* out) const {
  if (tuples.empty()) return;
  // Each column's "Name=" (with its ", " separator) is rendered once,
  // not once per row.
  std::vector<std::string> prefixes(variables.size());
  size_t row_bytes = 1;
  for (size_t i = 0; i < variables.size(); ++i) {
    if (i > 0) prefixes[i] = ", ";
    prefixes[i] += SymbolName(variables[i]);
    prefixes[i] += '=';
    row_bytes += prefixes[i].size() + 8;  // a short value's width
  }
  out->reserve(out->size() + tuples.size() * row_bytes);
  for (const Tuple& row : tuples) {
    for (size_t i = 0; i < prefixes.size(); ++i) {
      *out += prefixes[i];
      *out += row[i].ToString();
    }
    *out += '\n';
  }
}

Result<QueryResult> AnswerQuery(const Program& program, const Database& edb,
                                const std::vector<Literal>& body,
                                const std::vector<Term>& projection,
                                const EvalOptions& options,
                                EvalStats* stats) {
  QueryResult result;
  for (const Term& t : projection) {
    if (!t.IsVariable()) {
      return Status::InvalidArgument(
          StrCat("projection term ", t.ToString(), " is not a variable"));
    }
    result.variables.push_back(t.symbol());
  }

  // `$` keeps the answer predicate out of any parseable namespace.
  Atom head("query$answer", projection);
  Program extended = program;
  extended.AddRule(Rule("query$", std::move(head), body));

  SEMOPT_ASSIGN_OR_RETURN(Database idb,
                          Evaluate(extended, edb, options, stats));
  const Relation* answers = idb.Find(
      PredicateId{InternSymbol("query$answer"),
                  static_cast<uint32_t>(projection.size())});
  if (answers != nullptr) result.tuples = answers->CopyRows();
  return result;
}

Result<QueryResult> AnswerQuery(const Program& program, const Database& edb,
                                std::string_view query_text,
                                const EvalOptions& options,
                                EvalStats* stats) {
  SEMOPT_ASSIGN_OR_RETURN(std::vector<Literal> body,
                          ParseLiteralList(query_text));
  std::vector<Term> projection;
  for (SymbolId v : CollectVariables(body)) projection.push_back(Term::Var(v));
  return AnswerQuery(program, edb, body, projection, options, stats);
}

}  // namespace semopt
