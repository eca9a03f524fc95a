#include "ast/term.h"

#include <cctype>
#include <charconv>
#include <string>

namespace semopt {

namespace {

/// True when `name` lexes back as a plain identifier (lowercase start,
/// identifier characters after).
bool IsPlainSymbol(const std::string& name) {
  if (name.empty() || !std::islower(static_cast<unsigned char>(name[0]))) {
    return false;
  }
  for (char c : name) {
    if (!std::isalnum(static_cast<unsigned char>(c)) && c != '_') {
      return false;
    }
  }
  return true;
}

}  // namespace

std::string Term::ToString() const {
  switch (kind_) {
    case TermKind::kVariable:
      return name();
    case TermKind::kSymConst:
      // Symbols that would not lex as identifiers print quoted so the
      // output round-trips through the parser.
      return IsPlainSymbol(name()) ? name() : "'" + name() + "'";
    case TermKind::kIntConst: {
      char buf[24];  // INT64_MIN is 20 characters
      const std::to_chars_result r =
          std::to_chars(buf, buf + sizeof(buf), payload_);
      return std::string(buf, r.ptr);
    }
  }
  return "<bad term>";
}

std::ostream& operator<<(std::ostream& os, const Term& term) {
  return os << term.ToString();
}

}  // namespace semopt
