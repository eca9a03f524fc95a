// Quickstart: parse a recursive program with an integrity constraint,
// load facts, run the semantic optimizer, and compare evaluation work
// before and after.
//
// Build: cmake -B build -G Ninja && cmake --build build
// Run:   ./build/examples/quickstart

#include <cstdio>
#include <iostream>

#include "eval/fixpoint.h"
#include "eval/query.h"
#include "parser/parser.h"
#include "semopt/optimizer.h"
#include "storage/database.h"

namespace {

constexpr const char* kProgram = R"(
  % Who may evaluate which thesis (paper Example 3.2).
  r0: eval(P, S, T) :- super(P, S, T).
  r1: eval(P, S, T) :- works_with(P, P2), eval(P2, S, T),
                       expert(P, F), field(T, F).

  % Expertise propagates along collaboration (integrity constraint).
  ic1: works_with(P2, P1), expert(P1, F1) -> expert(P2, F1).
)";

constexpr const char* kFacts = R"(
  works_with(ann, bob). works_with(bob, carol).
  expert(ann, db).      expert(bob, db).       expert(carol, db).
  field(thesis1, db).
  super(carol, dave, thesis1).
)";

}  // namespace

int main() {
  using namespace semopt;

  // 1. Parse the program (rules + IC) and the facts.
  Result<Program> program = ParseProgram(kProgram);
  if (!program.ok()) {
    std::cerr << "parse error: " << program.status() << "\n";
    return 1;
  }
  Result<Program> fact_program = ParseProgram(kFacts);
  Database edb;
  for (const Rule& fact : fact_program->rules()) {
    Status st = edb.AddFact(fact.head());
    if (!st.ok()) {
      std::cerr << st << "\n";
      return 1;
    }
  }

  std::cout << "=== Input program ===\n" << program->ToString() << "\n";

  // 2. Run the semantic optimizer: residues are generated from the IC
  //    (Algorithm 3.1) and pushed inside the recursion (Algorithm 4.1
  //    + the Section 4 transformations).
  SemanticOptimizer optimizer;
  Result<OptimizeResult> optimized = optimizer.Optimize(*program);
  if (!optimized.ok()) {
    std::cerr << "optimize error: " << optimized.status() << "\n";
    return 1;
  }
  std::cout << "=== Optimizer report ===\n" << optimized->Report() << "\n";
  std::cout << "=== Transformed program ===\n"
            << optimized->program.ToString() << "\n";

  // 3. Evaluate both programs and compare answers and work.
  EvalStats before, after;
  Result<Database> original_idb =
      Evaluate(*program, edb, EvalOptions(), &before);
  Result<Database> optimized_idb =
      Evaluate(optimized->program, edb, EvalOptions(), &after);
  if (!original_idb.ok() || !optimized_idb.ok()) {
    std::cerr << "evaluation failed\n";
    return 1;
  }

  Result<QueryResult> answers =
      AnswerQuery(optimized->program, edb, "eval(P, dave, T)");
  std::cout << "=== Who can evaluate dave's thesis? ===\n"
            << answers->ToString() << "\n";

  std::cout << "=== Work comparison ===\n"
            << "original:  " << before.derived_tuples << " derived, "
            << before.bindings_explored << " join bindings\n"
            << "optimized: " << after.derived_tuples << " derived, "
            << after.bindings_explored << " join bindings\n";
  return 0;
}
