// Paper Example 4.1: conditional atom elimination in the organizational
// database. The IC "executive bosses are experienced" lets the
// optimizer drop the experienced(U) check on the committed r2^4 spine,
// guarded by R = 'executive' — carried up the spine via the ext/dev
// split because the rank is bound three recursion levels below.
//
// Run: ./build/examples/org_triples [employees] [levels]

#include <cstdlib>
#include <iostream>

#include "eval/fixpoint.h"
#include "semopt/optimizer.h"
#include "workload/organization.h"

int main(int argc, char** argv) {
  using namespace semopt;

  OrganizationParams params;
  params.num_employees = argc > 1 ? std::atoi(argv[1]) : 150;
  params.num_levels = argc > 2 ? std::atoi(argv[2]) : 7;
  params.seed = 17;

  Result<Program> program = OrganizationProgram();
  Database edb = GenerateOrganizationDb(params);
  std::cout << "organization EDB: " << edb.TotalTuples() << " tuples\n\n";
  std::cout << "=== Program (Example 4.1) ===\n"
            << program->ToString() << "\n";

  SemanticOptimizer optimizer;
  Result<OptimizeResult> optimized = optimizer.Optimize(*program);
  if (!optimized.ok()) {
    std::cerr << optimized.status() << "\n";
    return 1;
  }
  std::cout << "=== Optimizer report ===\n" << optimized->Report() << "\n";
  std::cout << "=== Transformed program ===\n"
            << optimized->program.ToString() << "\n";

  EvalStats before, after;
  Result<Database> a = Evaluate(*program, edb, EvalOptions(), &before);
  Result<Database> b =
      Evaluate(optimized->program, edb, EvalOptions(), &after);
  if (!a.ok() || !b.ok()) {
    std::cerr << "evaluation failed\n";
    return 1;
  }

  auto count = [](const Database& db) {
    const Relation* rel =
        db.Find(PredicateId{InternSymbol("triple"), 3});
    return rel == nullptr ? size_t{0} : rel->size();
  };
  std::cout << "triple tuples: original=" << count(*a)
            << " optimized=" << count(*b) << " (must match)\n";
  std::cout << "original:  " << before.derived_tuples << " derived, "
            << before.bindings_explored << " join bindings\n";
  std::cout << "optimized: " << after.derived_tuples << " derived, "
            << after.bindings_explored << " join bindings\n";
  return 0;
}
