// Paper Examples 3.2 / 4.2 end-to-end on a generated university
// database: atom elimination on the recursive `eval` predicate and atom
// introduction of the small `doctoral` relation into `eval_support`.
//
// Run: ./build/examples/university_eval [num_professors] [num_students]

#include <cstdlib>
#include <iostream>

#include "eval/fixpoint.h"
#include "semopt/optimizer.h"
#include "semopt/residue_generator.h"
#include "util/string_util.h"
#include "workload/university.h"

int main(int argc, char** argv) {
  using namespace semopt;

  UniversityParams params;
  params.num_professors = argc > 1 ? std::atoi(argv[1]) : 60;
  params.num_students = argc > 2 ? std::atoi(argv[2]) : 120;
  params.seed = 42;

  Result<Program> program = UniversityProgram();
  Database edb = GenerateUniversityDb(params);
  std::cout << "university EDB: " << edb.TotalTuples() << " tuples\n\n";

  std::cout << "=== Program (Examples 3.2 / 4.2) ===\n"
            << program->ToString() << "\n";

  // Show the residues Algorithm 3.1 discovers.
  Result<std::vector<Residue>> residues = GenerateAllResidues(*program);
  std::cout << "=== Residues (Algorithm 3.1) ===\n";
  for (const Residue& r : *residues) {
    std::cout << "  " << r.ToString(*program) << "   ["
              << ResidueKindName(r.kind()) << ", IC " << r.ic_label << "]\n";
  }
  std::cout << "\n";

  // Optimize with `doctoral` declared small so introduction triggers.
  OptimizerOptions options;
  options.small_relations.insert(
      PredicateId{InternSymbol("doctoral"), 1});
  SemanticOptimizer optimizer(options);
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

  auto count = [](const Database& db, const char* pred, uint32_t arity) {
    const Relation* rel =
        db.Find(PredicateId{InternSymbol(pred), arity});
    return rel == nullptr ? size_t{0} : rel->size();
  };
  std::cout << "eval tuples: original=" << count(*a, "eval", 3)
            << " optimized=" << count(*b, "eval", 3) << "\n";
  std::cout << "eval_support tuples: original="
            << count(*a, "eval_support", 4)
            << " optimized=" << count(*b, "eval_support", 4) << "\n\n";
  std::cout << "work original:  " << before.derived_tuples << " derived, "
            << before.bindings_explored << " join bindings\n";
  std::cout << "work optimized: " << after.derived_tuples << " derived, "
            << after.bindings_explored << " join bindings\n";
  double speedup = before.bindings_explored > 0
                       ? static_cast<double>(before.bindings_explored) /
                             static_cast<double>(after.bindings_explored)
                       : 1.0;
  std::cout << "join-bindings reduction: " << speedup << "x\n";
  return 0;
}
