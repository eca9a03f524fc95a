// Paper Example 4.3: subtree pruning. People under 50 have no three
// generations of descendants; the optimizer pushes the negated
// condition into the isolated r1 r1 r1 spine so the doomed joins are
// never attempted.
//
// Run: ./build/examples/ancestry_pruning [families] [generations]

#include <chrono>
#include <cstdlib>
#include <iostream>

#include "eval/fixpoint.h"
#include "eval/query.h"
#include "semopt/optimizer.h"
#include "workload/genealogy.h"

namespace {

double MillisecondsOf(const std::function<void()>& fn) {
  auto start = std::chrono::steady_clock::now();
  fn();
  auto end = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::milli>(end - start).count();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace semopt;

  GenealogyParams params;
  params.num_families = argc > 1 ? std::atoi(argv[1]) : 40;
  params.generations = argc > 2 ? std::atoi(argv[2]) : 7;
  params.children_per_person = 2;
  params.seed = 7;

  Result<Program> program = GenealogyProgram();
  Database edb = GenerateGenealogyDb(params);
  std::cout << "genealogy EDB: " << edb.TotalTuples() << " par tuples\n\n";
  std::cout << "=== Program (Example 4.3) ===\n"
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
  Database original_idb, optimized_idb;
  double t_original = MillisecondsOf([&] {
    Result<Database> idb = Evaluate(*program, edb, EvalOptions(), &before);
    original_idb = std::move(idb).value();
  });
  double t_optimized = MillisecondsOf([&] {
    Result<Database> idb =
        Evaluate(optimized->program, edb, EvalOptions(), &after);
    optimized_idb = std::move(idb).value();
  });

  auto count = [](const Database& db) {
    const Relation* rel = db.Find(PredicateId{InternSymbol("anc"), 4});
    return rel == nullptr ? size_t{0} : rel->size();
  };
  std::cout << "anc tuples: original=" << count(original_idb)
            << " optimized=" << count(optimized_idb) << " (must match)\n";
  std::cout << "original:  " << before.derived_tuples << " derived, "
            << before.bindings_explored << " join bindings  (" << t_original
            << " ms)\n";
  std::cout << "optimized: " << after.derived_tuples << " derived, "
            << after.bindings_explored << " join bindings  (" << t_optimized
            << " ms)\n";

  // A typical query the pruning helps: ancestors that are young.
  Result<QueryResult> young =
      AnswerQuery(optimized->program, edb, "anc(X, Xa, Y, Ya), Ya <= 50");
  std::cout << "\nyoung-ancestor pairs: " << young->size() << "\n";
  return 0;
}
