// paper-analytics: the paper's compile-then-evaluate pipeline, one
// client thread calling the library in a closed loop. Each operation
// parses a program text with its integrity constraints, runs the
// semantic optimizer, and answers one query of the family: free goals
// through AnswerQuery, bound goals through MagicSets + Evaluate. Four
// equally weighted families on the paper's schemas:
//   univ-free    eval_support(P, S, T, M), M > 10000   (Ex. 3.2/4.2)
//   univ-bound   eval(prof_k, S, T), 8 departments     (magic sets)
//   genealogy    anc(X, Xa, Y, Ya), Ya <= N            (Ex. 4.3)
//   organization triple(E1, E2, E3)                    (Ex. 4.1)
// Heavy latency is the whole operation; light latency is its compile
// step (parse + optimize + magic rewrite), the part the paper claims is
// cheap.

#include <iostream>
#include <limits>
#include <vector>

#include "ast/rename.h"
#include "eval/query.h"
#include "magic/magic_sets.h"
#include "parser/parser.h"
#include "semopt/optimizer.h"
#include "util/hash_util.h"
#include "util/string_util.h"
#include "workload/genealogy.h"
#include "workload/organization.h"
#include "workload/university.h"
#include "workloads.h"

namespace perfbench {
namespace {

using semopt::Atom;
using semopt::Database;
using semopt::EvalOptions;
using semopt::EvalStats;
using semopt::Literal;
using semopt::Program;
using semopt::Result;
using semopt::Term;
using semopt::Tuple;

constexpr size_t kNumThreads = 4;
/// Set-up is cheap (generation only), so it is repeated often.
constexpr int kSetupRepeats = 40;

/// One query of a family: a literal list (free) or an atom (bound).
struct Instance {
  std::string query;
  bool bound = false;
  /// Answers of the original program on the family's EDB (the gate).
  std::set<std::string> expected;
};

struct Family {
  std::string name;
  std::string program_text;
  Database edb;
  std::vector<Instance> instances;
};

/// Work counters of one family across the traced phase.
struct FamilyTotals {
  uint64_t ops = 0;
  EvalStats eval;
  uint64_t sequences_unfolded = 0;
  uint64_t applied = 0;
  Samples latency;
};

/// The program text of a workload program, checked to re-parse to the
/// same program (so each operation parses exactly what the generator
/// defined, ICs included).
Result<std::string> ProgramText(const Result<Program>& program) {
  if (!program.ok()) return program.status();
  std::string text = program->ToString();
  Result<Program> again = semopt::ParseProgram(text);
  if (!again.ok()) return again.status();
  if (again->ToString() != text) {
    return semopt::Status::Internal("program text does not round-trip");
  }
  return text;
}

Result<std::vector<Family>> MakeFamilies(uint64_t seed) {
  semopt::SplitMix64 rng(seed * 0x9e3779b97f4a7c15ULL + 11);
  std::vector<Family> families;

  semopt::UniversityParams free_params;
  free_params.num_students = 100;
  free_params.num_professors = 50;
  free_params.num_fields = 12;
  free_params.fields_per_thesis = 4;
  free_params.seed = rng.Next();
  Family univ_free;
  univ_free.name = "univ-free";
  SEMOPT_ASSIGN_OR_RETURN(univ_free.program_text,
                          ProgramText(semopt::UniversityProgram()));
  univ_free.edb = semopt::GenerateUniversityDb(free_params);
  univ_free.instances.push_back({"eval_support(P, S, T, M), M > 10000", false, {}});
  families.push_back(std::move(univ_free));

  semopt::UniversityParams bound_params;
  bound_params.num_students = 300;
  bound_params.num_professors = 150;
  bound_params.fields_per_thesis = 2;
  bound_params.num_departments = 8;
  bound_params.seed = rng.Next();
  Family univ_bound;
  univ_bound.name = "univ-bound";
  univ_bound.program_text = families[0].program_text;
  univ_bound.edb = semopt::GenerateUniversityDb(bound_params);
  for (int i = 0; i < 8; ++i) {
    const uint64_t k = rng.Below(bound_params.num_professors);
    univ_bound.instances.push_back(
        {semopt::StrCat("eval(prof", k, ", S, T)"), true, {}});
  }
  families.push_back(std::move(univ_bound));

  semopt::GenealogyParams gen_params;
  gen_params.num_families = 20;
  gen_params.generations = 7;
  gen_params.children_per_person = 2;
  gen_params.seed = rng.Next();
  Family genealogy;
  genealogy.name = "genealogy";
  SEMOPT_ASSIGN_OR_RETURN(genealogy.program_text,
                          ProgramText(semopt::GenealogyProgram()));
  genealogy.edb = semopt::GenerateGenealogyDb(gen_params);
  for (int limit : {50, 45, 40, 35}) {
    genealogy.instances.push_back(
        {semopt::StrCat("anc(X, Xa, Y, Ya), Ya <= ", limit), false, {}});
  }
  families.push_back(std::move(genealogy));

  semopt::OrganizationParams org_params;
  org_params.num_employees = 3200;
  org_params.num_levels = 7;
  org_params.triples_per_level = 100;
  org_params.seed = rng.Next();
  Family org;
  org.name = "organization";
  SEMOPT_ASSIGN_OR_RETURN(org.program_text,
                          ProgramText(semopt::OrganizationProgram()));
  org.edb = semopt::GenerateOrganizationDb(org_params);
  org.instances.push_back({"triple(E1, E2, E3)", false, {}});
  families.push_back(std::move(org));
  return families;
}

/// The original program's answers, projected like the pipeline's.
Result<std::set<std::string>> ReferenceAnswers(const Family& family,
                                               const Instance& instance) {
  SEMOPT_ASSIGN_OR_RETURN(Program program,
                          semopt::ParseProgram(family.program_text));
  EvalOptions options;
  SEMOPT_ASSIGN_OR_RETURN(
      semopt::QueryResult result,
      semopt::AnswerQuery(program, family.edb, instance.query, options));
  return TupleSet(result.tuples);
}

/// Outcome of one pipeline operation.
struct OpResult {
  bool ok = false;
  std::string error;
  std::vector<Tuple> answers;
  uint64_t compile_ns = 0;
  uint64_t total_ns = 0;
  uint64_t sequences_unfolded = 0;
  uint64_t applied = 0;
};

/// One operation of the paper's pipeline. `stats` (traced runs only)
/// receives the engine counters.
OpResult RunPipeline(const Family& family, const Instance& instance,
                     Tracer* tracer, EvalStats* stats) {
  OpResult out;
  const uint64_t t0 = NowNs();
  ScopedSpan op_span(tracer, "op");
  auto fail = [&](const semopt::Status& status) {
    out.error = status.ToString();
    return out;
  };

  Result<Program> program = [&] {
    ScopedSpan span(tracer, "parser");
    return semopt::ParseProgram(family.program_text);
  }();
  if (!program.ok()) return fail(program.status());

  Result<semopt::OptimizeResult> optimized = [&] {
    ScopedSpan span(tracer, "semopt");
    return semopt::SemanticOptimizer().Optimize(*program);
  }();
  if (!optimized.ok()) return fail(optimized.status());
  out.sequences_unfolded = optimized->residue_stats.sequences_unfolded;
  out.applied = optimized->applied.size();

  EvalOptions options;
  options.num_threads = kNumThreads;
  if (!instance.bound) {
    Result<std::vector<Literal>> body = [&] {
      ScopedSpan span(tracer, "parser");
      return semopt::ParseLiteralList(instance.query);
    }();
    if (!body.ok()) return fail(body.status());
    std::vector<Term> projection;
    for (semopt::SymbolId v : semopt::CollectVariables(*body)) {
      projection.push_back(Term::Var(v));
    }
    out.compile_ns = NowNs() - t0;
    Result<semopt::QueryResult> result = [&] {
      ScopedSpan span(tracer, "eval");
      return semopt::AnswerQuery(optimized->program, family.edb, *body,
                                 projection, options, stats);
    }();
    if (!result.ok()) return fail(result.status());
    out.answers = std::move(result->tuples);
  } else {
    Result<Atom> goal = [&] {
      ScopedSpan span(tracer, "parser");
      return semopt::ParseAtom(instance.query);
    }();
    if (!goal.ok()) return fail(goal.status());
    Result<semopt::MagicRewrite> rewrite = [&] {
      ScopedSpan span(tracer, "magic");
      return semopt::MagicSets(optimized->program, *goal);
    }();
    if (!rewrite.ok()) return fail(rewrite.status());
    out.compile_ns = NowNs() - t0;
    ScopedSpan span(tracer, "eval");
    Result<Database> idb =
        semopt::Evaluate(rewrite->program, family.edb, options, stats);
    if (!idb.ok()) return fail(idb.status());
    // Project the goal's free arguments, as AnswerQuery does.
    if (const semopt::Relation* rel = idb->Find(rewrite->answer_pred)) {
      for (semopt::RowRef row : rel->rows()) {
        bool match = true;
        Tuple projected;
        for (size_t i = 0; i < goal->args().size(); ++i) {
          if (goal->arg(i).IsConstant()) {
            match = match && row[i] == goal->arg(i);
          } else {
            projected.push_back(row[i]);
          }
        }
        if (match) out.answers.push_back(std::move(projected));
      }
    }
  }
  out.total_ns = NowNs() - t0;
  out.ok = true;
  return out;
}

/// The op schedule: families round-robin, instances rotating within a
/// family, so the four families stay equally weighted.
struct Schedule {
  size_t next = 0;
  std::pair<size_t, size_t> Next(const std::vector<Family>& families) {
    const size_t f = next % families.size();
    const size_t round = next / families.size();
    ++next;
    return {f, round % families[f].instances.size()};
  }
};

struct PhaseOutput {
  PhaseResult result;
  std::vector<FamilyTotals> families;
};

PhaseOutput RunPhase(const std::vector<Family>& families, double seconds,
                     Tracer* tracer, Report* report) {
  PhaseOutput out;
  out.families.resize(families.size());
  PhaseClock clock(seconds);
  Schedule schedule;
  uint64_t op_id = 0;
  while (clock.Running()) {
    auto [f, i] = schedule.Next(families);
    const Instance& instance = families[f].instances[i];
    tracer->BeginOp(++op_id);
    EvalStats stats;
    OpResult op = RunPipeline(families[f], instance, tracer,
                              tracer->enabled() ? &stats : nullptr);
    ++out.result.attempted;
    bool ok = op.ok && op.answers.size() == instance.expected.size();
    if (!ok) {
      const double at = clock.Elapsed();
      out.result.Fail(/*heavy_op=*/true, at);
      out.result.light.Add(at, std::numeric_limits<double>::infinity());
      report->Mismatch(families[f].name + " " + instance.query + ": " +
                       (op.ok ? "answer count differs from the original "
                                "program's"
                              : op.error));
      continue;
    }
    const double at = clock.Elapsed();
    out.result.heavy.Add(at, static_cast<double>(op.total_ns));
    out.result.light.Add(at, static_cast<double>(op.compile_ns));
    out.result.done_at.push_back(at);
    clock.Observed(true);
    clock.Observed(false);
    FamilyTotals& totals = out.families[f];
    ++totals.ops;
    totals.eval.Add(stats);
    totals.sequences_unfolded += op.sequences_unfolded;
    totals.applied += op.applied;
    totals.latency.Add(static_cast<double>(op.total_ns));
  }
  out.result.seconds = clock.Elapsed();
  return out;
}

double PerOp(double total, uint64_t ops) {
  return ops == 0 ? 0 : total / static_cast<double>(ops);
}

void AddEvalLayers(LayerMetrics* layers, const EvalStats& eval, uint64_t ops) {
  const double lookups =
      static_cast<double>(eval.plan_cache_hits + eval.plan_cache_misses);
  (*layers)["eval.rounds"] = PerOp(eval.iterations, ops);
  (*layers)["eval.bindings"] = PerOp(eval.bindings_explored, ops);
  (*layers)["eval.derived"] = PerOp(eval.derived_tuples, ops);
  (*layers)["eval.dups"] = PerOp(eval.duplicate_tuples, ops);
  (*layers)["eval.plan_hit_ratio"] =
      lookups == 0 ? 0 : static_cast<double>(eval.plan_cache_hits) / lookups;
  (*layers)["eval.plan_lookups"] = PerOp(lookups, ops);
  (*layers)["exec.morsels"] = PerOp(eval.morsels, ops);
  (*layers)["exec.steal_ratio"] =
      eval.morsels == 0 ? 0
                        : static_cast<double>(eval.morsel_steals) /
                              static_cast<double>(eval.morsels);
}

}  // namespace

int RunPaperAnalytics(const RunConfig& config, Report* report) {
  StampRun(report, config, /*client_threads=*/1, /*connections=*/0,
           kNumThreads);

  // Set-up: generate the four families' inputs, timed several times
  // before the measured phase (the last result is kept) and after it.
  std::vector<Family> families;
  SetupTimer setup("paper-analytics", kSetupRepeats, [&]() {
    families.clear();
    Result<std::vector<Family>> made = MakeFamilies(config.seed);
    if (!made.ok()) return made.status();
    families = std::move(*made);
    return semopt::Status::Ok();
  }, report);
  if (!setup.Before()) return 1;
  for (const Family& family : families) {
    report->Note("size." + family.name + ".edb_facts",
                 std::to_string(family.edb.TotalTuples()));
  }

  // Correctness gate: every instance's optimized-pipeline answers are
  // set-equal to the original program's.
  Tracer untraced(false);
  for (Family& family : families) {
    for (Instance& instance : family.instances) {
      Result<std::set<std::string>> expected =
          ReferenceAnswers(family, instance);
      if (!expected.ok()) {
        std::cerr << "paper-analytics reference: "
                  << expected.status().ToString() << "\n";
        return 1;
      }
      instance.expected = std::move(*expected);
      OpResult op = RunPipeline(family, instance, &untraced, nullptr);
      if (!op.ok) {
        report->Mismatch(family.name + " " + instance.query + ": " + op.error);
      } else if (TupleSet(op.answers) != instance.expected) {
        report->Mismatch(family.name + " " + instance.query +
                         ": optimized answers differ from the original "
                         "program's");
      }
    }
  }
  if (!report->correct()) return 0;

  // Warm-up: two untimed passes over every instance.
  {
    Schedule schedule;
    size_t total = 0;
    for (const Family& family : families) total += family.instances.size();
    for (size_t n = 0; n < 2 * total * families.size(); ++n) {
      auto [f, i] = schedule.Next(families);
      RunPipeline(families[f], families[f].instances[i], &untraced, nullptr);
    }
  }

  PhaseOutput base = RunPhase(families, config.seconds, &untraced, report);
  const double peak_rss_mb = PeakRssMb();
  report->AddAttempts(base.result.attempted, base.result.failed);
  NoteSamples(report, "untraced", base.result);
  for (size_t f = 0; f < families.size(); ++f) {
    report->Note("untraced.family." + families[f].name + ".p50_ms",
                 base.families[f].latency.Quantile(0.5) / 1e6);
  }

  LayerMetrics layers;
  if (config.trace) {
    Tracer tracer(true);
    PhaseOutput traced = RunPhase(families, config.seconds, &tracer, report);
    report->AddAttempts(traced.result.attempted, traced.result.failed);
    NoteSamples(report, "traced", traced.result);
    WriteSpans(config.workdir + "/paper-analytics.spans.json", {&tracer});

    // Per-layer metrics: span self times and counters, per op.
    const uint64_t ops = traced.result.completed();
    std::map<std::string, uint64_t> self = tracer.SelfNsByName();
    layers["parser.parse_us"] = PerOp(self["parser"] / 1e3, ops);
    layers["semopt.optimize_us"] = PerOp(self["semopt"] / 1e3, ops);
    layers["eval.eval_us"] = PerOp(self["eval"] / 1e3, ops);
    EvalStats all;
    uint64_t unfolded = 0, applied = 0, bound_ops = 0;
    double op_ns = 0, bound_op_ns = 0;
    for (size_t f = 0; f < families.size(); ++f) {
      const FamilyTotals& t = traced.families[f];
      all.Add(t.eval);
      unfolded += t.sequences_unfolded;
      applied += t.applied;
      const double family_ns =
          t.latency.Mean() * static_cast<double>(t.latency.count());
      op_ns += family_ns;
      if (families[f].instances[0].bound) {
        bound_ops += t.ops;
        bound_op_ns += family_ns;
      }

      // Per-family breakdown (report lines).
      LayerMetrics fam;
      AddEvalLayers(&fam, t.eval, t.ops);
      const std::string prefix = "family." + families[f].name + ".";
      report->Note(prefix + "ops", std::to_string(t.ops));
      report->Note(prefix + "p50_ms", t.latency.Quantile(0.5) / 1e6);
      report->Note(prefix + "eval.eval_us",
                   PerOp(static_cast<double>(t.eval.eval_ns) / 1e3, t.ops));
      for (const auto& [name, value] : fam) report->Note(prefix + name, value);
      report->Note(prefix + "semopt.applied", PerOp(t.applied, t.ops));
    }
    layers["magic.rewrite_us"] = PerOp(self["magic"] / 1e3, bound_ops);
    layers["semopt.optimize_pct"] = Percent(self["semopt"], op_ns);
    layers["magic.rewrite_pct"] = Percent(self["magic"], bound_op_ns);
    layers["semopt.sequences_unfolded"] = PerOp(unfolded, ops);
    layers["semopt.applied"] = PerOp(applied, ops);
    AddEvalLayers(&layers, all, ops);
    AddOverhead(&layers, base.result, traced.result);
  }

  if (!setup.After()) return 1;
  if (config.trace) {
    ReportPerLayer(report, layers);
  } else {
    ReportEndToEnd(report, setup.times(), base.result, peak_rss_mb);
  }
  return 0;
}

}  // namespace perfbench
