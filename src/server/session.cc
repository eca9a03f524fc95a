#include "server/session.h"

#include <cctype>
#include <cstdlib>
#include <fstream>
#include <set>
#include <sstream>
#include <vector>

#include "ast/rename.h"
#include "eval/component_plan.h"
#include "eval/constraint_check.h"
#include "eval/explain.h"
#include "eval/query.h"
#include "exec/parallel_fixpoint.h"
#include "io/binary_io.h"
#include "io/fact_io.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/query_log.h"
#include "obs/trace.h"
#include "parser/parser.h"
#include "semopt/optimizer.h"
#include "semopt/residue_generator.h"
#include "storage/storage_metrics.h"
#include "util/simd.h"
#include "util/string_util.h"

namespace semopt {

namespace {

std::string_view Trim(std::string_view s) {
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.front()))) {
    s.remove_prefix(1);
  }
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.back()))) {
    s.remove_suffix(1);
  }
  return s;
}

std::vector<std::string> SplitWords(std::string_view s) {
  std::vector<std::string> words;
  std::stringstream stream{std::string(s)};
  std::string word;
  while (stream >> word) words.push_back(word);
  return words;
}

}  // namespace

SessionCommandProcessor::SessionCommandProcessor(DatabaseHost* host)
    : host_(host), session_id_(obs::NextSessionId()) {
  eval_options_.plan_cache = host_->plan_cache();
}

Result<IvmStats> DatabaseHost::ApplyUpdate(const std::vector<Atom>& adds,
                                           const std::vector<Atom>& dels) {
  IvmStats batch;
  Result<uint64_t> written =
      ApplyDelta([&](const Database& head) -> Result<DatabaseDelta> {
        std::lock_guard<std::mutex> lock(view_mu_);
        DatabaseDelta delta;
        if (view_.has_value()) {
          SEMOPT_ASSIGN_OR_RETURN(
              batch, view_->ApplyUpdates(adds, dels, nullptr, &delta));
          return delta;
        }
        SEMOPT_ASSIGN_OR_RETURN(delta, StageBatch(head, adds, dels));
        batch.batches = 1;
        for (const auto& [pred, change] : delta) {
          batch.edb_deleted += change.erased.size();
          batch.edb_inserted += change.inserted.size();
        }
        return delta;
      });
  SEMOPT_RETURN_IF_ERROR(written.status());
  return batch;
}

Result<size_t> DatabaseHost::Materialize(const Program& program,
                                         const EvalOptions& options) {
  size_t tuples = 0;
  // Build and publish inside one write: the initial fixpoint runs
  // against the write clone, so no update batch can slip between the
  // base snapshot and the published IDB. The view shares the clone's
  // EDB relations until a batch first writes one.
  Result<uint64_t> written = ApplyWrite([&](Database* db) -> Status {
    SEMOPT_ASSIGN_OR_RETURN(
        IncrementalEvaluator view,
        IncrementalEvaluator::Create(program, db->CloneShared(), options));
    db->CopyRelationsFrom(view.idb());
    tuples = view.idb().TotalTuples();
    std::lock_guard<std::mutex> lock(view_mu_);
    view_.emplace(std::move(view));
    return Status::Ok();
  });
  SEMOPT_RETURN_IF_ERROR(written.status());
  return tuples;
}

bool DatabaseHost::Dematerialize() {
  std::lock_guard<std::mutex> lock(view_mu_);
  if (!view_.has_value()) return false;
  view_.reset();
  return true;
}

bool DatabaseHost::has_view() {
  std::lock_guard<std::mutex> lock(view_mu_);
  return view_.has_value();
}

obs::QueryLog* SessionCommandProcessor::EffectiveQueryLog() {
  if (own_query_log_ != nullptr) return own_query_log_.get();
  return host_->query_log();
}

QueryClass SessionCommandProcessor::Classify(QueryPath path) {
  return path == QueryPath::kEdb ? QueryClass::kLight : QueryClass::kHeavy;
}

std::string SessionCommandProcessor::Execute(std::string_view raw) {
  std::string_view line = Trim(raw);
  if (line.empty() || line.front() == '%') return "";
  if (line.front() == '.' || line.front() == ':') return HandleCommand(line);
  if (StartsWith(line, "?-")) return HandleQuery(line.substr(2));
  if (line.front() == '~') return HandleRetraction(line.substr(1));
  return HandleStatements(line);
}

std::string SessionCommandProcessor::HandleRetraction(std::string_view text) {
  std::string source{Trim(text)};
  if (!source.empty() && source.back() != '.') source += '.';
  Result<Program> parsed = ParseProgram(source);
  if (!parsed.ok()) return parsed.status().ToString();
  std::vector<Atom> facts;
  for (const Rule& rule : parsed->rules()) {
    if (!rule.IsFact()) {
      return StrCat("cannot retract ", rule.ToString(),
                    ": only ground facts can be retracted");
    }
    facts.push_back(rule.head());
  }
  if (!parsed->constraints().empty()) {
    return "cannot retract a constraint";
  }
  if (facts.empty()) return "nothing to retract";
  Result<IvmStats> batch = host_->ApplyUpdate({}, facts);
  if (!batch.ok()) return batch.status().ToString();
  std::ostringstream os;
  os << "retracted " << batch->edb_deleted << " fact(s)";
  if (batch->edb_deleted < facts.size()) {
    os << " (" << facts.size() - batch->edb_deleted << " absent)";
  }
  if (host_->has_view()) {
    os << "; view: " << batch->ToString();
  }
  return os.str();
}

std::string SessionCommandProcessor::HandleStatements(std::string_view text) {
  std::string source{Trim(text)};
  if (!source.empty() && source.back() != '.') source += '.';
  Result<Program> parsed = ParseProgram(source);
  if (!parsed.ok()) return parsed.status().ToString();

  size_t rules = 0, constraints = 0;
  // Ground facts become one database write (a server host publishes
  // them as a single new generation — readers see all or none of this
  // statement batch); rules and ICs stay session-private.
  std::vector<Atom> facts;
  for (const Rule& rule : parsed->rules()) {
    bool ground_fact = rule.IsFact();
    for (const Term& t : rule.head().args()) {
      if (t.IsVariable()) ground_fact = false;
    }
    if (ground_fact) {
      facts.push_back(rule.head());
    } else {
      program_.AddRule(rule);
      ++rules;
    }
  }
  if (!facts.empty()) {
    // Through ApplyUpdate so an installed materialized view maintains
    // its IDB in the same published generation as the new facts.
    Result<IvmStats> written = host_->ApplyUpdate(facts, {});
    if (!written.ok()) return written.status().ToString();
  }
  for (const Constraint& ic : parsed->constraints()) {
    program_.AddConstraint(ic);
    ++constraints;
  }
  program_.AutoLabelRules();
  std::ostringstream os;
  os << "added";
  if (rules > 0) os << " " << rules << " rule(s)";
  if (constraints > 0) os << " " << constraints << " constraint(s)";
  if (!facts.empty()) os << " " << facts.size() << " fact(s)";
  return os.str();
}

std::string SessionCommandProcessor::HandleQuery(std::string_view body_text) {
  return RunQueryProfiled(body_text, /*force_metrics=*/false);
}

std::string SessionCommandProcessor::RunQueryProfiled(
    std::string_view body_text, bool force_metrics) {
  const uint64_t t_start = obs::MonotonicNowNs();
  obs::QueryProfile profile;
  profile.ctx.query_id = obs::NextQueryId();
  profile.ctx.session_id = session_id_;
  profile.ctx.budget_us = eval_options_.budget_us;

  std::string source{Trim(body_text)};
  if (!source.empty() && source.back() == '.') source.pop_back();
  profile.query = source;
  last_query_ = source;

  // Every span recorded on this thread during the query (including the
  // admission wait) carries the query id; the fixpoint engine re-opens
  // the scope on its worker lanes from EvalOptions::query_id.
  obs::QueryIdScope qid_scope(profile.ctx.query_id);

  // Records the profile (complete or failed) to the effective query
  // log; the session-level slow_query_us overrides the log's default
  // threshold when set.
  auto finish = [&](std::string out) {
    profile.total_us = (obs::MonotonicNowNs() - t_start) / 1000;
    if (obs::QueryLog* log = EffectiveQueryLog()) {
      const uint64_t threshold = eval_options_.slow_query_us != 0
                                     ? eval_options_.slow_query_us
                                     : log->slow_threshold_us();
      log->Record(profile, threshold);
    }
    last_profile_ = std::move(profile);
    have_last_profile_ = true;
    return out;
  };

  Result<std::vector<Literal>> body = ParseLiteralList(source);
  profile.parse_us = (obs::MonotonicNowNs() - t_start) / 1000;
  if (!body.ok()) {
    profile.ok = false;
    profile.error = body.status().ToString();
    return finish(body.status().ToString());
  }
  std::vector<Term> projection;
  for (SymbolId v : CollectVariables(*body)) projection.push_back(Term::Var(v));

  // One decision picks the query path and, from it, the admission class.
  Result<QueryPlan> plan = PlanQuery(program_, *body, projection);
  if (!plan.ok()) {
    profile.ok = false;
    profile.error = plan.status().ToString();
    return finish(plan.status().ToString());
  }
  profile.path = QueryPathName(plan->path);
  profile.pushed = plan->pushed;

  // Admission (when the host schedules) happens before the snapshot is
  // pinned, so queued queries don't hold generations live while they
  // wait — and each query reads the freshest head at its start of
  // execution.
  SessionScheduler::Ticket ticket;
  if (host_->scheduler() != nullptr) {
    const QueryClass cls = Classify(plan->path);
    profile.query_class = QueryClassName(cls);
    ticket = host_->scheduler()->Admit(cls, &profile.queue_wait_us);
  }
  const uint64_t t_pin = obs::MonotonicNowNs();
  DatabaseSnapshot snap = host_->Snapshot();
  profile.pin_us = (obs::MonotonicNowNs() - t_pin) / 1000;
  profile.pinned_epoch = snap.epoch();

  EvalOptions query_options = eval_options_;
  query_options.query_id = profile.ctx.query_id;
  if (force_metrics) query_options.collect_metrics = true;

  const uint64_t t_eval = obs::MonotonicNowNs();
  EvalStats stats;
  Result<QueryResult> result =
      RunQueryPlan(*plan, snap.db(), query_options, &stats);
  last_plan_ = std::move(*plan);
  profile.eval_us = (obs::MonotonicNowNs() - t_eval) / 1000;
  // Fold into the process-wide registry so `:stats` aggregates across
  // queries and sessions (per-query cost: a handful of atomic adds).
  stats.PublishTo(obs::MetricsRegistry::Global());
  profile.eval = std::move(stats);
  if (!result.ok()) {
    profile.ok = false;
    profile.error = result.status().ToString();
    return finish(result.status().ToString());
  }
  profile.answers = result->size();

  const uint64_t t_render = obs::MonotonicNowNs();
  std::string out;
  if (result->empty()) {
    out = "no answers";
  } else {
    result->AppendTo(&out);
    out += std::to_string(result->size());
    out += " answer(s)";
  }
  profile.render_us = (obs::MonotonicNowNs() - t_render) / 1000;
  return finish(std::move(out));
}

std::string SessionCommandProcessor::HandleCommand(std::string_view line) {
  std::vector<std::string> words = SplitWords(line);
  const std::string& cmd = words[0];
  std::vector<std::string> args(words.begin() + 1, words.end());

  if (cmd == ".help") return CmdHelp();
  if (cmd == ".quit" || cmd == ".exit") {
    done_ = true;
    return "bye";
  }
  if (cmd == ".program") return CmdProgram();
  if (cmd == ".db") return CmdDb(args);
  if (cmd == ".optimize") return CmdOptimize(args);
  if (cmd == ".residues") return CmdResidues();
  if (cmd == ".check") return CmdCheck();
  if (cmd == ".explain") {
    size_t offset = line.find(' ');
    if (offset == std::string_view::npos) {
      return "usage: .explain pred(consts)";
    }
    return CmdExplain(line.substr(offset + 1));
  }
  if (cmd == ".materialize") return CmdMaterialize(args);
  if (cmd == ".threads" || cmd == ":threads") return CmdThreads(args);
  if (cmd == ".plan" || cmd == ":plan") return CmdPlan(args);
  if (cmd == ".trace" || cmd == ":trace") return CmdTrace(args);
  if (cmd == ".profile" || cmd == ":profile") {
    size_t offset = line.find(' ');
    return CmdProfile(offset == std::string_view::npos
                          ? std::string_view()
                          : line.substr(offset + 1));
  }
  if (cmd == ".qstats" || cmd == ":stats") return CmdStats();
  if (cmd == ".qlog" || cmd == ":qlog") return CmdQlog(args);
  if (cmd == ".slowlog" || cmd == ":slowlog") return CmdSlowlog(args);
  if (cmd == ".budget" || cmd == ":budget") return CmdBudget(args);
  if (cmd == ".load") return CmdLoad(args);
  if (cmd == ".loadtsv") return CmdLoadTsv(args);
  if (cmd == ".dump" || cmd == ":dump") return CmdDump(args);
  // `:load` (colon) is the binary-snapshot loader; `.load` (dot) keeps
  // its historical meaning of sourcing a text program file.
  if (cmd == ":load") return CmdLoadBinary(args);
  if (cmd == ".simd" || cmd == ":simd") return CmdSimd(args);
  if (cmd == ".reset") {
    program_ = Program();
    host_->Dematerialize();
    Result<uint64_t> cleared = host_->ApplyWrite([](Database* db) {
      *db = Database();
      return Status::Ok();
    });
    if (!cleared.ok()) return cleared.status().ToString();
    return "reset";
  }
  return StrCat("unknown command ", cmd, " (try .help)");
}

std::string SessionCommandProcessor::CmdHelp() const {
  return R"(statements:
  head :- body.            add a rule
  body -> head.            add an integrity constraint ("-> ." = denial)
  pred(consts).            add a fact
  ?- literals.             run a query
commands:
  .program                 show rules and constraints
  .db [pred/arity]         list relations / dump one
  .optimize [flat]         run the semantic optimizer (flat: no chain factoring)
  .residues                show the residues of all constraints
  .check                   check the facts against the constraints
  .explain pred(consts)    show a proof tree for a derived fact
  ~ pred(consts).          retract a fact (a maintained view updates its
                           IDB incrementally in the same write)
  .materialize [incremental|off]
                           maintain the program's IDB as base relations,
                           updated incrementally (counting/DRed) in every
                           fact write; off stops maintaining it
  .load FILE               load a program/fact file
  .loadtsv PRED FILE       load tab-separated tuples into PRED
  :dump FILE               save every relation as a binary snapshot
  :load FILE               bulk-load a binary snapshot (made by :dump)
  :threads [N]             evaluate with N lanes (default 1, 0 = auto)
  :simd [on|off|auto]      vectorized executor kernels (auto = detect)
  :plan PRED[/ARITY]       show the join plan of every rule deriving PRED
                           (est~ = the planner's estimated rows per step)
  :trace FILE|on|off       record spans; on stop, write Chrome trace JSON
                           (open in chrome://tracing or ui.perfetto.dev)
  :profile [QUERY]         re-run the last (or given) query with full
                           metrics; show its record (path, latency
                           breakdown, counters, rounds, lane balance) and
                           the annotated per-rule plans (EXPLAIN ANALYZE)
  :stats                   dump the process totals (Prometheus text format)
  :qlog [FILE|off]         session-private structured query log (JSONL)
  :slowlog [N|off]         mirror queries >= N us into the slow log
  :budget [N|off]          per-query wall-clock budget in microseconds
  .reset                   clear everything
  .quit                    leave)";
}

std::string SessionCommandProcessor::CmdMaterialize(
    const std::vector<std::string>& args) {
  if (!args.empty() && args[0] == "off") {
    return host_->Dematerialize()
               ? "view dropped (published IDB stays as plain facts)"
               : "no materialized view installed";
  }
  if (!args.empty() && args[0] != "incremental") {
    return "usage: .materialize [incremental|off]";
  }
  if (program_.rules().empty()) {
    return "no rules to materialize (add rules first)";
  }
  Result<size_t> tuples = host_->Materialize(program_, eval_options_);
  if (!tuples.ok()) return tuples.status().ToString();
  return StrCat("materialized ", *tuples,
                " idb tuple(s) (incremental counting/DRed maintenance)");
}

std::string SessionCommandProcessor::CmdProgram() const {
  if (program_.rules().empty() && program_.constraints().empty()) {
    return "(empty program)";
  }
  std::string out = program_.ToString();
  if (!out.empty() && out.back() == '\n') out.pop_back();
  return out;
}

std::string SessionCommandProcessor::CmdDb(
    const std::vector<std::string>& args) {
  DatabaseSnapshot snap = host_->Snapshot();
  const Database& edb = snap.db();
  std::ostringstream os;
  if (args.empty()) {
    for (const PredicateId& pred : edb.Predicates()) {
      const Relation* rel = edb.Find(pred);
      os << pred.ToString() << ": " << rel->size() << " tuple(s)\n";
    }
    os << edb.TotalTuples() << " tuple(s) total";
    return os.str();
  }
  // "pred/arity" or "pred".
  std::string name = args[0];
  int arity = -1;
  size_t slash = name.find('/');
  if (slash != std::string::npos) {
    arity = std::atoi(name.c_str() + slash + 1);
    name = name.substr(0, slash);
  }
  for (const PredicateId& pred : edb.Predicates()) {
    if (SymbolName(pred.name) != name) continue;
    if (arity >= 0 && pred.arity != static_cast<uint32_t>(arity)) continue;
    SaveFacts(os, *edb.Find(pred));
  }
  std::string out = os.str();
  if (out.empty()) return StrCat("no relation ", args[0]);
  if (out.back() == '\n') out.pop_back();
  return out;
}

std::string SessionCommandProcessor::CmdOptimize(
    const std::vector<std::string>& args) {
  OptimizerOptions options;
  for (const std::string& arg : args) {
    if (arg == "flat") options.factor_committed = false;
  }
  // Every EDB relation present in the database counts as "small" only
  // if the user says so; default: introduction for evaluable heads only.
  SemanticOptimizer optimizer(options);
  Result<OptimizeResult> result = optimizer.Optimize(program_);
  if (!result.ok()) return result.status().ToString();
  std::ostringstream os;
  os << result->Report();
  if (!result->applied.empty()) {
    program_ = result->program;
    os << "program replaced; see .program";
  } else {
    os << "no transformation applied; program unchanged";
  }
  return os.str();
}

std::string SessionCommandProcessor::CmdResidues() const {
  Result<std::vector<Residue>> residues = GenerateAllResidues(program_);
  if (!residues.ok()) return residues.status().ToString();
  if (residues->empty()) return "no residues";
  std::ostringstream os;
  for (const Residue& r : *residues) {
    os << r.ToString(program_) << "   [" << ResidueKindName(r.kind())
       << ", IC " << r.ic_label << "]\n";
  }
  std::string out = os.str();
  out.pop_back();
  return out;
}

std::string SessionCommandProcessor::CmdCheck() {
  DatabaseSnapshot snap = host_->Snapshot();
  Result<std::vector<ConstraintViolation>> violations =
      CheckConstraints(snap.db(), program_.constraints(), 10);
  if (!violations.ok()) return violations.status().ToString();
  if (violations->empty()) return "all constraints satisfied";
  std::ostringstream os;
  for (const ConstraintViolation& v : *violations) {
    os << "IC " << v.constraint_label << " " << v.description << "\n";
  }
  std::string out = os.str();
  out.pop_back();
  return out;
}

std::string SessionCommandProcessor::CmdExplain(std::string_view rest) {
  std::string source{Trim(rest)};
  if (!source.empty() && source.back() == '.') source.pop_back();
  Result<Atom> goal = ParseAtom(source);
  if (!goal.ok()) return goal.status().ToString();
  DatabaseSnapshot snap = host_->Snapshot();
  Result<ProofNode> proof = ExplainFromScratch(program_, snap.db(), *goal);
  if (!proof.ok()) return proof.status().ToString();
  std::string out = proof->ToString();
  if (!out.empty() && out.back() == '\n') out.pop_back();
  return out;
}

std::string SessionCommandProcessor::CmdThreads(
    const std::vector<std::string>& args) {
  if (args.empty()) {
    if (eval_options_.num_threads == 0) {
      return StrCat("threads auto (", ResolveNumThreads(eval_options_),
                    " detected, morsel-parallel)");
    }
    return StrCat("threads ", eval_options_.num_threads,
                  eval_options_.num_threads == 1 ? "" : " (morsel-parallel)");
  }
  char* end = nullptr;
  long n = std::strtol(args[0].c_str(), &end, 10);
  if (end == args[0].c_str() || *end != '\0' || n < 0) {
    return "usage: :threads N  (0 = auto-detect, default 1, max 256)";
  }
  // Validate the full combination centrally; on rejection surface the
  // validator's message and keep the previous setting.
  EvalOptions candidate = eval_options_;
  candidate.num_threads = static_cast<size_t>(n);
  if (Status s = ValidateEvalOptions(candidate); !s.ok()) {
    return s.ToString();
  }
  eval_options_ = candidate;
  if (n == 0) {
    return StrCat("threads auto (", ResolveNumThreads(eval_options_),
                  " detected, morsel-parallel)");
  }
  return StrCat("threads ", eval_options_.num_threads,
                eval_options_.num_threads == 1 ? "" : " (morsel-parallel)");
}

std::string SessionCommandProcessor::CmdPlan(
    const std::vector<std::string>& args) {
  if (args.size() != 1) return "usage: :plan PRED[/ARITY]";
  std::string name = args[0];
  int arity = -1;
  size_t slash = name.find('/');
  if (slash != std::string::npos) {
    arity = std::atoi(name.c_str() + slash + 1);
    name = name.substr(0, slash);
  }
  Result<std::vector<EvalComponent>> components = PlanComponents(program_);
  if (!components.ok()) return components.status().ToString();

  DatabaseSnapshot snap = host_->Snapshot();
  const Database& edb = snap.db();

  // Plan against the current EDB cardinalities; IDB relations are not
  // materialized here, so they count as empty (the order shown for a
  // fresh evaluation's first rounds).
  DatabaseSource source(&edb);

  std::ostringstream os;
  size_t shown = 0;
  for (const EvalComponent& component : *components) {
    for (const PlannedRule& pr : component.rules) {
      if (SymbolName(pr.head.name) != name) continue;
      if (arity >= 0 && pr.head.arity != static_cast<uint32_t>(arity)) {
        continue;
      }
      ++shown;
      Result<RuleExecutor::PreparedPlan> plan =
          pr.executor.Prepare(source, -1);
      if (!plan.ok()) {
        os << plan.status().ToString() << "\n";
        continue;
      }
      os << pr.executor.DescribePlan(*plan) << "\n";
      for (int lit_index : pr.recursive_literals) {
        Result<RuleExecutor::PreparedPlan> delta_plan =
            pr.executor.Prepare(source, lit_index);
        if (!delta_plan.ok()) continue;
        os << "with delta on body literal " << lit_index << ":\n"
           << pr.executor.DescribePlan(*delta_plan, lit_index) << "\n";
      }
    }
  }
  if (shown == 0) return StrCat("no rules with head ", args[0]);
  std::string out = os.str();
  out.pop_back();
  return out;
}

std::string SessionCommandProcessor::CmdTrace(
    const std::vector<std::string>& args) {
  if (!obs::kTracingCompiledIn) {
    return "tracing was compiled out (-DSEMOPT_DISABLE_TRACING)";
  }
  if (args.empty()) {
    if (obs::TracingEnabled()) {
      return StrCat("tracing on (will write ", trace_path_,
                    "; stop with :trace off)");
    }
    return "tracing off (start with :trace FILE)";
  }
  if (args[0] == "off") {
    if (!obs::TracingEnabled() || trace_path_.empty()) {
      return "tracing is not on";
    }
    Result<size_t> events = obs::StopTracing(trace_path_);
    std::string path = std::move(trace_path_);
    trace_path_.clear();
    if (!events.ok()) return events.status().ToString();
    return StrCat("trace written to ", path, " (", *events,
                  " event(s); open in chrome://tracing or Perfetto)");
  }
  trace_path_ = args[0] == "on" ? "trace.json" : args[0];
  obs::StartTracing();
  return StrCat("tracing on (will write ", trace_path_,
                "; stop with :trace off)");
}

std::string SessionCommandProcessor::CmdProfile(std::string_view rest) {
  std::string query{Trim(rest)};
  if (query.empty()) {
    if (last_query_.empty()) {
      return "no query to profile (run one first, or :profile QUERY)";
    }
    query = last_query_;
  }
  // Re-run the query with full metrics collection; the answers are
  // recomputed against the current head but only the breakdown is
  // shown.
  std::string result_text = RunQueryProfiled(query, /*force_metrics=*/true);
  if (!last_profile_.ok) return result_text;  // surface parse/eval errors

  std::ostringstream os;
  os << last_profile_.Render();
  // Annotated plans of the rules the query's path ran, the query rule
  // `query$answer(vars) :- ...` included (keyed "query$" in the per-rule
  // stats), over the database they read.
  DatabaseSnapshot snap = host_->Snapshot();
  os << ExplainAnalyze(last_plan_.program,
                       QueryPlanDatabase(last_plan_, snap.db()),
                       last_profile_.eval);
  return os.str();
}

std::string SessionCommandProcessor::CmdStats() {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  storage_metrics::PublishTo(registry);
  if (obs::QueryLog* log = EffectiveQueryLog()) {
    registry.GetGauge("server.query_log.records")
        .Set(static_cast<int64_t>(log->records()));
    registry.GetGauge("server.query_log.slow_records")
        .Set(static_cast<int64_t>(log->slow_records()));
  }
  std::string out = obs::ExportPrometheus(registry);
  if (out.empty()) return "(no metrics recorded yet)";
  if (out.back() == '\n') out.pop_back();
  return out;
}

std::string SessionCommandProcessor::CmdQlog(
    const std::vector<std::string>& args) {
  if (args.empty()) {
    if (own_query_log_ != nullptr) return "session query log on (:qlog off)";
    if (host_->query_log() != nullptr && host_->query_log()->log_open()) {
      return "logging to the host query log";
    }
    return "query logging off (:qlog FILE)";
  }
  if (args[0] == "off") {
    if (own_query_log_ == nullptr) return "no session query log open";
    own_query_log_.reset();
    return "session query log closed";
  }
  auto log = std::make_unique<obs::QueryLog>();
  if (Status s = log->OpenLog(args[0]); !s.ok()) return s.ToString();
  own_query_log_ = std::move(log);
  return StrCat("session query log -> ", args[0],
                " (one JSON line per query)");
}

std::string SessionCommandProcessor::CmdSlowlog(
    const std::vector<std::string>& args) {
  if (args.empty()) {
    if (eval_options_.slow_query_us == 0) {
      return "slow-query threshold: host default (:slowlog N to override)";
    }
    return StrCat("slow-query threshold ", eval_options_.slow_query_us,
                  " us");
  }
  if (args[0] == "off") {
    eval_options_.slow_query_us = 0;
    return "slow-query threshold: host default";
  }
  char* end = nullptr;
  long long n = std::strtoll(args[0].c_str(), &end, 10);
  if (end == args[0].c_str() || *end != '\0' || n <= 0) {
    return "usage: :slowlog N  (microseconds; off = host default)";
  }
  eval_options_.slow_query_us = static_cast<uint64_t>(n);
  return StrCat("slow-query threshold ", eval_options_.slow_query_us, " us");
}

std::string SessionCommandProcessor::CmdBudget(
    const std::vector<std::string>& args) {
  if (args.empty()) {
    if (eval_options_.budget_us == 0) return "budget unlimited (:budget N)";
    return StrCat("budget ", eval_options_.budget_us, " us per query");
  }
  if (args[0] == "off") {
    eval_options_.budget_us = 0;
    return "budget unlimited";
  }
  char* end = nullptr;
  long long n = std::strtoll(args[0].c_str(), &end, 10);
  if (end == args[0].c_str() || *end != '\0' || n <= 0) {
    return "usage: :budget N  (microseconds of wall clock; off = unlimited)";
  }
  eval_options_.budget_us = static_cast<uint64_t>(n);
  return StrCat("budget ", eval_options_.budget_us,
                " us per query (checked per fixpoint round)");
}

std::string SessionCommandProcessor::CmdLoad(
    const std::vector<std::string>& args) {
  if (args.size() != 1) return "usage: .load FILE";
  std::ifstream in(args[0]);
  if (!in) return StrCat("cannot open ", args[0]);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return HandleStatements(buffer.str());
}

std::string SessionCommandProcessor::CmdDump(
    const std::vector<std::string>& args) {
  if (args.size() != 1) return "usage: :dump FILE";
  DatabaseSnapshot snap = host_->Snapshot();
  Result<size_t> bytes = SaveBinaryFile(args[0], snap.db());
  if (!bytes.ok()) return bytes.status().ToString();
  return StrCat("dumped ", snap.db().Predicates().size(), " relation(s), ",
                snap.db().TotalTuples(), " tuple(s), ", *bytes, " byte(s) -> ",
                args[0]);
}

std::string SessionCommandProcessor::CmdLoadBinary(
    const std::vector<std::string>& args) {
  if (args.size() != 1) {
    return "usage: :load FILE  (binary snapshot; .load reads text programs)";
  }
  BulkLoadStats stats;
  Result<uint64_t> written = host_->ApplyWrite([&](Database* db) {
    SEMOPT_ASSIGN_OR_RETURN(stats, LoadBinaryFile(args[0], db));
    return Status::Ok();
  });
  if (!written.ok()) return written.status().ToString();
  return StrCat("loaded ", stats.rows, " row(s) into ", stats.relations,
                " relation(s) (", stats.bytes, " byte(s), ", stats.micros,
                " us)");
}

std::string SessionCommandProcessor::CmdSimd(
    const std::vector<std::string>& args) {
  // Renders the session's configured mode plus what it resolves to in
  // this process (build options, the SEMOPT_DISABLE_SIMD environment
  // variable and the CPU all factor in).
  auto describe = [this]() {
    const char* mode = eval_options_.simd == SimdMode::kOn    ? "on"
                       : eval_options_.simd == SimdMode::kOff ? "off"
                                                              : "auto";
    if (!ResolveSimdMode(eval_options_.simd)) {
      return StrCat("simd ", mode, " (scalar kernels)");
    }
    return StrCat("simd ", mode, " (vectorized, ",
                  simd::LevelName(simd::ActiveLevel()), ")");
  };
  if (args.empty()) return describe();
  EvalOptions candidate = eval_options_;
  if (args[0] == "on") {
    candidate.simd = SimdMode::kOn;
  } else if (args[0] == "off") {
    candidate.simd = SimdMode::kOff;
  } else if (args[0] == "auto") {
    candidate.simd = SimdMode::kAuto;
  } else {
    return "usage: :simd [on|off|auto]";
  }
  // Centralized validation; on rejection surface the validator's
  // message and keep the previous setting (same contract as :threads).
  if (Status s = ValidateEvalOptions(candidate); !s.ok()) {
    return s.ToString();
  }
  eval_options_ = candidate;
  return describe();
}

std::string SessionCommandProcessor::CmdLoadTsv(
    const std::vector<std::string>& args) {
  if (args.size() != 2) return "usage: .loadtsv PRED FILE";
  size_t added = 0;
  Result<uint64_t> written = host_->ApplyWrite([&](Database* db) {
    SEMOPT_ASSIGN_OR_RETURN(added, LoadTsvFile(args[1], args[0], db));
    return Status::Ok();
  });
  if (!written.ok()) return written.status().ToString();
  return StrCat("loaded ", added, " tuple(s) into ", args[0]);
}

}  // namespace semopt
