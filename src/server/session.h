#ifndef SEMOPT_SERVER_SESSION_H_
#define SEMOPT_SERVER_SESSION_H_

#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include <mutex>
#include <optional>

#include "ast/program.h"
#include "eval/fixpoint.h"
#include "eval/incremental.h"
#include "eval/plan_cache.h"
#include "magic/query_paths.h"
#include "obs/query_log.h"
#include "server/scheduler.h"
#include "storage/snapshot.h"
#include "util/result.h"

namespace semopt {

/// How a session reaches the database it runs against. Two
/// implementations:
///  - the interactive shell owns its Database outright and hands out
///    Unmanaged snapshots (single-threaded, no isolation needed);
///  - the query server fronts a SnapshotStore shared by every session,
///    so Snapshot() pins a frozen generation and ApplyWrite() publishes
///    the next one.
/// The processor below is written against this interface only, which
/// is what makes one command set serve both.
class DatabaseHost {
 public:
  virtual ~DatabaseHost() = default;

  /// A read view of the database as of now. Under a server host this
  /// pins a generation: concurrent writers publish new generations
  /// without disturbing it.
  virtual DatabaseSnapshot Snapshot() = 0;

  /// Applies `fn` to the database. Under a server host the mutation
  /// runs on a private clone and is published atomically; readers
  /// never observe it half-applied. Returns the resulting epoch (0
  /// for a local host).
  virtual Result<uint64_t> ApplyWrite(
      const std::function<Status(Database*)>& fn) = 0;

  /// Applies the net change `fn` computes against the current database
  /// (a delta write: under a server host only the delta's rows are
  /// written into the next generation, see SnapshotStore::ApplyDelta).
  /// Same atomicity and return value as ApplyWrite.
  virtual Result<uint64_t> ApplyDelta(const SnapshotStore::DeltaFn& fn) = 0;

  /// The plan cache every evaluation of this session borrows. May be
  /// shared across sessions (SharedPlanCache) or private (PlanCache);
  /// never null.
  virtual PlanCacheInterface* plan_cache() = 0;

  /// Admission control for query execution; null = run immediately
  /// (local shell).
  virtual SessionScheduler* scheduler() { return nullptr; }

  /// The host's structured query log (one JSON line per query); null =
  /// no logging. A session may shadow it with its own `:qlog` file.
  virtual obs::QueryLog* query_log() { return nullptr; }

  /// Applies one mixed update batch — `dels` removed, then `adds`
  /// inserted, staged by StageBatch — as one delta write, so under a
  /// server host the batch publishes as one generation at O(|Δ|) cost.
  /// When a view is installed, the same write also maintains the IDB
  /// incrementally and carries its net change: a reader pinning the
  /// next snapshot sees base and derived facts move together. Returns
  /// the batch's maintenance stats (EDB-only counters when no view is
  /// installed). A rejected batch publishes nothing.
  Result<IvmStats> ApplyUpdate(const std::vector<Atom>& adds,
                               const std::vector<Atom>& dels);

  /// Installs a maintained view of `program` (an IncrementalEvaluator
  /// over the current database; it accepts whatever Evaluate accepts)
  /// and publishes a copy of its IDB. Replaces any previous view.
  /// Returns the number of IDB tuples materialized.
  Result<size_t> Materialize(const Program& program,
                             const EvalOptions& options);

  /// Drops the installed view. The already-published IDB relations
  /// stay in the database as plain facts; they simply stop being
  /// maintained. Returns false if no view was installed.
  bool Dematerialize();

  /// True while a view is installed.
  bool has_view();

 private:
  /// The installed view, guarded by `view_mu_` (hosts are shared by
  /// every session; the write path itself serializes in ApplyWrite,
  /// but Materialize/Dematerialize race with it from other sessions).
  /// It owns its relations outright: the published generation gets its
  /// own copy of the IDB once, at Materialize, and afterwards only each
  /// batch's net delta, so maintenance mutates in place and never pays
  /// for a relation shared with readers.
  std::mutex view_mu_;
  std::optional<IncrementalEvaluator> view_;
};

/// One session's command interpreter: the parse/dispatch/format logic
/// behind both the interactive shell and every server connection.
/// Holds the session-private state — the rule program, evaluation
/// options, the last query's profile — and reaches shared state (database, plan
/// cache, scheduler) only through the DatabaseHost.
///
/// Input forms (one per Execute call):
///   p(X) :- q(X).            add a rule (session-private)
///   a(X), X > 3 -> b(X).     add an integrity constraint
///   edge(a, b).              add a fact (a database write)
///   ?- p(X), X != a.         run a query
///   .command [args]          commands (see `.help`)
class SessionCommandProcessor {
 public:
  explicit SessionCommandProcessor(DatabaseHost* host);

  /// Executes one input line and returns the text to display.
  std::string Execute(std::string_view line);

  /// True once `.quit` has been executed.
  bool done() const { return done_; }

  const Program& program() const { return program_; }
  const EvalOptions& eval_options() const { return eval_options_; }

  /// Sets the session's default evaluation thread count (the server
  /// applies its per-query budget here; `:threads` can change it
  /// later).
  void set_num_threads(size_t n) { eval_options_.num_threads = n; }

  /// Admission class of a query path: light for kEdb (one rule run
  /// over the base relations), heavy for every path that runs a
  /// fixpoint.
  static QueryClass Classify(QueryPath path);

  /// This session's process-unique id (stamped into every profile).
  uint64_t session_id() const { return session_id_; }

  /// The profile of the most recent query (valid once a query ran).
  const obs::QueryProfile& last_profile() const { return last_profile_; }
  bool have_last_profile() const { return have_last_profile_; }

 private:
  std::string HandleCommand(std::string_view line);
  std::string HandleQuery(std::string_view body_text);
  std::string HandleStatements(std::string_view text);
  std::string HandleRetraction(std::string_view text);

  /// The full query pipeline — parse, classify, admit, pin, evaluate,
  /// render — accumulating a QueryProfile at every phase boundary and
  /// recording it to the effective query log (even on error paths).
  /// `force_metrics` turns on collect_metrics for this run (`:profile`).
  std::string RunQueryProfiled(std::string_view body_text,
                               bool force_metrics);

  /// The query log this session records to: its private `:qlog` file
  /// when open, else the host's.
  obs::QueryLog* EffectiveQueryLog();

  std::string CmdHelp() const;
  std::string CmdProgram() const;
  std::string CmdDb(const std::vector<std::string>& args);
  std::string CmdOptimize(const std::vector<std::string>& args);
  std::string CmdResidues() const;
  std::string CmdCheck();
  std::string CmdExplain(std::string_view rest);
  std::string CmdLoad(const std::vector<std::string>& args);
  std::string CmdLoadTsv(const std::vector<std::string>& args);
  std::string CmdDump(const std::vector<std::string>& args);
  std::string CmdLoadBinary(const std::vector<std::string>& args);
  std::string CmdSimd(const std::vector<std::string>& args);
  std::string CmdMaterialize(const std::vector<std::string>& args);

  std::string CmdThreads(const std::vector<std::string>& args);
  std::string CmdTrace(const std::vector<std::string>& args);
  std::string CmdPlan(const std::vector<std::string>& args);
  std::string CmdProfile(std::string_view rest);
  std::string CmdStats();
  std::string CmdQlog(const std::vector<std::string>& args);
  std::string CmdSlowlog(const std::vector<std::string>& args);
  std::string CmdBudget(const std::vector<std::string>& args);

  DatabaseHost* host_;
  Program program_;
  /// Options applied to every query evaluation (`:threads`, `:simd`,
  /// `:budget`, `:slowlog` edit it); plan_cache points at
  /// host_->plan_cache().
  EvalOptions eval_options_;
  /// Destination of the running `:trace` session ("" = no session).
  std::string trace_path_;
  bool done_ = false;

  /// Process-unique session id, stamped into every query's profile.
  uint64_t session_id_ = 0;
  /// Text of the most recent `?-` query (`:profile` with no argument
  /// re-runs it).
  std::string last_query_;
  /// Breakdown of the most recent query.
  obs::QueryProfile last_profile_;
  /// Path and rules of the most recent query that ran (`:profile`
  /// explains them).
  QueryPlan last_plan_;
  bool have_last_profile_ = false;
  /// Session-private query log opened with `:qlog FILE` (shadows the
  /// host's); null = log to host_->query_log().
  std::unique_ptr<obs::QueryLog> own_query_log_;
};

}  // namespace semopt

#endif  // SEMOPT_SERVER_SESSION_H_
