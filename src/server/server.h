#ifndef SEMOPT_SERVER_SERVER_H_
#define SEMOPT_SERVER_SERVER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "eval/shared_plan_cache.h"
#include "obs/query_log.h"
#include "server/scheduler.h"
#include "server/session.h"
#include "storage/snapshot.h"
#include "util/result.h"

namespace semopt {

/// A multi-session query server over one shared materialized Database.
///
/// Listens on a loopback TCP socket speaking the newline-delimited
/// protocol of server/protocol.h; every accepted connection becomes a
/// session — its own thread, its own SessionCommandProcessor (private
/// rule program, private eval options) — while three things are shared
/// by all sessions:
///   - the database, behind a SnapshotStore: every read pins a frozen
///     generation, every write publishes the next one atomically;
///   - a SharedPlanCache, so a plan prepared by one session is a hit
///     for every other session at the same cardinality regime;
///   - a SessionScheduler bounding concurrent heavy (recursive) and
///     light (lookup) queries, which caps worst-case thread usage at
///     max_heavy * threads_per_query + max_light regardless of the
///     number of connected sessions.
///
/// Lifecycle: construct with the initial database, Start() (binds,
/// reports the port, spawns the accept loop), Stop() (stops accepting,
/// shuts down live connections, joins every session thread). The
/// destructor calls Stop(). Under glibc, the first Start() also pins
/// the process's malloc mmap threshold (4 MiB), so relation-sized
/// buffers are returned to the OS when the generation holding them is
/// reclaimed instead of fragmenting the allocator's heaps.
class QueryServer {
 public:
  struct Options {
    /// TCP port to bind on 127.0.0.1; 0 = ephemeral (read port()).
    uint16_t port = 0;
    /// Worker threads each query evaluation may use (the per-session
    /// default for EvalOptions::num_threads; sessions can lower/raise
    /// theirs with :threads, still subject to admission control).
    size_t threads_per_query = 1;
    SessionScheduler::Options sched;
    /// Shared plan cache shape (see SharedPlanCache).
    size_t cache_shards = SharedPlanCache::kDefaultShards;
    size_t cache_entries_per_shard = PlanCache::kDefaultMaxEntries;
    /// Structured query log: one JSON line per query across every
    /// session. "" = off.
    std::string query_log_path;
    /// Slow-query mirror: full profiles of queries whose end-to-end
    /// time reaches slow_query_us. "" = off.
    std::string slow_log_path;
    /// Default slow-query threshold in microseconds (sessions may
    /// override per session with :slowlog). 0 = nothing is slow.
    uint64_t slow_query_us = 0;
  };

  explicit QueryServer(Database initial);
  QueryServer(Database initial, Options options);
  ~QueryServer();

  QueryServer(const QueryServer&) = delete;
  QueryServer& operator=(const QueryServer&) = delete;

  /// Binds, listens, and spawns the accept loop. Idempotent failure:
  /// on error nothing is running and Start may be retried.
  Status Start();

  /// Stops accepting, disconnects every live session, joins all
  /// threads. Safe to call twice (second call is a no-op).
  void Stop();

  /// The bound port (valid after Start; equals Options::port unless
  /// that was 0).
  uint16_t port() const { return port_; }

  /// Shared-state handles (also used by in-process tests, which talk
  /// to the same objects the socket sessions do).
  SnapshotStore& store() { return store_; }
  SharedPlanCache& plan_cache() { return plan_cache_; }
  SessionScheduler& scheduler() { return scheduler_; }

  /// Total sessions accepted so far.
  uint64_t sessions_served() const {
    return sessions_served_.load(std::memory_order_relaxed);
  }

  /// The server-wide query log (open only when Options named a path;
  /// recording to a closed log is a no-op).
  obs::QueryLog& query_log() { return query_log_; }

 private:
  /// The DatabaseHost all sessions share: routes reads to
  /// SnapshotStore::Pin, writes to SnapshotStore::Mutate/ApplyDelta.
  class Host : public DatabaseHost {
   public:
    explicit Host(QueryServer* server) : server_(server) {}
    DatabaseSnapshot Snapshot() override { return server_->store_.Pin(); }
    Result<uint64_t> ApplyWrite(
        const std::function<Status(Database*)>& fn) override {
      return server_->store_.Mutate(fn);
    }
    Result<uint64_t> ApplyDelta(const SnapshotStore::DeltaFn& fn) override {
      return server_->store_.ApplyDelta(fn);
    }
    PlanCacheInterface* plan_cache() override {
      return &server_->plan_cache_;
    }
    SessionScheduler* scheduler() override { return &server_->scheduler_; }
    obs::QueryLog* query_log() override { return &server_->query_log_; }

   private:
    QueryServer* server_;
  };

  void AcceptLoop();
  void ServeConnection(int fd);

  Options options_;
  SnapshotStore store_;
  SharedPlanCache plan_cache_;
  SessionScheduler scheduler_;
  obs::QueryLog query_log_;
  Host host_;

  std::atomic<bool> running_{false};
  std::atomic<uint64_t> sessions_served_{0};
  // Atomic: Stop() retires the fd while AcceptLoop is blocked in
  // accept() on it.
  std::atomic<int> listen_fd_{-1};
  uint16_t port_ = 0;
  std::thread accept_thread_;

  std::mutex sessions_mu_;  // guards session_threads_, session_fds_
  std::vector<std::thread> session_threads_;
  std::vector<int> session_fds_;
};

}  // namespace semopt

#endif  // SEMOPT_SERVER_SERVER_H_
