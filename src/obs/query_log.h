#ifndef SEMOPT_OBS_QUERY_LOG_H_
#define SEMOPT_OBS_QUERY_LOG_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "obs/eval_stats.h"
#include "util/result.h"

namespace semopt {
namespace obs {

/// Identity of one query execution, threaded from the session command
/// processor through admission, snapshot pinning, planning and the
/// fixpoint engine: a process-monotonic query id (also tagged onto
/// every trace span via QueryIdScope, so Chrome traces of an N-session
/// run attribute by query), the owning session's id, and the query's
/// wall-clock budget (0 = unlimited; enforced per fixpoint round via
/// EvalOptions::budget_us).
struct QueryContext {
  uint64_t query_id = 0;
  uint64_t session_id = 0;
  uint64_t budget_us = 0;
};

/// Next process-monotonic query id (starts at 1).
uint64_t NextQueryId();

/// Next process-monotonic session id (starts at 1).
uint64_t NextSessionId();

/// The record of one query: where its time went (queue, snapshot pin,
/// evaluation, render) and, in `eval`, what the engine did (plan cache
/// traffic, tuples derived, peak delta, one entry per fixpoint round,
/// per-rule and per-lane breakdowns when collected). Accumulated by
/// SessionCommandProcessor for every `?-` query; serialized as one
/// JSON line into the query log and rendered by `:profile`.
struct QueryProfile {
  QueryContext ctx;
  /// The query body text as executed.
  std::string query;
  /// Admission class ("heavy"/"light"; "" when the host runs no
  /// scheduler).
  std::string query_class;
  /// Query path ("edb", "pushed", "magic", "sliced"; "" when the query
  /// failed before one was chosen). The admission class follows it.
  std::string path;
  /// Pushed path: the selections conjoined inside the recursion, e.g.
  /// "anc[1] > 105".
  std::vector<std::string> pushed;
  bool ok = true;
  /// Status text when !ok (parse or evaluation failure).
  std::string error;
  uint64_t answers = 0;

  // Phase breakdown, microseconds. total covers parse through render;
  // eval is the whole query-path call (planning included). The
  // engine-reported fixpoint time inside it is eval.eval_ns.
  uint64_t total_us = 0;
  uint64_t parse_us = 0;
  uint64_t queue_wait_us = 0;
  uint64_t pin_us = 0;
  uint64_t eval_us = 0;
  uint64_t render_us = 0;

  /// The database generation the query read (0 = unmanaged local db).
  uint64_t pinned_epoch = 0;

  /// The engine's counters for this query, moved in by the session.
  EvalStats eval;

  /// One-line JSON record (no trailing newline); the query-log line
  /// format. Keys are stable — tools and CI validators parse them.
  std::string ToJson() const;

  /// Multi-line human-readable rendering of the whole record: phases,
  /// path, every engine counter, the rounds, and the per-lane balance
  /// when more than one lane ran (the `:profile` header).
  std::string Render() const;
};

/// Thread-safe structured query log: one JSON line per Record call.
/// Records accumulate in a small in-memory buffer and reach disk as a
/// single write(2) of whole lines once the buffer fills (or on
/// Flush/Close/reopen) — an O_APPEND append the kernel serializes, so
/// the file is valid JSONL under any schedule of sessions or even
/// multiple processes. Batching matters: a write per query means a
/// scheduling yield per query, which on a saturated host costs far
/// more than the record itself (E12 measured ~10% of 64-session
/// throughput); a write per ~kFlushBytes is noise. Optionally mirrors
/// slow queries — total_us >= threshold — into a second file,
/// capturing the full profile of exactly the queries worth
/// investigating without grepping the firehose.
class QueryLog {
 public:
  QueryLog() = default;
  ~QueryLog();
  QueryLog(const QueryLog&) = delete;
  QueryLog& operator=(const QueryLog&) = delete;

  /// Opens (appends to) the always-on query log.
  Status OpenLog(const std::string& path);
  /// Opens (appends to) the slow-query log.
  Status OpenSlowLog(const std::string& path);
  /// Drains buffered records to disk. Readers that tail the files
  /// mid-run (tests, a live investigation) call this; Close and the
  /// destructor drain implicitly.
  void Flush();
  void Close();

  bool log_open() const;
  bool slow_log_open() const;

  /// Default slow threshold in microseconds (0 = never slow); sessions
  /// may override per query via EvalOptions::slow_query_us.
  void set_slow_threshold_us(uint64_t us) {
    slow_threshold_us_.store(us, std::memory_order_relaxed);
  }
  uint64_t slow_threshold_us() const {
    return slow_threshold_us_.load(std::memory_order_relaxed);
  }

  /// Appends `profile` as one JSON line to the query log (when open)
  /// and, when `slow_threshold_us` (the caller's effective threshold —
  /// pass slow_threshold_us() for the log default) is nonzero and
  /// profile.total_us reaches it, to the slow log. No-op when neither
  /// stream is open.
  void Record(const QueryProfile& profile, uint64_t slow_threshold_us);
  void Record(const QueryProfile& profile) {
    Record(profile, slow_threshold_us());
  }

  uint64_t records() const {
    return records_.load(std::memory_order_relaxed);
  }
  uint64_t slow_records() const {
    return slow_records_.load(std::memory_order_relaxed);
  }

 private:
  // Flush threshold for the record buffers (~30 records a write).
  static constexpr size_t kFlushBytes = 16 * 1024;

  void FlushLocked();

  // Guards the descriptors and buffers. Held only for a string append
  // on most records — the batched write is once per kFlushBytes.
  mutable std::mutex mu_;
  int log_fd_ = -1;
  int slow_fd_ = -1;
  std::string log_buf_;
  std::string slow_buf_;
  // True while either stream is open; lets Record() skip serialization
  // without taking mu_ when logging is disabled.
  std::atomic<bool> any_open_{false};
  std::atomic<uint64_t> slow_threshold_us_{0};
  std::atomic<uint64_t> records_{0};
  std::atomic<uint64_t> slow_records_{0};
};

}  // namespace obs
}  // namespace semopt

#endif  // SEMOPT_OBS_QUERY_LOG_H_
