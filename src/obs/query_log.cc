#include "obs/query_log.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <charconv>
#include <cinttypes>
#include <cstdarg>
#include <cstdio>
#include <mutex>

namespace semopt {
namespace obs {

namespace {

std::atomic<uint64_t> g_next_query_id{1};
std::atomic<uint64_t> g_next_session_id{1};

void AppendEscaped(std::string* out, const std::string& s) {
  for (char c : s) {
    switch (c) {
      case '"':
        *out += "\\\"";
        break;
      case '\\':
        *out += "\\\\";
        break;
      case '\n':
        *out += "\\n";
        break;
      case '\t':
        *out += "\\t";
        break;
      case '\r':
        *out += "\\r";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char hex[8];
          std::snprintf(hex, sizeof(hex), "\\u%04x", c);
          *out += hex;
        } else {
          *out += c;
        }
    }
  }
}

// to_chars, not snprintf: a heavy query's record carries a field per
// fixpoint round, and formatting dominates serialization cost at that
// volume (E12).
void AppendKeyU64(std::string* out, const char* key, uint64_t value,
                  bool* first) {
  if (!*first) *out += ',';
  *first = false;
  *out += '"';
  *out += key;
  *out += "\":";
  char buf[20];
  char* end = std::to_chars(buf, buf + sizeof(buf), value).ptr;
  out->append(buf, static_cast<size_t>(end - buf));
}

void AppendKeyStr(std::string* out, const char* key, const std::string& value,
                  bool* first) {
  if (!*first) *out += ",";
  *first = false;
  *out += "\"";
  *out += key;
  *out += "\":\"";
  AppendEscaped(out, value);
  *out += "\"";
}

void AppendLine(std::string* out, const char* fmt, ...)
    __attribute__((format(printf, 2, 3)));

void AppendLine(std::string* out, const char* fmt, ...) {
  char buf[256];
  va_list ap;
  va_start(ap, fmt);
  std::vsnprintf(buf, sizeof(buf), fmt, ap);
  va_end(ap);
  *out += buf;
}

}  // namespace

uint64_t NextQueryId() {
  return g_next_query_id.fetch_add(1, std::memory_order_relaxed);
}

uint64_t NextSessionId() {
  return g_next_session_id.fetch_add(1, std::memory_order_relaxed);
}

std::string QueryProfile::ToJson() const {
  std::string out;
  out.reserve(512 + query.size() + error.size() + eval.rounds.size() * 96 +
              eval.per_rule.size() * 144);
  out += '{';
  bool first = true;
  AppendKeyU64(&out, "qid", ctx.query_id, &first);
  AppendKeyU64(&out, "sid", ctx.session_id, &first);
  AppendKeyStr(&out, "query", query, &first);
  AppendKeyStr(&out, "class", query_class, &first);
  AppendKeyStr(&out, "path", path, &first);
  if (!pushed.empty()) {
    out += ",\"pushed\":[";
    for (size_t i = 0; i < pushed.size(); ++i) {
      if (i > 0) out += ",";
      out += '"';
      AppendEscaped(&out, pushed[i]);
      out += '"';
    }
    out += "]";
  }
  if (!first) out += ",";
  first = false;
  out += ok ? "\"ok\":true" : "\"ok\":false";
  if (!ok) AppendKeyStr(&out, "error", error, &first);
  AppendKeyU64(&out, "answers", answers, &first);
  AppendKeyU64(&out, "total_us", total_us, &first);
  AppendKeyU64(&out, "parse_us", parse_us, &first);
  AppendKeyU64(&out, "queue_wait_us", queue_wait_us, &first);
  AppendKeyU64(&out, "pin_us", pin_us, &first);
  AppendKeyU64(&out, "eval_us", eval_us, &first);
  AppendKeyU64(&out, "fixpoint_us", eval.eval_ns / 1000, &first);
  AppendKeyU64(&out, "render_us", render_us, &first);
  AppendKeyU64(&out, "pinned_epoch", pinned_epoch, &first);
  if (ctx.budget_us != 0) {
    AppendKeyU64(&out, "budget_us", ctx.budget_us, &first);
  }
  AppendKeyU64(&out, "plan_cache_hits", eval.plan_cache_hits, &first);
  AppendKeyU64(&out, "plan_cache_misses", eval.plan_cache_misses, &first);
  AppendKeyU64(&out, "iterations", eval.iterations, &first);
  AppendKeyU64(&out, "derived", eval.derived_tuples, &first);
  AppendKeyU64(&out, "duplicates", eval.duplicate_tuples, &first);
  AppendKeyU64(&out, "bindings", eval.bindings_explored, &first);
  AppendKeyU64(&out, "batches", eval.batches, &first);
  AppendKeyU64(&out, "morsels", eval.morsels, &first);
  AppendKeyU64(&out, "peak_delta", eval.peak_delta_tuples, &first);
  out += ",\"rounds\":[";
  for (size_t i = 0; i < eval.rounds.size(); ++i) {
    const RoundTiming& r = eval.rounds[i];
    if (i > 0) out += ",";
    out += "{";
    bool rf = true;
    AppendKeyU64(&out, "stratum", r.stratum, &rf);
    AppendKeyU64(&out, "round", r.round, &rf);
    AppendKeyU64(&out, "us", r.ns / 1000, &rf);
    AppendKeyU64(&out, "delta_in", r.delta_in, &rf);
    AppendKeyU64(&out, "delta_out", r.delta_out, &rf);
    AppendKeyU64(&out, "derived", r.derived, &rf);
    out += "}";
  }
  out += "]";
  if (!eval.per_rule.empty()) {
    out += ",\"rules\":[";
    for (const auto& [label, r] : eval.per_rule) {
      if (out.back() != '[') out += ",";
      out += "{";
      bool rf = true;
      AppendKeyStr(&out, "label", label, &rf);
      AppendKeyU64(&out, "applications", r.applications, &rf);
      AppendKeyU64(&out, "derived", r.derived, &rf);
      AppendKeyU64(&out, "duplicates", r.duplicates, &rf);
      AppendKeyU64(&out, "us", r.exec_ns / 1000, &rf);
      out += "}";
    }
    out += "]";
  }
  out += "}";
  return out;
}

std::string QueryProfile::Render() const {
  std::string out;
  AppendLine(&out, "query #%" PRIu64 " (session %" PRIu64 "%s%s)",
             ctx.query_id, ctx.session_id,
             query_class.empty() ? "" : ", class ",
             query_class.c_str());
  out += ": ";
  out += query;
  out += "\n";
  if (!ok) {
    out += "  status: ERROR ";
    out += error;
    out += "\n";
  }
  if (!path.empty()) {
    out += "  path: ";
    out += path;
    for (size_t i = 0; i < pushed.size(); ++i) {
      out += i == 0 ? " (" : ", ";
      out += pushed[i];
    }
    if (!pushed.empty()) out += ")";
    out += "\n";
  }
  AppendLine(&out, "  answers: %" PRIu64 "\n", answers);
  AppendLine(&out, "  total %" PRIu64 " us = parse %" PRIu64
                   " + queue %" PRIu64 " + pin %" PRIu64 " + eval %" PRIu64
                   " + render %" PRIu64 "\n",
             total_us, parse_us, queue_wait_us, pin_us, eval_us, render_us);
  AppendLine(&out, "  fixpoint %" PRIu64 " us, pinned epoch %" PRIu64 "\n",
             eval.eval_ns / 1000, pinned_epoch);
  AppendLine(&out,
             "  plan cache: %zu hits / %zu misses; iterations %zu, derived "
             "%zu, duplicates %zu, peak delta %zu\n",
             eval.plan_cache_hits, eval.plan_cache_misses, eval.iterations,
             eval.derived_tuples, eval.duplicate_tuples,
             eval.peak_delta_tuples);
  AppendLine(&out,
             "  work: rule applications %zu, bindings %zu, comparisons %zu, "
             "residue checks %zu, batches %zu, morsels %zu, steals %zu\n",
             eval.rule_applications, eval.bindings_explored,
             eval.comparison_checks, eval.runtime_residue_checks,
             eval.batches, eval.morsels, eval.morsel_steals);
  if (!eval.rounds.empty()) {
    out += "  rounds (stratum/round: time, delta in -> out, derived):\n";
    for (const RoundTiming& r : eval.rounds) {
      AppendLine(&out,
                 "    s%zu/r%zu: %" PRIu64 " us, %zu -> %zu, derived %zu\n",
                 r.stratum, r.round, r.ns / 1000, r.delta_in, r.delta_out,
                 r.derived);
    }
  }
  // Only multi-lane rounds record a balance row.
  if (!eval.round_balance.empty()) {
    out += "  balance (round: lanes, tuples min/max/mean, morsels "
           "min/max/total):\n";
  }
  for (const RoundBalance& b : eval.round_balance) {
    AppendLine(&out,
               "    r%zu: %zu lanes, tuples %zu/%zu/%.1f, morsels "
               "%zu/%zu/%zu\n",
               b.round, b.workers, b.min_tuples, b.max_tuples,
               b.MeanTuples(), b.min_morsels, b.max_morsels,
               b.total_morsels);
  }
  return out;
}

namespace {

// Whole-buffer append of complete lines. O_APPEND makes the write land
// atomically at the end of the file (the kernel serializes same-file
// appends), so buffers of whole lines never interleave mid-record;
// retry only on EINTR — a genuinely short write (disk full) is
// abandoned rather than risking a torn resume.
bool AppendWhole(int fd, const std::string& data) {
  ssize_t n;
  do {
    n = ::write(fd, data.data(), data.size());
  } while (n < 0 && errno == EINTR);
  return n == static_cast<ssize_t>(data.size());
}

}  // namespace

QueryLog::~QueryLog() { Close(); }

Status QueryLog::OpenLog(const std::string& path) {
  std::lock_guard<std::mutex> lock(mu_);
  if (log_fd_ >= 0) {
    if (!log_buf_.empty()) AppendWhole(log_fd_, log_buf_);
    log_buf_.clear();
    ::close(log_fd_);
  }
  log_fd_ = ::open(path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
  any_open_.store(log_fd_ >= 0 || slow_fd_ >= 0, std::memory_order_release);
  if (log_fd_ < 0) {
    return Status::InvalidArgument("cannot open query log " + path);
  }
  return Status::Ok();
}

Status QueryLog::OpenSlowLog(const std::string& path) {
  std::lock_guard<std::mutex> lock(mu_);
  if (slow_fd_ >= 0) {
    if (!slow_buf_.empty()) AppendWhole(slow_fd_, slow_buf_);
    slow_buf_.clear();
    ::close(slow_fd_);
  }
  slow_fd_ = ::open(path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
  any_open_.store(log_fd_ >= 0 || slow_fd_ >= 0, std::memory_order_release);
  if (slow_fd_ < 0) {
    return Status::InvalidArgument("cannot open slow-query log " + path);
  }
  return Status::Ok();
}

void QueryLog::FlushLocked() {
  if (log_fd_ >= 0 && !log_buf_.empty()) {
    AppendWhole(log_fd_, log_buf_);
    log_buf_.clear();
  }
  if (slow_fd_ >= 0 && !slow_buf_.empty()) {
    AppendWhole(slow_fd_, slow_buf_);
    slow_buf_.clear();
  }
}

void QueryLog::Flush() {
  std::lock_guard<std::mutex> lock(mu_);
  FlushLocked();
}

void QueryLog::Close() {
  std::lock_guard<std::mutex> lock(mu_);
  FlushLocked();
  if (log_fd_ >= 0) ::close(log_fd_);
  if (slow_fd_ >= 0) ::close(slow_fd_);
  log_fd_ = -1;
  slow_fd_ = -1;
  any_open_.store(false, std::memory_order_release);
}

bool QueryLog::log_open() const {
  std::lock_guard<std::mutex> lock(mu_);
  return log_fd_ >= 0;
}

bool QueryLog::slow_log_open() const {
  std::lock_guard<std::mutex> lock(mu_);
  return slow_fd_ >= 0;
}

void QueryLog::Record(const QueryProfile& profile,
                      uint64_t slow_threshold_us) {
  const bool slow =
      slow_threshold_us != 0 && profile.total_us >= slow_threshold_us;
  // Cheap pre-check without the lock: when neither stream is open a
  // record costs one relaxed load. Serialization happens outside the
  // lock too — the mutex guards only a string append (and, once per
  // ~kFlushBytes of records, the batched write).
  if (!any_open_.load(std::memory_order_acquire)) return;
  const std::string line = profile.ToJson() + "\n";
  std::lock_guard<std::mutex> lock(mu_);
  if (log_fd_ >= 0) {
    log_buf_ += line;
    records_.fetch_add(1, std::memory_order_relaxed);
    if (log_buf_.size() >= kFlushBytes) {
      AppendWhole(log_fd_, log_buf_);
      log_buf_.clear();
    }
  }
  if (slow && slow_fd_ >= 0) {
    slow_buf_ += line;
    slow_records_.fetch_add(1, std::memory_order_relaxed);
    if (slow_buf_.size() >= kFlushBytes) {
      AppendWhole(slow_fd_, slow_buf_);
      slow_buf_.clear();
    }
  }
}

}  // namespace obs
}  // namespace semopt
