#include "obs/trace.h"

#ifndef SEMOPT_DISABLE_TRACING

#include <cstdio>
#include <fstream>
#include <memory>
#include <mutex>
#include <vector>

namespace semopt {
namespace obs {

namespace internal {

std::atomic<bool> g_tracing_enabled{false};

thread_local uint64_t tl_query_id = 0;

}  // namespace internal

namespace {

using internal::SpanArg;

/// One buffered event. `name` is copied (short rule labels stay in the
/// SSO buffer, so recording a span rarely allocates).
struct TraceEvent {
  std::string name;
  char phase = 'X';  // 'X' complete, 'i' instant
  uint64_t ts_ns = 0;
  uint64_t dur_ns = 0;
  SpanArg args[internal::kMaxSpanArgs];
  size_t num_args = 0;
};

/// Hard cap per thread so a forgotten session cannot grow unboundedly
/// (~64 B/event -> ~256 MiB worst case across 16 threads at the cap).
constexpr size_t kMaxEventsPerThread = 1 << 22;

struct ThreadBuffer {
  std::mutex mu;
  uint32_t tid = 0;
  std::vector<TraceEvent> events;
  size_t dropped = 0;
};

struct Registry {
  std::mutex mu;
  /// Owns every thread's buffer; entries outlive their threads so a
  /// worker that exits before StopTracing still contributes events.
  std::vector<std::unique_ptr<ThreadBuffer>> buffers;
  uint32_t next_tid = 1;
};

Registry& GetRegistry() {
  static Registry* registry = new Registry();  // leaked: outlives threads
  return *registry;
}

thread_local ThreadBuffer* tl_buffer = nullptr;

ThreadBuffer& GetThreadBuffer() {
  if (tl_buffer == nullptr) {
    auto buffer = std::make_unique<ThreadBuffer>();
    Registry& registry = GetRegistry();
    std::lock_guard<std::mutex> lock(registry.mu);
    buffer->tid = registry.next_tid++;
    tl_buffer = buffer.get();
    registry.buffers.push_back(std::move(buffer));
  }
  return *tl_buffer;
}

void Append(TraceEvent event) {
  ThreadBuffer& buffer = GetThreadBuffer();
  std::lock_guard<std::mutex> lock(buffer.mu);
  if (buffer.events.size() >= kMaxEventsPerThread) {
    ++buffer.dropped;
    return;
  }
  buffer.events.push_back(std::move(event));
}

void AppendJsonEscaped(std::string* out, std::string_view s) {
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

/// Serializes `(tid, event)` pairs as a Chrome trace_event JSON
/// document. Timestamps are microseconds with ns precision.
std::string ToJson(
    const std::vector<std::pair<uint32_t, TraceEvent>>& events) {
  std::string out = "{\"traceEvents\":[";
  char buf[64];
  bool first = true;
  for (const auto& [tid, e] : events) {
    if (!first) out += ",";
    first = false;
    out += "\n{\"name\":\"";
    AppendJsonEscaped(&out, e.name);
    out += "\",\"cat\":\"semopt\",\"ph\":\"";
    out += e.phase;
    out += "\",\"pid\":1,\"tid\":";
    std::snprintf(buf, sizeof(buf), "%u", tid);
    out += buf;
    std::snprintf(buf, sizeof(buf), ",\"ts\":%.3f",
                  static_cast<double>(e.ts_ns) / 1000.0);
    out += buf;
    if (e.phase == 'X') {
      std::snprintf(buf, sizeof(buf), ",\"dur\":%.3f",
                    static_cast<double>(e.dur_ns) / 1000.0);
      out += buf;
    }
    if (e.phase == 'i') out += ",\"s\":\"t\"";
    if (e.num_args > 0) {
      out += ",\"args\":{";
      for (size_t i = 0; i < e.num_args; ++i) {
        if (i > 0) out += ",";
        out += "\"";
        AppendJsonEscaped(&out, e.args[i].key);
        out += "\":";
        std::snprintf(buf, sizeof(buf), "%lld",
                      static_cast<long long>(e.args[i].value));
        out += buf;
      }
      out += "}";
    }
    out += "}";
  }
  out += "\n],\"displayTimeUnit\":\"ms\"}\n";
  return out;
}

/// Disables recording and drains every thread buffer. In-flight span
/// destructors racing the stop may still append afterwards; their
/// events are cleared by the next StartTracing.
std::vector<std::pair<uint32_t, TraceEvent>> StopAndCollect() {
  internal::g_tracing_enabled.store(false, std::memory_order_relaxed);
  std::vector<std::pair<uint32_t, TraceEvent>> collected;
  Registry& registry = GetRegistry();
  std::lock_guard<std::mutex> lock(registry.mu);
  for (const std::unique_ptr<ThreadBuffer>& buffer : registry.buffers) {
    std::lock_guard<std::mutex> buffer_lock(buffer->mu);
    for (TraceEvent& e : buffer->events) {
      collected.emplace_back(buffer->tid, std::move(e));
    }
    buffer->events.clear();
  }
  return collected;
}

}  // namespace

namespace internal {

void RecordComplete(std::string_view name, uint64_t start_ns, uint64_t end_ns,
                    const SpanArg* args, size_t num_args) {
  TraceEvent event;
  event.name.assign(name.data(), name.size());
  event.phase = 'X';
  event.ts_ns = start_ns;
  event.dur_ns = end_ns >= start_ns ? end_ns - start_ns : 0;
  event.num_args = num_args < kMaxSpanArgs ? num_args : kMaxSpanArgs;
  for (size_t i = 0; i < event.num_args; ++i) event.args[i] = args[i];
  // Query attribution (QueryIdScope): tagged centrally so every
  // existing span site inherits it without touching the site.
  if (tl_query_id != 0 && event.num_args < kMaxSpanArgs) {
    event.args[event.num_args++] =
        SpanArg{"qid", static_cast<int64_t>(tl_query_id)};
  }
  Append(std::move(event));
}

void RecordInstant(std::string_view name) {
  TraceEvent event;
  event.name.assign(name.data(), name.size());
  event.phase = 'i';
  event.ts_ns = MonotonicNowNs();
  if (tl_query_id != 0) {
    event.args[event.num_args++] =
        SpanArg{"qid", static_cast<int64_t>(tl_query_id)};
  }
  Append(std::move(event));
}

}  // namespace internal

void StartTracing() {
  Registry& registry = GetRegistry();
  std::lock_guard<std::mutex> lock(registry.mu);
  for (const std::unique_ptr<ThreadBuffer>& buffer : registry.buffers) {
    std::lock_guard<std::mutex> buffer_lock(buffer->mu);
    buffer->events.clear();
    buffer->dropped = 0;
  }
  internal::g_tracing_enabled.store(true, std::memory_order_relaxed);
}

Result<size_t> StopTracing(const std::string& path) {
  std::vector<std::pair<uint32_t, TraceEvent>> events = StopAndCollect();
  std::ofstream out(path);
  if (!out) {
    return Status::InvalidArgument("cannot open trace file " + path);
  }
  out << ToJson(events);
  out.close();
  if (!out) return Status::Internal("failed writing trace file " + path);
  return events.size();
}

std::string StopTracingToJson() { return ToJson(StopAndCollect()); }

size_t DroppedEvents() {
  size_t total = 0;
  Registry& registry = GetRegistry();
  std::lock_guard<std::mutex> lock(registry.mu);
  for (const std::unique_ptr<ThreadBuffer>& buffer : registry.buffers) {
    std::lock_guard<std::mutex> buffer_lock(buffer->mu);
    total += buffer->dropped;
  }
  return total;
}

}  // namespace obs
}  // namespace semopt

#endif  // SEMOPT_DISABLE_TRACING
