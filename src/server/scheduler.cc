#include "server/scheduler.h"

#include <chrono>
#include <string>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/string_util.h"

namespace semopt {

const char* QueryClassName(QueryClass c) {
  return c == QueryClass::kHeavy ? "heavy" : "light";
}

namespace {
std::string MetricName(QueryClass cls, const char* suffix) {
  return StrCat("server.sched.", QueryClassName(cls), ".", suffix);
}
}  // namespace

SessionScheduler::SessionScheduler(Options options) {
  heavy_.limit = options.max_heavy == 0 ? 1 : options.max_heavy;
  light_.limit = options.max_light == 0 ? 1 : options.max_light;
}

SessionScheduler::Ticket& SessionScheduler::Ticket::operator=(
    Ticket&& other) noexcept {
  if (this == &other) return *this;
  Release();
  scheduler_ = other.scheduler_;
  cls_ = other.cls_;
  other.scheduler_ = nullptr;
  return *this;
}

void SessionScheduler::Ticket::Release() {
  if (scheduler_ == nullptr) return;
  scheduler_->ReleaseSlot(cls_);
  scheduler_ = nullptr;
}

SessionScheduler::Ticket SessionScheduler::Admit(QueryClass cls,
                                                 uint64_t* waited_us) {
  obs::TraceSpan span("sched.wait");
  span.AddArg("heavy", cls == QueryClass::kHeavy ? 1 : 0);
  const auto start = std::chrono::steady_clock::now();
  {
    std::unique_lock<std::mutex> lock(mu_);
    ClassState& state = StateFor(cls);
    // Admission is FIFO per class: a caller that just released a slot
    // and asks again queues behind everyone already waiting, instead of
    // racing the waiters it woke.
    const uint64_t ticket = state.next_ticket++;
    ++state.queued;
    PublishGauges(cls);
    cv_.wait(lock, [&] {
      return ticket == state.next_admit && state.running < state.limit;
    });
    ++state.next_admit;
    --state.queued;
    ++state.running;
    PublishGauges(cls);
  }
  // The next ticket in line may fit under the limit too.
  cv_.notify_all();
  const auto waited = std::chrono::duration_cast<std::chrono::microseconds>(
      std::chrono::steady_clock::now() - start);
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  registry.GetHistogram(MetricName(cls, "wait_us"))
      .Observe(static_cast<uint64_t>(waited.count()));
  registry.GetCounter(MetricName(cls, "admitted")).Add(1);
  if (waited_us != nullptr) {
    *waited_us = static_cast<uint64_t>(waited.count());
  }
  return Ticket(this, cls);
}

void SessionScheduler::ReleaseSlot(QueryClass cls) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    ClassState& state = StateFor(cls);
    --state.running;
    PublishGauges(cls);
  }
  // Both classes share one cv: wake everyone, each waiter re-checks its
  // own class predicate. Admissions are rare enough (per query, not per
  // tuple) that the thundering herd is irrelevant.
  cv_.notify_all();
}

void SessionScheduler::PublishGauges(QueryClass cls) const {
  const ClassState& state = StateFor(cls);
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  registry.GetGauge(MetricName(cls, "queue_depth"))
      .Set(static_cast<int64_t>(state.queued));
  registry.GetGauge(MetricName(cls, "running"))
      .Set(static_cast<int64_t>(state.running));
}

size_t SessionScheduler::running(QueryClass cls) const {
  std::lock_guard<std::mutex> lock(mu_);
  return StateFor(cls).running;
}

size_t SessionScheduler::queued(QueryClass cls) const {
  std::lock_guard<std::mutex> lock(mu_);
  return StateFor(cls).queued;
}

}  // namespace semopt
