#ifndef SEMOPT_SERVER_SCHEDULER_H_
#define SEMOPT_SERVER_SCHEDULER_H_

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <mutex>

namespace semopt {

/// Admission class of one query. Point lookups over base relations
/// finish in microseconds and should never sit behind a recursive
/// fixpoint; recursive (IDB-touching) queries can monopolize cores for
/// seconds. The scheduler runs the two classes against separate
/// concurrency limits so a burst of heavy queries cannot starve light
/// ones (and vice versa: an unbounded flood of light queries still
/// leaves the heavy lanes intact).
enum class QueryClass {
  kLight,  // touches only EDB predicates: index probe, no fixpoint
  kHeavy,  // touches at least one IDB predicate: runs a fixpoint
};

const char* QueryClassName(QueryClass c);

/// Two-class admission control for a query server: at most
/// `max_heavy` heavy and `max_light` light queries run at once;
/// excess callers block in Admit() and are admitted in arrival order
/// (per class) as running queries finish. This is the
/// aggregate thread-budget guard — each heavy query may spin up its
/// own evaluation pool of `threads_per_query` workers, so the
/// worst-case thread count is bounded by
/// `max_heavy * threads_per_query + max_light` regardless of how many
/// sessions are connected.
///
/// Observability (global registry):
///   server.sched.{heavy,light}.queue_depth  gauge, callers waiting
///   server.sched.{heavy,light}.running      gauge, admitted & running
///   server.sched.{heavy,light}.wait_us      histogram, time in queue
///   server.sched.{heavy,light}.admitted     counter
class SessionScheduler {
 public:
  struct Options {
    /// Concurrent heavy (recursive) queries. Default 2: two fixpoints
    /// at `threads_per_query` workers each saturate a small host.
    size_t max_heavy = 2;
    /// Concurrent light (EDB lookup) queries.
    size_t max_light = 8;
  };

  SessionScheduler() : SessionScheduler(Options{2, 8}) {}
  explicit SessionScheduler(Options options);

  /// RAII admission slot: holding one means the query is running;
  /// destruction releases the slot and wakes a waiter of the same
  /// class. Movable, not copyable.
  class Ticket {
   public:
    Ticket() = default;
    Ticket(Ticket&& other) noexcept
        : scheduler_(other.scheduler_), cls_(other.cls_) {
      other.scheduler_ = nullptr;
    }
    Ticket& operator=(Ticket&& other) noexcept;
    Ticket(const Ticket&) = delete;
    Ticket& operator=(const Ticket&) = delete;
    ~Ticket() { Release(); }

    void Release();

   private:
    friend class SessionScheduler;
    Ticket(SessionScheduler* scheduler, QueryClass cls)
        : scheduler_(scheduler), cls_(cls) {}

    SessionScheduler* scheduler_ = nullptr;
    QueryClass cls_ = QueryClass::kLight;
  };

  /// Blocks until a slot of `cls` is free, then claims it. Records the
  /// wait in server.sched.<class>.wait_us and a "sched.wait" span; when
  /// `waited_us` is non-null it also receives the measured queue wait
  /// (the session processor folds it into the query's profile).
  Ticket Admit(QueryClass cls, uint64_t* waited_us = nullptr);

  /// Point-in-time counts (tests / introspection).
  size_t running(QueryClass cls) const;
  size_t queued(QueryClass cls) const;

 private:
  struct ClassState {
    size_t limit = 0;
    size_t running = 0;
    size_t queued = 0;
    /// FIFO admission: callers draw `next_ticket` on arrival and are
    /// admitted when their ticket equals `next_admit`.
    uint64_t next_ticket = 0;
    uint64_t next_admit = 0;
  };

  void ReleaseSlot(QueryClass cls);
  ClassState& StateFor(QueryClass cls) {
    return cls == QueryClass::kHeavy ? heavy_ : light_;
  }
  const ClassState& StateFor(QueryClass cls) const {
    return cls == QueryClass::kHeavy ? heavy_ : light_;
  }
  void PublishGauges(QueryClass cls) const;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  ClassState heavy_;
  ClassState light_;
};

}  // namespace semopt

#endif  // SEMOPT_SERVER_SCHEDULER_H_
