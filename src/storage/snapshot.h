#ifndef SEMOPT_STORAGE_SNAPSHOT_H_
#define SEMOPT_STORAGE_SNAPSHOT_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <vector>

#include "storage/database.h"
#include "util/result.h"

namespace semopt {

class SnapshotStore;

/// A pinned, immutable view of one database generation — the unit of
/// snapshot read isolation. While a DatabaseSnapshot is alive, the
/// generation it addresses is guaranteed to stay materialized and
/// unchanging: writers publish *new* generations, never mutate a
/// published one, and the store defers reclamation of superseded
/// generations until every snapshot pinning them is gone.
///
/// Obtain one from SnapshotStore::Pin() (or Unmanaged() to wrap a
/// caller-owned database behind the same interface — the local shell
/// path). Movable, not copyable; unpins on destruction.
class DatabaseSnapshot {
 public:
  DatabaseSnapshot() = default;
  ~DatabaseSnapshot() { Release(); }

  DatabaseSnapshot(DatabaseSnapshot&& other) noexcept
      : store_(other.store_), epoch_(other.epoch_), db_(std::move(other.db_)),
        unmanaged_(other.unmanaged_) {
    other.store_ = nullptr;
    other.unmanaged_ = nullptr;
  }
  DatabaseSnapshot& operator=(DatabaseSnapshot&& other) noexcept {
    if (this == &other) return *this;
    Release();
    store_ = other.store_;
    epoch_ = other.epoch_;
    db_ = std::move(other.db_);
    unmanaged_ = other.unmanaged_;
    other.store_ = nullptr;
    other.unmanaged_ = nullptr;
    return *this;
  }
  DatabaseSnapshot(const DatabaseSnapshot&) = delete;
  DatabaseSnapshot& operator=(const DatabaseSnapshot&) = delete;

  /// Wraps a caller-owned database (no pinning, no reclamation): lets
  /// single-owner embedders (the interactive shell) run through the
  /// same read path as server sessions. The database must outlive the
  /// snapshot and not be mutated while it is read through this view.
  static DatabaseSnapshot Unmanaged(const Database* db) {
    DatabaseSnapshot snap;
    snap.unmanaged_ = db;
    return snap;
  }

  bool valid() const { return unmanaged_ != nullptr || db_ != nullptr; }

  /// The frozen database this snapshot pins. Immutable for the
  /// snapshot's lifetime.
  const Database& db() const { return unmanaged_ != nullptr ? *unmanaged_ : *db_; }

  /// The generation number this snapshot reads (0 for Unmanaged).
  uint64_t epoch() const { return epoch_; }

 private:
  friend class SnapshotStore;
  void Release();

  SnapshotStore* store_ = nullptr;
  uint64_t epoch_ = 0;
  std::shared_ptr<const Database> db_;
  const Database* unmanaged_ = nullptr;
};

/// Multi-version concurrency control for one shared Database: an epoch
/// counter, an atomically-published head generation, and deferred
/// reclamation of superseded generations.
///
/// Protocol:
///  - Readers call Pin(): a short critical section records their epoch
///    and hands back the head generation. Everything after that — the
///    whole query evaluation — runs lock-free against the frozen
///    generation. Pins from different threads never block each other
///    on more than the registration mutex.
///  - A writer calls Mutate(fn): writers serialize on a dedicated
///    writer mutex (never blocking readers), clone the head generation,
///    apply `fn` to the private clone, then publish it as the new head
///    under the state mutex, bumping the epoch. Readers pinned to older
///    generations keep reading them untouched; new Pins see the new
///    head. Publication is a pointer swap — no reader can ever observe
///    a half-applied batch.
///  - A writer whose change is a small per-relation delta calls
///    ApplyDelta(fn) instead: `fn` returns the net (erased, inserted)
///    rows per relation, and the store writes exactly those rows into
///    the next generation. Each changed relation needs a private copy
///    to write into; rather than deep-copying the live one every time,
///    the store keeps the copy each delta write replaced together with
///    that write's rows ("kept copy + saved rows == live copy"). The
///    next delta write touching the relation replays the saved rows
///    onto the kept copy, builds any index readers added to the live
///    copy meanwhile, applies its own rows and publishes it — O(|Δ|),
///    not O(|relation|). A kept copy is reused only once no generation
///    references it any more (a reader still pinning the generation
///    before the previous write forces today's deep copy, counted in
///    storage.snapshot.relations_cloned), and it is never reachable
///    from a pinnable generation, so isolation is unchanged. A bulk
///    Mutate that touches a relation drops its kept copy.
///  - Reclamation is deferred: a superseded generation is parked on a
///    retired list and destroyed only once no live pin references an
///    epoch at or below its retirement point (checked on every unpin
///    and publish). live_generations() exposes the backlog; metrics
///    land in the global registry under storage.snapshot.*.
class SnapshotStore {
 public:
  /// Starts at epoch 1 with `initial` as the first generation.
  explicit SnapshotStore(Database initial);
  ~SnapshotStore();

  SnapshotStore(const SnapshotStore&) = delete;
  SnapshotStore& operator=(const SnapshotStore&) = delete;

  /// Pins the current head generation for reading.
  DatabaseSnapshot Pin();

  /// Applies `fn` to a private clone of the head generation and
  /// publishes the result as the next generation. Returns the new
  /// epoch, or `fn`'s error (in which case nothing is published).
  /// Writers serialize; readers are never blocked.
  Result<uint64_t> Mutate(const std::function<Status(Database*)>& fn);

  /// Computes a delta write's net change against the head generation
  /// `head`, under the writer lock (so no other write interleaves).
  using DeltaFn = std::function<Result<DatabaseDelta>(const Database& head)>;

  /// Publishes `head + fn(head)` as the next generation, writing only
  /// the delta's rows into each changed relation (reusing kept copies,
  /// see the class comment). Returns the new epoch, or `fn`'s error (in
  /// which case nothing is published). Writers serialize with Mutate;
  /// readers are never blocked.
  Result<uint64_t> ApplyDelta(const DeltaFn& fn);

  /// The current head epoch (the generation new Pins will read).
  uint64_t epoch() const;

  /// Generations currently materialized: the head plus any retired
  /// generations still pinned by readers.
  size_t live_generations() const;

  /// Total retired generations whose storage has been reclaimed.
  uint64_t reclaimed() const;

 private:
  struct Retired {
    uint64_t retired_at_epoch = 0;  // epoch that superseded it
    std::shared_ptr<const Database> db;
  };

  /// The copy of a relation that the last delta write touching it
  /// replaced, plus that write's rows: replaying `rows` onto `copy`
  /// yields the relation `live` points at (the one later generations
  /// share until the next write to it).
  struct Kept {
    std::shared_ptr<Relation> copy;
    const Relation* live = nullptr;
    RelationDelta rows;
  };

  friend class DatabaseSnapshot;
  /// Retires the head in favour of `next`; returns the new epoch.
  uint64_t Publish(std::shared_ptr<const Database> next);
  void Unpin(uint64_t epoch);
  /// Takes retired generations no pinned reader can still reach off
  /// the retired list and returns them. Caller holds mu_ and releases
  /// them after unlocking it: freeing a generation can free whole
  /// relations, which must not stall concurrent Pin/Unpin calls.
  std::vector<std::shared_ptr<const Database>> ReclaimLocked();

  mutable std::mutex mu_;          // guards head_, epoch_, pins_, retired_
  std::mutex writer_mu_;           // serializes Mutate/ApplyDelta bodies
  std::shared_ptr<const Database> head_;
  uint64_t epoch_ = 1;
  /// Live pin count per epoch. A retired generation (superseded at
  /// epoch E) is reclaimable once no pin with epoch < E remains.
  std::map<uint64_t, size_t> pins_;
  std::vector<Retired> retired_;
  uint64_t reclaimed_ = 0;
  /// Kept copies by predicate. Guarded by writer_mu_; never shared with
  /// a generation (only ApplyDelta moves one back into the head).
  std::map<PredicateId, Kept> kept_;
};

}  // namespace semopt

#endif  // SEMOPT_STORAGE_SNAPSHOT_H_
