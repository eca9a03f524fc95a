#ifndef SEMOPT_STORAGE_RELATION_H_
#define SEMOPT_STORAGE_RELATION_H_

#include <atomic>
#include <cassert>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "ast/atom.h"
#include "storage/tuple.h"
#include "storage/tuple_store.h"

namespace semopt {

class ColumnView;

/// Cheap per-relation statistics for cost-based planning: the row count
/// the figures were computed at and a per-column distinct-count
/// estimate. Estimates come from a linear-counting bitmap sketch (one
/// hash per value, fixed memory per column), so building them is one
/// streaming pass over the rows — the same order of work as a columnar
/// snapshot — and they are exact for small relations and within a few
/// percent until the distinct count approaches the sketch capacity.
struct RelationStats {
  size_t rows = 0;
  /// distinct[c] in [1, rows] for a non-empty relation (empty => 0).
  std::vector<size_t> distinct;
};

/// A set-semantics relation: a deduplicated collection of fixed-arity
/// tuples in insertion order, with on-demand hash indexes over column
/// subsets for join probing.
///
/// Rows live flat in an arena-backed TupleStore and are addressed by
/// dense RowId (0..size-1); inserts never move rows, and Erase keeps
/// ids dense by swap-removal (only the relation's last row changes id
/// per victim). Dedup and every index store only RowIds — the arena
/// holds the single copy of each tuple, and index keys are
/// hashed/compared by projecting stored rows in place (no materialized
/// key tuples). Indexes are maintained incrementally on insert and
/// patched in place on erase.
///
/// Concurrency contract: mutation (Insert/Commit/Clear/Reserve) is
/// exclusive — no other access may overlap it. On a *non-mutating*
/// relation, however, any mix of Probe/ProbeBatch/Contains/HasIndex and
/// EnsureIndex calls from different threads is safe: indexes live in an
/// atomic append-only list (readers traverse lock-free; builders
/// serialize on a per-relation mutex and publish fully-built indexes
/// with a release store). This is what lets N sessions run read-only
/// evaluations over one shared, already-materialized database — each
/// session lazily builds whatever probe indexes its plans need without
/// racing the others.
class Relation {
 public:
  Relation(PredicateId pred)  // NOLINT(runtime/explicit)
      : pred_(pred),
        store_(pred.arity),
        index_mu_(std::make_unique<std::mutex>()) {}
  ~Relation();

  Relation(const Relation& other);
  Relation& operator=(const Relation& other);
  Relation(Relation&& other) noexcept;
  Relation& operator=(Relation&& other) noexcept;

  PredicateId pred() const { return pred_; }
  uint32_t arity() const { return pred_.arity; }
  size_t size() const { return store_.size(); }
  bool empty() const { return store_.empty(); }

  /// Inserts a row (arity must match). Returns true if it was new.
  /// The Tuple overload keeps brace-literal call sites working; both
  /// funnel into the same flat insert.
  bool Insert(RowRef row);
  bool Insert(const Tuple& tuple) { return Insert(RowRef(tuple)); }

  /// Insert with the row's HashValues hash precomputed (see
  /// TupleStore::InsertIfAbsent); the batched commit path hashes each
  /// derived row once and reuses it across the full and delta inserts.
  bool Insert(RowRef row, size_t hash);

  /// Prefetch hint for the dedup slot a row with `hash` will probe.
  void PrefetchInsert(size_t hash) const { store_.PrefetchSlot(hash); }

  /// Outcome of a bulk Commit: how many rows were new vs. already
  /// present (set semantics dedup).
  struct CommitCounts {
    size_t inserted = 0;
    size_t duplicates = 0;
  };

  /// Bulk-inserts a derivation block: each row is hashed once (in short
  /// runs that prefetch the dedup slot it will probe) and the hash is
  /// reused across the full insert and the `delta_target` insert for
  /// rows that were new. Incremental maintenance commits through it;
  /// the fixpoint engine's merge phase calls CommitHashed with
  /// worker-precomputed hashes.
  CommitCounts Commit(const TupleBuffer& rows, Relation* delta_target);

  /// Commit with every row's HashValues hash precomputed by the caller
  /// (`hashes[i]` for `rows.row(i)`). The morsel workers hash their
  /// derived blocks off the critical merge path; the owning merge task
  /// then only probes and inserts.
  CommitCounts CommitHashed(const TupleBuffer& rows, const size_t* hashes,
                            Relation* delta_target);

  /// Commit variant that additionally reports the RowId every buffered
  /// row resolved to — new rows get their freshly assigned id,
  /// duplicates the id of the equal stored row. `(*row_ids)[i]`
  /// corresponds to `rows.row(i)` (the vector is resized). This is the
  /// counting-maintenance bookkeeping path: the incremental evaluator
  /// keeps a RowId-parallel derivation-count column per relation and
  /// tallies each derivation against the id its head tuple landed on.
  /// Same batched hash/prefetch schedule as Commit.
  CommitCounts CommitCounted(const TupleBuffer& rows, Relation* delta_target,
                             std::vector<RowId>* row_ids);

  /// Removes every stored row equal to a row of `victims` (set
  /// semantics; victim rows not present are ignored, as are repeats
  /// within `victims`). Returns the number of rows removed. Each
  /// victim is swap-removed: the relation's current last row moves
  /// into the vacated RowId, so ids stay dense, exactly one surviving
  /// row is renamed per victim, and the whole call costs
  /// O(|victims| · indexes) — never a pass over the relation.
  /// Surviving rows do NOT keep their relative order (set semantics
  /// make order meaningless). When `moves` is non-null it is cleared
  /// and receives the (old_id, new_id) renames in the order they
  /// happened, so a caller maintaining a RowId-parallel side column
  /// replays them (`col[to] = col[from]`, then resize to size()).
  /// Registered indexes are patched in place — a bucket emptied by
  /// erasure goes dead (skipped by probes, garbage-collected at the
  /// next index rehash) rather than breaking its probe run — and the
  /// columnar/stats caches are dropped.
  size_t Erase(const TupleBuffer& victims,
               std::vector<std::pair<RowId, RowId>>* moves = nullptr);

  bool Contains(RowRef row) const {
    assert(row.size() == arity());
    return store_.Contains(row.data());
  }
  /// Membership with the row's HashValues hash precomputed — the
  /// batched negation path hashes whole key blocks up front
  /// (HashValuesBatch) and prefetches each dedup slot before probing.
  bool Contains(RowRef row, size_t hash) const {
    assert(row.size() == arity());
    return store_.Contains(row.data(), hash);
  }
  bool Contains(const Tuple& tuple) const {
    return Contains(RowRef(tuple));
  }

  /// Zero-copy view of row `i`; valid until the next insert (the arena
  /// may move when it grows) — hold RowIds, not RowRefs, across
  /// mutations.
  RowRef row(size_t i) const { return store_.row(static_cast<RowId>(i)); }

  /// Cached hash of row `i` (the HashValues recipe).
  size_t row_hash(size_t i) const {
    return store_.row_hash(static_cast<RowId>(i));
  }

  /// Iterable RowRef view in insertion order.
  RowRange rows() const { return RowRange(&store_); }

  /// Materializes owning Tuples (result extraction, tests).
  std::vector<Tuple> CopyRows() const;

  /// The flat backing store (benchmarks, diagnostics).
  const TupleStore& store() const { return store_; }

  /// Pre-sizes the arena and dedup table for `rows` rows.
  void Reserve(size_t rows) { store_.Reserve(rows); }

  /// Ensures a hash index exists over `columns` (sorted, distinct,
  /// in-range). Subsequent `Probe` calls with the same column set are
  /// O(1) expected. Safe to call concurrently with other EnsureIndex,
  /// HasIndex and Probe calls as long as the relation is not being
  /// mutated (see class comment); concurrent builders of the same
  /// column set serialize and the loser reuses the winner's index.
  void EnsureIndex(const std::vector<uint32_t>& columns);

  /// Returns a columnar (SoA) snapshot of the current rows, building
  /// and caching it on first use. The cache is dropped on any mutation
  /// and rebuilt lazily, so the view always reflects the live rows.
  /// Same concurrency contract as EnsureIndex: safe to call from many
  /// readers of a non-mutating relation (builders serialize on the
  /// per-relation mutex; the loser reuses the winner's view).
  std::shared_ptr<const ColumnView> EnsureColumns() const;

  /// Returns per-column distinct-count estimates for the current rows,
  /// building and caching them on first use — the same lazy/invalidate
  /// discipline as EnsureColumns (dropped on mutation, rebuilt when the
  /// row count moved). The cost planner consults this at plan time
  /// only, i.e. on plan-cache misses, so steady-state evaluation never
  /// pays for it. Same concurrency contract as EnsureColumns.
  std::shared_ptr<const RelationStats> EnsureStats() const;

  /// True when a hash index over exactly `columns` is materialized.
  /// The plan cache uses this on a hit to skip re-running EnsureIndex
  /// over every probed relation (and to rebuild only genuinely missing
  /// indexes, e.g. after a delta double-buffer swap).
  bool HasIndex(const std::vector<uint32_t>& columns) const {
    return FindIndex(columns) != nullptr;
  }

  /// Row ids whose projection onto `columns` equals `key` (`key`
  /// values in the same order as `columns`; the pointer form reads
  /// exactly `columns.size()` values — the hash-first, allocation-free
  /// path). The index must already exist (`EnsureIndex` at plan time);
  /// a missing index debug-asserts and yields no matches in release.
  /// Probe is strictly read-only, so concurrent probes of an unchanging
  /// relation are thread-safe.
  const std::vector<RowId>& Probe(const std::vector<uint32_t>& columns,
                                  const Value* key) const;

  /// Probes `count` keys against one index in a single pass: key k
  /// occupies `keys[k*columns.size() .. (k+1)*columns.size())`.
  /// `(*out)[k]` becomes a zero-copy view of key k's matching RowIds
  /// (empty when none), valid until the next mutation of this relation.
  /// The pass is split in two so the work pipelines: all keys are
  /// hashed first over the contiguous key block (prefetching each
  /// landing slot), then the slot walks run with bucket lookahead —
  /// hiding the cache misses a one-key-at-a-time Probe chain exposes.
  /// `hash_scratch` is caller-owned reusable scratch (overwritten).
  /// Both outputs reuse capacity. Same index/readonly contract as
  /// Probe.
  void ProbeBatch(const std::vector<uint32_t>& columns, const Value* keys,
                  size_t count, std::vector<size_t>* hash_scratch,
                  std::vector<std::span<const RowId>>* out) const;
  const std::vector<RowId>& Probe(const std::vector<uint32_t>& columns,
                                  const Tuple& key) const {
    assert(key.size() == columns.size());
    return Probe(columns, key.data());
  }

  /// Removes all tuples. Arena, dedup table and index capacity are
  /// retained (and indexes stay registered), so a cleared relation
  /// refills without reallocating.
  void Clear();

  /// Number of secondary indexes currently materialized.
  size_t index_count() const;

  /// The column sets of every materialized index and of every index an
  /// EnsureIndex call has started building. Safe to call concurrently
  /// with EnsureIndex (lock-free list walks, like Probe): the snapshot
  /// store reads a published relation's indexes to build them on the
  /// copy it is about to publish next, without waiting for a reader's
  /// build in flight.
  std::vector<std::vector<uint32_t>> IndexColumnSets() const;

  std::string ToString() const;

 private:
  /// One index bucket: every row whose projection onto the index
  /// columns is equal. `hash` caches the projection hash; the rows of
  /// the bucket's first entry serve as the in-place comparison key.
  struct Bucket {
    size_t hash = 0;
    // First row of the bucket, duplicated out of `rows` so key
    // comparisons (and ProbeBatch's row prefetch) reach row data with
    // one cached load instead of chasing the vector's heap pointer.
    RowId first = kInvalidRowId;
    std::vector<RowId> rows;
  };

  /// Open-addressing hash index over a column subset. Slots map a
  /// projection hash to a bucket id; keys are never materialized.
  struct Index {
    std::vector<uint32_t> columns;
    std::vector<uint32_t> slots;  // bucket id; kEmptySlot = empty
    std::vector<Bucket> buckets;
    size_t slot_mask = 0;
    /// Buckets emptied by IndexErase and not yet garbage-collected.
    /// Growth is sized by the live ones, so a steady erase/insert churn
    /// recycles dead buckets at the same table size instead of
    /// doubling it every rehash.
    size_t dead = 0;
  };
  /// One node of the atomic index list. A node is fully built before
  /// the release store that links it in, and `next` never changes after
  /// publication, so lock-free readers always traverse complete,
  /// immutable-shaped indexes. (Insert still updates bucket contents —
  /// but Insert is exclusive by contract.)
  struct IndexNode {
    Index index;
    IndexNode* next = nullptr;
  };
  static constexpr uint32_t kEmptySlot = UINT32_MAX;

  size_t ProjectionHash(RowId r, const std::vector<uint32_t>& columns) const;
  bool ProjectionEquals(RowId r, const std::vector<uint32_t>& columns,
                        const Value* key) const;
  bool ProjectionsEqual(RowId a, RowId b,
                        const std::vector<uint32_t>& columns) const;
  void IndexInsert(Index& index, RowId r);
  /// Removes `victim` from its bucket and, when `last != victim`,
  /// renames `last` to `victim`'s id (the swap-removal about to happen
  /// in the store). Must run while both rows' data is still in the
  /// arena — i.e. before TupleStore::SwapRemove.
  void IndexErase(Index& index, RowId victim, RowId last);
  void IndexRehash(Index& index, size_t new_slots);
  const Index* FindIndex(const std::vector<uint32_t>& columns) const;

  void FreeIndexes();
  /// Deep-copies `other`'s index list (same order), for copy
  /// construction/assignment. Exclusive access to both relations.
  void CopyIndexesFrom(const Relation& other);

  PredicateId pred_;
  TupleStore store_;
  /// Head of the published index list (push-front). Lock-free readers
  /// acquire-load it; builders publish under `index_mu_`.
  std::atomic<IndexNode*> index_head_{nullptr};
  /// Column sets EnsureIndex started building (push-front under
  /// `index_mu_`, before the build; lock-free readers acquire-load it).
  struct RequestNode {
    std::vector<uint32_t> columns;
    RequestNode* next;
  };
  std::atomic<RequestNode*> requested_head_{nullptr};
  /// Serializes index builders. unique_ptr keeps Relation movable.
  std::unique_ptr<std::mutex> index_mu_;
  /// Cached columnar snapshot (EnsureColumns). Guarded by `index_mu_`
  /// for concurrent readers; reset without the lock during (exclusive)
  /// mutation. Never copied between relations — each rebuilds lazily.
  mutable std::shared_ptr<const ColumnView> columns_;
  /// Cached planning statistics (EnsureStats). Same guarding and
  /// invalidation discipline as `columns_`.
  mutable std::shared_ptr<const RelationStats> stats_;
};

}  // namespace semopt

#endif  // SEMOPT_STORAGE_RELATION_H_
