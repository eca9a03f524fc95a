#include "storage/relation.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <sstream>

#include "storage/column_view.h"
#include "storage/storage_metrics.h"
#include "storage/vector_kernels.h"
#include "util/string_util.h"

namespace semopt {

namespace {
constexpr size_t kMinIndexSlots = 16;

bool NeedsGrowth(size_t buckets, size_t slots) {
  return slots == 0 || (buckets + 1) * 4 > slots * 3;
}

size_t NextPowerOfTwo(size_t n) {
  size_t p = kMinIndexSlots;
  while (p < n) p <<= 1;
  return p;
}
}  // namespace

std::string TupleToString(RowRef row) {
  return StrCat("(", JoinToString(row, ", "), ")");
}

std::string TupleToString(const Tuple& tuple) {
  return TupleToString(RowRef(tuple));
}

Relation::~Relation() { FreeIndexes(); }

void Relation::FreeIndexes() {
  IndexNode* node = index_head_.load(std::memory_order_acquire);
  index_head_.store(nullptr, std::memory_order_relaxed);
  while (node != nullptr) {
    IndexNode* next = node->next;
    delete node;
    node = next;
  }
  RequestNode* request = requested_head_.load(std::memory_order_acquire);
  requested_head_.store(nullptr, std::memory_order_relaxed);
  while (request != nullptr) {
    RequestNode* next = request->next;
    delete request;
    request = next;
  }
}

void Relation::CopyIndexesFrom(const Relation& other) {
  // Rebuild the list in the same order (push-front reverses, so walk
  // into a vector first). Exclusive access on both sides by contract.
  std::vector<const IndexNode*> nodes;
  for (const IndexNode* n = other.index_head_.load(std::memory_order_acquire);
       n != nullptr; n = n->next) {
    nodes.push_back(n);
  }
  IndexNode* head = nullptr;
  for (auto it = nodes.rbegin(); it != nodes.rend(); ++it) {
    IndexNode* copy = new IndexNode{(*it)->index, head};
    head = copy;
  }
  index_head_.store(head, std::memory_order_release);
}

Relation::Relation(const Relation& other)
    : pred_(other.pred_),
      store_(other.store_),
      index_mu_(std::make_unique<std::mutex>()) {
  CopyIndexesFrom(other);
}

Relation& Relation::operator=(const Relation& other) {
  if (this == &other) return *this;
  pred_ = other.pred_;
  store_ = other.store_;
  FreeIndexes();
  CopyIndexesFrom(other);
  if (index_mu_ == nullptr) index_mu_ = std::make_unique<std::mutex>();
  columns_.reset();
  stats_.reset();
  return *this;
}

Relation::Relation(Relation&& other) noexcept
    : pred_(other.pred_),
      store_(std::move(other.store_)),
      index_head_(other.index_head_.load(std::memory_order_acquire)),
      requested_head_(other.requested_head_.load(std::memory_order_acquire)),
      index_mu_(std::move(other.index_mu_)),
      columns_(std::move(other.columns_)),
      stats_(std::move(other.stats_)) {
  other.index_head_.store(nullptr, std::memory_order_relaxed);
  other.requested_head_.store(nullptr, std::memory_order_relaxed);
}

Relation& Relation::operator=(Relation&& other) noexcept {
  if (this == &other) return *this;
  pred_ = other.pred_;
  store_ = std::move(other.store_);
  FreeIndexes();
  index_head_.store(other.index_head_.load(std::memory_order_acquire),
                    std::memory_order_relaxed);
  other.index_head_.store(nullptr, std::memory_order_relaxed);
  requested_head_.store(other.requested_head_.load(std::memory_order_acquire),
                        std::memory_order_relaxed);
  other.requested_head_.store(nullptr, std::memory_order_relaxed);
  index_mu_ = std::move(other.index_mu_);
  columns_ = std::move(other.columns_);
  stats_ = std::move(other.stats_);
  return *this;
}

bool Relation::Insert(RowRef row) {
  return Insert(row, HashValues(row.data(), arity()));
}

bool Relation::Insert(RowRef row, size_t hash) {
  assert(row.size() == arity());
  auto [id, inserted] = store_.InsertIfAbsent(row.data(), hash);
  if (!inserted) return false;
  // Mutation is exclusive by contract, so the stale columnar snapshot
  // can be dropped without the lock. The null check keeps the common
  // bulk-insert case (cache already gone) a single branch. The planning
  // stats stay: EnsureStats refreshes them by row-count band.
  if (columns_ != nullptr) columns_.reset();
  for (IndexNode* n = index_head_.load(std::memory_order_acquire);
       n != nullptr; n = n->next) {
    IndexInsert(n->index, id);
  }
  return true;
}

Relation::CommitCounts Relation::Commit(const TupleBuffer& rows,
                                        Relation* delta_target) {
  CommitCounts counts;
  // Hash in short runs ahead of the inserts: the hash pass streams the
  // flat buffer while prefetching the dedup slot each row will probe,
  // and every hash is computed once and reused across the full and
  // delta inserts.
  constexpr size_t kChunk = 128;
  size_t hashes[kChunk];
  const size_t n = rows.size();
  const uint32_t width = rows.arity();
  for (size_t start = 0; start < n; start += kChunk) {
    const size_t m = std::min(kChunk, n - start);
    // The buffer is flat, so the chunk's rows are one contiguous
    // value run — exactly HashValuesBatch's layout.
    HashValuesBatch(rows.row(start).data(), width, m, hashes);
    for (size_t j = 0; j < m; ++j) PrefetchInsert(hashes[j]);
    for (size_t j = 0; j < m; ++j) {
      RowRef t = rows.row(start + j);
      if (Insert(t, hashes[j])) {
        ++counts.inserted;
        if (delta_target != nullptr) delta_target->Insert(t, hashes[j]);
      } else {
        ++counts.duplicates;
      }
    }
  }
  return counts;
}

Relation::CommitCounts Relation::CommitHashed(const TupleBuffer& rows,
                                              const size_t* hashes,
                                              Relation* delta_target) {
  CommitCounts counts;
  // Hashes arrive precomputed (the morsel workers pay that cost in
  // parallel); this pass only prefetches dedup slots ahead of the
  // probes and inserts.
  constexpr size_t kChunk = 128;
  const size_t n = rows.size();
  for (size_t start = 0; start < n; start += kChunk) {
    const size_t m = std::min(kChunk, n - start);
    for (size_t j = 0; j < m; ++j) PrefetchInsert(hashes[start + j]);
    for (size_t j = 0; j < m; ++j) {
      RowRef t = rows.row(start + j);
      if (Insert(t, hashes[start + j])) {
        ++counts.inserted;
        if (delta_target != nullptr) {
          delta_target->Insert(t, hashes[start + j]);
        }
      } else {
        ++counts.duplicates;
      }
    }
  }
  return counts;
}

Relation::CommitCounts Relation::CommitCounted(const TupleBuffer& rows,
                                               Relation* delta_target,
                                               std::vector<RowId>* row_ids) {
  CommitCounts counts;
  const size_t n = rows.size();
  row_ids->resize(n);
  constexpr size_t kChunk = 128;
  size_t hashes[kChunk];
  const uint32_t width = rows.arity();
  for (size_t start = 0; start < n; start += kChunk) {
    const size_t m = std::min(kChunk, n - start);
    HashValuesBatch(rows.row(start).data(), width, m, hashes);
    for (size_t j = 0; j < m; ++j) PrefetchInsert(hashes[j]);
    for (size_t j = 0; j < m; ++j) {
      RowRef t = rows.row(start + j);
      auto [id, inserted] = store_.InsertIfAbsent(t.data(), hashes[j]);
      (*row_ids)[start + j] = id;
      if (inserted) {
        if (columns_ != nullptr) columns_.reset();
        for (IndexNode* node = index_head_.load(std::memory_order_acquire);
             node != nullptr; node = node->next) {
          IndexInsert(node->index, id);
        }
        ++counts.inserted;
        if (delta_target != nullptr) delta_target->Insert(t, hashes[j]);
      } else {
        ++counts.duplicates;
      }
    }
  }
  return counts;
}

size_t Relation::Erase(const TupleBuffer& victims,
                       std::vector<std::pair<RowId, RowId>>* moves) {
  if (moves != nullptr) moves->clear();
  if (victims.empty() || store_.empty()) return 0;
  assert(victims.arity() == arity());
  size_t erased = 0;
  for (size_t i = 0; i < victims.size(); ++i) {
    // Find handles absent victims and in-batch repeats alike: once a
    // row is swap-removed, an equal later victim simply misses.
    const RowId id = store_.Find(victims.row(i).data());
    if (id == kInvalidRowId) continue;
    // Patch every index while both the victim's and the last row's
    // data are still in the arena; the store swap happens after.
    const RowId last = static_cast<RowId>(store_.size() - 1);
    for (IndexNode* n = index_head_.load(std::memory_order_acquire);
         n != nullptr; n = n->next) {
      IndexErase(n->index, id, last);
    }
    const RowId from = store_.SwapRemove(id);
    if (from != kInvalidRowId && moves != nullptr) {
      moves->emplace_back(from, id);
    }
    ++erased;
  }
  if (erased > 0) columns_.reset();
  return erased;
}

size_t Relation::ProjectionHash(RowId r,
                                const std::vector<uint32_t>& columns) const {
  const Value* vals = store_.row_data(r);
  size_t seed = 0;
  for (uint32_t c : columns) HashCombine(&seed, vals[c]);
  // Must match the hash Probe computes over caller-supplied keys
  // (HashValues), including its final avalanche.
  return static_cast<size_t>(MixBits(seed));
}

bool Relation::ProjectionEquals(RowId r, const std::vector<uint32_t>& columns,
                                const Value* key) const {
  const Value* vals = store_.row_data(r);
  for (size_t i = 0; i < columns.size(); ++i) {
    if (!(vals[columns[i]] == key[i])) return false;
  }
  return true;
}

bool Relation::ProjectionsEqual(RowId a, RowId b,
                                const std::vector<uint32_t>& columns) const {
  const Value* va = store_.row_data(a);
  const Value* vb = store_.row_data(b);
  for (uint32_t c : columns) {
    if (!(va[c] == vb[c])) return false;
  }
  return true;
}

void Relation::IndexInsert(Index& index, RowId r) {
  if (NeedsGrowth(index.buckets.size(), index.slots.size())) {
    const size_t live = index.buckets.size() - index.dead;
    IndexRehash(index, NextPowerOfTwo((live + 1) * 2));
  }
  const size_t h = ProjectionHash(r, index.columns);
  size_t idx = h & index.slot_mask;
  while (true) {
    const uint32_t b = index.slots[idx];
    if (b == kEmptySlot) break;
    Bucket& bucket = index.buckets[b];
    // A dead bucket (emptied by IndexErase) still occupies its slot so
    // probe runs stay contiguous; it can never match a key.
    if (bucket.first != kInvalidRowId && bucket.hash == h &&
        ProjectionsEqual(bucket.first, r, index.columns)) {
      bucket.rows.push_back(r);
      return;
    }
    idx = (idx + 1) & index.slot_mask;
  }
  index.slots[idx] = static_cast<uint32_t>(index.buckets.size());
  Bucket bucket;
  bucket.hash = h;
  bucket.first = r;
  bucket.rows.push_back(r);
  index.buckets.push_back(std::move(bucket));
}

void Relation::IndexErase(Index& index, RowId victim, RowId last) {
  if (index.slots.empty()) return;
  const std::vector<uint32_t>& columns = index.columns;
  // Drop the victim from its bucket. The slot keeps pointing at the
  // bucket even when it empties ("dead bucket"): vacating the slot
  // would break the probe runs of keys that collided past it, and
  // backward-shifting bucket slots is not worth the code — IndexRehash
  // garbage-collects dead buckets at the next growth.
  {
    const size_t h = ProjectionHash(victim, columns);
    size_t idx = h & index.slot_mask;
    while (true) {
      const uint32_t b = index.slots[idx];
      assert(b != kEmptySlot && "erased row missing from index");
      if (b == kEmptySlot) break;  // fail-safe in release
      Bucket& bucket = index.buckets[b];
      if (bucket.first != kInvalidRowId && bucket.hash == h &&
          ProjectionsEqual(bucket.first, victim, columns)) {
        std::vector<RowId>& rows = bucket.rows;
        for (size_t i = 0; i < rows.size(); ++i) {
          if (rows[i] == victim) {
            rows[i] = rows.back();
            rows.pop_back();
            break;
          }
        }
        if (rows.empty()) {
          // Dead buckets are never revived (a returning key gets a new
          // bucket), so release the row list now.
          bucket.first = kInvalidRowId;
          std::vector<RowId>().swap(rows);
          ++index.dead;
        } else if (bucket.first == victim) {
          bucket.first = rows[0];
        }
        break;
      }
      idx = (idx + 1) & index.slot_mask;
    }
  }
  // The store is about to move row `last` into id `victim`; rename it
  // in its bucket. If the two rows shared a projection the bucket above
  // still holds `last` (it cannot have gone dead), so this finds it.
  if (last == victim) return;
  const size_t h = ProjectionHash(last, columns);
  size_t idx = h & index.slot_mask;
  while (true) {
    const uint32_t b = index.slots[idx];
    assert(b != kEmptySlot && "moved row missing from index");
    if (b == kEmptySlot) return;  // fail-safe in release
    Bucket& bucket = index.buckets[b];
    if (bucket.first != kInvalidRowId && bucket.hash == h &&
        ProjectionsEqual(bucket.first, last, columns)) {
      for (RowId& r : bucket.rows) {
        if (r == last) {
          r = victim;
          break;
        }
      }
      if (bucket.first == last) bucket.first = victim;
      return;
    }
    idx = (idx + 1) & index.slot_mask;
  }
}

void Relation::IndexRehash(Index& index, size_t new_slots) {
  const bool initial = index.slots.empty();
  // Every slot is reassigned anyway, so this is the free moment to
  // garbage-collect buckets that IndexErase emptied — bucket ids only
  // have meaning through the slot table.
  std::erase_if(index.buckets,
                [](const Bucket& b) { return b.first == kInvalidRowId; });
  index.dead = 0;
  index.slots.assign(new_slots, kEmptySlot);
  index.slot_mask = new_slots - 1;
  for (uint32_t b = 0; b < index.buckets.size(); ++b) {
    size_t idx = index.buckets[b].hash & index.slot_mask;
    while (index.slots[idx] != kEmptySlot) {
      idx = (idx + 1) & index.slot_mask;
    }
    index.slots[idx] = b;
  }
  if (!initial) storage_metrics::AddRehash();
}

const Relation::Index* Relation::FindIndex(
    const std::vector<uint32_t>& columns) const {
  for (const IndexNode* n = index_head_.load(std::memory_order_acquire);
       n != nullptr; n = n->next) {
    if (n->index.columns == columns) return &n->index;
  }
  return nullptr;
}

void Relation::EnsureIndex(const std::vector<uint32_t>& columns) {
  if (FindIndex(columns) != nullptr) return;
  std::lock_guard<std::mutex> lock(*index_mu_);
  // Another builder may have published this column set while we waited.
  if (FindIndex(columns) != nullptr) return;
  requested_head_.store(
      new RequestNode{columns,
                      requested_head_.load(std::memory_order_relaxed)},
      std::memory_order_release);
  IndexNode* node = new IndexNode();
  node->index.columns = columns;
  const size_t n = store_.size();
  for (size_t r = 0; r < n; ++r) {
    IndexInsert(node->index, static_cast<RowId>(r));
  }
  // Publish only once fully built: concurrent FindIndex either misses
  // (and the caller serializes on the mutex) or sees a complete index.
  node->next = index_head_.load(std::memory_order_relaxed);
  index_head_.store(node, std::memory_order_release);
}

std::shared_ptr<const ColumnView> Relation::EnsureColumns() const {
  // Readers of a non-mutating relation may race each other here; the
  // shared_ptr itself is not atomic, so all access to the cache slot
  // goes through the builder mutex. EnsureColumns runs once per
  // executor step setup (not per row), so the lock is off any hot loop.
  std::lock_guard<std::mutex> lock(*index_mu_);
  if (columns_ == nullptr || columns_->rows() != store_.size()) {
    columns_ = ColumnView::Build(store_);
  }
  return columns_;
}

std::shared_ptr<const RelationStats> Relation::EnsureStats() const {
  std::lock_guard<std::mutex> lock(*index_mu_);
  // Band-stable: the sketch is reused until the row count leaves
  // [rows/2, 2*rows] of the count it was built at. Join orders only
  // move with order-of-magnitude size changes, and a rescan per write
  // would make every plan-cache miss under a steady writer O(relation).
  // A relation growing from empty rebuilds at geometric sizes, so the
  // total sketching work stays O(final size).
  if (stats_ != nullptr && store_.size() >= stats_->rows / 2 &&
      store_.size() <= 2 * stats_->rows) {
    return stats_;
  }

  // Linear-counting sketch: one bitmap of `sketch_bits` per column; a
  // value sets the bit its hash lands on, and the distinct count is
  // estimated from the fraction of bits still clear. Exact while
  // distinct << sketch_bits; saturates to the row count beyond that
  // (where "huge" is all the cost model needs to know). The bitmap is
  // sized to 8 bits per row up to 4096, so the many small relations a
  // short evaluation plans over sketch in a few words.
  const uint32_t width = arity();
  const size_t n = store_.size();
  const size_t sketch_bits =
      std::min<size_t>(4096, std::max<size_t>(64, std::bit_ceil(8 * n)));
  const size_t words = sketch_bits / 64;
  auto stats = std::make_shared<RelationStats>();
  stats->rows = n;
  stats->distinct.assign(width, 0);
  if (n > 0 && width > 0) {
    std::vector<uint64_t> bitmaps(static_cast<size_t>(width) * words, 0);
    for (size_t r = 0; r < n; ++r) {
      const Value* vals = store_.row_data(static_cast<RowId>(r));
      for (uint32_t c = 0; c < width; ++c) {
        const size_t h = HashValues(&vals[c], 1) % sketch_bits;
        bitmaps[c * words + h / 64] |= uint64_t{1} << (h % 64);
      }
    }
    for (uint32_t c = 0; c < width; ++c) {
      size_t set_bits = 0;
      for (size_t w = 0; w < words; ++w) {
        set_bits += static_cast<size_t>(
            __builtin_popcountll(bitmaps[c * words + w]));
      }
      const size_t zero = sketch_bits - set_bits;
      double estimate;
      if (zero == 0) {
        estimate = static_cast<double>(n);
      } else {
        estimate = static_cast<double>(sketch_bits) *
                   std::log(static_cast<double>(sketch_bits) /
                            static_cast<double>(zero));
      }
      const double clamped =
          std::min(static_cast<double>(n), std::max(1.0, estimate));
      stats->distinct[c] = static_cast<size_t>(clamped + 0.5);
    }
  }
  stats_ = std::move(stats);
  return stats_;
}

size_t Relation::index_count() const {
  size_t count = 0;
  for (const IndexNode* n = index_head_.load(std::memory_order_acquire);
       n != nullptr; n = n->next) {
    ++count;
  }
  return count;
}

std::vector<std::vector<uint32_t>> Relation::IndexColumnSets() const {
  std::vector<std::vector<uint32_t>> sets;
  for (const IndexNode* n = index_head_.load(std::memory_order_acquire);
       n != nullptr; n = n->next) {
    sets.push_back(n->index.columns);
  }
  for (const RequestNode* r = requested_head_.load(std::memory_order_acquire);
       r != nullptr; r = r->next) {
    if (std::find(sets.begin(), sets.end(), r->columns) == sets.end()) {
      sets.push_back(r->columns);
    }
  }
  return sets;
}

const std::vector<RowId>& Relation::Probe(
    const std::vector<uint32_t>& columns, const Value* key) const {
  static const std::vector<RowId> kEmpty;
  const Index* index = FindIndex(columns);
  // Callers must EnsureIndex during (single-threaded) planning; Probe
  // itself is read-only so concurrent probes never race. A missing
  // index is a caller bug: assert in debug, report no matches in
  // release (fail-safe, never mutates).
  assert(index != nullptr &&
         "Relation::Probe without a prior EnsureIndex for this column set");
  if (index == nullptr || index->slots.empty()) return kEmpty;
  const size_t h = HashValues(key, columns.size());
  size_t idx = h & index->slot_mask;
  while (true) {
    const uint32_t b = index->slots[idx];
    if (b == kEmptySlot) return kEmpty;
    const Bucket& bucket = index->buckets[b];
    if (bucket.first != kInvalidRowId && bucket.hash == h &&
        ProjectionEquals(bucket.first, columns, key)) {
      return bucket.rows;
    }
    idx = (idx + 1) & index->slot_mask;
  }
}

void Relation::ProbeBatch(const std::vector<uint32_t>& columns,
                          const Value* keys, size_t count,
                          std::vector<size_t>* hash_scratch,
                          std::vector<std::span<const RowId>>* out) const {
  // Below this slot count the whole index (slots, buckets, probed row
  // prefixes) is effectively cache-resident, so software prefetch is
  // pure overhead and the lean one-pass loop wins.
  constexpr size_t kPrefetchSlotThreshold = 16384;

  out->assign(count, std::span<const RowId>());
  if (count == 0) return;
  const Index* index = FindIndex(columns);
  assert(index != nullptr &&
         "Relation::ProbeBatch without a prior EnsureIndex");
  if (index == nullptr || index->slots.empty()) return;
  const size_t width = columns.size();
  const uint32_t* cols = columns.data();
  const size_t mask = index->slot_mask;
  const uint32_t* slots = index->slots.data();
  const Bucket* buckets = index->buckets.data();

  // ProjectionEquals, manually inlined: probing is the hottest loop in
  // the batched executor and the out-of-line call (plus the vector
  // indirection for the columns) is measurable at tens of millions of
  // keys.
  auto proj_eq = [&](RowId r, const Value* key) -> bool {
    const Value* vals = store_.row_data(r);
    for (size_t i = 0; i < width; ++i) {
      if (!(vals[cols[i]] == key[i])) return false;
    }
    return true;
  };
  auto walk = [&](size_t h, const Value* key) -> std::span<const RowId> {
    size_t idx = h & mask;
    while (true) {
      const uint32_t b = slots[idx];
      if (b == kEmptySlot) return {};
      const Bucket& bucket = buckets[b];
      if (bucket.first != kInvalidRowId && bucket.hash == h &&
          proj_eq(bucket.first, key)) {
        return std::span<const RowId>(bucket.rows);
      }
      idx = (idx + 1) & mask;
    }
  };

  if (index->slots.size() < kPrefetchSlotThreshold) {
    // One pass, no scratch. Consecutive equal keys are common (frames
    // fanned out from one delta row probe with the same binding):
    // reuse the previous walk.
    const Value* key = keys;
    size_t prev_h = 0;
    for (size_t k = 0; k < count; ++k, key += width) {
      const size_t h = HashValues(key, width);
      if (k > 0 && h == prev_h && ValuesEqual(key, key - width, width)) {
        (*out)[k] = (*out)[k - 1];
      } else {
        (*out)[k] = walk(h, key);
      }
      prev_h = h;
    }
    return;
  }

  // Large index: random slot/bucket/row reads miss cache, so overlap
  // them. Pass 1 hashes every key while the key block streams through
  // the cache, issuing a prefetch for the slot word each hash lands on.
  hash_scratch->resize(count);
  size_t* hashes = hash_scratch->data();
  // The key block is contiguous and row-major: hash it with the batch
  // kernel (8 interleaved chains), then issue the slot prefetches over
  // the finished hash lane.
  HashValuesBatch(keys, width, count, hashes);
  for (size_t k = 0; k < count; ++k) {
    __builtin_prefetch(slots + (hashes[k] & mask), /*rw=*/0, /*locality=*/1);
  }

  // Pass 2: walk the slots. A far lookahead prefetches the bucket
  // header a future key resolves to; a near lookahead — by which point
  // that header is usually cached — reads its inline first-row id and
  // prefetches the row data the key comparison will touch.
  constexpr size_t kFarLookahead = 8;
  constexpr size_t kNearLookahead = 3;
  const Value* key = keys;
  for (size_t k = 0; k < count; ++k, key += width) {
    if (k + kFarLookahead < count) {
      const uint32_t ahead = slots[hashes[k + kFarLookahead] & mask];
      if (ahead != kEmptySlot) {
        __builtin_prefetch(buckets + ahead, /*rw=*/0, /*locality=*/1);
      }
    }
    if (k + kNearLookahead < count) {
      const uint32_t near = slots[hashes[k + kNearLookahead] & mask];
      if (near != kEmptySlot && buckets[near].first != kInvalidRowId) {
        __builtin_prefetch(store_.row_data(buckets[near].first),
                           /*rw=*/0, /*locality=*/1);
      }
    }
    if (k > 0 && hashes[k] == hashes[k - 1] &&
        ValuesEqual(key, key - width, width)) {
      (*out)[k] = (*out)[k - 1];
      continue;
    }
    (*out)[k] = walk(hashes[k], key);
  }
}

std::vector<Tuple> Relation::CopyRows() const {
  std::vector<Tuple> out;
  out.reserve(store_.size());
  for (RowRef row : rows()) out.emplace_back(row.begin(), row.end());
  return out;
}

void Relation::Clear() {
  store_.Clear();
  // Clear + refill to the same size must not resurrect a stale view,
  // so the cache is dropped eagerly rather than trusting the row-count
  // check in EnsureColumns.
  columns_.reset();
  stats_.reset();
  for (IndexNode* n = index_head_.load(std::memory_order_acquire);
       n != nullptr; n = n->next) {
    std::fill(n->index.slots.begin(), n->index.slots.end(), kEmptySlot);
    n->index.buckets.clear();
    n->index.dead = 0;
  }
}

std::string Relation::ToString() const {
  std::ostringstream os;
  os << pred_.ToString() << " {";
  bool first = true;
  for (RowRef row : rows()) {
    if (!first) os << ", ";
    first = false;
    os << TupleToString(row);
  }
  os << "}";
  return os.str();
}

}  // namespace semopt
