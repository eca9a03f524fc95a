#include "storage/snapshot.h"

#include <set>
#include <utility>

#include "obs/metrics.h"

namespace semopt {

void DatabaseSnapshot::Release() {
  // Drop the generation before unpinning: once a writer sees the pin
  // gone, no released snapshot still holds the generation's relations
  // (the retired list or the head does, and they free it).
  db_.reset();
  if (store_ != nullptr) {
    store_->Unpin(epoch_);
    store_ = nullptr;
  }
  unmanaged_ = nullptr;
}

SnapshotStore::SnapshotStore(Database initial)
    : head_(std::make_shared<const Database>(std::move(initial))) {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  registry.GetGauge("storage.snapshot.live_generations").Set(1);
  // Registered up front so `:stats` lists the write-path counters side
  // by side from the first scrape on.
  registry.GetCounter("storage.snapshot.relations_cloned");
  registry.GetCounter("storage.snapshot.relations_reused");
  registry.GetCounter("storage.snapshot.rows_replayed");
}

SnapshotStore::~SnapshotStore() = default;

DatabaseSnapshot SnapshotStore::Pin() {
  DatabaseSnapshot snap;
  {
    std::lock_guard<std::mutex> lock(mu_);
    snap.epoch_ = epoch_;
    snap.db_ = head_;
    ++pins_[epoch_];
  }
  snap.store_ = this;
  // Registry-owned and never freed: resolved once.
  static obs::Counter& pins =
      obs::MetricsRegistry::Global().GetCounter("storage.snapshot.pins");
  pins.Add(1);
  return snap;
}

void SnapshotStore::Unpin(uint64_t epoch) {
  // Declared before the lock, so reclaimed generations are freed after
  // mu_ is released.
  std::vector<std::shared_ptr<const Database>> unreachable;
  std::lock_guard<std::mutex> lock(mu_);
  auto it = pins_.find(epoch);
  if (it == pins_.end()) return;  // defensive; every pin registers
  if (--it->second == 0) pins_.erase(it);
  unreachable = ReclaimLocked();
}

Result<uint64_t> SnapshotStore::Mutate(
    const std::function<Status(Database*)>& fn) {
  // Writers serialize here so two Mutate calls never interleave their
  // clone-apply-publish sequences; readers keep pinning the head
  // concurrently (they only touch mu_, held briefly below).
  std::lock_guard<std::mutex> writer_lock(writer_mu_);

  std::shared_ptr<const Database> base;
  {
    std::lock_guard<std::mutex> lock(mu_);
    base = head_;
  }
  // Copy-on-write at relation granularity: the new generation starts
  // as pure pointer shares, and `fn` deep-copies (and counts, via
  // storage.snapshot.relations_cloned) only the relations it actually
  // writes. Untouched relations stay pointer-identical across
  // generations, indexes included.
  auto next = std::make_shared<Database>(base->CloneShared());
  SEMOPT_RETURN_IF_ERROR(fn(next.get()));
  // A bulk write replaced every relation it touched, so those kept
  // copies no longer replay to the live relation: drop them.
  std::erase_if(kept_, [&](const auto& entry) {
    return next->Find(entry.first) != entry.second.live;
  });
  return Publish(std::move(next));
}

Result<uint64_t> SnapshotStore::ApplyDelta(const DeltaFn& fn) {
  std::lock_guard<std::mutex> writer_lock(writer_mu_);

  std::shared_ptr<const Database> base;
  {
    std::lock_guard<std::mutex> lock(mu_);
    base = head_;
  }
  SEMOPT_ASSIGN_OR_RETURN(DatabaseDelta delta, fn(*base));

  // A kept copy is free once the store holds its only reference: every
  // generation that shared it has been reclaimed and every reader that
  // pinned one has released it. Deciding under mu_ orders this after
  // those readers' Unpin (their last access to the copy), and nothing
  // can re-acquire a kept copy — only this writer reaches kept_.
  std::set<PredicateId> free;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& [pred, kept] : kept_) {
      if (kept.copy.use_count() == 1) free.insert(pred);
    }
  }

  auto next = std::make_shared<Database>(base->CloneShared());
  uint64_t cloned = 0, reused = 0, replayed = 0;
  for (auto& [pred, change] : delta) {
    if (change.empty()) continue;
    std::shared_ptr<Relation>& slot = next->relations_[pred];
    std::shared_ptr<Relation> live = std::move(slot);
    auto kept = kept_.find(pred);
    if (live == nullptr) {
      slot = std::make_shared<Relation>(pred);
    } else {
      // Every index readers built or started building on the live
      // relation, or on the kept copy (its predecessor, which readers
      // of older generations may have started indexing since).
      std::set<std::vector<uint32_t>> columns;
      for (std::vector<uint32_t>& c : live->IndexColumnSets()) {
        columns.insert(std::move(c));
      }
      if (kept != kept_.end()) {
        for (std::vector<uint32_t>& c : kept->second.copy->IndexColumnSets()) {
          columns.insert(std::move(c));
        }
      }
      if (kept != kept_.end() && kept->second.live == live.get() &&
          free.count(pred) > 0) {
        // Bring the kept copy up to the live relation.
        slot = std::move(kept->second.copy);
        kept->second.rows.ApplyTo(slot.get());
        replayed += kept->second.rows.rows();
        ++reused;
      } else {
        slot = std::make_shared<Relation>(*live);
        ++cloned;
      }
      // Publish the copy with all of them. A reader that finds an index
      // missing builds it, O(|relation|), while pinning its generation;
      // if each new copy lacked it, every reader would, the kept copies
      // would stay pinned, and every write would clone (serve-churn-1m
      // fell into that state in about half its runs).
      for (const std::vector<uint32_t>& c : columns) slot->EnsureIndex(c);
    }
    change.ApplyTo(slot.get());
    // The relation this write replaced becomes the kept copy (a fresh
    // relation's predecessor is the empty one).
    if (live == nullptr) live = std::make_shared<Relation>(pred);
    kept_.insert_or_assign(pred,
                           Kept{std::move(live), slot.get(), std::move(change)});
  }
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  registry.GetCounter("storage.snapshot.relations_cloned").Add(cloned);
  registry.GetCounter("storage.snapshot.relations_reused").Add(reused);
  registry.GetCounter("storage.snapshot.rows_replayed").Add(replayed);
  return Publish(std::move(next));
}

uint64_t SnapshotStore::Publish(std::shared_ptr<const Database> next) {
  std::vector<std::shared_ptr<const Database>> unreachable;
  uint64_t published_epoch = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++epoch_;
    published_epoch = epoch_;
    retired_.push_back(Retired{published_epoch, std::move(head_)});
    head_ = std::move(next);
    unreachable = ReclaimLocked();
  }
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  registry.GetCounter("storage.snapshot.publishes").Add(1);
  registry.GetGauge("storage.snapshot.epoch")
      .Set(static_cast<int64_t>(published_epoch));
  return published_epoch;
}

std::vector<std::shared_ptr<const Database>> SnapshotStore::ReclaimLocked() {
  // A generation retired at epoch E was the head for epochs < E: it is
  // unreachable once no pin at an epoch < E remains.
  const uint64_t min_pinned =
      pins_.empty() ? UINT64_MAX : pins_.begin()->first;
  std::vector<std::shared_ptr<const Database>> unreachable;
  size_t kept = 0;
  for (Retired& r : retired_) {
    if (min_pinned < r.retired_at_epoch) {
      retired_[kept++] = std::move(r);
    } else {
      unreachable.push_back(std::move(r.db));
      ++reclaimed_;
    }
  }
  retired_.resize(kept);
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  if (!unreachable.empty()) {
    registry.GetCounter("storage.snapshot.reclaimed")
        .Add(static_cast<uint64_t>(unreachable.size()));
  }
  registry.GetGauge("storage.snapshot.live_generations")
      .Set(static_cast<int64_t>(1 + retired_.size()));
  return unreachable;
}

uint64_t SnapshotStore::epoch() const {
  std::lock_guard<std::mutex> lock(mu_);
  return epoch_;
}

size_t SnapshotStore::live_generations() const {
  std::lock_guard<std::mutex> lock(mu_);
  return 1 + retired_.size();
}

uint64_t SnapshotStore::reclaimed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return reclaimed_;
}

}  // namespace semopt
