#ifndef SEMOPT_STORAGE_DATABASE_H_
#define SEMOPT_STORAGE_DATABASE_H_

#include <map>
#include <memory>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "ast/atom.h"
#include "storage/relation.h"
#include "util/result.h"

namespace semopt {

/// The net change one write makes to one relation: `erased` rows are
/// removed, then `inserted` rows added (set semantics on both sides, so
/// replaying the same delta on an equal relation yields an equal one).
struct RelationDelta {
  explicit RelationDelta(uint32_t arity) : erased(arity), inserted(arity) {}

  bool empty() const { return erased.empty() && inserted.empty(); }
  size_t rows() const { return erased.size() + inserted.size(); }

  /// Erases, then inserts, into `rel`.
  void ApplyTo(Relation* rel) const;

  TupleBuffer erased;
  TupleBuffer inserted;
};

/// One write's per-predicate net changes — the unit SnapshotStore's
/// delta write path publishes and the incremental evaluator reports.
using DatabaseDelta = std::map<PredicateId, RelationDelta>;

/// The stored tuple of a ground fact; fails on a non-ground argument.
Result<Tuple> FactTuple(const Atom& fact);

/// A database instance: a set of named relations (typically the EDB; the
/// evaluation engine materializes IDB relations into a separate Database).
/// Relations are created on first reference.
///
/// Relations are held by shared_ptr so two databases can share unchanged
/// relations copy-on-write: `CloneShared` is O(#relations) pointer
/// copies, and a shared relation is deep-copied ("detached") only when a
/// mutable accessor actually reaches for it. SnapshotStore::Mutate
/// builds each new generation this way, so a write batch clones exactly
/// the relations it touches (counted by the
/// `storage.snapshot.relations_cloned` metric) while every other
/// relation — and its already-built indexes — stays pointer-identical
/// across generations. SnapshotStore::ApplyDelta goes one step further
/// and swaps whole relation objects in and out of a generation, which
/// is why it reaches the relation slots directly (friend).
class Database {
 public:
  Database() = default;
  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;
  Database(Database&&) = default;
  Database& operator=(Database&&) = default;

  /// The relation for `pred`, creating an empty one if absent. Detaches
  /// a relation shared with another database before returning it.
  Relation& GetOrCreate(const PredicateId& pred);

  /// The relation for `pred`, or nullptr when absent. The mutable form
  /// detaches a shared relation before returning it.
  const Relation* Find(const PredicateId& pred) const;
  Relation* FindMutable(const PredicateId& pred);

  /// True when `pred`'s relation is also held by another database (a
  /// CloneShared copy or a snapshot generation).
  bool Shared(const PredicateId& pred) const;

  /// Replaces `pred`'s relation with a private deep copy, whatever its
  /// reference count, and returns it. For a database that borrowed
  /// relations from snapshot generations other threads release: the
  /// reference count alone cannot tell it when a borrowed relation has
  /// become safe to write in place.
  Relation& Unshare(const PredicateId& pred);

  /// Inserts a fact given as a ground atom. Fails on non-ground args.
  Status AddFact(const Atom& fact);

  /// Convenience: `AddFact` on "pred(v1, ..., vn)" built from values.
  void AddTuple(std::string_view predicate, Tuple tuple);

  /// All predicates with a (possibly empty) relation.
  std::vector<PredicateId> Predicates() const;

  /// Total number of stored tuples across relations.
  size_t TotalTuples() const;

  /// Deep copy (for differential testing: evaluate two programs on the
  /// same EDB without sharing index state).
  Database Clone() const;

  /// Shallow copy-on-write copy: the new database shares every relation
  /// with this one (pointer copies only); either side deep-copies a
  /// relation the moment it mutates it. This is the snapshot-store
  /// write path — cloning a multi-gigabyte generation costs one map of
  /// pointers, not a tuple copy.
  Database CloneShared() const;

  /// Deep-copies every relation of `other` into this database,
  /// replacing same-predicate entries (how `.materialize` gives a write
  /// generation its own copy of a view's IDB).
  void CopyRelationsFrom(const Database& other);

  /// Applies every relation's delta in place (creating relations as
  /// needed).
  void ApplyDelta(const DatabaseDelta& delta);

  /// True if both databases contain exactly the same facts (index and
  /// insertion-order insensitive).
  bool SameFactsAs(const Database& other) const;

  /// Renders every relation on its own line, predicates sorted.
  std::string ToString() const;

 private:
  /// Deep-copies `*slot` if it is shared with another database, so the
  /// caller can hand out a mutable reference. Bumps the
  /// `storage.snapshot.relations_cloned` metric when it copies.
  static void DetachIfShared(std::shared_ptr<Relation>* slot);

  friend class SnapshotStore;

  std::map<PredicateId, std::shared_ptr<Relation>> relations_;
};

/// The net change one update batch makes to `base`: `dels` removed
/// first, then `adds` inserted, with set semantics on both sides —
/// deleting an absent tuple or inserting a present one is a no-op, and
/// a tuple in both ends up present. Every fact is converted before
/// anything is decided, so a non-ground fact fails the whole batch.
/// Costs O(batch) lookups into `base`. This is the one place a write
/// batch is staged: the plain write path publishes the result as is,
/// and the incremental evaluator seeds its maintenance from it.
Result<DatabaseDelta> StageBatch(const Database& base,
                                 const std::vector<Atom>& adds,
                                 const std::vector<Atom>& dels);

}  // namespace semopt

#endif  // SEMOPT_STORAGE_DATABASE_H_
