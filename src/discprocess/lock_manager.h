// LockManager: the per-volume concurrency-control state. "Each DISCPROCESS
// maintains the locking control information for those records and files
// resident on its volume only" — concurrency control is decentralized; no
// central lock manager exists. Two granularities (file and record), all
// locks exclusive, FIFO waiting, deadlock resolution by timeout (the
// timeout itself lives in the DISCPROCESS, which cancels the wait).
//
// Internally the table is organized for cheap grant checks and a heap-free
// steady state: file names are interned to dense ids, each file owns a hash
// table of record units, and each transaction owns a pooled cell listing the
// units it holds and waits on. Record units freed by a release are kept as
// extracted hash nodes and reused by the next new key (the key buffer is
// reassigned in place), and wait queues are vectors, so a warm Acquire /
// ReleaseAll cycle allocates nothing. Waiter promotion iterates only units
// that actually have waiters, in the same deterministic order (file-level
// unit first, then record keys in byte order, files by name) as the original
// full-scan implementation, so grant order — and therefore every same-seed
// simulation trace — is unchanged.

#ifndef ENCOMPASS_DISCPROCESS_LOCK_MANAGER_H_
#define ENCOMPASS_DISCPROCESS_LOCK_MANAGER_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/flat_map.h"
#include "common/slice.h"
#include "common/transid.h"

namespace encompass::discprocess {

/// Identity of one lockable unit: a whole file, or one record (by primary
/// key) within a file.
struct LockKey {
  std::string file;
  Bytes record;  ///< empty = file-level lock

  bool file_level() const { return record.empty(); }
  std::string ToString() const;

  friend bool operator<(const LockKey& a, const LockKey& b) {
    if (a.file != b.file) return a.file < b.file;
    return Slice(a.record) < Slice(b.record);
  }
  friend bool operator==(const LockKey& a, const LockKey& b) {
    return a.file == b.file && Slice(a.record) == Slice(b.record);
  }
};

/// A lock grant handed out when a release unblocks a waiter.
struct LockGrant {
  Transid owner;
  LockKey key;
};

/// Exclusive two-granularity lock table for one volume.
class LockManager {
 public:
  enum class AcquireResult {
    kGranted,  ///< caller now holds the lock (or already did)
    kQueued,   ///< caller waits in FIFO order
  };

  LockManager() = default;
  // Owner cells and wait lists point at this table's own hash nodes.
  LockManager(const LockManager&) = delete;
  LockManager& operator=(const LockManager&) = delete;

  /// Requests the lock. A file-level lock conflicts with every record lock
  /// in that file held by another transaction, and vice versa. Re-acquiring
  /// a held lock (or a record covered by the caller's file lock) grants.
  AcquireResult Acquire(const Transid& owner, const LockKey& key);

  /// Grants unconditionally — used by a process-pair backup to mirror the
  /// primary's grants from checkpoints. Never queues.
  void ForceGrant(const Transid& owner, const LockKey& key);

  /// Releases every lock held by `owner` (commit phase two, or abort
  /// completion) and removes it from all wait queues. Returns the waiters
  /// that acquired locks as a result, in grant order.
  std::vector<LockGrant> ReleaseAll(const Transid& owner);

  /// Removes `owner` from the wait queue of `key` (lock-wait timeout).
  /// Returns true if a waiting entry was removed.
  bool CancelWait(const Transid& owner, const LockKey& key);

  /// True if `owner` holds `key` itself or a covering file lock.
  bool Holds(const Transid& owner, const LockKey& key) const;

  size_t held_count() const { return held_count_; }
  size_t waiter_count() const { return waiter_count_; }
  /// Transactions currently holding at least one lock.
  std::vector<Transid> Holders() const;
  /// Every held (owner, key) pair, ordered by (file, record) — used for
  /// full-state checkpoints when a fresh backup attaches.
  std::vector<LockGrant> AllHeld() const;

 private:
  struct Unit {
    Transid holder;                // !valid() = free
    std::vector<Transid> waiters;  // FIFO
  };

  struct BytesHash {
    size_t operator()(const Bytes& b) const {
      return std::hash<std::string_view>{}(std::string_view(
          reinterpret_cast<const char*>(b.data()), b.size()));
    }
  };

  using RecordTable = std::unordered_map<Bytes, Unit, BytesHash>;
  /// A record unit with its key. Its address is stable while it is in the
  /// table (rehashing moves no node).
  using RecordEntry = RecordTable::value_type;

  /// All lock state of one file. Record units live in a hash table; the
  /// units with a nonempty wait queue are also kept sorted by key, so
  /// promotion scans only contended units, in deterministic byte order.
  struct FileTable {
    std::string name;
    Unit file_unit;
    RecordTable records;
    size_t held_records = 0;  ///< record units with a valid holder
    std::vector<RecordEntry*> waiting_records;  ///< sorted by key
  };

  /// One lockable unit: a record entry of file `file`, or that file's
  /// file-level unit when `record` is null.
  struct UnitRef {
    uint32_t file;
    RecordEntry* record;
    friend bool operator==(const UnitRef& a, const UnitRef& b) {
      return a.file == b.file && a.record == b.record;
    }
  };

  /// What one transaction holds and waits on. Cells are pooled, and their
  /// lists keep their capacity from one transaction to the next.
  struct OwnerCell {
    Transid owner;      ///< !valid() = free cell
    bool granted = false;  ///< has been granted a lock since its last release
    std::vector<UnitRef> held;   ///< every unit it holds, each exactly once
    std::vector<UnitRef> waits;  ///< every queue it waits in
  };

  uint32_t InternFile(const std::string& file);
  FileTable* FindFile(const std::string& file);
  const FileTable* FindFile(const std::string& file) const;
  Unit& UnitOf(const UnitRef& ref) {
    return ref.record != nullptr ? ref.record->second
                                 : files_[ref.file].file_unit;
  }

  /// The record unit for `record`, created (from a recycled node when one
  /// is free) if absent.
  RecordEntry* RecordUnit(FileTable& ft, const Bytes& record);
  /// Removes a free, unwanted record unit and keeps its node for reuse.
  void RecycleRecord(FileTable& ft, RecordEntry* entry);
  void AddWaiting(FileTable& ft, RecordEntry* entry);
  void RemoveWaiting(FileTable& ft, RecordEntry* entry);

  /// The owner's cell, or nullptr. Valid until the next OwnerFor.
  OwnerCell* FindOwner(const Transid& owner);
  /// The owner's cell, taken from the pool if absent.
  OwnerCell& OwnerFor(const Transid& owner);
  /// Returns a cell with no holds and no waits to the pool.
  void FreeOwner(OwnerCell& cell);

  /// Record units of file `file` held by transactions other than `owner`.
  size_t RecordsHeldByOther(uint32_t file, const Transid& owner);

  void Grant(const Transid& owner, const UnitRef& ref);
  /// Promotes waiters of file `file` whose grant conditions now hold;
  /// appends grants in the same order as a sorted full scan would produce.
  void PromoteWaiters(uint32_t file, std::vector<LockGrant>* grants);

  void AddWait(const Transid& owner, const UnitRef& ref);
  void RemoveWait(const Transid& owner, const UnitRef& ref);

  std::unordered_map<std::string, uint32_t> file_ids_;
  std::vector<FileTable> files_;
  std::vector<RecordTable::node_type> free_records_;  ///< recycled units

  std::vector<OwnerCell> owners_;
  std::vector<uint32_t> free_owners_;
  FlatMap<uint64_t, uint32_t> owner_index_;  ///< packed transid -> owners_

  // Scratch lists of ReleaseAll and PromoteWaiters, kept for their capacity.
  std::vector<uint32_t> touched_;
  std::vector<UnitRef> released_;
  std::vector<RecordEntry*> promote_scan_;

  size_t held_count_ = 0;
  size_t waiter_count_ = 0;
};

}  // namespace encompass::discprocess

#endif  // ENCOMPASS_DISCPROCESS_LOCK_MANAGER_H_
