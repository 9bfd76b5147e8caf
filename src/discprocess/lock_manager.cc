#include "discprocess/lock_manager.h"

#include <algorithm>
#include <cassert>

namespace encompass::discprocess {

std::string LockKey::ToString() const {
  if (file_level()) return file + "/*";
  return file + "/" + encompass::ToString(record);
}

uint32_t LockManager::InternFile(const std::string& file) {
  auto it = file_ids_.find(file);
  if (it != file_ids_.end()) return it->second;
  uint32_t id = static_cast<uint32_t>(files_.size());
  file_ids_.emplace(file, id);
  files_.emplace_back();
  files_.back().name = file;
  return id;
}

LockManager::FileTable* LockManager::FindFile(const std::string& file) {
  auto it = file_ids_.find(file);
  return it == file_ids_.end() ? nullptr : &files_[it->second];
}

const LockManager::FileTable* LockManager::FindFile(
    const std::string& file) const {
  auto it = file_ids_.find(file);
  return it == file_ids_.end() ? nullptr : &files_[it->second];
}

LockManager::RecordEntry* LockManager::RecordUnit(FileTable& ft,
                                                  const Bytes& record) {
  auto it = ft.records.find(record);
  if (it != ft.records.end()) return &*it;
  if (free_records_.empty()) return &*ft.records.emplace(record, Unit{}).first;
  RecordTable::node_type node = std::move(free_records_.back());
  free_records_.pop_back();
  node.key().assign(record.begin(), record.end());
  return &*ft.records.insert(std::move(node)).position;
}

void LockManager::RecycleRecord(FileTable& ft, RecordEntry* entry) {
  assert(!entry->second.holder.valid() && entry->second.waiters.empty());
  free_records_.push_back(ft.records.extract(entry->first));
}

void LockManager::AddWaiting(FileTable& ft, RecordEntry* entry) {
  auto pos = std::lower_bound(
      ft.waiting_records.begin(), ft.waiting_records.end(), entry,
      [](const RecordEntry* a, const RecordEntry* b) {
        return Slice(a->first) < Slice(b->first);
      });
  if (pos == ft.waiting_records.end() || *pos != entry) {
    ft.waiting_records.insert(pos, entry);
  }
}

void LockManager::RemoveWaiting(FileTable& ft, RecordEntry* entry) {
  auto pos = std::find(ft.waiting_records.begin(), ft.waiting_records.end(),
                       entry);
  if (pos != ft.waiting_records.end()) ft.waiting_records.erase(pos);
}

LockManager::OwnerCell* LockManager::FindOwner(const Transid& owner) {
  const uint32_t* cell = owner_index_.Find(owner.Pack());
  return cell == nullptr ? nullptr : &owners_[*cell];
}

LockManager::OwnerCell& LockManager::OwnerFor(const Transid& owner) {
  if (OwnerCell* cell = FindOwner(owner)) return *cell;
  uint32_t id;
  if (free_owners_.empty()) {
    id = static_cast<uint32_t>(owners_.size());
    owners_.emplace_back();
  } else {
    id = free_owners_.back();
    free_owners_.pop_back();
  }
  owner_index_.Insert(owner.Pack(), id);
  owners_[id].owner = owner;
  return owners_[id];
}

void LockManager::FreeOwner(OwnerCell& cell) {
  assert(cell.waits.empty());
  owner_index_.Erase(cell.owner.Pack());
  free_owners_.push_back(static_cast<uint32_t>(&cell - owners_.data()));
  cell.owner = Transid{};
  cell.granted = false;
  cell.held.clear();
}

size_t LockManager::RecordsHeldByOther(uint32_t file, const Transid& owner) {
  size_t own = 0;
  if (const OwnerCell* cell = FindOwner(owner)) {
    for (const UnitRef& ref : cell->held) {
      own += (ref.file == file && ref.record != nullptr) ? 1 : 0;
    }
  }
  assert(own <= files_[file].held_records);
  return files_[file].held_records - own;
}

void LockManager::Grant(const Transid& owner, const UnitRef& ref) {
  UnitOf(ref).holder = owner;
  ++held_count_;
  if (ref.record != nullptr) ++files_[ref.file].held_records;
  OwnerCell& cell = OwnerFor(owner);
  cell.granted = true;
  cell.held.push_back(ref);
}

void LockManager::AddWait(const Transid& owner, const UnitRef& ref) {
  OwnerFor(owner).waits.push_back(ref);
  ++waiter_count_;
}

void LockManager::RemoveWait(const Transid& owner, const UnitRef& ref) {
  OwnerCell* cell = FindOwner(owner);
  if (cell == nullptr) return;
  auto it = std::find(cell->waits.begin(), cell->waits.end(), ref);
  if (it == cell->waits.end()) return;
  cell->waits.erase(it);
  --waiter_count_;
  if (cell->waits.empty() && !cell->granted) FreeOwner(*cell);
}

LockManager::AcquireResult LockManager::Acquire(const Transid& owner,
                                                const LockKey& key) {
  assert(owner.valid());
  const uint32_t file = InternFile(key.file);
  FileTable& ft = files_[file];

  // Covered by the owner's file lock?
  if (!key.file_level() && ft.file_unit.holder == owner) {
    return AcquireResult::kGranted;
  }

  const UnitRef ref{file,
                    key.file_level() ? nullptr : RecordUnit(ft, key.record)};
  Unit& unit = UnitOf(ref);
  if (unit.holder == owner) return AcquireResult::kGranted;

  bool grantable;
  if (key.file_level()) {
    grantable = !unit.holder.valid() && unit.waiters.empty() &&
                RecordsHeldByOther(file, owner) == 0;
  } else {
    grantable = !unit.holder.valid() && unit.waiters.empty() &&
                !(ft.file_unit.holder.valid() &&
                  !(ft.file_unit.holder == owner));
  }

  if (grantable) {
    Grant(owner, ref);
    return AcquireResult::kGranted;
  }
  // FIFO wait. The same owner never queues twice on one unit.
  for (const auto& w : unit.waiters) {
    if (w == owner) return AcquireResult::kQueued;
  }
  unit.waiters.push_back(owner);
  if (ref.record != nullptr) AddWaiting(ft, ref.record);
  AddWait(owner, ref);
  return AcquireResult::kQueued;
}

void LockManager::ForceGrant(const Transid& owner, const LockKey& key) {
  const uint32_t file = InternFile(key.file);
  FileTable& ft = files_[file];
  const UnitRef ref{file,
                    key.file_level() ? nullptr : RecordUnit(ft, key.record)};
  Unit& unit = UnitOf(ref);
  if (unit.holder == owner) return;
  if (unit.holder.valid()) {
    // Reassignment (backup mirroring an out-of-order checkpoint): the unit
    // moves to the new owner's list. The old holder keeps its cell, so it
    // still counts among Holders() until its own release.
    OwnerCell* old = FindOwner(unit.holder);
    assert(old != nullptr);
    old->held.erase(std::find(old->held.begin(), old->held.end(), ref));
    unit.holder = owner;
    OwnerCell& cell = OwnerFor(owner);
    cell.granted = true;
    cell.held.push_back(ref);
    return;
  }
  Grant(owner, ref);
}

std::vector<LockGrant> LockManager::ReleaseAll(const Transid& owner) {
  std::vector<LockGrant> grants;
  OwnerCell* cell = FindOwner(owner);
  if (cell == nullptr) return grants;

  // Files needing promotion, and record units that may end up free and
  // unwanted once promotion is done.
  touched_.clear();
  released_.clear();
  for (const UnitRef& ref : cell->held) {
    Unit& unit = UnitOf(ref);
    assert(unit.holder == owner);
    unit.holder = Transid{};
    --held_count_;
    if (ref.record != nullptr) {
      --files_[ref.file].held_records;
      released_.push_back(ref);
    }
    if (std::find(touched_.begin(), touched_.end(), ref.file) ==
        touched_.end()) {
      touched_.push_back(ref.file);
    }
  }
  // Also drop this owner from every wait queue it is parked in (an aborting
  // transaction may be waiting somewhere).
  const size_t held_records = released_.size();
  for (const UnitRef& ref : cell->waits) {
    Unit& unit = UnitOf(ref);
    unit.waiters.erase(
        std::remove(unit.waiters.begin(), unit.waiters.end(), owner),
        unit.waiters.end());
    if (ref.record != nullptr && unit.waiters.empty()) {
      RemoveWaiting(files_[ref.file], ref.record);
      // A unit can be both held and waited on by one owner after a
      // ForceGrant; it is already a candidate then.
      if (std::find(released_.begin(), released_.begin() + held_records,
                    ref) == released_.begin() + held_records) {
        released_.push_back(ref);
      }
    }
  }
  waiter_count_ -= cell->waits.size();
  cell->waits.clear();
  FreeOwner(*cell);

  // Promote per file in name order, as a release scan sorted by
  // (file, record) would.
  std::sort(touched_.begin(), touched_.end(), [this](uint32_t a, uint32_t b) {
    return files_[a].name < files_[b].name;
  });
  for (uint32_t file : touched_) {
    PromoteWaiters(file, &grants);
  }
  // Drop record units the release left free and unwanted, keeping the hash
  // tables tight; their nodes serve the next new keys.
  for (const UnitRef& ref : released_) {
    const Unit& unit = ref.record->second;
    if (!unit.holder.valid() && unit.waiters.empty()) {
      RecycleRecord(files_[ref.file], ref.record);
    }
  }
  return grants;
}

void LockManager::PromoteWaiters(uint32_t file,
                                 std::vector<LockGrant>* grants) {
  // Consider the file-level unit plus every record unit with waiters, in
  // byte order, and keep promoting until a pass grants nothing (a file-lock
  // grant can block later record grants and vice versa). This matches the
  // sorted full scan of the original implementation, so the grant sequence
  // is byte-identical; it merely skips units with nobody waiting.
  FileTable& ft = files_[file];
  bool progress = true;
  while (progress) {
    progress = false;
    if (!ft.file_unit.holder.valid() && !ft.file_unit.waiters.empty()) {
      const Transid candidate = ft.file_unit.waiters.front();
      if (RecordsHeldByOther(file, candidate) == 0) {
        const UnitRef ref{file, nullptr};
        Grant(candidate, ref);
        grants->push_back(LockGrant{candidate, LockKey{ft.name, {}}});
        ft.file_unit.waiters.erase(ft.file_unit.waiters.begin());
        RemoveWait(candidate, ref);
        progress = true;
      }
    }
    // Snapshot: grants during the pass may empty queues and mutate the list.
    promote_scan_.assign(ft.waiting_records.begin(), ft.waiting_records.end());
    for (RecordEntry* entry : promote_scan_) {
      Unit& unit = entry->second;
      if (unit.holder.valid() || unit.waiters.empty()) continue;
      const Transid candidate = unit.waiters.front();
      if (ft.file_unit.holder.valid() && !(ft.file_unit.holder == candidate)) {
        continue;
      }
      const UnitRef ref{file, entry};
      Grant(candidate, ref);
      grants->push_back(LockGrant{candidate, LockKey{ft.name, entry->first}});
      unit.waiters.erase(unit.waiters.begin());
      RemoveWait(candidate, ref);
      if (unit.waiters.empty()) RemoveWaiting(ft, entry);
      progress = true;
    }
  }
}

bool LockManager::CancelWait(const Transid& owner, const LockKey& key) {
  auto fit = file_ids_.find(key.file);
  if (fit == file_ids_.end()) return false;
  FileTable& ft = files_[fit->second];
  UnitRef ref{fit->second, nullptr};
  if (!key.file_level()) {
    auto rit = ft.records.find(key.record);
    if (rit == ft.records.end()) return false;
    ref.record = &*rit;
  }
  Unit& unit = UnitOf(ref);
  auto qit = std::find(unit.waiters.begin(), unit.waiters.end(), owner);
  if (qit == unit.waiters.end()) return false;
  unit.waiters.erase(qit);
  RemoveWait(owner, ref);
  if (ref.record != nullptr && unit.waiters.empty()) {
    RemoveWaiting(ft, ref.record);
    if (!unit.holder.valid()) RecycleRecord(ft, ref.record);
  }
  return true;
}

bool LockManager::Holds(const Transid& owner, const LockKey& key) const {
  const FileTable* ft = FindFile(key.file);
  if (ft == nullptr) return false;
  if (ft->file_unit.holder == owner) return true;
  if (key.file_level()) return false;
  auto rit = ft->records.find(key.record);
  return rit != ft->records.end() && rit->second.holder == owner;
}

std::vector<LockGrant> LockManager::AllHeld() const {
  // Deterministic (file, record) order, matching the original sorted table.
  std::vector<const FileTable*> tables;
  tables.reserve(files_.size());
  for (const auto& ft : files_) tables.push_back(&ft);
  std::sort(tables.begin(), tables.end(),
            [](const FileTable* a, const FileTable* b) {
              return a->name < b->name;
            });
  std::vector<LockGrant> out;
  for (const FileTable* ft : tables) {
    if (ft->file_unit.holder.valid()) {
      out.push_back(LockGrant{ft->file_unit.holder, LockKey{ft->name, {}}});
    }
    std::vector<const RecordEntry*> held;
    held.reserve(ft->records.size());
    for (const RecordEntry& entry : ft->records) {
      if (entry.second.holder.valid()) held.push_back(&entry);
    }
    std::sort(held.begin(), held.end(),
              [](const RecordEntry* a, const RecordEntry* b) {
                return Slice(a->first) < Slice(b->first);
              });
    for (const RecordEntry* entry : held) {
      out.push_back(
          LockGrant{entry->second.holder, LockKey{ft->name, entry->first}});
    }
  }
  return out;
}

std::vector<Transid> LockManager::Holders() const {
  std::vector<Transid> out;
  for (const OwnerCell& cell : owners_) {
    if (cell.owner.valid() && cell.granted) out.push_back(cell.owner);
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace encompass::discprocess
