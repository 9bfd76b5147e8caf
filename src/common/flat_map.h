// FlatMap / FlatSet / RecentSet: open-addressing hash tables for the small,
// trivially copyable keys of the per-message bookkeeping (request ids,
// packed transids, (requester, request id) pairs).
//
// One contiguous slot array, linear probing, Fibonacci hashing of the key's
// std::hash, and backward-shift deletion (no tombstones). An insert or erase
// allocates nothing; the array doubles only when the load passes one half,
// so a table that has reached its working size never allocates again —
// unlike std::unordered_map, which allocates a node on every insert.
//
// Iteration order is a function of the hash, so nothing order-sensitive may
// iterate these tables; none of them offers iteration.

#ifndef ENCOMPASS_COMMON_FLAT_MAP_H_
#define ENCOMPASS_COMMON_FLAT_MAP_H_

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <type_traits>
#include <utility>
#include <vector>

namespace encompass {

template <typename K, typename V, typename Hash = std::hash<K>>
class FlatMap {
  static_assert(std::is_trivially_copyable_v<K> &&
                    std::is_trivially_copyable_v<V>,
                "FlatMap slots are moved by plain copies");

 public:
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  V* Find(const K& key) {
    if (size_ == 0) return nullptr;
    for (size_t i = Home(key);; i = (i + 1) & mask_) {
      Slot& s = slots_[i];
      if (!s.used) return nullptr;
      if (s.key == key) return &s.value;
    }
  }
  const V* Find(const K& key) const {
    return const_cast<FlatMap*>(this)->Find(key);
  }
  bool Contains(const K& key) const { return Find(key) != nullptr; }

  /// Inserts (key, value) when key is absent. Returns the key's value slot
  /// (valid until the next insert or erase) and whether it was inserted.
  std::pair<V*, bool> Insert(const K& key, const V& value) {
    if (V* found = Find(key)) return {found, false};
    if (2 * (size_ + 1) > slots_.size()) Grow();
    size_t i = Home(key);
    while (slots_[i].used) i = (i + 1) & mask_;
    slots_[i] = Slot{key, value, true};
    ++size_;
    return {&slots_[i].value, true};
  }

  /// Removes key; returns false when it was absent.
  bool Erase(const K& key) {
    if (size_ == 0) return false;
    size_t i = Home(key);
    while (true) {
      if (!slots_[i].used) return false;
      if (slots_[i].key == key) break;
      i = (i + 1) & mask_;
    }
    // Backward shift: pull each later member of the probe run into the hole
    // unless its home lies cyclically in (hole, j].
    for (size_t j = (i + 1) & mask_; slots_[j].used; j = (j + 1) & mask_) {
      const size_t home = Home(slots_[j].key);
      const bool stays = i <= j ? (i < home && home <= j)
                                : (i < home || home <= j);
      if (stays) continue;
      slots_[i] = slots_[j];
      i = j;
    }
    slots_[i].used = false;
    --size_;
    return true;
  }

 private:
  struct Slot {
    K key;
    V value;
    bool used;
  };

  size_t Home(const K& key) const {
    return static_cast<size_t>(
        (static_cast<uint64_t>(Hash{}(key)) * 0x9E3779B97F4A7C15ull) >>
        shift_);
  }

  void Grow() {
    std::vector<Slot> old = std::move(slots_);
    const size_t capacity = old.empty() ? 16 : 2 * old.size();
    slots_.assign(capacity, Slot{K{}, V{}, false});
    mask_ = capacity - 1;
    shift_ = 64;
    for (size_t c = capacity; c > 1; c >>= 1) --shift_;
    size_ = 0;
    for (const Slot& s : old) {
      if (!s.used) continue;
      size_t i = Home(s.key);
      while (slots_[i].used) i = (i + 1) & mask_;
      slots_[i] = s;
      ++size_;
    }
  }

  std::vector<Slot> slots_;
  size_t size_ = 0;
  size_t mask_ = 0;
  unsigned shift_ = 64;
};

template <typename K, typename Hash = std::hash<K>>
class FlatSet {
 public:
  size_t size() const { return map_.size(); }
  bool Contains(const K& key) const { return map_.Contains(key); }
  /// Returns true when key was absent.
  bool Insert(const K& key) { return map_.Insert(key, true).second; }
  bool Erase(const K& key) { return map_.Erase(key); }

 private:
  FlatMap<K, bool, Hash> map_;
};

/// The newest `capacity` distinct keys inserted. Inserting a new key past
/// the capacity forgets the oldest one (FIFO by first insertion; inserting
/// a key already present does not refresh it). The order ring grows lazily,
/// so a set that never fills holds only what it was given.
template <typename K, typename Hash = std::hash<K>>
class RecentSet {
 public:
  explicit RecentSet(size_t capacity) : capacity_(capacity) {
    assert(capacity > 0);
  }

  size_t size() const { return index_.size(); }
  bool Contains(const K& key) const { return index_.Contains(key); }

  void Insert(const K& key) {
    if (!index_.Insert(key)) return;
    if (order_.size() < capacity_) {
      order_.push_back(key);
      return;
    }
    index_.Erase(order_[oldest_]);
    order_[oldest_] = key;
    oldest_ = (oldest_ + 1) % capacity_;
  }

 private:
  FlatSet<K, Hash> index_;
  std::vector<K> order_;  ///< ring of keys; order_[oldest_] goes first once full
  size_t oldest_ = 0;
  size_t capacity_;
};

}  // namespace encompass

#endif  // ENCOMPASS_COMMON_FLAT_MAP_H_
