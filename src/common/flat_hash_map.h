#ifndef STREAMLINE_COMMON_FLAT_HASH_MAP_H_
#define STREAMLINE_COMMON_FLAT_HASH_MAP_H_

#include <cstdint>
#include <tuple>
#include <utility>
#include <vector>

#include "common/logging.h"

namespace streamline {

/// Flat open-addressing hash map, the engine's keyed-state backend.
///
/// Layout: entries live densely in insertion order in one contiguous array;
/// the hash table itself is a separate slot array of (cached hash, entry
/// index) pairs. Lookups probe the slot array (power-of-two capacity,
/// triangular probing, so the sequence idx, idx+1, idx+3, idx+6, ... visits
/// every slot) and compare cached hashes before touching a key, so a miss
/// usually costs a few slot reads and zero key comparisons.
///
/// Why dense insertion-order storage instead of storing entries in the
/// slots directly:
///  - Iteration order is the insertion order of the live entries -- a pure
///    function of the logical operation history, independent of capacity
///    and rehash history. Snapshot serialization over this map is therefore
///    deterministic: snapshot -> restore -> snapshot round-trips are
///    byte-identical, which the chaos tests diff (a correctness
///    requirement, not a nicety).
///  - Rehashing moves only 12-byte slots, never entries, and recomputes no
///    hashes (they are cached).
///  - Iteration (watermark sweeps over every key) is a linear walk of a
///    dense array.
///
/// The map never calls a hash function: every operation takes the
/// precomputed 64-bit hash alongside the key (heterogeneous, pre-hashed
/// lookup). Callers keying by Value must use KeyHashOf() everywhere --
/// mixing hash functions for the same map silently splits keys.
///
/// Deletion: the slot is tombstoned and the entry is swap-removed from the
/// dense array (the last entry moves into the hole). Erase(iterator)
/// therefore returns an iterator at the *same* position, which is the next
/// element to visit -- matching the `it = m.Erase(it)` idiom. References
/// and iterators into the dense array are invalidated by insert and erase.
///
/// Not thread-safe; operators are single-threaded per subtask by contract.
template <typename K, typename V>
class FlatHashMap {
 public:
  using Entry = std::pair<K, V>;
  using iterator = Entry*;
  using const_iterator = const Entry*;

  FlatHashMap() = default;

  size_t size() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }

  iterator begin() { return entries_.data(); }
  iterator end() { return entries_.data() + entries_.size(); }
  const_iterator begin() const { return entries_.data(); }
  const_iterator end() const { return entries_.data() + entries_.size(); }

  /// Drops all entries; keeps the current slot capacity.
  void clear() {
    entries_.clear();
    hashes_.clear();
    slots_.assign(slots_.size(), Slot{0, kEmpty});
    tombstones_ = 0;
    max_probe_ = 0;
  }

  /// Pre-sizes for `n` entries (used by state restore, which knows the
  /// count up front).
  void Reserve(size_t n) {
    entries_.reserve(n);
    hashes_.reserve(n);
    size_t cap = kMinCapacity;
    while (cap * 7 < (n + 1) * 8) cap *= 2;
    if (cap > slots_.size()) Rehash(cap);
  }

  /// Pre-hashed lookup. `hash` must be the caller's canonical hash of
  /// `key` (KeyHashOf for Value keys). Returns null on miss.
  template <typename KeyLike>
  V* Find(uint64_t hash, const KeyLike& key) {
    return const_cast<V*>(
        static_cast<const FlatHashMap*>(this)->Find(hash, key));
  }

  template <typename KeyLike>
  const V* Find(uint64_t hash, const KeyLike& key) const {
    if (slots_.empty()) return nullptr;
    const size_t mask = slots_.size() - 1;
    size_t idx = hash & mask;
    size_t step = 0;
    while (true) {
      const Slot& s = slots_[idx];
      if (s.index == kEmpty) return nullptr;
      if (s.index != kTombstone && s.hash == hash &&
          entries_[s.index].first == key) {
        return &entries_[s.index].second;
      }
      idx = (idx + ++step) & mask;
    }
  }

  /// Inserts value_args-constructed V under (hash, key) unless present.
  /// Returns (entry, inserted). The entry pointer is invalidated by the
  /// next insert or erase.
  template <typename... Args>
  std::pair<Entry*, bool> TryEmplace(uint64_t hash, const K& key,
                                     Args&&... value_args) {
    MaybeGrow();
    const size_t mask = slots_.size() - 1;
    size_t idx = hash & mask;
    size_t step = 0;
    size_t first_tombstone = kNpos;
    while (true) {
      Slot& s = slots_[idx];
      if (s.index == kEmpty) break;
      if (s.index == kTombstone) {
        if (first_tombstone == kNpos) first_tombstone = idx;
      } else if (s.hash == hash && entries_[s.index].first == key) {
        return {&entries_[s.index], false};
      }
      idx = (idx + ++step) & mask;
    }
    if (step + 1 > max_probe_) max_probe_ = step + 1;
    if (first_tombstone != kNpos) {
      idx = first_tombstone;
      --tombstones_;
    }
    slots_[idx] = Slot{hash, static_cast<uint32_t>(entries_.size())};
    entries_.emplace_back(std::piecewise_construct,
                          std::forward_as_tuple(key),
                          std::forward_as_tuple(
                              std::forward<Args>(value_args)...));
    hashes_.push_back(hash);
    return {&entries_.back(), true};
  }

  /// Erases the entry at `it` (swap-remove). Returns an iterator at the
  /// same position: the element to visit next when sweeping.
  iterator Erase(iterator it) {
    const size_t idx = static_cast<size_t>(it - entries_.data());
    STREAMLINE_CHECK(idx < entries_.size());
    slots_[SlotOfIndex(idx)].index = kTombstone;
    ++tombstones_;
    const size_t last = entries_.size() - 1;
    if (idx != last) {
      slots_[SlotOfIndex(last)].index = static_cast<uint32_t>(idx);
      entries_[idx] = std::move(entries_[last]);
      hashes_[idx] = hashes_[last];
    }
    entries_.pop_back();
    hashes_.pop_back();
    return it;
  }

  /// Erases by (hash, key); returns whether an entry was removed.
  bool Erase(uint64_t hash, const K& key) {
    if (slots_.empty()) return false;
    const size_t mask = slots_.size() - 1;
    size_t idx = hash & mask;
    size_t step = 0;
    while (true) {
      const Slot& s = slots_[idx];
      if (s.index == kEmpty) return false;
      if (s.index != kTombstone && s.hash == hash &&
          entries_[s.index].first == key) {
        Erase(entries_.data() + s.index);
        return true;
      }
      idx = (idx + ++step) & mask;
    }
  }

  /// The cached hash of the entry at dense position `index` (what the
  /// entry was inserted under), so sweeps never rehash a key.
  uint64_t hash_at(size_t index) const { return hashes_[index]; }

  // --- observability (exported as gauges by the keyed operators) ----------

  /// Live entries over slot capacity (0 when never inserted into).
  double load_factor() const {
    return slots_.empty() ? 0.0
                          : static_cast<double>(entries_.size()) /
                                static_cast<double>(slots_.size());
  }
  /// Longest probe sequence any insert has walked since the last rehash.
  size_t max_probe_length() const { return max_probe_; }
  size_t capacity() const { return slots_.size(); }
  size_t tombstones() const { return tombstones_; }

 private:
  struct Slot {
    uint64_t hash = 0;
    uint32_t index = kEmpty;
  };

  static constexpr uint32_t kEmpty = 0xFFFFFFFFu;
  static constexpr uint32_t kTombstone = 0xFFFFFFFEu;
  static constexpr size_t kNpos = static_cast<size_t>(-1);
  static constexpr size_t kMinCapacity = 16;

  /// Slot holding entry index `target`; the entry must exist.
  size_t SlotOfIndex(size_t target) const {
    const size_t mask = slots_.size() - 1;
    size_t idx = hashes_[target] & mask;
    size_t step = 0;
    while (slots_[idx].index != target) idx = (idx + ++step) & mask;
    return idx;
  }

  /// Keeps used slots (live + tombstones) below 7/8 of capacity before an
  /// insert. Grows 2x when live entries alone cross 5/8, else rehashes in
  /// place to purge tombstones.
  void MaybeGrow() {
    if (slots_.empty()) {
      Rehash(kMinCapacity);
      return;
    }
    const size_t used = entries_.size() + tombstones_ + 1;
    if (used * 8 <= slots_.size() * 7) return;
    const size_t cap = (entries_.size() + 1) * 8 > slots_.size() * 5
                           ? slots_.size() * 2
                           : slots_.size();
    Rehash(cap);
  }

  void Rehash(size_t new_cap) {
    slots_.assign(new_cap, Slot{0, kEmpty});
    tombstones_ = 0;
    max_probe_ = 0;
    const size_t mask = new_cap - 1;
    for (size_t i = 0; i < entries_.size(); ++i) {
      size_t idx = hashes_[i] & mask;
      size_t step = 0;
      while (slots_[idx].index != kEmpty) idx = (idx + ++step) & mask;
      if (step + 1 > max_probe_) max_probe_ = step + 1;
      slots_[idx] = Slot{hashes_[i], static_cast<uint32_t>(i)};
    }
  }

  std::vector<Entry> entries_;     // dense, insertion order
  std::vector<uint64_t> hashes_;   // hashes_[i] = hash of entries_[i].first
  std::vector<Slot> slots_;        // power-of-two open-addressing table
  size_t tombstones_ = 0;
  size_t max_probe_ = 0;
};

}  // namespace streamline

#endif  // STREAMLINE_COMMON_FLAT_HASH_MAP_H_
