#ifndef STREAMLINE_AGG_SLICE_STORE_H_
#define STREAMLINE_AGG_SLICE_STORE_H_

#include <algorithm>
#include <cstdint>
#include <deque>
#include <vector>

#include "common/logging.h"
#include "common/serde.h"
#include "common/time.h"

namespace streamline {

/// Slice stores hold the partial aggregates of closed slices, ordered by
/// slice start time, and answer range-combine queries over contiguous slice
/// ranges. All three implementations share this interface:
///
///   void Append(Timestamp start, Partial p);      // push newest slice
///   size_t BeginIndex() / EndIndex();              // live logical range
///   size_t LowerBound(Timestamp t);                // first idx, start >= t
///   Partial RangeCombine(size_t i, size_t j);      // combine [i, j) in order
///   void EvictBefore(size_t i);                    // drop idx < i
///
/// Logical indices increase monotonically over the stream and are never
/// reused, so callers can hold them across evictions. Range combines apply
/// Agg::Combine strictly left-to-right (oldest first), which makes the
/// stores safe for non-commutative aggregates.

/// O(j-i) range combine by linear scan — Cutty's "lazy" store. Cheap appends
/// and eviction; fires pay per-slice cost.
template <typename Agg>
class LinearStore {
 public:
  using Partial = typename Agg::Partial;

  explicit LinearStore(Agg agg = Agg()) : agg_(std::move(agg)) {}

  void Append(Timestamp start, Partial p) {
    STREAMLINE_DCHECK(starts_.empty() || start >= starts_.back());
    starts_.push_back(start);
    partials_.push_back(std::move(p));
  }

  size_t BeginIndex() const { return base_; }
  size_t EndIndex() const { return base_ + starts_.size(); }
  size_t size() const { return starts_.size(); }

  size_t LowerBound(Timestamp t) const {
    auto it = std::lower_bound(starts_.begin(), starts_.end(), t);
    return base_ + static_cast<size_t>(it - starts_.begin());
  }

  /// True iff a retained slice starts exactly at `t` -- i.e. the stream was
  /// provably cut at `t` and everything from `t` on is still stored
  /// (eviction is prefix-only). Backfill probes at query attach.
  bool HasCutAt(Timestamp t) const {
    return std::binary_search(starts_.begin(), starts_.end(), t);
  }

  Partial RangeCombine(size_t i, size_t j) {
    STREAMLINE_DCHECK(i >= BeginIndex() && j <= EndIndex() && i <= j);
    Partial acc = agg_.Identity();
    for (size_t k = i - base_; k < j - base_; ++k) {
      acc = agg_.Combine(acc, partials_[k]);
      ++combine_ops_;
    }
    return acc;
  }

  void EvictBefore(size_t i) {
    while (base_ < i && !starts_.empty()) {
      starts_.pop_front();
      partials_.pop_front();
      ++base_;
    }
  }

  uint64_t combine_ops() const { return combine_ops_; }

  /// Serializes the store; `ser(partial, writer)` encodes one partial.
  template <typename SerFn>
  void Snapshot(BinaryWriter* w, const SerFn& ser) const {
    w->WriteU64(base_);
    w->WriteU64(starts_.size());
    for (size_t k = 0; k < starts_.size(); ++k) {
      w->WriteI64(starts_[k]);
      ser(partials_[k], w);
    }
  }

  /// Restores a snapshot; `de(reader)` yields Result<Partial>.
  template <typename DeFn>
  Status Restore(BinaryReader* r, const DeFn& de) {
    auto base = r->ReadU64();
    if (!base.ok()) return base.status();
    auto n = r->ReadU64();
    if (!n.ok()) return n.status();
    starts_.clear();
    partials_.clear();
    base_ = *base;
    for (uint64_t k = 0; k < *n; ++k) {
      auto start = r->ReadI64();
      if (!start.ok()) return start.status();
      auto p = de(r);
      if (!p.ok()) return p.status();
      starts_.push_back(*start);
      partials_.push_back(std::move(*p));
    }
    return Status::Ok();
  }

 private:
  Agg agg_;
  size_t base_ = 0;  // logical index of starts_[0]
  std::deque<Timestamp> starts_;
  std::deque<Partial> partials_;
  uint64_t combine_ops_ = 0;
};

/// FlatFAT (Tangwongsan et al.): a pointerless binary aggregation tree over
/// a ring buffer of slice partials. Appends, evictions and range combines
/// are all O(log n); works for non-invertible aggregates. This is Cutty's
/// "eager" shared store.
///
/// Sized to its live slices: the ring starts at one leaf and doubles when
/// an append finds it full, so its capacity is the smallest power of two
/// >= the peak live count (the window operator keeps one store per key, and
/// a session key holds one or two slices). Slice starts share the ring:
/// `starts_[p]` is the start of the slice at leaf `p`.
template <typename Agg>
class FlatFatStore {
 public:
  using Partial = typename Agg::Partial;

  explicit FlatFatStore(Agg agg = Agg(), size_t initial_capacity = 1)
      : agg_(std::move(agg)) {
    capacity_ = 1;
    while (capacity_ < initial_capacity) capacity_ <<= 1;
    tree_.assign(2 * capacity_, agg_.Identity());
    starts_.resize(capacity_);
  }

  void Append(Timestamp start, Partial p) {
    STREAMLINE_DCHECK(count_ == 0 || start >= StartAt(count_ - 1));
    if (count_ == capacity_) Grow();
    const size_t pos = Phys(count_);
    SetLeaf(pos, std::move(p));
    starts_[pos] = start;
    ++count_;
  }

  size_t BeginIndex() const { return base_; }
  size_t EndIndex() const { return base_ + count_; }
  size_t size() const { return count_; }

  size_t LowerBound(Timestamp t) const { return base_ + LowerOffset(t); }

  /// See LinearStore::HasCutAt.
  bool HasCutAt(Timestamp t) const {
    const size_t off = LowerOffset(t);
    return off < count_ && StartAt(off) == t;
  }

  Partial RangeCombine(size_t i, size_t j) {
    STREAMLINE_DCHECK(i >= BeginIndex() && j <= EndIndex() && i <= j);
    if (i == j) return agg_.Identity();
    const size_t off = i - base_;
    const size_t len = j - i;
    const size_t p0 = Phys(off);
    if (p0 + len <= capacity_) {
      return QuerySegment(p0, p0 + len);
    }
    // Logical range wraps the ring: combine the tail segment then the head
    // segment (tail is older in stream order).
    Partial a = QuerySegment(p0, capacity_);
    Partial b = QuerySegment(0, p0 + len - capacity_);
    ++combine_ops_;
    return agg_.Combine(a, b);
  }

  void EvictBefore(size_t i) {
    while (base_ < i && count_ > 0) {
      SetLeaf(head_, agg_.Identity());
      head_ = Phys(1);
      --count_;
      ++base_;
    }
  }

  uint64_t combine_ops() const { return combine_ops_; }
  size_t capacity() const { return capacity_; }

  /// Serializes the live leaves in logical order; the tree is rebuilt on
  /// restore, so the snapshot stays store-implementation independent.
  template <typename SerFn>
  void Snapshot(BinaryWriter* w, const SerFn& ser) const {
    w->WriteU64(base_);
    w->WriteU64(count_);
    for (size_t k = 0; k < count_; ++k) {
      w->WriteI64(StartAt(k));
      ser(tree_[capacity_ + Phys(k)], w);
    }
  }

  template <typename DeFn>
  Status Restore(BinaryReader* r, const DeFn& de) {
    auto base = r->ReadU64();
    if (!base.ok()) return base.status();
    auto n = r->ReadU64();
    if (!n.ok()) return n.status();
    std::fill(tree_.begin(), tree_.end(), agg_.Identity());
    head_ = 0;
    count_ = 0;
    base_ = *base;
    for (uint64_t k = 0; k < *n; ++k) {
      auto start = r->ReadI64();
      if (!start.ok()) return start.status();
      auto p = de(r);
      if (!p.ok()) return p.status();
      Append(*start, std::move(*p));
    }
    return Status::Ok();
  }

 private:
  // Physical ring position of the leaf at logical offset `k` from the
  // oldest (capacity_ is a power of two).
  size_t Phys(size_t k) const { return (head_ + k) & (capacity_ - 1); }
  Timestamp StartAt(size_t k) const { return starts_[Phys(k)]; }

  // First logical offset whose start is >= t (count_ if none): a binary
  // search of the logical ring, whose starts are non-decreasing.
  size_t LowerOffset(Timestamp t) const {
    size_t lo = 0;
    size_t n = count_;
    while (n > 0) {
      const size_t half = n / 2;
      if (StartAt(lo + half) < t) {
        lo += half + 1;
        n -= half + 1;
      } else {
        n = half;
      }
    }
    return lo;
  }

  // Writes leaf `pos` and recomputes its ancestors bottom-up.
  void SetLeaf(size_t pos, Partial p) {
    size_t node = capacity_ + pos;
    tree_[node] = std::move(p);
    node >>= 1;
    while (node >= 1) {
      tree_[node] = agg_.Combine(tree_[2 * node], tree_[2 * node + 1]);
      ++combine_ops_;
      node >>= 1;
    }
  }

  // Order-preserving iterative segment-tree query over physical leaves
  // [l, r); physical order equals stream order within a non-wrapping range.
  Partial QuerySegment(size_t l, size_t r) {
    Partial left = agg_.Identity();
    Partial right = agg_.Identity();
    size_t lo = l + capacity_;
    size_t hi = r + capacity_;
    while (lo < hi) {
      if (lo & 1) {
        left = agg_.Combine(left, tree_[lo++]);
        ++combine_ops_;
      }
      if (hi & 1) {
        right = agg_.Combine(tree_[--hi], right);
        ++combine_ops_;
      }
      lo >>= 1;
      hi >>= 1;
    }
    ++combine_ops_;
    return agg_.Combine(left, right);
  }

  // Doubles the ring, relinearizing leaves and starts so the oldest slice
  // sits at position 0.
  void Grow() {
    const size_t new_capacity = capacity_ * 2;
    std::vector<Partial> new_tree(2 * new_capacity, agg_.Identity());
    std::vector<Timestamp> new_starts(new_capacity);
    for (size_t k = 0; k < count_; ++k) {
      new_tree[new_capacity + k] = std::move(tree_[capacity_ + Phys(k)]);
      new_starts[k] = StartAt(k);
    }
    for (size_t node = new_capacity - 1; node >= 1; --node) {
      new_tree[node] = agg_.Combine(new_tree[2 * node], new_tree[2 * node + 1]);
    }
    tree_ = std::move(new_tree);
    starts_ = std::move(new_starts);
    capacity_ = new_capacity;
    head_ = 0;
  }

  Agg agg_;
  size_t capacity_ = 0;  // leaves; a power of two
  size_t head_ = 0;      // physical position of the oldest leaf
  size_t count_ = 0;     // live leaves
  size_t base_ = 0;      // logical index of the oldest leaf
  std::vector<Partial> tree_;      // 2 * capacity_ nodes, leaves at the back
  std::vector<Timestamp> starts_;  // capacity_ slice starts, one per leaf
  uint64_t combine_ops_ = 0;
};

/// Prefix store for *invertible* aggregates: keeps the running cumulative
/// partial before each slice, so RangeCombine is O(1) via
/// Invert(cum[j], cum[i]). The cheapest store when the aggregate allows it.
template <typename Agg>
class PrefixStore {
 public:
  using Partial = typename Agg::Partial;
  static_assert(Agg::kInvertible,
                "PrefixStore requires an invertible aggregate function");

  explicit PrefixStore(Agg agg = Agg())
      : agg_(std::move(agg)), total_(agg_.Identity()) {}

  void Append(Timestamp start, Partial p) {
    STREAMLINE_DCHECK(starts_.empty() || start >= starts_.back());
    starts_.push_back(start);
    cum_before_.push_back(total_);
    total_ = agg_.Combine(total_, p);
    ++combine_ops_;
  }

  size_t BeginIndex() const { return base_; }
  size_t EndIndex() const { return base_ + starts_.size(); }
  size_t size() const { return starts_.size(); }

  size_t LowerBound(Timestamp t) const {
    auto it = std::lower_bound(starts_.begin(), starts_.end(), t);
    return base_ + static_cast<size_t>(it - starts_.begin());
  }

  /// See LinearStore::HasCutAt.
  bool HasCutAt(Timestamp t) const {
    return std::binary_search(starts_.begin(), starts_.end(), t);
  }

  Partial RangeCombine(size_t i, size_t j) {
    STREAMLINE_DCHECK(i >= BeginIndex() && j <= EndIndex() && i <= j);
    const Partial& ci = CumBefore(i);
    const Partial& cj = CumBefore(j);
    ++combine_ops_;
    return agg_.Invert(cj, ci);
  }

  void EvictBefore(size_t i) {
    while (base_ < i && !starts_.empty()) {
      starts_.pop_front();
      cum_before_.pop_front();
      ++base_;
    }
  }

  uint64_t combine_ops() const { return combine_ops_; }

  template <typename SerFn>
  void Snapshot(BinaryWriter* w, const SerFn& ser) const {
    w->WriteU64(base_);
    w->WriteU64(starts_.size());
    for (size_t k = 0; k < starts_.size(); ++k) {
      w->WriteI64(starts_[k]);
      ser(cum_before_[k], w);
    }
    ser(total_, w);
  }

  template <typename DeFn>
  Status Restore(BinaryReader* r, const DeFn& de) {
    auto base = r->ReadU64();
    if (!base.ok()) return base.status();
    auto n = r->ReadU64();
    if (!n.ok()) return n.status();
    starts_.clear();
    cum_before_.clear();
    base_ = *base;
    for (uint64_t k = 0; k < *n; ++k) {
      auto start = r->ReadI64();
      if (!start.ok()) return start.status();
      auto p = de(r);
      if (!p.ok()) return p.status();
      starts_.push_back(*start);
      cum_before_.push_back(std::move(*p));
    }
    auto total = de(r);
    if (!total.ok()) return total.status();
    total_ = std::move(*total);
    return Status::Ok();
  }

 private:
  const Partial& CumBefore(size_t logical) {
    if (logical == EndIndex()) return total_;
    return cum_before_[logical - base_];
  }

  Agg agg_;
  size_t base_ = 0;
  std::deque<Timestamp> starts_;
  std::deque<Partial> cum_before_;  // cumulative of everything before slice k
  Partial total_;                   // cumulative of all appended slices
  uint64_t combine_ops_ = 0;
};

}  // namespace streamline

#endif  // STREAMLINE_AGG_SLICE_STORE_H_
