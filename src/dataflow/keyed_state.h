#ifndef STREAMLINE_DATAFLOW_KEYED_STATE_H_
#define STREAMLINE_DATAFLOW_KEYED_STATE_H_

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/flat_hash_map.h"
#include "common/value.h"
#include "dataflow/operator.h"

namespace streamline {

/// Changelog record tags -- the first byte of every delta record an
/// operator's SnapshotDelta writes. kDeltaMeta carries operator-wide
/// non-keyed state (watermark, sequence counters, reorder buffer) and is
/// written by the operator itself; kDeltaUpsert is followed by the key, a
/// present flag, and (when present) the key's full serialized state;
/// kDeltaErase is followed by the key. A non-present upsert is a *phantom*:
/// the key was inserted and erased again within the epoch -- replay
/// re-performs the insert (the value never survives, only the structural
/// operation matters for entry order) and a later erase record removes it.
inline constexpr uint8_t kDeltaMetaTag = 0;
inline constexpr uint8_t kDeltaUpsertTag = 1;
inline constexpr uint8_t kDeltaEraseTag = 2;

/// Ordered, coalescing record of the keys a keyed operator touched since
/// the last checkpoint barrier. SnapshotDelta walks the events in
/// occurrence order and serializes each key's *final* state, so the
/// changelog holds keys and hashes only -- O(keys touched), not O(records
/// processed).
///
/// Ordering is load-bearing: FlatHashMap serializes its dense entries in
/// insertion order, and Erase is a swap-remove that moves the last entry
/// into the hole. Recovery replays the events in order, re-performing the
/// same structural operation sequence on the restored map, which makes the
/// recovered entry order -- and therefore the next full snapshot's bytes --
/// identical to the live run's. The only coalescing that preserves this is
/// upsert-after-upsert of the same key (an in-place value update has no
/// structural effect, and the final value is serialized at the barrier
/// anyway); every other transition appends a new event.
class KeyedChangelog {
 public:
  enum class Op : uint8_t { kUpsert = 1, kErase = 2 };

  struct Event {
    Value key;
    uint64_t hash = 0;
    Op op = Op::kUpsert;
  };

  bool enabled() const { return enabled_; }
  void Enable() { enabled_ = true; }

  /// The key was inserted or its value mutated.
  void Upsert(const Value& key, uint64_t hash) {
    if (!enabled_) return;
    auto [entry, inserted] = latest_.TryEmplace(hash, key, size_t{0});
    if (!inserted && events_[entry->second].op == Op::kUpsert) return;
    entry->second = events_.size();
    events_.push_back(Event{key, hash, Op::kUpsert});
  }

  /// The key was erased (swap-remove). Never coalesces: the erase is a
  /// structural operation whose position in the sequence matters.
  void Erase(const Value& key, uint64_t hash) {
    if (!enabled_) return;
    auto [entry, inserted] = latest_.TryEmplace(hash, key, size_t{0});
    entry->second = events_.size();
    events_.push_back(Event{key, hash, Op::kErase});
  }

  const std::vector<Event>& events() const { return events_; }

  /// Forgets everything; called after the delta was sealed (or a full base
  /// snapshot captured the state wholesale).
  void Clear() {
    events_.clear();
    latest_.clear();
  }

 private:
  bool enabled_ = false;
  std::vector<Event> events_;
  /// key -> index of its latest event in events_ (coalescing lookup).
  FlatHashMap<Value, size_t> latest_;
};

/// The keyed state of one operator subtask: the `FlatHashMap<Value, V>`,
/// the changelog of structural operations on it, the
/// `op.<name>.<subtask>.state.{load_factor,max_probe,keys}` gauges, and the
/// whole checkpoint protocol -- the state is maintained (and serialized)
/// once, and every keyed operator keeps only its own logic.
///
/// `Codec` serializes one value and is a compile-time parameter:
///   void Write(const V& v, BinaryWriter* w) const;
///   Status Read(V* v, BinaryReader* r) const;  // full replacement of *v
///   void Init(const Value& key, V* v);         // optional
/// Init runs on every insert -- live, restore and replay alike -- so a
/// value's layout can depend on its key and on operator-wide state.
///
/// Formats: a full snapshot is `u64 n` followed by n `(key, value)` pairs
/// in entry order; a delta is one record per changelog event (see the tags
/// above). Restore and replay write the map without recording changelog
/// events: they rebuild the state the last checkpoint already holds.
template <typename V, typename Codec>
class KeyedState {
 public:
  using Map = FlatHashMap<Value, V>;
  using Entry = typename Map::Entry;
  using iterator = typename Map::iterator;
  using const_iterator = typename Map::const_iterator;

  /// `name` is the owning operator's name (gauge names, error messages).
  KeyedState(std::string name, Codec codec)
      : name_(std::move(name)), codec_(std::move(codec)) {}

  size_t size() const { return map_.size(); }
  iterator begin() { return map_.begin(); }
  iterator end() { return map_.end(); }
  const_iterator begin() const { return map_.begin(); }
  const_iterator end() const { return map_.end(); }
  V* Find(uint64_t hash, const Value& key) { return map_.Find(hash, key); }

  /// Entries by insertion position. A position stays valid across inserts;
  /// an Erase moves the last entry into the hole.
  Entry& EntryAt(size_t pos) { return map_.begin()[pos]; }
  size_t PositionOf(const Entry& entry) const {
    return static_cast<size_t>(&entry - map_.begin());
  }

  // -- mutators: each records itself in the changelog ----------------------

  /// Returns (entry, inserted) for `key`, inserting `args`-constructed V
  /// (then Init) when absent. Either way the key counts as upserted. The
  /// entry pointer is invalidated by the next insert or erase.
  template <typename... Args>
  std::pair<Entry*, bool> Emplace(const Value& key, uint64_t hash,
                                  Args&&... args) {
    changelog_.Upsert(key, hash);
    return InsertUnlogged(key, hash, std::forward<Args>(args)...);
  }

  /// Swap-removes the entry at `it`; returns an iterator at the same
  /// position (the next entry to visit when sweeping).
  iterator Erase(iterator it) {
    changelog_.Erase(it->first, HashOf(*it));
    return map_.Erase(it);
  }

  /// Marks a key whose value was mutated in place for re-serialization in
  /// the next delta.
  void Touch(const Value& key, uint64_t hash) { changelog_.Upsert(key, hash); }
  void Touch(const Entry& entry) { Touch(entry.first, HashOf(entry)); }

  // -- observability -------------------------------------------------------

  /// Binds the state gauges (no-op when the job exposes no registry).
  void BindGauges(const OperatorContext& ctx) {
    if (ctx.metrics == nullptr) return;
    const std::string prefix = "op." + name_ + "." +
                               std::to_string(ctx.subtask_index) + ".state.";
    load_gauge_ = ctx.metrics->GetGauge(prefix + "load_factor");
    probe_gauge_ = ctx.metrics->GetGauge(prefix + "max_probe");
    keys_gauge_ = ctx.metrics->GetGauge(prefix + "keys");
  }

  void UpdateGauges() {
    if (load_gauge_ == nullptr) return;
    load_gauge_->Set(map_.load_factor());
    probe_gauge_->Set(static_cast<double>(map_.max_probe_length()));
    keys_gauge_->Set(static_cast<double>(map_.size()));
  }

  // -- checkpoint protocol -------------------------------------------------

  bool incremental() const { return changelog_.enabled(); }
  void EnableIncremental() { changelog_.Enable(); }
  void ResetDelta() { changelog_.Clear(); }

  Status SnapshotState(BinaryWriter* w) const {
    w->WriteU64(map_.size());
    for (const auto& [key, value] : map_) {
      w->WriteValue(key);
      codec_.Write(value, w);
    }
    return Status::Ok();
  }

  Status RestoreState(BinaryReader* r) {
    auto n = r->ReadU64();
    if (!n.ok()) return n.status();
    map_.clear();
    // Every entry takes at least one byte, so a corrupt count cannot make
    // the reservation outgrow the input.
    map_.Reserve(static_cast<size_t>(std::min<uint64_t>(*n, r->remaining())));
    for (uint64_t i = 0; i < *n; ++i) {
      auto key = r->ReadValue();
      if (!key.ok()) return key.status();
      V& value = InsertUnlogged(*key, KeyHashOf(*key)).first->second;
      STREAMLINE_RETURN_IF_ERROR(codec_.Read(&value, r));
    }
    return Status::Ok();
  }

  /// Appends one record per changelog event, each carrying the key's final
  /// state, then clears the changelog.
  Status SnapshotDelta(ChangelogSink* sink) {
    for (const KeyedChangelog::Event& ev : changelog_.events()) {
      BinaryWriter w;
      if (ev.op == KeyedChangelog::Op::kErase) {
        w.WriteU8(kDeltaEraseTag);
        w.WriteValue(ev.key);
      } else {
        w.WriteU8(kDeltaUpsertTag);
        w.WriteValue(ev.key);
        const V* value = map_.Find(ev.hash, ev.key);
        w.WriteU8(value != nullptr ? 1 : 0);
        if (value != nullptr) codec_.Write(*value, &w);
      }
      STREAMLINE_RETURN_IF_ERROR(sink->Append(w.Release()));
    }
    changelog_.Clear();
    return Status::Ok();
  }

  /// Replays one record SnapshotDelta appended.
  Status ApplyDelta(BinaryReader* r) {
    auto tag = r->ReadU8();
    if (!tag.ok()) return tag.status();
    return ApplyDelta(*tag, r);
  }

  /// Replays one keyed record whose tag the caller already consumed
  /// (operators with a kDeltaMeta record of their own dispatch on it).
  Status ApplyDelta(uint8_t tag, BinaryReader* r) {
    if (tag != kDeltaUpsertTag && tag != kDeltaEraseTag) {
      return Status::Internal("bad changelog tag " + std::to_string(tag) +
                              " in '" + name_ + "'");
    }
    auto key = r->ReadValue();
    if (!key.ok()) return key.status();
    const uint64_t hash = KeyHashOf(*key);
    if (tag == kDeltaEraseTag) {
      map_.Erase(hash, *key);
      return Status::Ok();
    }
    auto present = r->ReadU8();
    if (!present.ok()) return present.status();
    V& value = InsertUnlogged(*key, hash).first->second;
    if (*present != 0) return codec_.Read(&value, r);
    return Status::Ok();
  }

 private:
  uint64_t HashOf(const Entry& entry) const {
    return map_.hash_at(PositionOf(entry));
  }

  template <typename... Args>
  std::pair<Entry*, bool> InsertUnlogged(const Value& key, uint64_t hash,
                                         Args&&... args) {
    auto result = map_.TryEmplace(hash, key, std::forward<Args>(args)...);
    if constexpr (requires(Codec& c, const Value& k, V* v) { c.Init(k, v); }) {
      if (result.second) codec_.Init(key, &result.first->second);
    }
    return result;
  }

  std::string name_;
  Codec codec_;
  Map map_;
  KeyedChangelog changelog_;
  Gauge* load_gauge_ = nullptr;
  Gauge* probe_gauge_ = nullptr;
  Gauge* keys_gauge_ = nullptr;
};

/// Codec for a whole Record per key (running reduce accumulators, temporal
/// join dimension rows).
struct RecordCodec {
  void Write(const Record& record, BinaryWriter* w) const {
    w->WriteRecord(record);
  }
  Status Read(Record* record, BinaryReader* r) const {
    auto read = r->ReadRecord();
    if (!read.ok()) return read.status();
    *record = std::move(*read);
    return Status::Ok();
  }
};

}  // namespace streamline

#endif  // STREAMLINE_DATAFLOW_KEYED_STATE_H_
