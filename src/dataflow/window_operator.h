#ifndef STREAMLINE_DATAFLOW_WINDOW_OPERATOR_H_
#define STREAMLINE_DATAFLOW_WINDOW_OPERATOR_H_

#include <algorithm>
#include <cstddef>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "agg/slicing_aggregator.h"
#include "dataflow/keyed_state.h"
#include "dataflow/operator.h"
#include "dataflow/query_registry.h"
#include "window/dyn_aggregate.h"
#include "window/window_fn.h"

namespace streamline {

/// Adapts the runtime DynAggregate to the algebraic-aggregate concept used
/// by the slicing machinery, so the engine's windowed operators run on the
/// exact same Cutty code path the micro-benchmarks measure.
struct DynAggAdapter {
  struct Input {
    Value value;
    Timestamp ts = 0;
  };
  using Partial = DynPartial;
  using Output = Value;
  static constexpr bool kInvertible = false;  // conservative: kind-dependent
  static constexpr bool kCommutative = true;

  explicit DynAggAdapter(DynAggKind kind = DynAggKind::kSum) : dyn(kind) {}

  Partial Identity() const { return dyn.Identity(); }
  Partial Lift(const Input& in) const { return dyn.Lift(in.value, in.ts); }
  Partial Combine(const Partial& a, const Partial& b) const {
    return dyn.Combine(a, b);
  }
  Output Lower(const Partial& p) const { return dyn.Lower(p); }

  /// Contiguous fold kernel for the hot numeric kinds: the per-element
  /// Combine's branches (validity check, kind switch) are hoisted out of
  /// the loop and the accumulator lives in registers. Bit-identical to the
  /// sequential `acc = Combine(acc, Lift(v))` chain -- the batch vs
  /// per-record equivalence tests compare sink output bytes. Keep-one kinds
  /// (variance/first/last/argmax) fall back to that chain unchanged.
  void FoldSpan(Partial* acc, const Input* values, size_t n) const {
    if (n == 0) return;
    size_t i = 0;
    if (!acc->valid) {
      // Combine(invalid, y) returns y exactly; take the first element
      // directly (folding into 0.0 could flip the sign of -0.0).
      *acc = dyn.Lift(values[0].value, values[0].ts);
      i = 1;
      if (i == n) return;
    }
    const size_t start = i;
    switch (dyn.kind()) {
      case DynAggKind::kSum:
      case DynAggKind::kAvg: {
        double s = acc->a;
        Timestamp ts = acc->ts;
        for (; i < n; ++i) {
          s = s + values[i].value.ToDouble();
          ts = std::max(ts, values[i].ts);
        }
        acc->a = s;
        acc->ts = ts;
        break;
      }
      case DynAggKind::kCount: {
        Timestamp ts = acc->ts;
        for (; i < n; ++i) ts = std::max(ts, values[i].ts);
        acc->a = acc->a + 0.0;  // matches x.a + y.a with y.a == 0
        acc->ts = ts;
        break;
      }
      case DynAggKind::kMin: {
        double m = acc->a;
        Timestamp ts = acc->ts;
        for (; i < n; ++i) {
          m = std::min(m, values[i].value.ToDouble());
          ts = std::max(ts, values[i].ts);
        }
        acc->a = m;
        acc->ts = ts;
        break;
      }
      case DynAggKind::kMax: {
        double m = acc->a;
        Timestamp ts = acc->ts;
        for (; i < n; ++i) {
          m = std::max(m, values[i].value.ToDouble());
          ts = std::max(ts, values[i].ts);
        }
        acc->a = m;
        acc->ts = ts;
        break;
      }
      default:
        for (; i < n; ++i) {
          *acc = dyn.Combine(*acc, dyn.Lift(values[i].value, values[i].ts));
        }
        return;  // Combine maintained n itself
    }
    acc->n += static_cast<int64_t>(n - start);
  }

  DynAggregate dyn;
};

/// How the windowed operator maintains per-window state.
enum class WindowBackend : uint8_t {
  kShared,  // Cutty slicing with a shared FlatFAT slice store (default)
  kEager,   // one partial per open window (pre-sharing state of practice)
};

/// Configuration of a keyed event-time window aggregation.
struct WindowAggSpec {
  /// Key extractor; nullptr aggregates the whole stream under one key.
  KeySelector key;
  /// Index of the aggregated field in the input record.
  size_t value_field = 0;
  DynAggKind agg_kind = DynAggKind::kSum;
  /// Prototype window definitions; each key gets fresh clones. Multiple
  /// entries = multi-query sharing over the same slice store.
  std::vector<std::shared_ptr<const WindowFunction>> windows;
  WindowBackend backend = WindowBackend::kShared;
  /// Passed as payload to content-sensitive window functions; nullptr
  /// passes a null Value.
  std::function<Value(const Record&)> payload;
  /// Tolerated lateness beyond the upstream watermark: records up to this
  /// much older than the watermark are still included, at the price of
  /// window results firing `allowed_lateness` later (the operator holds
  /// its internal event-time clock back by this amount).
  Duration allowed_lateness = 0;
  /// Standing-query registry this operator serves (kShared backend only).
  /// Subtasks drain the registry's attach/detach command log at watermark
  /// boundaries, so queries come and go while the job runs; dynamic-query
  /// results carry the registry query id in output field 3.
  std::shared_ptr<QueryRegistry> registry;
};

/// Keyed event-time windowed aggregation operator.
///
/// Out-of-order robustness: records are buffered until the watermark passes
/// them, then applied in timestamp order -- so upstream parallelism (which
/// interleaves channels arbitrarily) never breaks window contents.
///
/// Window state: the shared backend keeps one Cutty key slicer per key,
/// which serves the spec windows and the shared standing queries from one
/// slice store; what every key shares (aggregate, slot table with one
/// result callback per slot, scratch) is one slicer context per subtask.
/// The eager backend's spec windows and the registry's standalone standing
/// queries keep one partial per open window instead, on one path:
/// an operator-level slot table and, per key, one sorted open-window set
/// per slot. Per key, the slicer fires before the slots.
///
/// Watermark cost is proportional to the keys that are due, not to every
/// key ever seen: each key publishes a next-due watermark (the earlier of
/// its slicer's NextDue and its earliest open-window end) into an
/// operator-level timer index. A watermark advances the keys that received
/// records in its apply (their slicer owes an eviction) and the keys the
/// index pops as due, in ascending entry position -- the order a walk over
/// every key would emit in. A popped key always fires when it advances, so
/// every visited key is marked dirty for the next checkpoint delta. A key
/// whose windows are all empty is not due until its next record. The
/// end-of-stream watermark is the one that advances every key.
///
/// Output records: [key, window_start, window_end, query_index, result]
/// with timestamp = window_end - 1 (the last instant inside the window),
/// so downstream windowed consumers see results in the period they
/// describe.
class WindowAggOperator : public Operator {
 public:
  WindowAggOperator(std::string name, WindowAggSpec spec);
  ~WindowAggOperator() override;

  Status Open(const OperatorContext& ctx) override;
  void ProcessRecord(int input, Record&& record, Collector* out) override;
  void ProcessBatch(int input, std::vector<Record>&& batch,
                    Collector* out) override;
  void ProcessWatermark(Timestamp wm, Collector* out) override;
  void OnEndOfInput(Collector* out) override;
  Status SnapshotState(BinaryWriter* w) const override;
  Status RestoreState(BinaryReader* r) override;
  bool SupportsIncrementalState() const override { return true; }
  void EnableIncrementalState() override { keys_.EnableIncremental(); }
  Status SnapshotDelta(ChangelogSink* sink) override;
  Status ApplyDelta(BinaryReader* r) override;
  void ResetDelta() override { keys_.ResetDelta(); }
  std::string Name() const override { return name_; }

  /// Aggregation work counters summed over all keys (shared backend only).
  AggStats SharedStats() const;
  size_t num_keys() const { return keys_.size(); }
  /// Records waiting in the reorder buffer, and the slab slots holding
  /// them (free slots included).
  size_t buffered_records() const { return pending_.size(); }
  size_t reorder_slots() const { return pending_.slots(); }

 private:
  using SharedSlicer = KeySlicer<DynAggAdapter, FlatFatStore<DynAggAdapter>>;

  /// One registry-attached query, as applied by this subtask. The table is
  /// a pure function of the command-log prefix [1, applied_seq_] (plus the
  /// watermark at each application), so it is identical across subtasks and
  /// across checkpoint restore/replay. Entries are append-only -- a detach
  /// flips `active` but keeps the entry, because per-key slot indices and
  /// snapshot layouts are derived from entry positions.
  struct DynQuery {
    uint64_t id = 0;
    QueryDescriptor desc;
    QueryPlacement placement = QueryPlacement::kShared;
    bool active = true;
    /// Operator watermark when the attach was applied; standalone queries
    /// only serve windows beginning at or after it (earlier windows would
    /// be missing the records applied before the attach).
    Timestamp attach_wm = kMinTimestamp;
    /// Slicer slot (shared) or open_slots_ index (standalone). Derived from
    /// the table order when the entry is applied; never serialized.
    size_t slot = 0;
  };

  /// One per-window-partial query: an eager-backend spec window or a
  /// standalone dyn query (positionally aligned with the standalone entries
  /// of dyn_queries_, holes included). Every key holds one OpenWindows set
  /// per slot, in table order.
  struct OpenWindowSlot {
    Duration range = 0;
    Duration slide = 0;
    Timestamp origin = 0;
    /// Windows beginning before this are not served (a standalone query's
    /// attach watermark: earlier windows would miss the records applied
    /// before the attach).
    Timestamp min_begin = kMinTimestamp;
    /// Emitted in output field 3: the spec query index or the dyn query id.
    uint64_t query = 0;
    bool active = true;
  };
  /// Open windows of one slot, sorted by Window::operator< (end, then
  /// start); small and short-lived, so a sorted vector beats a node-based
  /// map.
  using OpenWindows = std::vector<std::pair<Window, DynPartial>>;

  struct KeyState {
    // kShared backend only.
    std::unique_ptr<SharedSlicer> shared;
    // One entry per open_slots_ entry.
    std::vector<OpenWindows> open;
    /// Windows the slots fired (serialized by the shared layout only).
    uint64_t standalone_fires = 0;
    // Timer-index bookkeeping: derived state, never serialized. Kept here,
    // in the entry the index pops, so deciding whether a popped key is due
    // touches no aggregation state.
    /// KeyNextDue as of the key's last visit (exact: only a visit, a
    /// restore or a registry command changes a key).
    Timestamp next_due = kMaxTimestamp;
    /// Due of this key's live index entry (kMaxTimestamp: none), at most
    /// next_due: a due that moved later keeps the entry, which re-arms
    /// when it pops.
    Timestamp armed_due = kMaxTimestamp;
    /// Watermark stamp of the last watermark that scheduled this key's
    /// visit (applied records or popped as due).
    uint64_t visit_stamp = 0;
    /// Stored slices last added to stored_slices_.
    size_t slices = 0;
  };

  /// KeyedState codec: a key's layout and bytes follow the spec and the
  /// dyn-query table, so they are the operator's to define.
  struct KeyCodec {
    WindowAggOperator* op;
    void Init(const Value&, KeyState* ks) { op->InitKeyState(ks); }
    void Write(const KeyState& ks, BinaryWriter* w) const {
      op->SnapshotKeyState(ks, w);
    }
    Status Read(KeyState* ks, BinaryReader* r) const {
      return op->RestoreKeyState(ks, r);
    }
  };

  /// Lays out a new key: a key slicer from slicer_ (shared backend) and
  /// one open-window set per slot, so snapshots line up.
  void InitKeyState(KeyState* ks);
  void ApplyElement(KeyState* ks, const Record& record);
  void AdvanceKeyWatermark(KeyState* ks, Timestamp wm);
  void SnapshotKeyState(const KeyState& ks, BinaryWriter* w) const;
  Status RestoreKeyState(KeyState* ks, BinaryReader* r);
  /// Emits one result under `emit_key_`, the key being applied or advanced.
  void EmitResult(size_t query, const Window& w, const Value& result);
  /// Folds the record into every window of every active slot that contains
  /// it and begins at or after the slot's min_begin.
  void FoldOpenWindows(KeyState* ks, const Record& record);
  /// Emits and drops every open window that ends at or before `wm`.
  void FireOpenWindows(KeyState* ks, Timestamp wm);
  /// The `u64 n, (i64 start, i64 end, partial)*` codec of one slot.
  static void WriteOpenWindows(const OpenWindows& open, BinaryWriter* w);
  static Status ReadOpenWindows(OpenWindows* open, BinaryReader* r);

  // -- standing-query registry integration --------------------------------
  /// Polls the registry command log and applies new attach/detach commands
  /// to every key; called at the end of each watermark (a deterministic
  /// point of the event-time order). Acks the applied prefix.
  void DrainRegistryCommands();
  /// Structural application of one dyn-table entry to live keys. Shared by
  /// the live drain and by checkpoint-delta replay (which reconciles the
  /// key layout before re-restoring the keys the epoch touched).
  void ApplyDynAttach(DynQuery* dq);
  void ApplyDynDetach(size_t index, uint64_t* slices_freed);
  /// Rebuilds the shared backend's slot tables from the spec windows and
  /// the dyn table (Open and restore): slicer_ gets one slot per spec
  /// window, then one per shared dyn entry, and open_slots_ one per
  /// standalone entry, in table order, detached holes included.
  void ResetSlots();
  /// Adds a slicer slot whose results carry `query` in output field 3 (the
  /// spec window index or the dyn query id). Its callback emits under
  /// `emit_key_`, so it holds no key. Returns the slot id.
  size_t AddSlicerSlot(std::unique_ptr<WindowFunction> proto, uint64_t query);

  // -- one watermark, in order ----------------------------------------------
  /// Pops the records `wm` covers off the reorder buffer and applies them,
  /// scheduling each key they touch for a visit.
  void ApplyCoveredRecords(Timestamp wm);
  /// Schedules the keys the timer index pops as due (every key at end of
  /// stream) and sorts the visits into entry order.
  void ScheduleDueKeys(Timestamp wm);
  /// Advances, marks dirty and re-arms every scheduled key.
  void AdvanceVisitedKeys(Timestamp wm);

  // -- timer index ----------------------------------------------------------
  /// The earliest watermark at which advancing this key could emit or change
  /// its state (kMaxTimestamp: only the end of the stream).
  Timestamp KeyNextDue(KeyState* ks);
  /// Pushes an index entry when next_due is earlier than the live one.
  void ArmKey(size_t pos, KeyState* ks);
  /// Schedules the visit of the key at `pos` in this watermark (once).
  void ScheduleVisit(size_t pos, KeyState* ks, bool touch);
  /// Adds the key's stored-slice change to stored_slices_.
  void AccountSlices(KeyState* ks);
  /// The one loop over all keys: re-arms every key and recounts
  /// stored_slices_. Runs after restore, delta replay and registry commands.
  void RebuildIndex();
  /// Operator-wide prefix of both the full snapshot and the kDeltaMeta
  /// record: watermark, arrival sequence, dyn-query table, reorder buffer.
  void WriteMeta(BinaryWriter* w) const;
  /// Reads that prefix. A full restore replaces the dyn table wholesale (the
  /// keys are restored after it); delta replay reconciles it with the live
  /// keys instead.
  Status ReadMeta(BinaryReader* r, bool replay);
  Status ReadDynTable(BinaryReader* r, std::vector<DynQuery>* table,
                      uint64_t* applied_seq) const;
  /// Structurally retrofits live keys to `table` (new entries attached,
  /// newly inactive entries detached). Rejects a table that is not an
  /// extension of the live one.
  Status ReconcileDynTable(const std::vector<DynQuery>& table);

  std::string name_;
  WindowAggSpec spec_;
  DynAggAdapter adapter_;
  /// What every key slicer shares (shared backend). Its scratch is safe to
  /// share because a subtask drives one key's slicer at a time, and result
  /// callbacks never re-enter it: they only emit downstream.
  SlicerContext<DynAggAdapter> slicer_;

  /// Records not yet covered by the watermark. Each record is moved once,
  /// into a slot of a slab (freed slots are reused from a stack), and stays
  /// there until it is applied; a binary min-heap of small (ts, seq, slot)
  /// refs orders them, so a sift moves 24 bytes and never a Record.
  class ReorderBuffer {
   public:
    struct Ref {
      Timestamp ts;
      uint64_t seq;  // arrival order: ties on ts keep it
      uint32_t slot;
    };

    /// Stores the record in a slot and pushes its ref.
    void Push(Record&& record, uint64_t seq);
    /// Pops the refs `wm` covers (every ref at kMaxTimestamp) into `out`,
    /// in (ts, seq) order; records still ahead of `wm` never move.
    void PopCovered(Timestamp wm, std::vector<Ref>* out);
    const Record& record(const Ref& ref) const { return slab_[ref.slot]; }
    /// Drops the records of popped refs (freeing their payloads) and
    /// returns their slots to the free stack.
    void Release(const std::vector<Ref>& refs);
    /// The heap array: its order is a pure function of the push/pop history.
    const std::vector<Ref>& refs() const { return heap_; }
    /// Restore: Clear, Append every record in snapshot order, then MakeHeap.
    void Clear();
    void Append(Record&& record, uint64_t seq);
    void MakeHeap();
    size_t size() const { return heap_.size(); }
    size_t slots() const { return slab_.size(); }

   private:
    /// Min-heap order on (ts, seq): `a` sorts after `b`. Seqs are unique,
    /// so this is a strict total order: the heap array, and the snapshot
    /// written from it, depend only on the push/pop history.
    struct After {
      bool operator()(const Ref& a, const Ref& b) const {
        return a.ts != b.ts ? a.ts > b.ts : a.seq > b.seq;
      }
    };
    uint32_t TakeSlot(Record&& record);

    std::vector<Ref> heap_;
    std::vector<Record> slab_;
    std::vector<uint32_t> free_slots_;
  };

  // A watermark pops exactly the records it covers, in apply order; nothing
  // ever costs O(buffer) per watermark. That bound matters: one slow input
  // channel holds the min-watermark back while fast channels keep
  // buffering, so the buffer can reach millions of records -- per-watermark
  // sorting (or merging, or erasing a prefix) of the whole buffer turns
  // that stall into quadratic dispatch cost and starves the scheduler.
  ReorderBuffer pending_;
  // Refs of the covered records, popped in (ts, seq) order and applied in
  // place from the slab; capacity persists across watermarks.
  std::vector<ReorderBuffer::Ref> apply_scratch_;
  // Scratch for contiguous same-key runs handed to the aggregator's batch
  // entry point (shared backend only); capacity persists across watermarks.
  std::vector<Timestamp> run_ts_;
  std::vector<DynAggAdapter::Input> run_in_;
  uint64_t seq_ = 0;
  Timestamp current_wm_ = kMinTimestamp;

  // Standing-query state (empty without a registry).
  std::vector<DynQuery> dyn_queries_;
  uint64_t applied_seq_ = 0;
  // Per-window-partial queries: the spec windows of the eager backend (set
  // in Open), or the standalone dyn entries of the shared backend (derived
  // from dyn_queries_). active_slots_ gates the per-record fold -- and
  // disables run batching, which bypasses ApplyElement.
  std::vector<OpenWindowSlot> open_slots_;
  size_t active_slots_ = 0;
  int subtask_index_ = 0;
  // The job MetricsRegistry handed to the registry in Open; unbound in the
  // destructor so a registry outliving this job never writes into it.
  MetricsRegistry* bound_metrics_ = nullptr;

  KeyedState<KeyState, KeyCodec> keys_;

  // Timer index: min-heap of (due watermark, entry position), lazily
  // invalidated -- an entry is live iff it equals its key's armed_due.
  using DueEntry = std::pair<Timestamp, size_t>;
  std::vector<DueEntry> due_index_;
  bool index_valid_ = true;
  uint64_t wm_stamp_ = 0;
  struct Visit {
    size_t pos;
    bool touch;  // dirty for the changelog (applied keys already are)
    bool operator<(const Visit& o) const { return pos < o.pos; }
  };
  // Keys the current watermark advances; capacity persists.
  std::vector<Visit> visits_;
  // Slices held by all keys' shared stores (acked to the registry).
  uint64_t stored_slices_ = 0;
  Counter* keys_visited_ = nullptr;
  // Hash of the synthetic key used when spec_.key is null (global windows);
  // computed on first use (KeyHashOf never returns 0).
  uint64_t global_key_hash_ = 0;
  Collector* current_out_ = nullptr;
  // Key of the entry being applied or advanced, set next to current_out_:
  // every result is emitted under it, so the slicers' result callbacks hold
  // no key and a new key allocates no closure.
  const Value* emit_key_ = nullptr;
};

}  // namespace streamline

#endif  // STREAMLINE_DATAFLOW_WINDOW_OPERATOR_H_
