#ifndef STREAMLINE_AGG_SLICING_AGGREGATOR_H_
#define STREAMLINE_AGG_SLICING_AGGREGATOR_H_

#include <algorithm>
#include <array>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "agg/aggregator.h"
#include "agg/slice_store.h"
#include "common/logging.h"
#include "window/aggregate_fn.h"

namespace streamline {

/// Cutty's aggregate-sharing aggregator (Carbone et al., CIKM 2016).
///
/// Core idea: cut the stream into *slices* at every window begin declared by
/// any registered query. Then (a) each record updates exactly ONE running
/// partial — the open slice — regardless of how many windows overlap it, and
/// (b) a window result is the in-order combination of the stored slice
/// partials it spans plus the open slice. The slice store is shared by all
/// queries, which is the paper's "multi query aggregation sharing"; because
/// window begins/ends come from arbitrary deterministic WindowFunctions,
/// non-periodic windows (sessions, punctuations, count windows) share too.
///
/// Multi-tenancy: queries live in *slots* and may attach (AttachQuery) and
/// detach (DetachQuery) while the stream is running. Attach fast-forwards
/// the window function past the attach point and backfills from live slices
/// where the new query's begin grid coincides with existing cut points, so
/// the first results can cover pre-attach data; detach frees its slot and
/// immediately garbage-collects slices no remaining query references.
///
/// Scheduling: window functions publish their next boundary (NextWakeup /
/// NextWatermarkWakeup); the slicer keeps them in lazy min-heaps and polls
/// only the *due* queries at each boundary crossing, so both the per-record
/// and the per-watermark cost are independent of the number of registered
/// periodic queries (O(due * log n), not O(n)). NextDue() publishes the
/// earliest watermark that could change anything, so an owner of many
/// slicers (the window operator, one per key) advances only the due ones.
///
/// Ownership: the slicer is split in two. A SlicerContext holds what every
/// key shares -- the aggregate, the options, the slot table (prototype
/// window function and result callback per slot), the boundary-generator
/// prototypes and the per-call scratch. A KeySlicer holds one key's state:
/// exactly what its Snapshot writes (open slice, store, one window-function
/// clone per slot, counters) plus the wakeup schedule derived from it. One
/// context serves any number of key slicers as long as one key slicer runs
/// at a time and no result callback re-enters the context (the scratch is
/// in use for the whole call). SlicingAggregator is one context with one
/// key slicer.
///
/// Store choice:
///   * FlatFatStore — O(log n) fires, any aggregate (default).
///   * LinearStore  — O(slices-per-window) fires, "lazy" variant.
///   * PrefixStore  — O(1) fires, invertible aggregates only.
///
/// This class is the shared half: one per window operator subtask (or one
/// per standalone SlicingAggregator).
template <typename Agg>
class SlicerContext {
 public:
  using ResultCallback = typename WindowAggregator<Agg>::ResultCallback;

  /// Key slicers run eviction every this many elements.
  static constexpr uint64_t kEvictionPeriod = 128;

  struct Options {
    /// Close a slice before every element (one leaf per tuple). Used to
    /// emulate per-tuple aggregate trees (B-Int) for comparison.
    bool slice_per_element = false;
    /// Ablation: poll every window function on every element instead of
    /// skipping periodic functions between their published boundaries.
    bool disable_wakeup_fastpath = false;
  };

  explicit SlicerContext(Agg agg = Agg(), Options options = Options())
      : agg_(std::move(agg)), options_(options) {}

  /// Appends a query slot; every key slicer lays it out with Attach.
  /// `proto` is never driven: keys run fresh clones of it. Returns the slot
  /// id (stable, never reused; reported to `cb`).
  size_t AddSlot(std::unique_ptr<WindowFunction> proto, ResultCallback cb) {
    slots_.push_back(Slot{std::move(proto), std::move(cb)});
    ++active_slots_;
    return slots_.size() - 1;
  }

  /// Deactivates `slot` and releases its prototype and callback; every key
  /// slicer detaches it too. The slot stays allocated so snapshot layouts
  /// taken before and after stay compatible.
  void DetachSlot(size_t slot) {
    STREAMLINE_CHECK(slot < slots_.size() && slots_[slot].proto != nullptr)
        << "detach of unknown or already-detached query slot " << slot;
    slots_[slot] = Slot{};
    --active_slots_;
  }

 private:
  template <typename, typename>
  friend class KeySlicer;
  template <typename, typename>
  friend class SlicingAggregator;

  struct Slot {
    std::unique_ptr<WindowFunction> proto;  // null = detached slot
    ResultCallback cb;
  };

  struct TaggedEvent {
    WindowEvent event;
    size_t query;
    bool boundary_only;
  };

  Agg agg_;
  Options options_;
  std::vector<Slot> slots_;
  size_t active_slots_ = 0;
  // Boundary generators: window functions whose *begins* add slice
  // boundaries but whose window completions are ignored.
  std::vector<std::unique_ptr<WindowFunction>> gens_;

  // Per-call scratch of the key slicer being driven; its contents never
  // outlive the call, so the next key starts from empty vectors.
  std::vector<size_t> poll_queries_;
  std::vector<size_t> poll_gens_;
  WindowEvents scratch_;
  std::vector<TaggedEvent> events_;

  // Results of the most recent Attach: whether it backfilled pre-attach
  // windows, and how many stored slices the backfill reuses.
  bool last_attach_backfilled_ = false;
  uint64_t last_attach_backfill_slices_ = 0;
};

/// The per-key half of the slicer. Every call that can poll a window
/// function or fire a window takes the context it was laid out from.
template <typename Agg, typename Store = FlatFatStore<Agg>>
class KeySlicer {
 public:
  using Input = typename Agg::Input;
  using Partial = typename Agg::Partial;
  using Context = SlicerContext<Agg>;

  /// Lays out a key from the context: a fresh clone of every attached
  /// slot's prototype (detached slots stay empty) and of every boundary
  /// generator. A new key runs every attached query from its first element.
  explicit KeySlicer(const Context& ctx)
      : store_(ctx.agg_), open_partial_(ctx.agg_.Identity()) {
    slots_.reserve(ctx.slots_.size());
    for (const typename Context::Slot& s : ctx.slots_) {
      slots_.push_back(FnState{s.proto ? s.proto->Clone() : nullptr});
    }
    ResetGenerators(ctx);
  }

  /// Lays out the context's newest slot on this key. On a running key the
  /// window function is fast-forwarded to the attach point (windows
  /// beginning strictly after the last element are served from live data);
  /// for periodic windows whose begin grid lines up with existing cut
  /// points, the attach backfills: the first fired windows extend back over
  /// intact pre-attach slices and are byte-identical to a from-start query.
  void Attach(Context* ctx, size_t slot) {
    STREAMLINE_CHECK_EQ(slot, slots_.size());
    ctx->last_attach_backfilled_ = false;
    ctx->last_attach_backfill_slices_ = 0;
    std::unique_ptr<WindowFunction> wf = ctx->slots_[slot].proto->Clone();
    if (stats_.elements > 0) {
      wf->AttachAt(last_ts_);
      if (auto* sliding = dynamic_cast<SlidingWindowFn*>(wf.get())) {
        TryBackfill(ctx, sliding);
      }
    }
    slots_.push_back(FnState{std::move(wf)});
    if (sched_valid_) ArmQuery(*ctx, slot, /*force_needed=*/true);
  }

  /// Drops the window function of `slot` and immediately evicts every slice
  /// no remaining query needs. Returns the number of slices freed.
  size_t Detach(const Context& ctx, size_t slot) {
    STREAMLINE_DCHECK(slot < slots_.size() && slots_[slot].wf != nullptr);
    if (!sched_valid_) RebuildSchedule(ctx);
    FnState& s = slots_[slot];
    s.wf.reset();
    if (s.elem_wakeup == kMinTimestamp) {
      SortedErase(&always_poll_queries_, slot);
    }
    if (s.wm_wakeup == kMinTimestamp) SortedErase(&always_wm_queries_, slot);
    // Heap entries for this slot die lazily against these sentinels.
    s.elem_wakeup = s.wm_wakeup = kMaxTimestamp;
    const size_t before = store_.size();
    Evict();
    return before - store_.size();
  }

  /// Re-clones the context's boundary generators (before the first element
  /// only).
  void ResetGenerators(const Context& ctx) {
    STREAMLINE_CHECK_EQ(stats_.elements, 0u);
    gens_.clear();
    for (const auto& g : ctx.gens_) gens_.push_back(FnState{g->Clone()});
    sched_valid_ = false;
  }

  void OnElement(Context* ctx, Timestamp ts, const Input& value,
                 const Value& payload) {
    STREAMLINE_DCHECK(stats_.elements == 0 || ts >= last_ts_);
    last_ts_ = ts;
    if (!sched_valid_) RebuildSchedule(*ctx);

    // 1) Collect window events, merge them in (at, end-before-begin) order
    //    and apply them. All of this happens BEFORE the element is
    //    aggregated: completed windows must not include it, and any begin
    //    <= ts must cut its slice first.
    //
    //    Fast path: only the *due* periodic functions (wakeup <= ts, popped
    //    off a min-heap) plus the data-driven ("always poll") functions are
    //    consulted, so the slicer's per-record cost does not grow with the
    //    number of registered periodic queries.
    const bool heap_due = ts >= wakeup_threshold_;
    if (heap_due || !always_poll_queries_.empty() ||
        !always_poll_gens_.empty()) {
      CollectElementEvents(ctx, ts, payload, heap_due);
      ProcessEvents(ctx);
      if (heap_due) wakeup_threshold_ = ElemHeapMin();
    }

    if (ctx->options_.slice_per_element && has_open_data_) {
      CloseSliceAt(*ctx, ts);
    }

    // 2) The single per-record aggregation: fold the element into the open
    //    slice. This is the paper's one-partial-update-per-record property.
    if (!has_open_slice_) {
      // No query declared a begin <= ts (possible with slide > range
      // sampling windows); open an implicit slice so the element is kept
      // until eviction decides otherwise.
      has_open_slice_ = true;
      open_start_ = ts;
    }
    open_partial_ = ctx->agg_.Combine(open_partial_, ctx->agg_.Lift(value));
    has_open_data_ = true;
    ++stats_.partial_updates;
    ++stats_.elements;

    // 3) Data-driven completions (count windows) fire after aggregation so
    //    the current element is included. Only data-driven functions have
    //    AfterElement events.
    if (!always_poll_queries_.empty()) {
      CollectAfterElementEvents(ctx, ts, payload);
      ProcessEvents(ctx);
    }

    if (stats_.elements % Context::kEvictionPeriod == 0) Evict();
    UpdatePeak();
  }

  /// Batch entry point. Elements strictly below the published wakeup
  /// threshold cannot produce window events (no begins, no ends, no slice
  /// cuts), so a whole run of them folds into the open slice with one
  /// contiguous AggFoldSpan kernel call -- same left-to-right association as
  /// per-element Combine, so results are bit-identical. Elements at or past
  /// the threshold (and all elements when a data-driven query is registered
  /// or the slicer emulates per-tuple slices) fall back to OnElement.
  void OnElements(Context* ctx, const Timestamp* ts, const Input* values,
                  size_t n) {
    if (!sched_valid_) RebuildSchedule(*ctx);
    constexpr uint64_t period = Context::kEvictionPeriod;
    size_t i = 0;
    while (i < n) {
      const bool fast =
          !ctx->options_.slice_per_element &&
          always_poll_queries_.empty() && always_poll_gens_.empty() &&
          ts[i] < wakeup_threshold_;
      if (!fast) {
        OnElement(ctx, ts[i], values[i], Value());
        ++i;
        continue;
      }
      size_t j = i + 1;
      while (j < n && ts[j] < wakeup_threshold_) ++j;
      STREAMLINE_DCHECK(stats_.elements == 0 || ts[i] >= last_ts_);
      if (!has_open_slice_) {
        has_open_slice_ = true;
        open_start_ = ts[i];
      }
      AggFoldSpan(ctx->agg_, &open_partial_, values + i, j - i);
      has_open_data_ = true;
      last_ts_ = ts[j - 1];
      const uint64_t before = stats_.elements;
      stats_.elements += j - i;
      stats_.partial_updates += j - i;
      // Same eviction cadence as per-element: evict iff the run crossed an
      // eviction-period boundary (Evict is idempotent while no window
      // events intervene, so once per run equals once per crossing).
      if (before / period != stats_.elements / period) Evict();
      UpdatePeak();
      i = j;
    }
  }

  void OnWatermark(Context* ctx, Timestamp wm) {
    if (!sched_valid_) RebuildSchedule(*ctx);
    // Watermarks only complete windows; poll the queries whose watermark
    // wakeup is covered (wm min-heap) plus the always-polled ones. Boundary
    // generators contribute begins only, so they are never watermark-polled.
    std::vector<size_t>& poll = ctx->poll_queries_;
    poll.clear();
    if (wm == kMaxTimestamp) {
      // End of stream: every function is due (kMaxTimestamp wakeups mean
      // "end of stream only"), so poll every attached query.
      wm_heap_.clear();
      for (size_t q = 0; q < slots_.size(); ++q) {
        if (slots_[q].wf == nullptr) continue;
        if (slots_[q].wm_wakeup != kMinTimestamp) {
          slots_[q].wm_wakeup = kMaxTimestamp;
        }
        poll.push_back(q);
      }
    } else {
      poll.assign(always_wm_queries_.begin(), always_wm_queries_.end());
      while (!wm_heap_.empty() && wm_heap_.front().first <= wm) {
        const auto [at, q] = wm_heap_.front();
        PopHeap(&wm_heap_);
        if (slots_[q].wm_wakeup != at) continue;  // stale (re-armed/detached)
        slots_[q].wm_wakeup = kMaxTimestamp;
        if (slots_[q].wf->NextWatermarkWakeup() <= wm) {
          poll.push_back(q);
        } else {
          ArmWatermark(*ctx, q);  // lazily armed: the wakeup moved later
        }
      }
      std::sort(poll.begin(), poll.end());
    }
    ctx->events_.clear();
    for (size_t q : poll) {
      ctx->scratch_.clear();
      slots_[q].wf->OnWatermark(wm, &ctx->scratch_);
      for (const WindowEvent& e : ctx->scratch_) {
        ctx->events_.push_back({e, q, /*boundary_only=*/false});
      }
      ArmQuery(*ctx, q, /*force_needed=*/false);
    }
    SortEvents(ctx);
    ProcessEvents(ctx);
    Evict();
    UpdatePeak();
    wakeup_threshold_ = ElemHeapMin();
  }

  /// The earliest watermark at which OnWatermark could emit an event or
  /// change the aggregation state: the live minimum of the watermark heap,
  /// kMinTimestamp while some query is polled on every watermark, and
  /// kMaxTimestamp when only the end of the stream is due. Exact as long as
  /// no element arrived since the last OnWatermark -- elements may owe an
  /// eviction, so their key is advanced regardless. Settles lazily armed
  /// heap entries, hence non-const.
  Timestamp NextDue(const Context& ctx) {
    if (!sched_valid_) RebuildSchedule(ctx);
    while (!wm_heap_.empty()) {
      const auto [at, q] = wm_heap_.front();
      if (slots_[q].wm_wakeup == at &&
          slots_[q].wf->NextWatermarkWakeup() == at) {
        break;
      }
      PopHeap(&wm_heap_);
      if (slots_[q].wm_wakeup != at) continue;  // stale
      slots_[q].wm_wakeup = kMaxTimestamp;
      ArmWatermark(ctx, q);
    }
    if (!always_wm_queries_.empty()) return kMinTimestamp;
    return wm_heap_.empty() ? kMaxTimestamp : wm_heap_.front().first;
  }

  /// Work counters, with the store's combines folded in.
  AggStats stats() const {
    AggStats s = stats_;
    s.combine_ops += store_.combine_ops();
    return s;
  }

  /// Number of slices currently held in the store.
  size_t stored_slices() const { return store_.size(); }

  /// Serializes the full aggregation state (open slice, per-query window
  /// progress, store, counters) for engine checkpoints. Detached slots are
  /// recorded as inactive so the slot layout round-trips.
  /// `ser(partial, writer)` encodes one Partial.
  template <typename SerFn>
  void Snapshot(BinaryWriter* w, const SerFn& ser) const {
    w->WriteBool(has_open_slice_);
    w->WriteBool(has_open_data_);
    w->WriteI64(open_start_);
    ser(open_partial_, w);
    w->WriteI64(last_ts_);
    w->WriteU64(slots_.size());
    for (const FnState& q : slots_) {
      w->WriteBool(q.wf != nullptr);
      if (q.wf) q.wf->SnapshotState(w);
    }
    w->WriteU64(gens_.size());
    for (const FnState& g : gens_) g.wf->SnapshotState(w);
    store_.Snapshot(w, ser);
    for (const uint64_t* c : Counters(&stats_)) w->WriteU64(*c);
  }

  /// Restores a snapshot taken by an identically laid out key slicer (same
  /// slot layout incl. detached holes, same boundary generators, same store
  /// type).
  template <typename DeFn>
  Status Restore(BinaryReader* r, const DeFn& de) {
    auto open_slice = r->ReadBool();
    if (!open_slice.ok()) return open_slice.status();
    auto open_data = r->ReadBool();
    if (!open_data.ok()) return open_data.status();
    auto open_start = r->ReadI64();
    if (!open_start.ok()) return open_start.status();
    auto open_partial = de(r);
    if (!open_partial.ok()) return open_partial.status();
    auto last_ts = r->ReadI64();
    if (!last_ts.ok()) return last_ts.status();
    auto nq = r->ReadU64();
    if (!nq.ok()) return nq.status();
    if (*nq != slots_.size()) {
      return Status::FailedPrecondition(
          "snapshot has " + std::to_string(*nq) + " queries, aggregator has " +
          std::to_string(slots_.size()));
    }
    for (FnState& q : slots_) {
      auto active = r->ReadBool();
      if (!active.ok()) return active.status();
      if (*active != (q.wf != nullptr)) {
        return Status::FailedPrecondition(
            "snapshot query slot active/detached state mismatch");
      }
      if (q.wf) STREAMLINE_RETURN_IF_ERROR(q.wf->RestoreState(r));
    }
    auto ng = r->ReadU64();
    if (!ng.ok()) return ng.status();
    if (*ng != gens_.size()) {
      return Status::FailedPrecondition("boundary generator count mismatch");
    }
    for (FnState& g : gens_) {
      STREAMLINE_RETURN_IF_ERROR(g.wf->RestoreState(r));
    }
    STREAMLINE_RETURN_IF_ERROR(store_.Restore(r, de));
    has_open_slice_ = *open_slice;
    has_open_data_ = *open_data;
    open_start_ = *open_start;
    open_partial_ = std::move(*open_partial);
    last_ts_ = *last_ts;
    for (uint64_t* c : Counters(&stats_)) {
      auto v = r->ReadU64();
      if (!v.ok()) return v.status();
      *c = *v;
    }
    sched_valid_ = false;  // heaps rebuilt on the next element/watermark
    return Status::Ok();
  }

 private:
  using TaggedEvent = typename Context::TaggedEvent;

  /// A slot's (or boundary generator's) window function and its armed
  /// wakeups (see the scheduling members below). Generators use only the
  /// element wakeup.
  struct FnState {
    std::unique_ptr<WindowFunction> wf;  // null = detached slot
    Timestamp elem_wakeup = kMaxTimestamp;
    Timestamp wm_wakeup = kMaxTimestamp;
  };

  /// The counters a snapshot carries, in snapshot order.
  template <typename S>
  static auto Counters(S* s) -> std::array<decltype(&s->elements), 6> {
    return {&s->elements,       &s->partial_updates, &s->fires,
            &s->slices_created, &s->peak_stored,     &s->combine_ops};
  }

  // Boundary-generator ids share the element heap with query ids; the top
  // bit tells them apart (slot counts never get near 2^63).
  static constexpr size_t kGenIdFlag = size_t{1} << 63;

  using HeapEntry = std::pair<Timestamp, size_t>;

  static void PushHeap(std::vector<HeapEntry>* h, Timestamp at, size_t id) {
    h->emplace_back(at, id);
    std::push_heap(h->begin(), h->end(), std::greater<>());
  }
  static void PopHeap(std::vector<HeapEntry>* h) {
    std::pop_heap(h->begin(), h->end(), std::greater<>());
    h->pop_back();
  }
  static void SortedInsert(std::vector<size_t>* v, size_t id) {
    v->insert(std::lower_bound(v->begin(), v->end(), id), id);
  }
  static void SortedErase(std::vector<size_t>* v, size_t id) {
    auto it = std::lower_bound(v->begin(), v->end(), id);
    if (it != v->end() && *it == id) v->erase(it);
  }

  // Backfill pass of Attach: walk the new query's begin grid downward from
  // the attach point while each grid point is an intact cut (a retained
  // stored-slice start, or the open slice's start). Every window beginning
  // at such a point combines exactly the elements >= that cut, so lowering
  // the query's first window end to the earliest intact begin serves
  // correct pre-attach results from shared state. The walk stops at the
  // first missing cut: a stored slice might span that grid point, and a
  // spanned begin would leak older elements into the window.
  void TryBackfill(Context* ctx, SlidingWindowFn* wf) {
    const Timestamp lo = last_ts_ - wf->range();  // begins must be > lo
    Timestamp b = wf->NextGridPointAfter(last_ts_) - wf->slide();
    Timestamp earliest = kMaxTimestamp;
    // An intact cut: a retained stored-slice start or the open slice's.
    while (b > lo && ((has_open_slice_ && open_start_ == b) ||
                      store_.HasCutAt(b))) {
      earliest = b;
      b -= wf->slide();
    }
    if (earliest == kMaxTimestamp) return;
    wf->BackfillTo(earliest);
    ctx->last_attach_backfilled_ = true;
    ctx->last_attach_backfill_slices_ =
        store_.EndIndex() - store_.LowerBound(earliest);
  }

  // ---- scheduling ---------------------------------------------------------

  void RebuildSchedule(const Context& ctx) {
    for (FnState& s : slots_) s.elem_wakeup = s.wm_wakeup = kMaxTimestamp;
    for (FnState& g : gens_) g.elem_wakeup = kMaxTimestamp;
    always_poll_queries_.clear();
    always_wm_queries_.clear();
    always_poll_gens_.clear();
    elem_heap_.clear();
    wm_heap_.clear();
    needed_heap_.clear();
    wakeup_threshold_ = kMaxTimestamp;
    sched_valid_ = true;
    for (size_t q = 0; q < slots_.size(); ++q) {
      if (slots_[q].wf) ArmQuery(ctx, q, /*force_needed=*/true);
    }
    for (size_t g = 0; g < gens_.size(); ++g) ArmGen(ctx, g);
    wakeup_threshold_ = ElemHeapMin();
  }

  /// A function's published wakeup. The ablation reads every wakeup as
  /// kMinTimestamp: everything is polled on every element and watermark.
  static Timestamp Published(const Context& ctx, Timestamp wakeup) {
    return ctx.options_.disable_wakeup_fastpath ? kMinTimestamp : wakeup;
  }

  /// Re-publishes both wakeup channels of query `q` after a poll (or at
  /// registration). Membership moves between the always-poll lists (wakeup
  /// == kMinTimestamp) and the min-heaps; a query migrating out of
  /// always-poll (or force-registered) enters the eviction lower-bound heap.
  void ArmQuery(const Context& ctx, size_t q, bool force_needed) {
    FnState& s = slots_[q];
    const bool was_always = s.elem_wakeup == kMinTimestamp;
    ArmElement(ctx, &s, &always_poll_queries_, q, q);
    ArmWatermark(ctx, q);
    if (s.elem_wakeup != kMinTimestamp && (was_always || force_needed)) {
      const Timestamp need = s.wf->OldestNeededBegin();
      if (need != kMaxTimestamp) PushHeap(&needed_heap_, need, q);
    }
  }

  /// Watermark channel of ArmQuery. A wakeup that moved *later* keeps the
  /// armed (earlier) heap entry: when it surfaces, OnWatermark or NextDue
  /// re-arms it at the function's current wakeup. A session's wakeup moves
  /// with every element, so this is one heap push per popped entry instead
  /// of one per element.
  void ArmWatermark(const Context& ctx, size_t q) {
    FnState& s = slots_[q];
    const Timestamp ww = Published(ctx, s.wf->NextWatermarkWakeup());
    const Timestamp armed = s.wm_wakeup;
    if (ww == armed) return;
    if (armed != kMinTimestamp && armed != kMaxTimestamp && ww > armed) {
      return;
    }
    if (armed == kMinTimestamp) SortedErase(&always_wm_queries_, q);
    s.wm_wakeup = ww;
    if (ww == kMinTimestamp) {
      SortedInsert(&always_wm_queries_, q);
    } else if (ww != kMaxTimestamp) {
      PushHeap(&wm_heap_, ww, q);
    }
  }

  void ArmGen(const Context& ctx, size_t g) {
    ArmElement(ctx, &gens_[g], &always_poll_gens_, g, g | kGenIdFlag);
  }

  /// Element channel of ArmQuery and ArmGen: files `s` (list id `id`) in
  /// `always` while its wakeup is kMinTimestamp, else in the element heap
  /// under `heap_id`.
  void ArmElement(const Context& ctx, FnState* s, std::vector<size_t>* always,
                  size_t id, size_t heap_id) {
    const Timestamp w = Published(ctx, s->wf->NextWakeup());
    if (w == s->elem_wakeup) return;
    if (s->elem_wakeup == kMinTimestamp) SortedErase(always, id);
    s->elem_wakeup = w;
    if (w == kMinTimestamp) {
      SortedInsert(always, id);
    } else if (w != kMaxTimestamp) {
      PushHeap(&elem_heap_, w, heap_id);
      wakeup_threshold_ = std::min(wakeup_threshold_, w);
    }
  }

  /// Min over live element-heap entries; drops stale tops (an entry is
  /// stale when its value no longer matches the id's armed wakeup).
  Timestamp ElemHeapMin() {
    while (!elem_heap_.empty()) {
      const auto [at, id] = elem_heap_.front();
      const Timestamp cur = (id & kGenIdFlag)
                                ? gens_[id & ~kGenIdFlag].elem_wakeup
                                : slots_[id].elem_wakeup;
      if (cur == at) return at;
      PopHeap(&elem_heap_);
    }
    return kMaxTimestamp;
  }

  // ---- polling ------------------------------------------------------------

  /// Polls the data-driven functions plus (when `heap_due`) every periodic
  /// function whose wakeup is covered by `ts`, in ascending slot order (the
  /// order the full scan used, so event tie-breaking is unchanged).
  void CollectElementEvents(Context* ctx, Timestamp ts, const Value& payload,
                            bool heap_due) {
    std::vector<size_t>& poll_queries = ctx->poll_queries_;
    std::vector<size_t>& poll_gens = ctx->poll_gens_;
    poll_queries.assign(always_poll_queries_.begin(),
                        always_poll_queries_.end());
    poll_gens.assign(always_poll_gens_.begin(), always_poll_gens_.end());
    if (heap_due) {
      while (!elem_heap_.empty() && elem_heap_.front().first <= ts) {
        const auto [at, id] = elem_heap_.front();
        PopHeap(&elem_heap_);
        const bool gen = id & kGenIdFlag;
        FnState& s = gen ? gens_[id & ~kGenIdFlag] : slots_[id];
        if (s.elem_wakeup != at) continue;  // stale
        s.elem_wakeup = kMaxTimestamp;
        (gen ? poll_gens : poll_queries).push_back(id & ~kGenIdFlag);
      }
      std::sort(poll_queries.begin(), poll_queries.end());
      std::sort(poll_gens.begin(), poll_gens.end());
    }
    ctx->events_.clear();
    for (size_t q : poll_queries) {
      ctx->scratch_.clear();
      slots_[q].wf->OnElement(ts, payload, &ctx->scratch_);
      for (const WindowEvent& e : ctx->scratch_) {
        ctx->events_.push_back({e, q, false});
      }
      ArmQuery(*ctx, q, /*force_needed=*/false);
    }
    for (size_t g : poll_gens) {
      ctx->scratch_.clear();
      gens_[g].wf->OnElement(ts, payload, &ctx->scratch_);
      for (const WindowEvent& e : ctx->scratch_) {
        if (e.kind == WindowEvent::Kind::kBegin) {
          ctx->events_.push_back({e, 0, true});
        }
      }
      ArmGen(*ctx, g);
    }
    SortEvents(ctx);
  }

  void CollectAfterElementEvents(Context* ctx, Timestamp ts,
                                 const Value& payload) {
    ctx->events_.clear();
    // Only data-driven functions produce AfterElement events, and polling
    // never changes their always-poll membership (they stay data-driven).
    for (size_t q : always_poll_queries_) {
      ctx->scratch_.clear();
      slots_[q].wf->AfterElement(ts, payload, &ctx->scratch_);
      for (const WindowEvent& e : ctx->scratch_) {
        ctx->events_.push_back({e, q, false});
      }
    }
    SortEvents(ctx);
  }

  // Orders events by time, ends before begins at the same instant, and
  // otherwise keeps their arrival order. A slice boundary yields a handful
  // of events, so short lists take an in-place insertion sort:
  // std::stable_sort would allocate a temporary buffer on every call.
  // Longer lists (an end-of-stream flush) keep O(n log n).
  static void SortEvents(Context* ctx) {
    constexpr size_t kInsertionSortMax = 32;
    std::vector<TaggedEvent>& events = ctx->events_;
    const auto before = [](const TaggedEvent& a, const TaggedEvent& b) {
      if (a.event.at != b.event.at) return a.event.at < b.event.at;
      return a.event.kind == WindowEvent::Kind::kEnd &&
             b.event.kind == WindowEvent::Kind::kBegin;
    };
    if (events.size() > kInsertionSortMax) {
      std::stable_sort(events.begin(), events.end(), before);
      return;
    }
    for (size_t i = 1; i < events.size(); ++i) {
      if (!before(events[i], events[i - 1])) continue;
      TaggedEvent moving = std::move(events[i]);
      size_t j = i;
      do {
        events[j] = std::move(events[j - 1]);
        --j;
      } while (j > 0 && before(moving, events[j - 1]));
      events[j] = std::move(moving);
    }
  }

  void ProcessEvents(Context* ctx) {
    for (const TaggedEvent& te : ctx->events_) {
      if (te.event.kind == WindowEvent::Kind::kBegin) {
        CloseSliceAt(*ctx, te.event.at);
      } else if (!te.boundary_only) {
        Fire(*ctx, te.query, te.event.window);
      }
    }
    ctx->events_.clear();
  }

  // Cuts a slice boundary at time `at`: pushes the open slice (if it holds
  // data) into the store and opens a fresh slice starting at `at`.
  void CloseSliceAt(const Context& ctx, Timestamp at) {
    if (has_open_slice_ && at == open_start_ && !has_open_data_) {
      return;  // duplicate boundary from another query
    }
    if (has_open_slice_ && has_open_data_) {
      store_.Append(open_start_, std::move(open_partial_));
      open_partial_ = ctx.agg_.Identity();
      ++stats_.slices_created;
    }
    has_open_slice_ = true;
    has_open_data_ = false;
    open_start_ = at;
  }

  void Fire(const Context& ctx, size_t query, const Window& w) {
    const size_t i = store_.LowerBound(w.start);
    const size_t j = store_.LowerBound(w.end);
    Partial result = store_.RangeCombine(i, j);
    if (has_open_slice_ && has_open_data_ && open_start_ < w.end &&
        open_start_ >= w.start) {
      result = ctx.agg_.Combine(result, open_partial_);
      ++stats_.combine_ops;
    }
    ++stats_.fires;
    if (ctx.slots_[query].cb) {
      ctx.slots_[query].cb(query, w, ctx.agg_.Lower(result));
    }
  }

  /// Slice GC. Data-driven queries are re-scanned eagerly (their needed
  /// begin may move backward); periodic queries sit in a lazy min-heap of
  /// lower bounds (OldestNeededBegin is non-decreasing for them, see the
  /// NextWakeup contract), so the scan cost is O(stale), not O(queries).
  /// Runs on a valid schedule only.
  void Evict() {
    Timestamp needed = kMaxTimestamp;
    for (size_t q : always_poll_queries_) {
      needed = std::min(needed, slots_[q].wf->OldestNeededBegin());
    }
    while (!needed_heap_.empty()) {
      const auto [at, q] = needed_heap_.front();
      if (slots_[q].wf == nullptr || slots_[q].elem_wakeup == kMinTimestamp) {
        PopHeap(&needed_heap_);  // detached, or migrated to always-poll
        continue;
      }
      const Timestamp cur = slots_[q].wf->OldestNeededBegin();
      if (cur > at) {
        PopHeap(&needed_heap_);
        if (cur != kMaxTimestamp) PushHeap(&needed_heap_, cur, q);
        continue;
      }
      needed = std::min(needed, cur);
      break;  // every other periodic entry is >= at >= cur
    }
    if (needed == kMaxTimestamp) {
      // No pending window: everything stored is garbage.
      store_.EvictBefore(store_.EndIndex());
      return;
    }
    store_.EvictBefore(store_.LowerBound(needed));
  }

  void UpdatePeak() {
    stats_.peak_stored =
        std::max<uint64_t>(stats_.peak_stored, store_.size());
  }

  Store store_;
  bool has_open_slice_ = false;
  bool has_open_data_ = false;
  bool sched_valid_ = false;  // see the scheduling members below
  Timestamp open_start_ = 0;
  Partial open_partial_;
  Timestamp last_ts_ = kMinTimestamp;
  std::vector<FnState> slots_;  // one per context slot, in slot order
  std::vector<FnState> gens_;   // one per context boundary generator

  // Slicer scheduling (see OnElement/OnWatermark). Heaps hold (wakeup, id)
  // entries; an entry is live iff its value matches the id's armed wakeup
  // (FnState::elem_wakeup/wm_wakeup), stale entries are skipped on pop.
  // kMinTimestamp = member of the matching always-poll list; kMaxTimestamp
  // = unscheduled (detached slot, or no event before the end of the
  // stream). A wm_wakeup may lag behind the function's wakeup
  // (ArmWatermark re-arms lazily), never run ahead of it.
  Timestamp wakeup_threshold_ = kMinTimestamp;
  std::vector<HeapEntry> elem_heap_;
  std::vector<HeapEntry> wm_heap_;
  std::vector<HeapEntry> needed_heap_;
  std::vector<size_t> always_poll_queries_;  // sorted slot ids
  std::vector<size_t> always_wm_queries_;
  std::vector<size_t> always_poll_gens_;
  // combine_ops counts the fires' open-slice combines; stats() adds the
  // store's.
  AggStats stats_;
};

/// A standalone Cutty slicer: one context and one key slicer, behind the
/// WindowAggregator interface (experiments, baselines, tests).
template <typename Agg, typename Store = FlatFatStore<Agg>>
class SlicingAggregator : public WindowAggregator<Agg> {
 public:
  using Input = typename Agg::Input;
  using ResultCallback = typename WindowAggregator<Agg>::ResultCallback;
  using Context = SlicerContext<Agg>;
  using Options = typename Context::Options;

  explicit SlicingAggregator(Agg agg = Agg(), Options options = Options())
      : ctx_(std::move(agg), options), key_(ctx_) {}

  size_t AddQuery(std::unique_ptr<WindowFunction> wf,
                  ResultCallback cb) override {
    STREAMLINE_CHECK_EQ(key_.stats().elements, 0u)
        << "use AttachQuery to register queries mid-stream";
    return AttachQuery(std::move(wf), std::move(cb));
  }

  /// Registers a query on a (possibly) running aggregator; see
  /// KeySlicer::Attach. `wf` must be fresh: the slicer runs a clone of it.
  /// Returns the slot id (stable; reported to result callbacks).
  size_t AttachQuery(std::unique_ptr<WindowFunction> wf, ResultCallback cb) {
    const size_t slot = ctx_.AddSlot(std::move(wf), std::move(cb));
    key_.Attach(&ctx_, slot);
    return slot;
  }

  /// Unregisters the query in `slot` and immediately evicts every slice no
  /// remaining query needs. Slot ids are never reused. Returns the number
  /// of slices freed by the eviction.
  size_t DetachQuery(size_t slot) {
    ctx_.DetachSlot(slot);
    return key_.Detach(ctx_, slot);
  }

  /// Adds a window function whose begins cut slices but whose windows
  /// never fire: the extra cut points of Pairs (window ends) and Panes (gcd
  /// grid). Before the first element only.
  void AddBoundaryGenerator(std::unique_ptr<WindowFunction> wf) {
    ctx_.gens_.push_back(std::move(wf));
    key_.ResetGenerators(ctx_);
  }

  void ClearBoundaryGenerators() {
    ctx_.gens_.clear();
    key_.ResetGenerators(ctx_);
  }

  using WindowAggregator<Agg>::OnElement;

  void OnElement(Timestamp ts, const Input& value,
                 const Value& payload) override {
    key_.OnElement(&ctx_, ts, value, payload);
  }

  void OnElements(const Timestamp* ts, const Input* values,
                  size_t n) override {
    key_.OnElements(&ctx_, ts, values, n);
  }

  void OnWatermark(Timestamp wm) override { key_.OnWatermark(&ctx_, wm); }

  /// See KeySlicer::NextDue.
  Timestamp NextDue() { return key_.NextDue(ctx_); }

  AggStats stats() const override { return key_.stats(); }

  std::string name() const override {
    return ctx_.options_.slice_per_element ? "slicing(per-tuple)" : "cutty";
  }

  /// Number of slices currently held in the store.
  size_t stored_slices() const { return key_.stored_slices(); }
  /// Total slots ever allocated (attached + detached).
  size_t num_slots() const { return ctx_.slots_.size(); }
  /// Currently attached queries.
  size_t active_queries() const { return ctx_.active_slots_; }
  /// Whether the most recent AttachQuery backfilled pre-attach windows.
  bool last_attach_backfilled() const { return ctx_.last_attach_backfilled_; }
  /// Stored slices the most recent backfilled attach reuses.
  uint64_t last_attach_backfill_slices() const {
    return ctx_.last_attach_backfill_slices_;
  }

  template <typename SerFn>
  void Snapshot(BinaryWriter* w, const SerFn& ser) const {
    key_.Snapshot(w, ser);
  }

  template <typename DeFn>
  Status Restore(BinaryReader* r, const DeFn& de) {
    return key_.Restore(r, de);
  }

 private:
  Context ctx_;
  KeySlicer<Agg, Store> key_;
};

}  // namespace streamline

#endif  // STREAMLINE_AGG_SLICING_AGGREGATOR_H_
