#include "dataflow/window_operator.h"

#include <algorithm>
#include <cstdint>

#include "common/logging.h"

namespace streamline {
namespace {

void SerializeDynPartial(const DynPartial& p, BinaryWriter* w) {
  DynAggregate::SerializePartial(p, w);
}

Result<DynPartial> DeserializeDynPartial(BinaryReader* r) {
  return DynAggregate::DeserializePartial(r);
}

}  // namespace

WindowAggOperator::WindowAggOperator(std::string name, WindowAggSpec spec)
    : name_(std::move(name)),
      spec_(std::move(spec)),
      adapter_(spec_.agg_kind),
      keys_(name_, KeyCodec{this}) {
  STREAMLINE_CHECK(!spec_.windows.empty())
      << "WindowAggSpec needs at least one window definition";
}

WindowAggOperator::~WindowAggOperator() {
  if (spec_.registry != nullptr && bound_metrics_ != nullptr) {
    spec_.registry->UnbindMetrics(bound_metrics_);
  }
}

Status WindowAggOperator::Open(const OperatorContext& ctx) {
  subtask_index_ = ctx.subtask_index;
  keys_.BindGauges(ctx);
  if (ctx.metrics != nullptr) {
    keys_visited_ = ctx.metrics->GetCounter(
        "op." + name_ + "." + std::to_string(ctx.subtask_index) +
        ".wm.keys_visited");
  }
  if (spec_.registry != nullptr) {
    if (spec_.backend != WindowBackend::kShared) {
      return Status::InvalidArgument(
          "standing-query registry requires the shared window backend");
    }
    spec_.registry->RegisterWorker(name_ + ":" +
                                   std::to_string(ctx.subtask_index));
    bound_metrics_ = ctx.metrics;
    spec_.registry->BindMetrics(ctx.metrics);
  }
  if (spec_.backend == WindowBackend::kEager) {
    // Eager per-window state supports periodic windows only (matching the
    // systems it models): every spec window becomes an open-window slot.
    open_slots_.clear();
    for (size_t q = 0; q < spec_.windows.size(); ++q) {
      const auto* sliding =
          dynamic_cast<const SlidingWindowFn*>(spec_.windows[q].get());
      if (sliding == nullptr) {
        return Status::InvalidArgument(
            "eager window backend supports periodic windows only, got " +
            spec_.windows[q]->Name());
      }
      open_slots_.push_back(OpenWindowSlot{sliding->range(), sliding->slide(),
                                           sliding->origin(), kMinTimestamp,
                                           q, true});
    }
    active_slots_ = open_slots_.size();
  } else {
    ResetSlots();
  }
  return Status::Ok();
}

void WindowAggOperator::ResetSlots() {
  slicer_ = SlicerContext<DynAggAdapter>(adapter_);
  for (size_t q = 0; q < spec_.windows.size(); ++q) {
    AddSlicerSlot(spec_.windows[q]->Clone(), q);
  }
  open_slots_.clear();
  for (DynQuery& dq : dyn_queries_) {
    if (dq.placement == QueryPlacement::kStandalone) {
      dq.slot = open_slots_.size();
      open_slots_.push_back(OpenWindowSlot{dq.desc.range, dq.desc.slide,
                                           dq.desc.origin, dq.attach_wm,
                                           dq.id, dq.active});
      continue;
    }
    dq.slot = AddSlicerSlot(
        std::make_unique<SlidingWindowFn>(dq.desc.range, dq.desc.slide,
                                          dq.desc.origin),
        dq.id);
    if (!dq.active) slicer_.DetachSlot(dq.slot);
  }
  active_slots_ = static_cast<size_t>(
      std::count_if(open_slots_.begin(), open_slots_.end(),
                    [](const OpenWindowSlot& s) { return s.active; }));
}

size_t WindowAggOperator::AddSlicerSlot(std::unique_ptr<WindowFunction> proto,
                                        uint64_t query) {
  // The key is `emit_key_` and the collector `current_out_`, both set by
  // the call on the stack.
  return slicer_.AddSlot(
      std::move(proto), [this, query](size_t, const Window& w, const Value& v) {
        EmitResult(query, w, v);
      });
}

void WindowAggOperator::InitKeyState(KeyState* ks) {
  // A key created after queries attached runs them from the key's first
  // element (the key has no earlier history to miss); detached slots stay
  // empty so the layout matches the table.
  if (spec_.backend == WindowBackend::kShared) {
    ks->shared = std::make_unique<SharedSlicer>(slicer_);
  }
  ks->open.resize(open_slots_.size());
}

void WindowAggOperator::EmitResult(size_t query, const Window& w,
                                   const Value& result) {
  STREAMLINE_CHECK(current_out_ != nullptr && emit_key_ != nullptr);
  Record out;
  out.timestamp = w.end - 1;
  out.fields = {*emit_key_, Value(w.start), Value(w.end),
                Value(static_cast<int64_t>(query)), result};
  current_out_->Emit(std::move(out));
}

void WindowAggOperator::ProcessRecord(int, Record&& record, Collector* out) {
  (void)out;
  if (record.timestamp < current_wm_) {
    // Late record (violates upstream watermarks): dropped, the standard
    // allowed-lateness-zero policy.
    return;
  }
  pending_.Push(std::move(record), seq_++);
}

void WindowAggOperator::ProcessBatch(int, std::vector<Record>&& batch,
                                     Collector*) {
  // Windowing buffers until the watermark anyway, so the batch entry point
  // is just a bulk append into the reorder buffer. Its vectors must keep
  // growing geometrically: an exact reserve(size + batch) per batch would
  // move the whole buffer on every batch, turning a stalled watermark into
  // O(n^2) dispatch cost.
  for (Record& record : batch) {
    if (record.timestamp < current_wm_) continue;  // late: dropped
    pending_.Push(std::move(record), seq_++);
  }
  batch.clear();
}

uint32_t WindowAggOperator::ReorderBuffer::TakeSlot(Record&& record) {
  if (!free_slots_.empty()) {
    const uint32_t slot = free_slots_.back();
    free_slots_.pop_back();
    slab_[slot] = std::move(record);
    return slot;
  }
  // A stalled watermark buffers millions of records, never billions.
  STREAMLINE_CHECK_LT(slab_.size(), size_t{UINT32_MAX})
      << "reorder buffer slot index overflow";
  slab_.push_back(std::move(record));
  return static_cast<uint32_t>(slab_.size() - 1);
}

void WindowAggOperator::ReorderBuffer::Push(Record&& record, uint64_t seq) {
  Append(std::move(record), seq);
  std::push_heap(heap_.begin(), heap_.end(), After());
}

void WindowAggOperator::ReorderBuffer::Append(Record&& record, uint64_t seq) {
  const Timestamp ts = record.timestamp;
  heap_.push_back(Ref{ts, seq, TakeSlot(std::move(record))});
}

void WindowAggOperator::ReorderBuffer::MakeHeap() {
  std::make_heap(heap_.begin(), heap_.end(), After());
}

void WindowAggOperator::ReorderBuffer::PopCovered(Timestamp wm,
                                                  std::vector<Ref>* out) {
  while (!heap_.empty() && (wm == kMaxTimestamp || heap_.front().ts < wm)) {
    std::pop_heap(heap_.begin(), heap_.end(), After());
    out->push_back(heap_.back());
    heap_.pop_back();
  }
}

void WindowAggOperator::ReorderBuffer::Release(const std::vector<Ref>& refs) {
  for (const Ref& ref : refs) {
    slab_[ref.slot] = Record();
    free_slots_.push_back(ref.slot);
  }
}

void WindowAggOperator::ReorderBuffer::Clear() {
  heap_.clear();
  slab_.clear();
  free_slots_.clear();
}

void WindowAggOperator::ApplyElement(KeyState* ks, const Record& record) {
  if (ks->shared) {
    DynAggAdapter::Input in{record.field(spec_.value_field),
                            record.timestamp};
    const Value payload = spec_.payload ? spec_.payload(record) : Value();
    ks->shared->OnElement(&slicer_, record.timestamp, in, payload);
  }
  if (active_slots_ > 0) FoldOpenWindows(ks, record);
}

void WindowAggOperator::FoldOpenWindows(KeyState* ks, const Record& record) {
  const Timestamp ts = record.timestamp;
  const DynPartial lifted =
      adapter_.dyn.Lift(record.field(spec_.value_field), ts);
  for (size_t s = 0; s < open_slots_.size(); ++s) {
    const OpenWindowSlot& slot = open_slots_[s];
    if (!slot.active) continue;
    OpenWindows& open = ks->open[s];
    // Latest grid begin at or before ts; walk back while the window still
    // contains ts and begins at or after min_begin (with slide > range, a
    // ts in a gap is in no window at all).
    const Duration step = slot.slide;
    const Timestamp d = ts - slot.origin;
    Timestamp b =
        slot.origin + (d >= 0 ? d / step : (d - step + 1) / step) * step;
    for (; b > ts - slot.range && b >= slot.min_begin; b -= step) {
      const Window w{b, b + slot.range};
      auto it = std::lower_bound(
          open.begin(), open.end(), w,
          [](const auto& e, const Window& win) { return e.first < win; });
      if (it == open.end() || it->first != w) {
        it = open.insert(it, {w, adapter_.Identity()});
      }
      it->second = adapter_.Combine(it->second, lifted);
    }
  }
}

void WindowAggOperator::FireOpenWindows(KeyState* ks, Timestamp wm) {
  for (size_t s = 0; s < ks->open.size(); ++s) {
    OpenWindows& open = ks->open[s];
    // Sorted by (end, start): the fired windows are a prefix. Detached
    // slots have no open windows (cleared at detach).
    size_t fired = 0;
    while (fired < open.size() && open[fired].first.end <= wm) {
      EmitResult(static_cast<size_t>(open_slots_[s].query), open[fired].first,
                 adapter_.Lower(open[fired].second));
      ++fired;
    }
    if (fired > 0) {
      ks->standalone_fires += fired;
      open.erase(open.begin(), open.begin() + static_cast<ptrdiff_t>(fired));
    }
  }
}

void WindowAggOperator::AdvanceKeyWatermark(KeyState* ks, Timestamp wm) {
  if (ks->shared) ks->shared->OnWatermark(&slicer_, wm);
  FireOpenWindows(ks, wm);
}

void WindowAggOperator::ProcessWatermark(Timestamp wm, Collector* out) {
  current_out_ = out;
  // Hold the operator's event-time clock back by the allowed lateness:
  // records arriving up to that much behind the upstream watermark are
  // still sorted into place before windows fire.
  if (wm != kMaxTimestamp && spec_.allowed_lateness > 0) {
    wm = wm - spec_.allowed_lateness;
    if (wm <= current_wm_) return;
  }
  current_wm_ = std::max(current_wm_, wm);
  if (!index_valid_) RebuildIndex();
  ++wm_stamp_;
  visits_.clear();
  ApplyCoveredRecords(wm);
  ScheduleDueKeys(wm);
  AdvanceVisitedKeys(wm);
  emit_key_ = nullptr;  // registry commands fire nothing
  // Attach/detach commands apply here -- the end of a watermark is a
  // deterministic point of the event-time order, so every subtask (and any
  // checkpoint replay) splices queries in at the same place.
  DrainRegistryCommands();
  keys_.UpdateGauges();
  current_out_ = nullptr;
}

void WindowAggOperator::ApplyCoveredRecords(Timestamp wm) {
  // Pop exactly the records this watermark covers, in (ts, arrival) order;
  // they can no longer be preceded by anything. Records still ahead of the
  // watermark never move -- the common stall (one slow input channel
  // holding the min-watermark back while fast channels keep buffering) is
  // O(1) per watermark no matter how large the buffer grows.
  apply_scratch_.clear();
  pending_.PopCovered(wm, &apply_scratch_);
  const auto in_bound = [&](size_t i) { return i < apply_scratch_.size(); };
  const auto resolve_key = [&](const Record& record, Value* key,
                               uint64_t* hash) {
    if (spec_.key) {
      *key = spec_.key(record);
      // Hash-once: the upstream hash shuffle already stamped the key hash on
      // the record; only records injected outside a hash edge (tests,
      // restore) pay a hash here.
      *hash = record.has_key_hash() ? record.key_hash : KeyHashOf(*key);
    } else {
      *key = Value(int64_t{0});
      if (global_key_hash_ == 0) global_key_hash_ = KeyHashOf(*key);
      *hash = global_key_hash_;
    }
  };
  // Only contiguous same-key runs go through the aggregator's batch entry
  // point, so element order within and across keys is exactly the
  // per-element order (byte-identical output). Payload-carrying specs stay
  // per-element: the batch API carries no payloads.
  const bool can_batch = !spec_.payload && active_slots_ == 0;
  size_t applied = 0;
  while (in_bound(applied)) {
    const Record& record = pending_.record(apply_scratch_[applied]);
    Value key;
    uint64_t hash;
    resolve_key(record, &key, &hash);
    auto& entry = *keys_.Emplace(key, hash).first;
    KeyState* ks = &entry.second;
    emit_key_ = &entry.first;
    // Emplace already logged the upsert: no Touch needed.
    ScheduleVisit(keys_.PositionOf(entry), ks, /*touch=*/false);
    if (!can_batch) {
      ApplyElement(ks, record);
      ++applied;
      continue;
    }
    // Extend the contiguous run of records with this key (for the global
    // key that is every in-bound record).
    size_t j = applied + 1;
    while (in_bound(j)) {
      if (spec_.key) {
        const Record& next = pending_.record(apply_scratch_[j]);
        Value next_key;
        uint64_t next_hash;
        resolve_key(next, &next_key, &next_hash);
        if (next_hash != hash || !(next_key == key)) break;
      }
      ++j;
    }
    const size_t n = j - applied;
    if (n == 1) {
      ApplyElement(ks, record);
    } else {
      run_ts_.clear();
      run_in_.clear();
      run_ts_.reserve(n);
      run_in_.reserve(n);
      for (size_t i = applied; i < j; ++i) {
        const Record& r = pending_.record(apply_scratch_[i]);
        run_ts_.push_back(r.timestamp);
        run_in_.push_back(DynAggAdapter::Input{r.field(spec_.value_field),
                                               r.timestamp});
      }
      ks->shared->OnElements(&slicer_, run_ts_.data(), run_in_.data(), n);
    }
    applied = j;
  }
  pending_.Release(apply_scratch_);
  apply_scratch_.clear();
}

void WindowAggOperator::ScheduleDueKeys(Timestamp wm) {
  // Besides the applied keys (their slicers owe an eviction), advance the
  // keys whose window clock is due: sessions and periodic windows fire on
  // time progress even for keys with no new records.
  if (wm == kMaxTimestamp) {
    // End of stream: every key may owe a flush (punctuation and delta
    // windows are due only now). Visiting all keys also rebuilds the index.
    due_index_.clear();
    visits_.clear();
    for (size_t pos = 0; pos < keys_.size(); ++pos) {
      KeyState& ks = keys_.EntryAt(pos).second;
      ks.armed_due = kMaxTimestamp;
      visits_.push_back(Visit{pos, ks.visit_stamp != wm_stamp_});
    }
  } else {
    while (!due_index_.empty() && due_index_.front().first <= wm) {
      const auto [due, pos] = due_index_.front();
      std::pop_heap(due_index_.begin(), due_index_.end(), std::greater<>());
      due_index_.pop_back();
      KeyState& ks = keys_.EntryAt(pos).second;
      if (ks.armed_due != due) continue;  // stale: re-armed earlier
      ks.armed_due = kMaxTimestamp;
      if (ks.visit_stamp == wm_stamp_) continue;  // applied: visited anyway
      if (ks.next_due > wm) {
        ArmKey(pos, &ks);  // the due moved later since it was armed
        continue;
      }
      ScheduleVisit(pos, &ks, /*touch=*/true);
    }
    std::sort(visits_.begin(), visits_.end());
  }
}

void WindowAggOperator::AdvanceVisitedKeys(Timestamp wm) {
  // A popped key always changes when it advances (it fires or closes a
  // session), so a visit is a mutation.
  const bool incremental = keys_.incremental();
  for (const Visit& v : visits_) {
    auto& entry = keys_.EntryAt(v.pos);
    if (v.touch && incremental) keys_.Touch(entry);
    KeyState* ks = &entry.second;
    emit_key_ = &entry.first;
    AdvanceKeyWatermark(ks, wm);
    ks->next_due = KeyNextDue(ks);
    ArmKey(v.pos, ks);
    AccountSlices(ks);
  }
  if (keys_visited_ != nullptr) keys_visited_->Increment(visits_.size());
}

void WindowAggOperator::DrainRegistryCommands() {
  QueryRegistry* reg = spec_.registry.get();
  if (reg == nullptr) return;
  uint64_t slices_freed = 0;
  if (reg->latest_seq() != applied_seq_) {
    for (const QueryCommand& cmd : reg->CommandsAfter(applied_seq_)) {
      if (cmd.kind == QueryCommand::Kind::kAttach) {
        dyn_queries_.push_back(DynQuery{cmd.query_id, cmd.desc,
                                        cmd.placement, true, current_wm_});
        ApplyDynAttach(&dyn_queries_.back());
      } else {
        for (size_t i = 0; i < dyn_queries_.size(); ++i) {
          if (dyn_queries_[i].id == cmd.query_id && dyn_queries_[i].active) {
            dyn_queries_[i].active = false;
            ApplyDynDetach(i, &slices_freed);
            break;
          }
        }
      }
      applied_seq_ = cmd.seq;
    }
    // A command changes every key's slot layout (and therefore its
    // serialized bytes): re-serialize them all in the next delta. It also
    // moves due times (an attach may be due at once) and frees slices.
    if (keys_.incremental()) {
      for (const auto& entry : keys_) keys_.Touch(entry);
    }
    RebuildIndex();
  }
  reg->AckApplied(name_ + ":" + std::to_string(subtask_index_), applied_seq_,
                  stored_slices_, slices_freed);
}

void WindowAggOperator::ApplyDynAttach(DynQuery* dq) {
  if (dq->placement == QueryPlacement::kShared) {
    dq->slot = AddSlicerSlot(
        std::make_unique<SlidingWindowFn>(dq->desc.range, dq->desc.slide,
                                          dq->desc.origin),
        dq->id);
    for (auto& [key, ks] : keys_) ks.shared->Attach(&slicer_, dq->slot);
  } else {
    dq->slot = open_slots_.size();
    open_slots_.push_back(OpenWindowSlot{dq->desc.range, dq->desc.slide,
                                         dq->desc.origin, dq->attach_wm,
                                         dq->id, true});
    for (auto& [key, ks] : keys_) ks.open.emplace_back();
    ++active_slots_;
  }
}

void WindowAggOperator::ApplyDynDetach(size_t index, uint64_t* slices_freed) {
  const DynQuery& dq = dyn_queries_[index];
  const size_t slot = dq.slot;
  if (dq.placement == QueryPlacement::kShared) {
    slicer_.DetachSlot(slot);
    for (auto& [key, ks] : keys_) {
      *slices_freed += ks.shared->Detach(slicer_, slot);
    }
  } else {
    open_slots_[slot].active = false;
    for (auto& [key, ks] : keys_) {
      ks.open[slot].clear();
      ks.open[slot].shrink_to_fit();
    }
    --active_slots_;
  }
}

Timestamp WindowAggOperator::KeyNextDue(KeyState* ks) {
  Timestamp due = ks->shared ? ks->shared->NextDue(slicer_) : kMaxTimestamp;
  // Open windows are sorted by (end, start): the front ends first.
  for (const OpenWindows& open : ks->open) {
    if (!open.empty()) due = std::min(due, open.front().first.end);
  }
  return due;
}

void WindowAggOperator::ArmKey(size_t pos, KeyState* ks) {
  // A due that did not move, or moved later, keeps the live entry: no
  // stale entry per key per watermark.
  if (ks->next_due >= ks->armed_due) return;
  ks->armed_due = ks->next_due;
  due_index_.emplace_back(ks->armed_due, pos);
  std::push_heap(due_index_.begin(), due_index_.end(), std::greater<>());
}

void WindowAggOperator::ScheduleVisit(size_t pos, KeyState* ks, bool touch) {
  if (ks->visit_stamp == wm_stamp_) return;
  ks->visit_stamp = wm_stamp_;
  visits_.push_back(Visit{pos, touch});
}

void WindowAggOperator::AccountSlices(KeyState* ks) {
  if (!ks->shared) return;
  const size_t now = ks->shared->stored_slices();
  stored_slices_ += now - ks->slices;  // modular: the total stays exact
  ks->slices = now;
}

void WindowAggOperator::RebuildIndex() {
  due_index_.clear();
  stored_slices_ = 0;
  for (size_t pos = 0; pos < keys_.size(); ++pos) {
    KeyState& ks = keys_.EntryAt(pos).second;
    ks.next_due = KeyNextDue(&ks);
    ks.armed_due = ks.next_due;
    if (ks.next_due != kMaxTimestamp) due_index_.emplace_back(ks.next_due, pos);
    ks.slices = 0;
    AccountSlices(&ks);
  }
  std::make_heap(due_index_.begin(), due_index_.end(), std::greater<>());
  index_valid_ = true;
}

void WindowAggOperator::OnEndOfInput(Collector* out) {
  // The runtime always delivers a final kMaxTimestamp watermark before end
  // of input, which flushed everything; nothing left to do.
  (void)out;
}

void WindowAggOperator::WriteOpenWindows(const OpenWindows& open,
                                         BinaryWriter* w) {
  w->WriteU64(open.size());
  for (const auto& [window, partial] : open) {
    w->WriteI64(window.start);
    w->WriteI64(window.end);
    DynAggregate::SerializePartial(partial, w);
  }
}

Status WindowAggOperator::ReadOpenWindows(OpenWindows* open,
                                          BinaryReader* r) {
  // A delta may re-restore a key with open windows; full replacement.
  open->clear();
  auto nw = r->ReadU64();
  if (!nw.ok()) return nw.status();
  for (uint64_t k = 0; k < *nw; ++k) {
    auto start = r->ReadI64();
    if (!start.ok()) return start.status();
    auto end = r->ReadI64();
    if (!end.ok()) return end.status();
    auto p = DynAggregate::DeserializePartial(r);
    if (!p.ok()) return p.status();
    // Snapshots write `open` in sorted order; appending preserves it.
    open->emplace_back(Window{*start, *end}, *p);
  }
  return Status::Ok();
}

void WindowAggOperator::SnapshotKeyState(const KeyState& ks,
                                         BinaryWriter* w) const {
  if (spec_.backend == WindowBackend::kShared) {
    ks.shared->Snapshot(w, SerializeDynPartial);
    w->WriteU64(ks.open.size());
    w->WriteU64(ks.standalone_fires);
    for (const OpenWindows& open : ks.open) WriteOpenWindows(open, w);
    return;
  }
  // Eager layout: per spec window, its window-function state and its open
  // windows. The per-key function is never driven, so its state is the
  // prototype's.
  w->WriteU64(ks.open.size());
  for (size_t q = 0; q < ks.open.size(); ++q) {
    spec_.windows[q]->SnapshotState(w);
    WriteOpenWindows(ks.open[q], w);
  }
}

Status WindowAggOperator::RestoreKeyState(KeyState* ks, BinaryReader* r) {
  // The two layouts of SnapshotKeyState, interleaved.
  const bool shared = spec_.backend == WindowBackend::kShared;
  if (shared) {
    STREAMLINE_RETURN_IF_ERROR(ks->shared->Restore(r, DeserializeDynPartial));
  }
  auto n = r->ReadU64();
  if (!n.ok()) return n.status();
  if (*n != ks->open.size()) {
    return Status::FailedPrecondition("open-window slot count mismatch");
  }
  if (shared) {
    auto fires = r->ReadU64();
    if (!fires.ok()) return fires.status();
    ks->standalone_fires = *fires;
  }
  for (size_t q = 0; q < ks->open.size(); ++q) {
    if (!shared) {
      // Consumed through a throwaway clone, so a truncated snapshot fails.
      STREAMLINE_RETURN_IF_ERROR(spec_.windows[q]->Clone()->RestoreState(r));
    }
    STREAMLINE_RETURN_IF_ERROR(ReadOpenWindows(&ks->open[q], r));
  }
  return Status::Ok();
}

void WindowAggOperator::WriteMeta(BinaryWriter* w) const {
  w->WriteI64(current_wm_);
  w->WriteU64(seq_);
  w->WriteU64(applied_seq_);
  w->WriteU64(dyn_queries_.size());
  for (const DynQuery& dq : dyn_queries_) {
    w->WriteU64(dq.id);
    w->WriteI64(dq.desc.range);
    w->WriteI64(dq.desc.slide);
    w->WriteI64(dq.desc.origin);
    w->WriteU8(static_cast<uint8_t>(dq.placement));
    w->WriteBool(dq.active);
    w->WriteI64(dq.attach_wm);
  }
  // Written in heap-array order (deterministic for a given input history);
  // ReadMeta rebuilds the heap property, which holds for any array order.
  w->WriteU64(pending_.size());
  for (const ReorderBuffer::Ref& ref : pending_.refs()) {
    w->WriteRecord(pending_.record(ref));
    w->WriteU64(ref.seq);
  }
}

Status WindowAggOperator::ReadMeta(BinaryReader* r, bool replay) {
  auto wm = r->ReadI64();
  if (!wm.ok()) return wm.status();
  auto seq = r->ReadU64();
  if (!seq.ok()) return seq.status();
  // The dynamic-query table must be in place before any key state is
  // restored: InitKeyState lays out per-key slicer and open-window slots from
  // it, and RestoreKeyState validates the layout it reads against that.
  std::vector<DynQuery> table;
  uint64_t applied_seq = 0;
  STREAMLINE_RETURN_IF_ERROR(ReadDynTable(r, &table, &applied_seq));
  if (replay) STREAMLINE_RETURN_IF_ERROR(ReconcileDynTable(table));
  dyn_queries_ = std::move(table);
  applied_seq_ = applied_seq;
  // The eager backend has no dyn table; its slots are the spec windows'.
  if (spec_.backend == WindowBackend::kShared) ResetSlots();
  auto np = r->ReadU64();
  if (!np.ok()) return np.status();
  // Refilled compactly: slot i holds the i-th record read. Slots never
  // reach the bytes, so the writer's free slots need not survive.
  pending_.Clear();
  for (uint64_t i = 0; i < *np; ++i) {
    auto rec = r->ReadRecord();
    if (!rec.ok()) return rec.status();
    auto s = r->ReadU64();
    if (!s.ok()) return s.status();
    pending_.Append(std::move(*rec), *s);
  }
  pending_.MakeHeap();
  current_wm_ = *wm;
  seq_ = *seq;
  return Status::Ok();
}

Status WindowAggOperator::ReadDynTable(BinaryReader* r,
                                       std::vector<DynQuery>* table,
                                       uint64_t* applied_seq) const {
  auto seq = r->ReadU64();
  if (!seq.ok()) return seq.status();
  auto n = r->ReadU64();
  if (!n.ok()) return n.status();
  table->clear();
  for (uint64_t i = 0; i < *n; ++i) {
    DynQuery dq;
    auto id = r->ReadU64();
    if (!id.ok()) return id.status();
    auto range = r->ReadI64();
    if (!range.ok()) return range.status();
    auto slide = r->ReadI64();
    if (!slide.ok()) return slide.status();
    auto origin = r->ReadI64();
    if (!origin.ok()) return origin.status();
    auto placement = r->ReadU8();
    if (!placement.ok()) return placement.status();
    if (*placement != static_cast<uint8_t>(QueryPlacement::kShared) &&
        *placement != static_cast<uint8_t>(QueryPlacement::kStandalone)) {
      return Status::Internal("bad query placement " +
                              std::to_string(*placement) + " in '" + name_ +
                              "'");
    }
    auto active = r->ReadBool();
    if (!active.ok()) return active.status();
    auto attach_wm = r->ReadI64();
    if (!attach_wm.ok()) return attach_wm.status();
    dq.id = *id;
    dq.desc = QueryDescriptor{*range, *slide, *origin};
    dq.placement = static_cast<QueryPlacement>(*placement);
    dq.active = *active;
    dq.attach_wm = *attach_wm;
    table->push_back(dq);
  }
  *applied_seq = *seq;
  return Status::Ok();
}

Status WindowAggOperator::ReconcileDynTable(
    const std::vector<DynQuery>& table) {
  // The table is append-only and `active` only ever flips true -> false, so
  // the structural diff against the live table is: detach newly inactive
  // entries, then attach the appended tail. Keys the commands mutated were
  // all marked dirty in the same epoch, so their exact state follows in
  // this delta's upserts; the retrofit only has to make the *layout* (slot
  // counts, open-window set counts) match before those restores run.
  // Validate before mutating anything: a rejected table leaves the live
  // state as it was.
  if (table.size() < dyn_queries_.size()) {
    return Status::Internal("dyn-query table shrank across a delta in '" +
                            name_ + "'");
  }
  for (size_t i = 0; i < dyn_queries_.size(); ++i) {
    if (table[i].id != dyn_queries_[i].id ||
        table[i].placement != dyn_queries_[i].placement) {
      return Status::Internal("dyn-query table entry " + std::to_string(i) +
                              " changed across a delta in '" + name_ + "'");
    }
  }
  uint64_t ignored_freed = 0;
  for (size_t i = 0; i < dyn_queries_.size(); ++i) {
    if (dyn_queries_[i].active && !table[i].active) {
      dyn_queries_[i].active = false;
      ApplyDynDetach(i, &ignored_freed);
    }
  }
  for (size_t i = dyn_queries_.size(); i < table.size(); ++i) {
    dyn_queries_.push_back(table[i]);
    ApplyDynAttach(&dyn_queries_.back());
    // Attached and detached between deltas: the slot must exist (layout)
    // but be detached, or the per-key restore validation rejects it.
    if (!table[i].active) ApplyDynDetach(i, &ignored_freed);
  }
  return Status::Ok();
}

Status WindowAggOperator::SnapshotState(BinaryWriter* w) const {
  WriteMeta(w);
  return keys_.SnapshotState(w);
}

Status WindowAggOperator::RestoreState(BinaryReader* r) {
  index_valid_ = false;
  STREAMLINE_RETURN_IF_ERROR(ReadMeta(r, /*replay=*/false));
  return keys_.RestoreState(r);
}

Status WindowAggOperator::SnapshotDelta(ChangelogSink* sink) {
  // Meta record first: the operator-wide clock (watermark, arrival
  // sequence), the dyn-query table and the reorder buffer. The buffer holds
  // only records the watermark has not yet covered, so this stays small in
  // steady state; replay replaces it wholesale.
  BinaryWriter w;
  w.WriteU8(kDeltaMetaTag);
  WriteMeta(&w);
  STREAMLINE_RETURN_IF_ERROR(sink->Append(w.Release()));
  return keys_.SnapshotDelta(sink);
}

Status WindowAggOperator::ApplyDelta(BinaryReader* r) {
  index_valid_ = false;
  auto tag = r->ReadU8();
  if (!tag.ok()) return tag.status();
  if (*tag == kDeltaMetaTag) return ReadMeta(r, /*replay=*/true);
  return keys_.ApplyDelta(*tag, r);
}

AggStats WindowAggOperator::SharedStats() const {
  AggStats total;
  for (const auto& [key, ks] : keys_) {
    if (!ks.shared) continue;
    const AggStats s = ks.shared->stats();
    total.elements += s.elements;
    total.partial_updates += s.partial_updates;
    total.combine_ops += s.combine_ops;
    total.fires += s.fires;
    total.slices_created += s.slices_created;
    total.peak_stored += s.peak_stored;
  }
  return total;
}

}  // namespace streamline
