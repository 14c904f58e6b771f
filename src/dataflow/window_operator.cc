#include "dataflow/window_operator.h"

#include <algorithm>

#include "common/logging.h"

namespace streamline {
namespace {

void SerializeDynPartial(const DynPartial& p, BinaryWriter* w) {
  DynAggregate::SerializePartial(p, w);
}

Result<DynPartial> DeserializeDynPartial(BinaryReader* r) {
  return DynAggregate::DeserializePartial(r);
}

Timestamp FloorToGrid(Timestamp ts, Timestamp origin, Duration step) {
  const Timestamp d = ts - origin;
  const Timestamp q = d >= 0 ? d / step : (d - step + 1) / step;
  return origin + q * step;
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
    // systems it models); verify the prototypes up front.
    for (const auto& proto : spec_.windows) {
      if (dynamic_cast<const SlidingWindowFn*>(proto.get()) == nullptr) {
        return Status::InvalidArgument(
            "eager window backend supports periodic windows only, got " +
            proto->Name());
      }
    }
  }
  return Status::Ok();
}

void WindowAggOperator::InitKeyState(const Value& key, KeyState* ks) {
  if (spec_.backend == WindowBackend::kShared) {
    ks->shared = std::make_unique<SharedAgg>(adapter_);
    for (size_t q = 0; q < spec_.windows.size(); ++q) {
      // The callback captures the key by value; `current_out_` points at
      // the collector of the call currently on the stack.
      // analyzer:allow(record-copy-in-hot-path): once per new key (watermark apply, restore, replay), never per record; the callback must own its key
      Value key_copy = key;
      ks->shared->AddQuery(
          spec_.windows[q]->Clone(),
          [this, key_copy](size_t query, const Window& w, const Value& v) {
            EmitResult(key_copy, query, w, v);
          });
    }
    // A key created after queries attached runs them from the key's first
    // element (the key has no earlier history to miss); detached entries
    // still allocate their slot so the layout matches the table.
    for (const DynQuery& dq : dyn_queries_) {
      if (dq.placement == QueryPlacement::kShared) {
        const size_t slot = ks->shared->AddQuery(
            std::make_unique<SlidingWindowFn>(dq.desc.range, dq.desc.slide,
                                              dq.desc.origin),
            DynResultCallback(key, dq.id));
        if (!dq.active) ks->shared->DetachQuery(slot);
      } else {
        ks->standalone.emplace_back();
      }
    }
  } else {
    for (const auto& proto : spec_.windows) {
      EagerQueryState qs;
      qs.wf = proto->Clone();
      const auto* sliding = dynamic_cast<const SlidingWindowFn*>(qs.wf.get());
      STREAMLINE_CHECK(sliding != nullptr);
      qs.range = sliding->range();
      qs.slide = sliding->slide();
      qs.origin = sliding->origin();
      ks->eager.push_back(std::move(qs));
    }
  }
}

void WindowAggOperator::EmitResult(const Value& key, size_t query,
                                   const Window& w, const Value& result) {
  STREAMLINE_CHECK(current_out_ != nullptr);
  Record out;
  out.timestamp = w.end - 1;
  out.fields = {key, Value(w.start), Value(w.end),
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
  pending_.emplace_back(std::move(record), seq_++);
  std::push_heap(pending_.begin(), pending_.end(), PendingAfter);
}

void WindowAggOperator::ProcessBatch(int, std::vector<Record>&& batch,
                                     Collector*) {
  // Windowing buffers until the watermark anyway, so the batch entry point
  // is just a bulk append into the reorder heap. Grow geometrically: an
  // exact reserve(size + batch) here would reallocate -- and move the whole
  // buffer -- on every batch once the buffer outgrows its capacity, which
  // turns a stalled watermark (records buffering, none applying) into
  // O(n^2) dispatch cost.
  const size_t needed = pending_.size() + batch.size();
  if (needed > pending_.capacity()) {
    pending_.reserve(std::max(needed, pending_.capacity() * 2));
  }
  for (Record& record : batch) {
    if (record.timestamp < current_wm_) continue;  // late: dropped
    pending_.emplace_back(std::move(record), seq_++);
    std::push_heap(pending_.begin(), pending_.end(), PendingAfter);
  }
  batch.clear();
}

void WindowAggOperator::ApplyElement(const Value& key, KeyState* ks,
                                     const Record& record) {
  (void)key;
  if (spec_.backend == WindowBackend::kShared) {
    DynAggAdapter::Input in{record.field(spec_.value_field),
                            record.timestamp};
    const Value payload = spec_.payload ? spec_.payload(record) : Value();
    ks->shared->OnElement(record.timestamp, in, payload);
    if (active_standalone_ > 0) FoldStandalone(key, ks, record);
    return;
  }
  // Eager: fold the record into every open window of every query.
  const DynPartial lifted =
      adapter_.dyn.Lift(record.field(spec_.value_field), record.timestamp);
  for (EagerQueryState& qs : ks->eager) {
    const Timestamp ts = record.timestamp;
    Timestamp b = qs.origin +
                  ((ts - qs.origin) >= 0
                       ? (ts - qs.origin) / qs.slide
                       : ((ts - qs.origin) - qs.slide + 1) / qs.slide) *
                      qs.slide;
    for (; b > ts - qs.range; b -= qs.slide) {
      if (b > ts) continue;
      const Window w{b, b + qs.range};
      auto it = std::lower_bound(
          qs.open.begin(), qs.open.end(), w,
          [](const auto& e, const Window& win) { return e.first < win; });
      if (it == qs.open.end() || it->first != w) {
        it = qs.open.insert(it, {w, adapter_.Identity()});
      }
      it->second = adapter_.Combine(it->second, lifted);
    }
  }
}

void WindowAggOperator::EagerFire(const Value& key, KeyState* ks,
                                  Timestamp wm) {
  for (size_t q = 0; q < ks->eager.size(); ++q) {
    EagerQueryState& qs = ks->eager[q];
    // Sorted by (end, start): the fired windows are a prefix.
    size_t fired = 0;
    while (fired < qs.open.size() && qs.open[fired].first.end <= wm) {
      EmitResult(key, q, qs.open[fired].first,
                 adapter_.Lower(qs.open[fired].second));
      ++fired;
    }
    qs.open.erase(qs.open.begin(), qs.open.begin() + fired);
  }
}

void WindowAggOperator::AdvanceKeyWatermark(const Value& key, KeyState* ks,
                                            Timestamp wm) {
  if (spec_.backend == WindowBackend::kShared) {
    ks->shared->OnWatermark(wm);
    FireStandalone(key, ks, wm);
  } else {
    EagerFire(key, ks, wm);
  }
}

void WindowAggOperator::FoldStandalone(const Value& key, KeyState* ks,
                                       const Record& record) {
  (void)key;
  const DynPartial lifted =
      adapter_.dyn.Lift(record.field(spec_.value_field), record.timestamp);
  size_t sidx = 0;
  for (const DynQuery& dq : dyn_queries_) {
    if (dq.placement != QueryPlacement::kStandalone) continue;
    StandaloneState& ss = ks->standalone[sidx++];
    if (!dq.active) continue;
    const Timestamp ts = record.timestamp;
    Timestamp b = FloorToGrid(ts, dq.desc.origin, dq.desc.slide);
    for (; b > ts - dq.desc.range; b -= dq.desc.slide) {
      // Windows that began before the attach point would be missing the
      // records applied before the query existed; serve only complete ones.
      if (b > ts || b < dq.attach_wm) continue;
      const Window w{b, b + dq.desc.range};
      auto it = std::lower_bound(
          ss.open.begin(), ss.open.end(), w,
          [](const auto& e, const Window& win) { return e.first < win; });
      if (it == ss.open.end() || it->first != w) {
        it = ss.open.insert(it, {w, adapter_.Identity()});
      }
      it->second = adapter_.Combine(it->second, lifted);
    }
  }
}

void WindowAggOperator::FireStandalone(const Value& key, KeyState* ks,
                                       Timestamp wm) {
  if (ks->standalone.empty()) return;
  size_t sidx = 0;
  for (const DynQuery& dq : dyn_queries_) {
    if (dq.placement != QueryPlacement::kStandalone) continue;
    StandaloneState& ss = ks->standalone[sidx++];
    // Sorted by (end, start): the fired windows are a prefix. Detached
    // entries have no open windows (cleared at detach).
    size_t fired = 0;
    while (fired < ss.open.size() && ss.open[fired].first.end <= wm) {
      EmitResult(key, static_cast<size_t>(dq.id), ss.open[fired].first,
                 adapter_.Lower(ss.open[fired].second));
      ++fired;
    }
    if (fired > 0) {
      ks->standalone_fires += fired;
      ss.open.erase(ss.open.begin(),
                    ss.open.begin() + static_cast<ptrdiff_t>(fired));
    }
  }
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
  // Pop exactly the records this watermark covers, in (ts, arrival) order;
  // they can no longer be preceded by anything. Records still ahead of the
  // watermark never move -- the common stall (one slow input channel
  // holding the min-watermark back while fast channels keep buffering) is
  // O(1) per watermark no matter how large the buffer grows.
  apply_scratch_.clear();
  while (!pending_.empty() &&
         (wm == kMaxTimestamp || pending_.front().first.timestamp < wm)) {
    std::pop_heap(pending_.begin(), pending_.end(), PendingAfter);
    apply_scratch_.push_back(std::move(pending_.back()));
    pending_.pop_back();
  }
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
  const bool can_batch = spec_.backend == WindowBackend::kShared &&
                         !spec_.payload && active_standalone_ == 0;
  size_t applied = 0;
  while (in_bound(applied)) {
    const Record& record = apply_scratch_[applied].first;
    Value key;
    uint64_t hash;
    resolve_key(record, &key, &hash);
    KeyState* ks = &keys_.Emplace(key, hash).first->second;
    if (!can_batch) {
      ApplyElement(key, ks, record);
      ++applied;
      continue;
    }
    // Extend the contiguous run of records with this key (for the global
    // key that is every in-bound record).
    size_t j = applied + 1;
    while (in_bound(j)) {
      if (spec_.key) {
        const Record& next = apply_scratch_[j].first;
        Value next_key;
        uint64_t next_hash;
        resolve_key(next, &next_key, &next_hash);
        if (next_hash != hash || !(next_key == key)) break;
      }
      ++j;
    }
    const size_t n = j - applied;
    if (n == 1) {
      ApplyElement(key, ks, record);
    } else {
      run_ts_.clear();
      run_in_.clear();
      run_ts_.reserve(n);
      run_in_.reserve(n);
      for (size_t i = applied; i < j; ++i) {
        const Record& r = apply_scratch_[i].first;
        run_ts_.push_back(r.timestamp);
        run_in_.push_back(DynAggAdapter::Input{r.field(spec_.value_field),
                                               r.timestamp});
      }
      ks->shared->OnElements(run_ts_.data(), run_in_.data(), n);
    }
    applied = j;
  }
  apply_scratch_.clear();
  // Advance every key's window clock: sessions and periodic windows fire on
  // time progress even for keys with no new records. When the changelog is
  // on, a fingerprint comparison catches keys the watermark mutated (fired
  // windows, evicted slices) so the next delta re-serializes them.
  const bool incremental = keys_.incremental();
  for (auto& entry : keys_) {
    auto& [key, ks] = entry;
    if (!incremental) {
      AdvanceKeyWatermark(key, &ks, wm);
      continue;
    }
    const std::array<uint64_t, 4> before = KeyFingerprint(ks);
    AdvanceKeyWatermark(key, &ks, wm);
    if (KeyFingerprint(ks) != before) keys_.Touch(entry);
  }
  // Attach/detach commands apply here -- the end of a watermark is a
  // deterministic point of the event-time order, so every subtask (and any
  // checkpoint replay) splices queries in at the same place.
  DrainRegistryCommands();
  keys_.UpdateGauges();
  current_out_ = nullptr;
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
        ApplyDynAttach(dyn_queries_.back(), &slices_freed);
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
    // serialized bytes): re-serialize them all in the next delta.
    if (keys_.incremental()) {
      for (const auto& entry : keys_) keys_.Touch(entry);
    }
  }
  reg->AckApplied(name_ + ":" + std::to_string(subtask_index_), applied_seq_,
                  TotalStoredSlices(), slices_freed);
}

WindowAggOperator::SharedAgg::ResultCallback
WindowAggOperator::DynResultCallback(const Value& key, uint64_t id) {
  // analyzer:allow(record-copy-in-hot-path): once per key per dyn query (new key, attach command, restore), never per record; the callback must own its key
  Value key_copy = key;
  return [this, key_copy, id](size_t, const Window& w, const Value& v) {
    EmitResult(key_copy, id, w, v);
  };
}

void WindowAggOperator::ApplyDynAttach(const DynQuery& dq,
                                       uint64_t* slices_freed) {
  (void)slices_freed;
  const size_t index = dyn_queries_.size() - 1;
  if (dq.placement == QueryPlacement::kShared) {
    const size_t slot = SharedSlotOfDyn(index);
    for (auto& [key, ks] : keys_) {
      const size_t got = ks.shared->AttachQuery(
          std::make_unique<SlidingWindowFn>(dq.desc.range, dq.desc.slide,
                                            dq.desc.origin),
          DynResultCallback(key, dq.id));
      STREAMLINE_CHECK_EQ(got, slot);
    }
  } else {
    for (auto& [key, ks] : keys_) ks.standalone.emplace_back();
    ++active_standalone_;
  }
}

void WindowAggOperator::ApplyDynDetach(size_t index, uint64_t* slices_freed) {
  const DynQuery& dq = dyn_queries_[index];
  if (dq.placement == QueryPlacement::kShared) {
    const size_t slot = SharedSlotOfDyn(index);
    for (auto& [key, ks] : keys_) {
      *slices_freed += ks.shared->DetachQuery(slot);
    }
  } else {
    const size_t sidx = StandaloneIndexOfDyn(index);
    for (auto& [key, ks] : keys_) {
      ks.standalone[sidx].open.clear();
      ks.standalone[sidx].open.shrink_to_fit();
    }
    --active_standalone_;
  }
}

size_t WindowAggOperator::SharedSlotOfDyn(size_t index) const {
  size_t slot = spec_.windows.size();
  for (size_t i = 0; i < index; ++i) {
    if (dyn_queries_[i].placement == QueryPlacement::kShared) ++slot;
  }
  return slot;
}

size_t WindowAggOperator::StandaloneIndexOfDyn(size_t index) const {
  size_t sidx = 0;
  for (size_t i = 0; i < index; ++i) {
    if (dyn_queries_[i].placement == QueryPlacement::kStandalone) ++sidx;
  }
  return sidx;
}

uint64_t WindowAggOperator::TotalStoredSlices() const {
  uint64_t total = 0;
  for (const auto& [key, ks] : keys_) {
    if (ks.shared) total += ks.shared->stored_slices();
  }
  return total;
}

void WindowAggOperator::OnEndOfInput(Collector* out) {
  // The runtime always delivers a final kMaxTimestamp watermark before end
  // of input, which flushed everything; nothing left to do.
  (void)out;
}

void WindowAggOperator::SnapshotKeyState(const KeyState& ks,
                                         BinaryWriter* w) const {
  if (spec_.backend == WindowBackend::kShared) {
    ks.shared->Snapshot(w, SerializeDynPartial);
    w->WriteU64(ks.standalone.size());
    w->WriteU64(ks.standalone_fires);
    for (const StandaloneState& ss : ks.standalone) {
      w->WriteU64(ss.open.size());
      for (const auto& [window, partial] : ss.open) {
        w->WriteI64(window.start);
        w->WriteI64(window.end);
        DynAggregate::SerializePartial(partial, w);
      }
    }
    return;
  }
  w->WriteU64(ks.eager.size());
  for (const EagerQueryState& qs : ks.eager) {
    qs.wf->SnapshotState(w);
    w->WriteU64(qs.open.size());
    for (const auto& [window, partial] : qs.open) {
      w->WriteI64(window.start);
      w->WriteI64(window.end);
      DynAggregate::SerializePartial(partial, w);
    }
  }
}

Status WindowAggOperator::RestoreKeyState(KeyState* ks, BinaryReader* r) {
  if (spec_.backend == WindowBackend::kShared) {
    STREAMLINE_RETURN_IF_ERROR(ks->shared->Restore(r, DeserializeDynPartial));
    auto ns = r->ReadU64();
    if (!ns.ok()) return ns.status();
    if (*ns != ks->standalone.size()) {
      return Status::FailedPrecondition("standalone query count mismatch");
    }
    auto fires = r->ReadU64();
    if (!fires.ok()) return fires.status();
    ks->standalone_fires = *fires;
    for (StandaloneState& ss : ks->standalone) {
      // A delta may re-restore a key with open windows; full replacement.
      ss.open.clear();
      auto nw = r->ReadU64();
      if (!nw.ok()) return nw.status();
      for (uint64_t k = 0; k < *nw; ++k) {
        auto start = r->ReadI64();
        if (!start.ok()) return start.status();
        auto end = r->ReadI64();
        if (!end.ok()) return end.status();
        auto p = DynAggregate::DeserializePartial(r);
        if (!p.ok()) return p.status();
        ss.open.emplace_back(Window{*start, *end}, *p);
      }
    }
    return Status::Ok();
  }
  auto nq = r->ReadU64();
  if (!nq.ok()) return nq.status();
  if (*nq != ks->eager.size()) {
    return Status::FailedPrecondition("eager query count mismatch");
  }
  for (EagerQueryState& qs : ks->eager) {
    // A delta may re-restore a key that already has open windows; the
    // snapshot is a full replacement, not an append.
    qs.open.clear();
    STREAMLINE_RETURN_IF_ERROR(qs.wf->RestoreState(r));
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
      qs.open.emplace_back(Window{*start, *end}, *p);
    }
  }
  return Status::Ok();
}

std::array<uint64_t, 4> WindowAggOperator::KeyFingerprint(
    const KeyState& ks) const {
  if (spec_.backend == WindowBackend::kShared) {
    const AggStats& s = ks.shared->stats();
    uint64_t standalone_open = 0;
    for (const StandaloneState& ss : ks.standalone) {
      standalone_open += ss.open.size();
    }
    // Standalone fires erase open windows; either count moving means the
    // watermark mutated this key's standalone state.
    return {s.fires, s.slices_created,
            static_cast<uint64_t>(ks.shared->stored_slices()),
            (ks.standalone_fires << 32) ^ standalone_open};
  }
  uint64_t open = 0;
  for (const EagerQueryState& qs : ks.eager) open += qs.open.size();
  return {open, 0, 0, 0};
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
  for (const auto& [record, seq] : pending_) {
    w->WriteRecord(record);
    w->WriteU64(seq);
  }
}

Status WindowAggOperator::ReadMeta(BinaryReader* r, bool replay) {
  auto wm = r->ReadI64();
  if (!wm.ok()) return wm.status();
  auto seq = r->ReadU64();
  if (!seq.ok()) return seq.status();
  // The dynamic-query table must be in place before any key state is
  // restored: InitKeyState lays out per-key slots/standalone vectors from
  // it, and RestoreKeyState validates the layout it reads against that.
  std::vector<DynQuery> table;
  uint64_t applied_seq = 0;
  STREAMLINE_RETURN_IF_ERROR(ReadDynTable(r, &table, &applied_seq));
  if (replay) STREAMLINE_RETURN_IF_ERROR(ReconcileDynTable(table));
  dyn_queries_ = std::move(table);
  applied_seq_ = applied_seq;
  active_standalone_ = 0;
  for (const DynQuery& dq : dyn_queries_) {
    if (dq.active && dq.placement == QueryPlacement::kStandalone) {
      ++active_standalone_;
    }
  }
  auto np = r->ReadU64();
  if (!np.ok()) return np.status();
  pending_.clear();
  for (uint64_t i = 0; i < *np; ++i) {
    auto rec = r->ReadRecord();
    if (!rec.ok()) return rec.status();
    auto s = r->ReadU64();
    if (!s.ok()) return s.status();
    pending_.emplace_back(std::move(*rec), *s);
  }
  std::make_heap(pending_.begin(), pending_.end(), PendingAfter);
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
  // counts, standalone vector sizes) match before those restores run.
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
    ApplyDynAttach(dyn_queries_.back(), &ignored_freed);
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
  auto tag = r->ReadU8();
  if (!tag.ok()) return tag.status();
  if (*tag == kDeltaMetaTag) return ReadMeta(r, /*replay=*/true);
  return keys_.ApplyDelta(*tag, r);
}

AggStats WindowAggOperator::SharedStats() const {
  AggStats total;
  for (const auto& [key, ks] : keys_) {
    if (!ks.shared) continue;
    const AggStats& s = ks.shared->stats();
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
