#include "window/window_fn.h"

#include <algorithm>

#include "common/logging.h"

namespace streamline {
namespace {

// Floor division for possibly-negative numerators (C++ truncates toward 0).
int64_t FloorDiv(int64_t a, int64_t b) {
  int64_t q = a / b;
  if ((a % b != 0) && ((a < 0) != (b < 0))) --q;
  return q;
}

// Smallest multiple-of-`step` offset from `origin` that is strictly greater
// than `t`.
Timestamp AlignAbove(Timestamp t, Timestamp origin, Duration step) {
  return origin + (FloorDiv(t - origin, step) + 1) * step;
}

}  // namespace

// ---------------------------------------------------------------------------
// SlidingWindowFn

SlidingWindowFn::SlidingWindowFn(Duration range, Duration slide,
                                 Timestamp origin)
    : range_(range), slide_(slide), origin_(origin) {
  STREAMLINE_CHECK_GT(range, 0);
  STREAMLINE_CHECK_GT(slide, 0);
}

void SlidingWindowFn::DeclareBeginsUpTo(Timestamp ts, WindowEvents* out) {
  // Windows beginning at b <= ts - range_ that have not been declared yet
  // can never contain this or any future element; skip them in O(1).
  const Timestamp min_live_begin = AlignAbove(ts - range_, origin_, slide_);
  if (min_live_begin > next_begin_) next_begin_ = min_live_begin;
  while (next_begin_ <= ts) {
    out->push_back(WindowEvent::Begin(next_begin_));
    next_begin_ += slide_;
  }
}

void SlidingWindowFn::FireEndsUpTo(Timestamp wm, WindowEvents* out) {
  if (!saw_element_) return;
  while (next_end_ <= wm) {
    const Timestamp b = next_end_ - range_;
    if (b > last_seen_) {
      // This and every later window ending <= wm has begin > last element,
      // so it is empty forever (future elements have ts >= wm >= its end).
      // Jump past wm in O(1) instead of firing empties.
      if (wm >= kMaxTimestamp - range_) {
        next_end_ = kMaxTimestamp;  // saturate instead of overflowing
      } else {
        const Timestamp jump =
            AlignAbove(wm - range_, origin_, slide_) + range_;  // end > wm
        if (jump > next_end_) next_end_ = jump;
      }
      break;
    }
    out->push_back(WindowEvent::End(next_end_, Window{b, next_end_}));
    next_end_ += slide_;
  }
}

void SlidingWindowFn::OnElement(Timestamp ts, const Value& payload,
                                WindowEvents* out) {
  (void)payload;
  if (!saw_element_) {
    saw_element_ = true;
    last_seen_ = ts;
    // First live window: smallest aligned begin with begin > ts - range.
    next_begin_ = AlignAbove(ts - range_, origin_, slide_);
    next_end_ = next_begin_ + range_;
    DeclareBeginsUpTo(ts, out);
    return;
  }
  // The element's arrival implies watermark == ts: fire complete windows
  // first (their content excludes this element), then declare new begins.
  // Ends and begins are emitted in `at` order with ends first on ties.
  WindowEvents ends;
  WindowEvents begins;
  FireEndsUpTo(ts, &ends);
  DeclareBeginsUpTo(ts, &begins);
  size_t i = 0;
  size_t j = 0;
  while (i < ends.size() || j < begins.size()) {
    if (j >= begins.size() ||
        (i < ends.size() && ends[i].at <= begins[j].at)) {
      out->push_back(ends[i++]);
    } else {
      out->push_back(begins[j++]);
    }
  }
  last_seen_ = ts;
}

void SlidingWindowFn::OnWatermark(Timestamp wm, WindowEvents* out) {
  // Begins are declared lazily by the elements themselves; a watermark can
  // only complete windows. Below the wakeup it changes nothing: an idle
  // function keeps its next end until the next element skips the empty
  // windows (FireEndsUpTo from OnElement).
  if (wm < NextWatermarkWakeup()) return;
  FireEndsUpTo(wm, out);
}

Timestamp SlidingWindowFn::OldestNeededBegin() const {
  if (!saw_element_) return kMaxTimestamp;
  if (next_end_ == kMaxTimestamp) return kMaxTimestamp;
  return next_end_ - range_;
}

Timestamp SlidingWindowFn::NextWakeup() const {
  // The function must see the first element; afterwards it only acts at
  // begin boundaries and window ends. Skipped elements are sound: any
  // element at/after a begin boundary forces a wakeup at that element, so
  // last_seen_ >= begin holds for every non-empty window (the condition
  // FireEndsUpTo relies on).
  if (!saw_element_) return kMinTimestamp;
  return std::min(next_begin_, next_end_);
}

Timestamp SlidingWindowFn::NextWatermarkWakeup() const {
  // Watermarks only complete windows (begins are element-declared). Before
  // the first element, and while the next window to fire begins after the
  // last element (it and every later window are empty until an element
  // arrives, see FireEndsUpTo), there is nothing to complete.
  if (!saw_element_ || next_end_ - range_ > last_seen_) return kMaxTimestamp;
  return next_end_;
}

Timestamp SlidingWindowFn::NextGridPointAfter(Timestamp t) const {
  return AlignAbove(t, origin_, slide_);
}

void SlidingWindowFn::AttachAt(Timestamp ts) {
  STREAMLINE_CHECK(!saw_element_) << "AttachAt on an already-running window";
  // Behave as if the stream up to `ts` was observed but owes us nothing:
  // the first declared begin (and hence the first slice cut and the first
  // fired window) lies strictly after the attach point, so no out-of-order
  // cut is ever appended to the shared slice store.
  saw_element_ = true;
  last_seen_ = ts;
  next_begin_ = AlignAbove(ts, origin_, slide_);
  next_end_ = next_begin_ + range_;
}

void SlidingWindowFn::BackfillTo(Timestamp earliest_begin) {
  STREAMLINE_CHECK(saw_element_);
  STREAMLINE_DCHECK((earliest_begin - origin_) % slide_ == 0);
  const Timestamp first_end = earliest_begin + range_;
  if (first_end < next_end_) next_end_ = first_end;
}

std::unique_ptr<WindowFunction> SlidingWindowFn::Clone() const {
  return std::make_unique<SlidingWindowFn>(range_, slide_, origin_);
}

void SlidingWindowFn::SnapshotState(BinaryWriter* w) const {
  w->WriteBool(saw_element_);
  w->WriteI64(last_seen_);
  w->WriteI64(next_begin_);
  w->WriteI64(next_end_);
}

Status SlidingWindowFn::RestoreState(BinaryReader* r) {
  auto saw = r->ReadBool();
  if (!saw.ok()) return saw.status();
  auto last = r->ReadI64();
  if (!last.ok()) return last.status();
  auto begin = r->ReadI64();
  if (!begin.ok()) return begin.status();
  auto end = r->ReadI64();
  if (!end.ok()) return end.status();
  saw_element_ = *saw;
  last_seen_ = *last;
  next_begin_ = *begin;
  next_end_ = *end;
  return Status::Ok();
}

std::string SlidingWindowFn::Name() const {
  return "sliding(range=" + std::to_string(range_) +
         ",slide=" + std::to_string(slide_) + ")";
}

std::string TumblingWindowFn::Name() const {
  return "tumbling(size=" + std::to_string(range()) + ")";
}

// ---------------------------------------------------------------------------
// SessionWindowFn

SessionWindowFn::SessionWindowFn(Duration gap) : gap_(gap) {
  STREAMLINE_CHECK_GT(gap, 0);
}

void SessionWindowFn::OnElement(Timestamp ts, const Value& payload,
                                WindowEvents* out) {
  (void)payload;
  if (!open_) {
    open_ = true;
    session_start_ = ts;
    session_last_ = ts;
    out->push_back(WindowEvent::Begin(ts));
    return;
  }
  if (ts - session_last_ > gap_) {
    // The previous session is complete: this element is more than `gap`
    // after its last event, and the stream is in order.
    const Window w{session_start_, session_last_ + gap_};
    out->push_back(WindowEvent::End(w.end, w));
    out->push_back(WindowEvent::Begin(ts));
    session_start_ = ts;
  }
  session_last_ = ts;
}

void SessionWindowFn::OnWatermark(Timestamp wm, WindowEvents* out) {
  if (open_ && (wm == kMaxTimestamp || wm - session_last_ > gap_)) {
    const Window w{session_start_, session_last_ + gap_};
    out->push_back(WindowEvent::End(w.end, w));
    open_ = false;
  }
}

Timestamp SessionWindowFn::OldestNeededBegin() const {
  return open_ ? session_start_ : kMaxTimestamp;
}

Timestamp SessionWindowFn::NextWatermarkWakeup() const {
  // OnWatermark closes the session once wm - session_last_ > gap_.
  if (!open_ || session_last_ >= kMaxTimestamp - gap_ - 1) {
    return kMaxTimestamp;
  }
  return session_last_ + gap_ + 1;
}

std::unique_ptr<WindowFunction> SessionWindowFn::Clone() const {
  return std::make_unique<SessionWindowFn>(gap_);
}

void SessionWindowFn::SnapshotState(BinaryWriter* w) const {
  w->WriteBool(open_);
  w->WriteI64(session_start_);
  w->WriteI64(session_last_);
}

Status SessionWindowFn::RestoreState(BinaryReader* r) {
  auto open = r->ReadBool();
  if (!open.ok()) return open.status();
  auto start = r->ReadI64();
  if (!start.ok()) return start.status();
  auto last = r->ReadI64();
  if (!last.ok()) return last.status();
  open_ = *open;
  session_start_ = *start;
  session_last_ = *last;
  return Status::Ok();
}

std::string SessionWindowFn::Name() const {
  return "session(gap=" + std::to_string(gap_) + ")";
}

// ---------------------------------------------------------------------------
// CountWindowFn

CountWindowFn::CountWindowFn(uint64_t count, uint64_t slide)
    : count_(count), slide_(slide == 0 ? count : slide) {
  STREAMLINE_CHECK_GT(count_, 0u);
  STREAMLINE_CHECK_GT(slide_, 0u);
}

void CountWindowFn::OnElement(Timestamp ts, const Value& payload,
                              WindowEvents* out) {
  (void)payload;
  if (seen_ % slide_ == 0) {
    open_.emplace_back(seen_, ts);
    out->push_back(WindowEvent::Begin(ts));
  }
}

void CountWindowFn::AfterElement(Timestamp ts, const Value& payload,
                                 WindowEvents* out) {
  (void)payload;
  // This element is element number `seen_`; windows whose count-th element
  // it is fire now (content = everything since their begin, inclusive).
  while (!open_.empty() && seen_ - open_.front().first + 1 >= count_) {
    const Window w{open_.front().second, ts + 1};
    out->push_back(WindowEvent::End(ts, w));
    open_.erase(open_.begin());
  }
  ++seen_;
}

void CountWindowFn::OnWatermark(Timestamp wm, WindowEvents* out) {
  // Count windows complete on data, not on time; incomplete windows at end
  // of stream are discarded (standard semantics).
  (void)wm;
  (void)out;
}

Timestamp CountWindowFn::OldestNeededBegin() const {
  return open_.empty() ? kMaxTimestamp : open_.front().second;
}

std::unique_ptr<WindowFunction> CountWindowFn::Clone() const {
  return std::make_unique<CountWindowFn>(count_, slide_);
}

void CountWindowFn::SnapshotState(BinaryWriter* w) const {
  w->WriteU64(seen_);
  w->WriteU64(open_.size());
  for (const auto& [first_index, begin_ts] : open_) {
    w->WriteU64(first_index);
    w->WriteI64(begin_ts);
  }
}

Status CountWindowFn::RestoreState(BinaryReader* r) {
  auto seen = r->ReadU64();
  if (!seen.ok()) return seen.status();
  auto n = r->ReadU64();
  if (!n.ok()) return n.status();
  std::vector<std::pair<uint64_t, Timestamp>> open;
  for (uint64_t i = 0; i < *n; ++i) {
    auto idx = r->ReadU64();
    if (!idx.ok()) return idx.status();
    auto ts = r->ReadI64();
    if (!ts.ok()) return ts.status();
    open.emplace_back(*idx, *ts);
  }
  seen_ = *seen;
  open_ = std::move(open);
  return Status::Ok();
}

std::string CountWindowFn::Name() const {
  return "count(count=" + std::to_string(count_) +
         ",slide=" + std::to_string(slide_) + ")";
}

// ---------------------------------------------------------------------------
// PunctuationWindowFn

PunctuationWindowFn::PunctuationWindowFn(Predicate is_punctuation)
    : pred_(std::move(is_punctuation)) {
  STREAMLINE_CHECK(pred_ != nullptr);
}

void PunctuationWindowFn::OnElement(Timestamp ts, const Value& payload,
                                    WindowEvents* out) {
  if (!open_) {
    open_ = true;
    window_start_ = ts;
    out->push_back(WindowEvent::Begin(ts));
  } else if (pred_(ts, payload)) {
    // The punctuation element closes the running window (exclusive) and
    // starts the next one.
    const Window w{window_start_, ts};
    out->push_back(WindowEvent::End(ts, w));
    out->push_back(WindowEvent::Begin(ts));
    window_start_ = ts;
  }
  last_ts_ = ts;
}

void PunctuationWindowFn::OnWatermark(Timestamp wm, WindowEvents* out) {
  // Only the end of the stream can close a punctuation window early; a
  // punctuation may still arrive for any finite watermark.
  if (open_ && wm == kMaxTimestamp) {
    const Window w{window_start_, last_ts_ + 1};
    out->push_back(WindowEvent::End(w.end, w));
    open_ = false;
  }
}

Timestamp PunctuationWindowFn::OldestNeededBegin() const {
  return open_ ? window_start_ : kMaxTimestamp;
}

std::unique_ptr<WindowFunction> PunctuationWindowFn::Clone() const {
  return std::make_unique<PunctuationWindowFn>(pred_);
}

void PunctuationWindowFn::SnapshotState(BinaryWriter* w) const {
  w->WriteBool(open_);
  w->WriteI64(window_start_);
  w->WriteI64(last_ts_);
}

Status PunctuationWindowFn::RestoreState(BinaryReader* r) {
  auto open = r->ReadBool();
  if (!open.ok()) return open.status();
  auto start = r->ReadI64();
  if (!start.ok()) return start.status();
  auto last = r->ReadI64();
  if (!last.ok()) return last.status();
  open_ = *open;
  window_start_ = *start;
  last_ts_ = *last;
  return Status::Ok();
}

std::string PunctuationWindowFn::Name() const { return "punctuation"; }

// ---------------------------------------------------------------------------
// DeltaWindowFn

DeltaWindowFn::DeltaWindowFn(double delta) : delta_(delta) {
  STREAMLINE_CHECK_GT(delta, 0.0);
}

void DeltaWindowFn::OnElement(Timestamp ts, const Value& payload,
                              WindowEvents* out) {
  const double v = payload.ToDouble();
  if (!open_) {
    open_ = true;
    window_start_ = ts;
    anchor_ = v;
    out->push_back(WindowEvent::Begin(ts));
  } else if (v >= anchor_ + delta_ || v <= anchor_ - delta_) {
    // The drifting element closes the running window (exclusive) and
    // anchors the next one.
    out->push_back(WindowEvent::End(ts, Window{window_start_, ts}));
    out->push_back(WindowEvent::Begin(ts));
    window_start_ = ts;
    anchor_ = v;
  }
  last_ts_ = ts;
}

void DeltaWindowFn::OnWatermark(Timestamp wm, WindowEvents* out) {
  // Only end-of-stream closes a delta window early: a drift may still
  // arrive at any finite watermark.
  if (open_ && wm == kMaxTimestamp) {
    out->push_back(
        WindowEvent::End(last_ts_ + 1, Window{window_start_, last_ts_ + 1}));
    open_ = false;
  }
}

Timestamp DeltaWindowFn::OldestNeededBegin() const {
  return open_ ? window_start_ : kMaxTimestamp;
}

std::unique_ptr<WindowFunction> DeltaWindowFn::Clone() const {
  return std::make_unique<DeltaWindowFn>(delta_);
}

void DeltaWindowFn::SnapshotState(BinaryWriter* w) const {
  w->WriteBool(open_);
  w->WriteDouble(anchor_);
  w->WriteI64(window_start_);
  w->WriteI64(last_ts_);
}

Status DeltaWindowFn::RestoreState(BinaryReader* r) {
  auto open = r->ReadBool();
  if (!open.ok()) return open.status();
  auto anchor = r->ReadDouble();
  if (!anchor.ok()) return anchor.status();
  auto start = r->ReadI64();
  if (!start.ok()) return start.status();
  auto last = r->ReadI64();
  if (!last.ok()) return last.status();
  open_ = *open;
  anchor_ = *anchor;
  window_start_ = *start;
  last_ts_ = *last;
  return Status::Ok();
}

std::string DeltaWindowFn::Name() const {
  return "delta(" + std::to_string(delta_) + ")";
}

}  // namespace streamline
