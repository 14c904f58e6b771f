#ifndef STREAMLINE_WINDOW_WINDOW_FN_H_
#define STREAMLINE_WINDOW_WINDOW_FN_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/serde.h"
#include "common/status.h"
#include "common/time.h"
#include "common/value.h"
#include "window/window.h"

namespace streamline {

/// One window-lifecycle event produced by a WindowFunction.
///
/// Events are emitted ordered by `at`; at equal `at`, kEnd sorts before
/// kBegin (a window [b, t) excludes t while a window starting at t includes
/// it, so ends must be applied first).
struct WindowEvent {
  enum class Kind : uint8_t {
    /// A new window begins at time `at`. Slicing aggregators cut a slice
    /// boundary here. `window` is unused.
    kBegin,
    /// The window `window` is complete (its end is covered by the watermark)
    /// and must fire. `at` equals `window.end` except for data-driven windows
    /// (e.g. count windows) which fire from AfterElement with `at` = the
    /// current element's timestamp.
    kEnd,
  };

  Kind kind;
  Timestamp at;
  Window window;  // valid for kEnd

  static WindowEvent Begin(Timestamp at) {
    return WindowEvent{Kind::kBegin, at, Window{}};
  }
  static WindowEvent End(Timestamp at, Window w) {
    return WindowEvent{Kind::kEnd, at, w};
  }
};

/// Ordered list of window events; output parameter of WindowFunction hooks.
using WindowEvents = std::vector<WindowEvent>;

/// Cutty's user-defined window model: a deterministic function observing the
/// (event-time ordered) stream that declares where windows *begin* and which
/// windows are *complete*. Periodic windows (tumbling/sliding), sessions,
/// count windows, punctuation windows and arbitrary UDWs all implement this
/// interface — that is the paper's claim that the framework covers
/// "non-periodic windows, such as session windows".
///
/// Contract (single instance, one logical stream / one key):
///  * OnElement is called with non-decreasing timestamps, BEFORE the element
///    is aggregated. It appends, in `at`-order: every not-yet-declared begin
///    with begin-time <= ts, and every completed window whose end <= the
///    implied watermark (= ts for an in-order stream).
///  * AfterElement is called AFTER the element was aggregated; data-driven
///    windows that close on the current element (count windows, punctuation
///    closers) emit their kEnd events here.
///  * OnWatermark(wm) declares that all future elements have ts >= wm; the
///    function emits every remaining completed window with end <= wm (and
///    any begins < wm it still owes). A final watermark of kMaxTimestamp
///    flushes everything (used to drain bounded streams).
class WindowFunction {
 public:
  virtual ~WindowFunction() = default;

  /// See class contract. `payload` carries the element for content-sensitive
  /// UDWs (punctuation windows); time-based windows ignore it.
  virtual void OnElement(Timestamp ts, const Value& payload,
                         WindowEvents* out) = 0;

  /// Post-aggregation hook; default: no events.
  virtual void AfterElement(Timestamp ts, const Value& payload,
                            WindowEvents* out) {
    (void)ts;
    (void)payload;
    (void)out;
  }

  /// See class contract.
  virtual void OnWatermark(Timestamp wm, WindowEvents* out) = 0;

  /// Earliest window-begin timestamp still needed by any unfired window.
  /// Slices entirely before the minimum over all queries can be evicted.
  /// Returns kMaxTimestamp when no window is pending.
  virtual Timestamp OldestNeededBegin() const = 0;

  /// Slicer fast path: the earliest future timestamp at which this function
  /// could emit an event. Elements with ts strictly below it may bypass
  /// OnElement/AfterElement entirely -- this is what makes the shared
  /// slicer's per-record cost independent of the number of registered
  /// periodic queries. Data-driven windows (sessions, count, punctuation,
  /// delta) keep the default kMinTimestamp ("always call me").
  ///
  /// Contract for functions that publish a real wakeup (periodic windows):
  /// OldestNeededBegin() must be non-decreasing over the function's
  /// lifetime. The slicer's eviction planner keeps a lazy lower-bound heap
  /// over periodic queries and relies on that monotonicity; always-poll
  /// (kMinTimestamp) functions are re-scanned eagerly and may move freely.
  virtual Timestamp NextWakeup() const { return kMinTimestamp; }

  /// Watermark twin of NextWakeup: the earliest watermark at which
  /// OnWatermark could emit an event or change the function's state.
  /// Watermarks below it may skip OnWatermark -- the slicer and the window
  /// operator advance only the functions (and keys) that are due. Every
  /// built-in function is exact -- a watermark at or past a finite wakeup
  /// emits: periodic windows return their next window end while that
  /// window holds an element (begins are declared by elements, never by
  /// watermarks), an open session the first watermark past its gap, and
  /// idle periodic windows, count, punctuation and delta windows
  /// kMaxTimestamp ("not before the next element or the end of stream";
  /// the kMaxTimestamp watermark is due for every function). The default
  /// kMinTimestamp ("call me on every watermark") keeps user-defined
  /// functions correct.
  virtual Timestamp NextWatermarkWakeup() const { return kMinTimestamp; }

  /// Fast-forwards a freshly constructed function to a mid-stream attach
  /// point: the stream has already progressed to `ts` and this function is
  /// only responsible for windows that begin strictly after `ts`. Default:
  /// no-op -- data-driven windows initialize lazily from their first
  /// element, which is exactly from-scratch behavior.
  virtual void AttachAt(Timestamp ts) { (void)ts; }

  /// Deep copy with reset state (used to instantiate per-key windowing).
  virtual std::unique_ptr<WindowFunction> Clone() const = 0;

  /// Serializes the mutable progress state (not the configuration) so the
  /// engine can checkpoint windowed operators.
  virtual void SnapshotState(BinaryWriter* w) const = 0;
  /// Restores state written by SnapshotState of the same configuration.
  virtual Status RestoreState(BinaryReader* r) = 0;

  virtual std::string Name() const = 0;
};

/// Periodic windows of `range` length starting every `slide`, aligned to
/// `origin`: [origin + k*slide, origin + k*slide + range). Tumbling windows
/// are the slide == range special case.
class SlidingWindowFn : public WindowFunction {
 public:
  SlidingWindowFn(Duration range, Duration slide, Timestamp origin = 0);

  void OnElement(Timestamp ts, const Value& payload,
                 WindowEvents* out) override;
  void OnWatermark(Timestamp wm, WindowEvents* out) override;
  Timestamp OldestNeededBegin() const override;
  Timestamp NextWakeup() const override;
  Timestamp NextWatermarkWakeup() const override;
  void AttachAt(Timestamp ts) override;
  std::unique_ptr<WindowFunction> Clone() const override;
  void SnapshotState(BinaryWriter* w) const override;
  Status RestoreState(BinaryReader* r) override;
  std::string Name() const override;

  Duration range() const { return range_; }
  Duration slide() const { return slide_; }
  Timestamp origin() const { return origin_; }

  /// Smallest begin-grid point strictly greater than `t`.
  Timestamp NextGridPointAfter(Timestamp t) const;

  /// After AttachAt: lowers the first window to fire to
  /// [earliest_begin, earliest_begin + range). The caller (the slicing
  /// aggregator's backfill pass) guarantees `earliest_begin` is a grid
  /// point <= the attach timestamp whose slices are fully intact in the
  /// shared store, so the pre-attach windows produce correct results.
  void BackfillTo(Timestamp earliest_begin);

 private:
  void DeclareBeginsUpTo(Timestamp ts, WindowEvents* out);
  void FireEndsUpTo(Timestamp wm, WindowEvents* out);

  const Duration range_;
  const Duration slide_;
  const Timestamp origin_;
  bool saw_element_ = false;
  Timestamp last_seen_ = 0;   // timestamp of the most recent element
  Timestamp next_begin_ = 0;  // next begin boundary not yet declared
  Timestamp next_end_ = 0;    // end of the next window to fire
};

/// Tumbling windows: [origin + k*size, origin + (k+1)*size).
class TumblingWindowFn : public SlidingWindowFn {
 public:
  explicit TumblingWindowFn(Duration size, Timestamp origin = 0)
      : SlidingWindowFn(size, size, origin) {}
  std::string Name() const override;
};

/// Session windows: a session starts at the first element and extends while
/// consecutive elements are less than `gap` apart; the window is
/// [first, last + gap). The canonical non-periodic window of the paper.
class SessionWindowFn : public WindowFunction {
 public:
  explicit SessionWindowFn(Duration gap);

  void OnElement(Timestamp ts, const Value& payload,
                 WindowEvents* out) override;
  void OnWatermark(Timestamp wm, WindowEvents* out) override;
  Timestamp OldestNeededBegin() const override;
  Timestamp NextWatermarkWakeup() const override;
  std::unique_ptr<WindowFunction> Clone() const override;
  void SnapshotState(BinaryWriter* w) const override;
  Status RestoreState(BinaryReader* r) override;
  std::string Name() const override;

  Duration gap() const { return gap_; }

 private:
  const Duration gap_;
  bool open_ = false;
  Timestamp session_start_ = 0;
  Timestamp session_last_ = 0;
};

/// Count windows over element arrivals: a window begins every `slide`
/// elements and spans `count` elements; it fires as soon as its last element
/// has been aggregated (AfterElement). Windows are reported as the time span
/// [first_ts, last_ts + 1). Requires slide >= 1 and count >= 1. This is a
/// data-driven deterministic UDW in Cutty's classification.
class CountWindowFn : public WindowFunction {
 public:
  explicit CountWindowFn(uint64_t count, uint64_t slide = 0);

  void OnElement(Timestamp ts, const Value& payload,
                 WindowEvents* out) override;
  void AfterElement(Timestamp ts, const Value& payload,
                    WindowEvents* out) override;
  void OnWatermark(Timestamp wm, WindowEvents* out) override;
  Timestamp OldestNeededBegin() const override;
  /// Count windows complete on data, never on time.
  Timestamp NextWatermarkWakeup() const override { return kMaxTimestamp; }
  std::unique_ptr<WindowFunction> Clone() const override;
  void SnapshotState(BinaryWriter* w) const override;
  Status RestoreState(BinaryReader* r) override;
  std::string Name() const override;

 private:
  const uint64_t count_;
  const uint64_t slide_;
  uint64_t seen_ = 0;  // elements observed so far
  // Begin timestamps of open count windows, oldest first, paired with the
  // index of their first element.
  std::vector<std::pair<uint64_t, Timestamp>> open_;
};

/// Punctuation windows: a user predicate over (timestamp, payload) marks
/// elements that start a new window; the previous window ends at the marking
/// element (exclusive). Models content-driven UDWs such as "new window at
/// every session-reset event in the data".
class PunctuationWindowFn : public WindowFunction {
 public:
  using Predicate = std::function<bool(Timestamp, const Value&)>;
  explicit PunctuationWindowFn(Predicate is_punctuation);

  void OnElement(Timestamp ts, const Value& payload,
                 WindowEvents* out) override;
  void OnWatermark(Timestamp wm, WindowEvents* out) override;
  Timestamp OldestNeededBegin() const override;
  /// Only the end of the stream closes a window early.
  Timestamp NextWatermarkWakeup() const override { return kMaxTimestamp; }
  std::unique_ptr<WindowFunction> Clone() const override;
  void SnapshotState(BinaryWriter* w) const override;
  Status RestoreState(BinaryReader* r) override;
  std::string Name() const override;

 private:
  Predicate pred_;
  bool open_ = false;
  Timestamp window_start_ = 0;
  Timestamp last_ts_ = 0;
};

/// Delta windows (Jain et al. / Flink's DeltaTrigger): a window closes when
/// the payload value drifts at least `delta` away from its value at the
/// window's first element; the drifting element starts the next window.
/// A genuinely content-driven deterministic UDW -- windows exist only in
/// Cutty's generalized model, not in periodic frameworks.
class DeltaWindowFn : public WindowFunction {
 public:
  explicit DeltaWindowFn(double delta);

  void OnElement(Timestamp ts, const Value& payload,
                 WindowEvents* out) override;
  void OnWatermark(Timestamp wm, WindowEvents* out) override;
  Timestamp OldestNeededBegin() const override;
  /// Only the end of the stream closes a window early.
  Timestamp NextWatermarkWakeup() const override { return kMaxTimestamp; }
  std::unique_ptr<WindowFunction> Clone() const override;
  void SnapshotState(BinaryWriter* w) const override;
  Status RestoreState(BinaryReader* r) override;
  std::string Name() const override;

 private:
  const double delta_;
  bool open_ = false;
  double anchor_ = 0;
  Timestamp window_start_ = 0;
  Timestamp last_ts_ = 0;
};

}  // namespace streamline

#endif  // STREAMLINE_WINDOW_WINDOW_FN_H_
