#ifndef STREAMLINE_AGG_AGGREGATOR_H_
#define STREAMLINE_AGG_AGGREGATOR_H_

#include <cstddef>
#include <functional>
#include <memory>
#include <string>

#include "agg/stats.h"
#include "common/time.h"
#include "common/value.h"
#include "window/window.h"
#include "window/window_fn.h"

namespace streamline {

/// Common interface of all window-aggregation techniques (Cutty slicing and
/// the baselines it is compared against). One aggregator instance serves one
/// logical stream (one key) and any number of concurrent window queries that
/// share the same aggregate function — the multi-query sharing setting of
/// the paper.
///
/// Driving contract: elements arrive in non-decreasing timestamp order via
/// OnElement; OnWatermark(wm) promises all future elements have ts >= wm and
/// flushes completable windows (wm == kMaxTimestamp drains everything).
template <typename Agg>
class WindowAggregator {
 public:
  using Input = typename Agg::Input;
  using Output = typename Agg::Output;

  /// Invoked for every completed window: (query id, window, result).
  using ResultCallback =
      std::function<void(size_t, const Window&, const Output&)>;

  virtual ~WindowAggregator() = default;

  /// Registers a window query; returns its query id. All queries must be
  /// added before the first element.
  virtual size_t AddQuery(std::unique_ptr<WindowFunction> wf,
                          ResultCallback cb) = 0;

  /// Processes one element. `payload` is forwarded to content-sensitive
  /// window functions (punctuation windows); pass Value() otherwise.
  virtual void OnElement(Timestamp ts, const Input& value,
                         const Value& payload) = 0;

  void OnElement(Timestamp ts, const Input& value) {
    OnElement(ts, value, Value());
  }

  /// Processes a contiguous run of `n` elements (parallel arrays, same
  /// non-decreasing-timestamp contract as OnElement). Semantically identical
  /// to calling OnElement(ts[i], values[i]) for each i in order -- the
  /// default does exactly that; aggregators with batch kernels override it.
  /// Payloads are not supported on this path: punctuation-window users go
  /// per-element.
  virtual void OnElements(const Timestamp* ts, const Input* values,
                          size_t n) {
    for (size_t i = 0; i < n; ++i) OnElement(ts[i], values[i], Value());
  }

  /// Advances the watermark, firing all windows with end <= wm.
  virtual void OnWatermark(Timestamp wm) = 0;

  virtual AggStats stats() const = 0;
  virtual std::string name() const = 0;
};

}  // namespace streamline

#endif  // STREAMLINE_AGG_AGGREGATOR_H_
