#ifndef STREAMLINE_AGG_EAGER_AGGREGATOR_H_
#define STREAMLINE_AGG_EAGER_AGGREGATOR_H_

#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "agg/aggregator.h"
#include "common/logging.h"
#include "window/aggregate_fn.h"

namespace streamline {

/// Eager per-window aggregation — the pre-Cutty state of practice (Apache
/// Flink 1.x aligned windows): every record is folded into the running
/// partial of EVERY window that contains it. With range r and slide s this
/// costs r/s partial updates per record and per query; the cost Cutty's
/// slicing removes. Supports periodic (tumbling/sliding) windows only, like
/// the systems it models.
template <typename Agg>
class EagerAggregator : public WindowAggregator<Agg> {
 public:
  using Input = typename Agg::Input;
  using Partial = typename Agg::Partial;
  using Output = typename Agg::Output;
  using ResultCallback = typename WindowAggregator<Agg>::ResultCallback;

  explicit EagerAggregator(Agg agg = Agg()) : agg_(std::move(agg)) {}

  size_t AddQuery(std::unique_ptr<WindowFunction> wf,
                  ResultCallback cb) override {
    STREAMLINE_CHECK_EQ(stats_.elements, 0u);
    auto* sliding = dynamic_cast<SlidingWindowFn*>(wf.get());
    STREAMLINE_CHECK(sliding != nullptr)
        << "EagerAggregator supports periodic windows only, got "
        << wf->Name();
    queries_.push_back(QueryState{sliding->range(), sliding->slide(),
                                  sliding->origin(), std::move(cb),
                                  {}});
    return queries_.size() - 1;
  }

  using WindowAggregator<Agg>::OnElement;

  void OnElement(Timestamp ts, const Input& value,
                 const Value& payload) override {
    (void)payload;
    // Fire first: completed windows (end <= ts) never contain this element.
    FireUpTo(ts);
    const Partial lifted = agg_.Lift(value);
    for (QueryState& q : queries_) {
      // Enumerate the windows containing ts: aligned begins in (ts-r, ts].
      Timestamp b = q.origin + FloorDiv(ts - q.origin, q.slide) * q.slide;
      for (; b > ts - q.range; b -= q.slide) {
        if (b > ts) continue;  // can happen only when slide > range
        const Window w{b, b + q.range};
        auto [it, inserted] = q.open.try_emplace(w, agg_.Identity());
        if (inserted) ++stats_.slices_created;
        it->second = agg_.Combine(it->second, lifted);
        ++stats_.partial_updates;
      }
    }
    ++stats_.elements;
    UpdatePeak();
  }

  /// Batch entry point. After FireUpTo(t0) every open window contains t0,
  /// so until the next aligned window begin (b0 + slide per query) or the
  /// earliest open-window end, the set of windows containing an element is
  /// constant and no fires are due. The whole run is prefolded into one
  /// partial (contiguous kernel) and combined once per member window,
  /// replacing one Combine per (element, window) -- associativity is all
  /// that is needed, since every run element is later in stream order than
  /// everything previously folded into those windows.
  void OnElements(const Timestamp* ts, const Input* values,
                  size_t n) override {
    size_t i = 0;
    while (i < n) {
      const Timestamp t0 = ts[i];
      FireUpTo(t0);
      Timestamp horizon = kMaxTimestamp;
      member_scratch_.clear();
      for (QueryState& q : queries_) {
        const Timestamp b0 =
            q.origin + FloorDiv(t0 - q.origin, q.slide) * q.slide;
        horizon = std::min(horizon, b0 + q.slide);
        for (Timestamp b = b0; b > t0 - q.range; b -= q.slide) {
          if (b > t0) continue;  // can happen only when slide > range
          const Window w{b, b + q.range};
          auto [it, inserted] = q.open.try_emplace(w, agg_.Identity());
          if (inserted) ++stats_.slices_created;
          // std::map nodes are stable; pointers survive later emplaces.
          member_scratch_.push_back(&it->second);
        }
        if (!q.open.empty()) {
          horizon = std::min(horizon, q.open.begin()->first.end);
        }
      }
      size_t j = i + 1;
      while (j < n && ts[j] < horizon) ++j;
      if (j - i == 1) {
        const Partial lifted = agg_.Lift(values[i]);
        for (Partial* p : member_scratch_) *p = agg_.Combine(*p, lifted);
      } else {
        Partial run = agg_.Lift(values[i]);
        AggFoldSpan(agg_, &run, values + i + 1, j - i - 1);
        for (Partial* p : member_scratch_) *p = agg_.Combine(*p, run);
      }
      // Count the work actually done: the prefold plus one combine per
      // member window (equals the per-element count when the run is 1).
      stats_.partial_updates += (j - i - 1) + member_scratch_.size();
      stats_.elements += j - i;
      UpdatePeak();
      i = j;
    }
  }

  void OnWatermark(Timestamp wm) override {
    FireUpTo(wm);
    UpdatePeak();
  }

  AggStats stats() const override { return stats_; }
  std::string name() const override { return "eager"; }

 private:
  struct QueryState {
    Duration range;
    Duration slide;
    Timestamp origin;
    ResultCallback cb;
    // Open windows ordered by end (Window::operator< orders by end first),
    // so firing pops a prefix.
    std::map<Window, Partial> open;
  };

  static int64_t FloorDiv(int64_t a, int64_t b) {
    int64_t q = a / b;
    if ((a % b != 0) && ((a < 0) != (b < 0))) --q;
    return q;
  }

  void FireUpTo(Timestamp wm) {
    for (size_t qi = 0; qi < queries_.size(); ++qi) {
      QueryState& q = queries_[qi];
      auto it = q.open.begin();
      while (it != q.open.end() && it->first.end <= wm) {
        ++stats_.fires;
        if (q.cb) q.cb(qi, it->first, agg_.Lower(it->second));
        it = q.open.erase(it);
      }
    }
  }

  void UpdatePeak() {
    uint64_t total = 0;
    for (const QueryState& q : queries_) total += q.open.size();
    stats_.peak_stored = std::max(stats_.peak_stored, total);
  }

  Agg agg_;
  std::vector<QueryState> queries_;
  // Scratch: pointers to the member windows of the current run (capacity
  // persists across calls).
  std::vector<Partial*> member_scratch_;
  AggStats stats_;
};

}  // namespace streamline

#endif  // STREAMLINE_AGG_EAGER_AGGREGATOR_H_
