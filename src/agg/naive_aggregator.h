#ifndef STREAMLINE_AGG_NAIVE_AGGREGATOR_H_
#define STREAMLINE_AGG_NAIVE_AGGREGATOR_H_

#include <algorithm>
#include <deque>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "agg/aggregator.h"
#include "common/logging.h"

namespace streamline {

/// Buffer-and-recompute baseline: raw tuples are buffered and every window
/// fire rescans its full extent. No sharing of any kind — each fire costs
/// O(window size) lifts+combines. Supports every WindowFunction (including
/// sessions and UDWs), which makes it the comparator for the non-periodic
/// experiments where Pairs/Panes/eager are inapplicable.
template <typename Agg>
class NaiveBufferAggregator : public WindowAggregator<Agg> {
 public:
  using Input = typename Agg::Input;
  using Partial = typename Agg::Partial;
  using Output = typename Agg::Output;
  using ResultCallback = typename WindowAggregator<Agg>::ResultCallback;

  explicit NaiveBufferAggregator(Agg agg = Agg()) : agg_(std::move(agg)) {}

  size_t AddQuery(std::unique_ptr<WindowFunction> wf,
                  ResultCallback cb) override {
    STREAMLINE_CHECK_EQ(stats_.elements, 0u);
    queries_.push_back(QueryState{std::move(wf), std::move(cb)});
    return queries_.size() - 1;
  }

  using WindowAggregator<Agg>::OnElement;

  void OnElement(Timestamp ts, const Input& value,
                 const Value& payload) override {
    // Fires triggered by this element's arrival exclude the element itself.
    for (size_t q = 0; q < queries_.size(); ++q) {
      scratch_.clear();
      queries_[q].wf->OnElement(ts, payload, &scratch_);
      HandleEvents(q);
    }
    buffer_.emplace_back(ts, value);
    ++stats_.elements;
    // Data-driven windows (count windows) include the element: fire after
    // buffering it.
    for (size_t q = 0; q < queries_.size(); ++q) {
      scratch_.clear();
      queries_[q].wf->AfterElement(ts, payload, &scratch_);
      HandleEvents(q);
    }
    if (stats_.elements % kEvictionPeriod == 0) Evict();
    stats_.peak_stored =
        std::max<uint64_t>(stats_.peak_stored, buffer_.size());
  }

  void OnWatermark(Timestamp wm) override {
    for (size_t q = 0; q < queries_.size(); ++q) {
      scratch_.clear();
      queries_[q].wf->OnWatermark(wm, &scratch_);
      HandleEvents(q);
    }
    Evict();
  }

  AggStats stats() const override { return stats_; }
  std::string name() const override { return "naive"; }

  size_t buffered() const { return buffer_.size(); }

 private:
  struct QueryState {
    std::unique_ptr<WindowFunction> wf;
    ResultCallback cb;
  };

  void HandleEvents(size_t query) {
    for (const WindowEvent& e : scratch_) {
      if (e.kind == WindowEvent::Kind::kEnd) Fire(query, e.window);
    }
  }

  void Fire(size_t query, const Window& w) {
    // Recompute the window by scanning buffered tuples in [start, end).
    auto it = std::lower_bound(
        buffer_.begin(), buffer_.end(), w.start,
        [](const auto& entry, Timestamp t) { return entry.first < t; });
    Partial acc = agg_.Identity();
    for (; it != buffer_.end() && it->first < w.end; ++it) {
      acc = agg_.Combine(acc, agg_.Lift(it->second));
      ++stats_.partial_updates;
    }
    ++stats_.fires;
    if (queries_[query].cb) queries_[query].cb(query, w, agg_.Lower(acc));
  }

  void Evict() {
    Timestamp needed = kMaxTimestamp;
    for (const QueryState& q : queries_) {
      needed = std::min(needed, q.wf->OldestNeededBegin());
    }
    while (!buffer_.empty() && buffer_.front().first < needed) {
      buffer_.pop_front();
    }
  }

  // Eviction runs every this many elements (and on every watermark).
  static constexpr uint64_t kEvictionPeriod = 128;

  Agg agg_;
  std::vector<QueryState> queries_;
  std::deque<std::pair<Timestamp, Input>> buffer_;
  WindowEvents scratch_;
  AggStats stats_;
};

}  // namespace streamline

#endif  // STREAMLINE_AGG_NAIVE_AGGREGATOR_H_
