// Property tests of the window functions:
//  - SlidingWindowFn against a brute-force oracle: for random (range,
//    slide, origin) and random sparse streams, the event stream must
//    declare exactly the begins of element-containing windows before their
//    first element, and fire exactly the non-empty windows, in order, once
//    the watermark covers them;
//  - the watermark wakeup contract of every WindowFunction and of
//    SlicingAggregator::NextDue: a watermark below the published wakeup
//    emits nothing and changes no state, and a finite wakeup is exact (a
//    watermark reaching it changes the state).

#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <set>
#include <string>

#include "agg/slicing_aggregator.h"
#include "common/random.h"
#include "window/aggregate_fn.h"
#include "window/window_fn.h"

namespace streamline {
namespace {

struct Oracle {
  // All non-empty windows for the element set under (range, slide, origin).
  static std::set<Window> NonEmptyWindows(const std::vector<Timestamp>& ts,
                                          Duration range, Duration slide,
                                          Timestamp origin) {
    std::set<Window> out;
    for (Timestamp t : ts) {
      // Aligned begins b with b <= t < b + range.
      Timestamp b = origin + ((t - origin) >= 0
                                  ? (t - origin) / slide
                                  : ((t - origin) - slide + 1) / slide) *
                                 slide;
      for (; b > t - range; b -= slide) {
        if (b <= t) out.insert(Window{b, b + range});
      }
    }
    return out;
  }
};

struct Params {
  Duration range;
  Duration slide;
  Timestamp origin;
  uint64_t seed;
};

class SlidingOracleTest : public ::testing::TestWithParam<Params> {};

TEST_P(SlidingOracleTest, FiresExactlyNonEmptyWindowsInOrder) {
  const Params p = GetParam();
  Rng rng(p.seed);
  // Sparse stream with gaps so empty windows exist.
  std::vector<Timestamp> stream;
  Timestamp ts = static_cast<Timestamp>(rng.NextBelow(100)) - 50;
  for (int i = 0; i < 500; ++i) {
    stream.push_back(ts);
    ts += static_cast<Timestamp>(rng.NextBelow(4));
    if (rng.NextBelow(20) == 0) {
      ts += p.range + static_cast<Timestamp>(rng.NextBelow(
                          static_cast<uint64_t>(3 * p.range)));
    }
  }

  SlidingWindowFn fn(p.range, p.slide, p.origin);
  std::vector<Window> fired;
  std::map<Timestamp, size_t> begin_declared_at;  // begin ts -> element idx
  WindowEvents events;
  for (size_t i = 0; i < stream.size(); ++i) {
    events.clear();
    fn.OnElement(stream[i], Value(), &events);
    for (const WindowEvent& e : events) {
      if (e.kind == WindowEvent::Kind::kEnd) {
        fired.push_back(e.window);
      } else {
        // Begins must be declared no later than the first element >= begin.
        EXPECT_GE(stream[i], e.at);
        begin_declared_at.emplace(e.at, i);
      }
    }
  }
  events.clear();
  fn.OnWatermark(kMaxTimestamp, &events);
  for (const WindowEvent& e : events) {
    if (e.kind == WindowEvent::Kind::kEnd) fired.push_back(e.window);
  }

  // Fired set == oracle's non-empty windows, strictly ordered by end.
  const std::set<Window> expect =
      Oracle::NonEmptyWindows(stream, p.range, p.slide, p.origin);
  ASSERT_EQ(fired.size(), expect.size());
  for (size_t i = 1; i < fired.size(); ++i) {
    EXPECT_LT(fired[i - 1].end, fired[i].end);
  }
  for (const Window& w : fired) {
    EXPECT_TRUE(expect.count(w)) << w.ToString() << " fired but is empty";
    // Its begin boundary was declared before/at its first element.
    EXPECT_TRUE(begin_declared_at.count(w.start))
        << "begin " << w.start << " never declared";
  }
}

INSTANTIATE_TEST_SUITE_P(
    RandomParams, SlidingOracleTest,
    ::testing::Values(Params{10, 3, 0, 1}, Params{10, 10, 0, 2},
                      Params{100, 7, 0, 3}, Params{64, 16, 5, 4},
                      Params{7, 7, -3, 5}, Params{50, 1, 0, 6},
                      Params{3, 11, 0, 7},  // slide > range (gaps)
                      Params{1000, 333, 17, 8}, Params{2, 1, 0, 9},
                      Params{500, 250, -100, 10}));

// ---------------------------------------------------------------------------
// Watermark wakeup contract.

struct Element {
  Timestamp ts;
  int64_t payload;
};

// Non-decreasing timestamps with ties, short steps and occasional long
// gaps (so sessions close and sliding windows skip empty ends); the payload
// is a small random walk with occasional jumps (delta windows drift).
std::vector<Element> RandomStream(uint64_t seed, int n) {
  Rng rng(seed);
  std::vector<Element> out;
  Timestamp ts = static_cast<Timestamp>(rng.NextBelow(50)) - 25;
  int64_t payload = 0;
  for (int i = 0; i < n; ++i) {
    ts += static_cast<Timestamp>(rng.NextBelow(5));
    if (rng.NextBelow(15) == 0) {
      ts += 20 + static_cast<Timestamp>(rng.NextBelow(100));
    }
    payload += static_cast<int64_t>(rng.NextBelow(5)) - 2;
    if (rng.NextBelow(10) == 0) payload += 10;
    out.push_back(Element{ts, payload});
  }
  return out;
}

// Watermarks a stream allows between element i and element i + 1: a few
// increasing values in (ts_i, ts_{i+1}].
std::vector<Timestamp> Probes(Rng* rng, Timestamp after, Timestamp upto) {
  std::vector<Timestamp> out;
  Timestamp wm = after;
  while (wm < upto && out.size() < 3) {
    wm += 1 + static_cast<Timestamp>(
                  rng->NextBelow(static_cast<uint64_t>(upto - wm)));
    out.push_back(wm);
  }
  return out;
}

struct FnCase {
  std::string name;
  std::function<std::unique_ptr<WindowFunction>()> make;
};

std::vector<FnCase> AllWindowFunctions() {
  return {
      {"sliding", [] { return std::make_unique<SlidingWindowFn>(40, 10); }},
      {"sliding_gappy",
       [] { return std::make_unique<SlidingWindowFn>(7, 20, 3); }},
      {"tumbling", [] { return std::make_unique<TumblingWindowFn>(25); }},
      {"session", [] { return std::make_unique<SessionWindowFn>(15); }},
      {"count", [] { return std::make_unique<CountWindowFn>(5, 2); }},
      {"punctuation",
       [] {
         return std::make_unique<PunctuationWindowFn>(
             [](Timestamp, const Value& v) { return v.AsInt64() % 7 == 0; });
       }},
      {"delta", [] { return std::make_unique<DeltaWindowFn>(6.0); }},
  };
}

std::string StateBytes(const WindowFunction& fn) {
  BinaryWriter w;
  fn.SnapshotState(&w);
  return w.Release();
}

TEST(WindowFnPropertyTest, WatermarkBelowWakeupIsANoOp) {
  for (const FnCase& c : AllWindowFunctions()) {
    for (uint64_t seed = 1; seed <= 8; ++seed) {
      SCOPED_TRACE(c.name + " seed " + std::to_string(seed));
      const std::vector<Element> stream = RandomStream(seed, 400);
      Rng rng(seed * 7919);
      auto fn = c.make();
      WindowEvents events;
      size_t skipped = 0;
      size_t due = 0;
      bool time_driven = false;  // ever due before the end of the stream
      for (size_t i = 0; i < stream.size(); ++i) {
        const Value payload(stream[i].payload);
        fn->OnElement(stream[i].ts, payload, &events);
        fn->AfterElement(stream[i].ts, payload, &events);
        const Timestamp next =
            i + 1 < stream.size() ? stream[i + 1].ts : stream[i].ts + 200;
        for (Timestamp wm : Probes(&rng, stream[i].ts, next)) {
          const Timestamp wakeup = fn->NextWatermarkWakeup();
          time_driven |= wakeup != kMaxTimestamp;
          const std::string before = StateBytes(*fn);
          events.clear();
          fn->OnWatermark(wm, &events);
          if (wm < wakeup) {
            ++skipped;
            ASSERT_TRUE(events.empty()) << "wm " << wm << " < " << wakeup;
            ASSERT_EQ(StateBytes(*fn), before) << "wm " << wm;
          } else {
            // Exact: a watermark the function is due at changes it.
            ++due;
            ASSERT_NE(StateBytes(*fn), before) << "wm " << wm;
          }
        }
      }
      EXPECT_GT(skipped, 0u);
      // Count, punctuation and delta windows are due at end of stream only.
      if (time_driven) {
        EXPECT_GT(due, 0u);
      }
    }
  }
}

void SerializeDouble(const double& p, BinaryWriter* w) { w->WriteDouble(p); }

// Shared slicers over mixed query sets: periodic, session and data-driven
// queries (indices into AllWindowFunctions).
TEST(WindowFnPropertyTest, SlicerNextDueIsExact) {
  const std::vector<FnCase> fns = AllWindowFunctions();
  const std::vector<std::vector<size_t>> query_sets = {
      {0, 3, 2}, {1, 3}, {4, 5}, {6, 0}, {0, 1, 2, 3, 4, 5, 6}};
  for (const auto& set : query_sets) {
    for (uint64_t seed = 1; seed <= 8; ++seed) {
      std::string names;
      for (size_t f : set) names += fns[f].name + " ";
      SCOPED_TRACE(names + "seed " + std::to_string(seed));
      size_t fired = 0;
      SlicingAggregator<SumAgg<double>> agg;
      for (size_t f : set) {
        agg.AddQuery(fns[f].make(),
                     [&fired](size_t, const Window&, const double&) {
                       ++fired;
                     });
      }
      const std::vector<Element> stream = RandomStream(seed, 400);
      Rng rng(seed * 104729);
      const auto state = [&agg] {
        BinaryWriter w;
        agg.Snapshot(&w, SerializeDouble);
        return w.Release() + agg.stats().ToString();
      };
      size_t skipped = 0;
      size_t due_polls = 0;
      bool time_driven = false;  // ever due before the end of the stream
      size_t i = 0;
      while (i < stream.size()) {
        // A run of elements, then a watermark that settles their eviction.
        const size_t run = 1 + rng.NextBelow(6);
        for (size_t k = 0; k < run && i < stream.size(); ++k, ++i) {
          agg.OnElement(stream[i].ts, static_cast<double>(stream[i].payload),
                        Value(stream[i].payload));
        }
        const Timestamp last = stream[i - 1].ts;
        const Timestamp next = i < stream.size() ? stream[i].ts : last + 200;
        const std::vector<Timestamp> probes = Probes(&rng, last, next);
        if (probes.empty()) continue;
        agg.OnWatermark(probes.front());
        for (size_t p = 1; p < probes.size(); ++p) {
          const Timestamp due = agg.NextDue();
          time_driven |= due != kMaxTimestamp;
          const std::string before = state();
          const size_t fired_before = fired;
          agg.OnWatermark(probes[p]);
          if (probes[p] < due) {
            ++skipped;
            ASSERT_EQ(fired, fired_before) << "wm " << probes[p];
            ASSERT_EQ(state(), before) << "wm " << probes[p];
          } else {
            ++due_polls;
            ASSERT_NE(state(), before) << "wm " << probes[p];
          }
        }
      }
      EXPECT_GT(skipped, 0u);
      if (time_driven) {
        EXPECT_GT(due_polls, 0u);
      }
    }
  }
}

}  // namespace
}  // namespace streamline
