#include "dataflow/event_log.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <thread>
#include <vector>

#include "api/datastream.h"

namespace streamline {
namespace {

Record Ev(Timestamp ts, int64_t key, double v) {
  return MakeRecord(ts, Value(key), Value(v));
}

/// One thing a source emitted: a record, identified by the (partition,
/// offset) it carries in fields 0 and 1, or a watermark.
struct Emission {
  bool watermark = false;
  Timestamp ts = 0;  // record timestamp or watermark value
  int64_t partition = -1;
  int64_t offset = -1;
  bool operator==(const Emission& o) const {
    return watermark == o.watermark && ts == o.ts &&
           partition == o.partition && offset == o.offset;
  }
};

std::ostream& operator<<(std::ostream& os, const Emission& e) {
  if (e.watermark) return os << "wm(" << e.ts << ")";
  return os << "rec(ts=" << e.ts << " p=" << e.partition
            << " off=" << e.offset << ")";
}

/// SourceContext that records every emission in order and advertises a
/// fixed preferred batch size, so LogSource::Poll can be driven directly.
class RecordingContext : public SourceContext {
 public:
  explicit RecordingContext(size_t preferred) : preferred_(preferred) {}

  bool Emit(Record&& r) override {
    out.push_back({false, r.timestamp, r.field(0).AsInt64(),
                   r.field(1).AsInt64()});
    return true;
  }
  bool EmitBatch(std::vector<Record>&& batch) override {
    EXPECT_LE(batch.size(), preferred_) << "batch over the preferred size";
    return SourceContext::EmitBatch(std::move(batch));
  }
  size_t PreferredBatchSize() const override { return preferred_; }
  void EmitWatermark(Timestamp wm) override {
    out.push_back({true, wm, -1, -1});
  }
  void HandleIdle() override {}
  bool IsCancelled() const override { return false; }

  std::vector<Emission> out;

 private:
  size_t preferred_;
};

/// The one-record-per-poll merge LogSource is specified by, over a closed
/// log given as per-partition timestamps: emit the smallest head timestamp
/// (ties to the lowest partition index); after every `watermark_every`-th
/// record, emit the minimum last-emitted timestamp over the partitions not
/// yet drained -- unless one of them has emitted nothing yet.
std::vector<Emission> PerRecordMerge(
    const std::vector<std::vector<Timestamp>>& parts, int subtask,
    int parallelism, uint64_t watermark_every) {
  std::vector<int> mine;
  for (int p = subtask; p < static_cast<int>(parts.size()); p += parallelism) {
    mine.push_back(p);
  }
  std::vector<size_t> next(mine.size(), 0);
  std::vector<Timestamp> last(mine.size(), kMinTimestamp);
  auto has_more = [&](size_t i) { return next[i] < parts[mine[i]].size(); };
  auto head = [&](size_t i) { return parts[mine[i]][next[i]]; };
  std::vector<Emission> out;
  uint64_t emitted = 0;
  for (;;) {
    int best = -1;
    for (size_t i = 0; i < mine.size(); ++i) {
      if (has_more(i) && (best < 0 || head(i) < head(best))) {
        best = static_cast<int>(i);
      }
    }
    if (best < 0) return out;
    const Timestamp ts = head(best);
    out.push_back({false, ts, mine[best], static_cast<int64_t>(next[best])});
    ++next[best];
    last[best] = ts;
    ++emitted;
    if (watermark_every > 0 && emitted % watermark_every == 0) {
      Timestamp wm = kMaxTimestamp;
      for (size_t i = 0; i < mine.size(); ++i) {
        if (has_more(i)) wm = std::min(wm, last[i]);
      }
      if (wm != kMaxTimestamp && wm != kMinTimestamp) {
        out.push_back({true, wm, -1, -1});
      }
    }
  }
}

/// Polls `source` until it returns something other than kHasMore (bounded
/// by `max_polls`) and returns that outcome.
SourcePoll PollWhileHasMore(LogSource* source, SourceContext* ctx,
                            int max_polls = 100000) {
  for (int i = 0; i < max_polls; ++i) {
    Result<SourcePoll> r = source->Poll(ctx);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    if (!r.ok() || *r != SourcePoll::kHasMore) {
      return r.ok() ? *r : SourcePoll::kExhausted;
    }
  }
  ADD_FAILURE() << "source still had more after " << max_polls << " polls";
  return SourcePoll::kExhausted;
}

TEST(EventLogTest, AppendRead) {
  EventLog log(2);
  EXPECT_EQ(log.Append(0, Ev(1, 0, 1.0)), 0u);
  EXPECT_EQ(log.Append(0, Ev(2, 0, 2.0)), 1u);
  EXPECT_EQ(log.Append(1, Ev(1, 1, 3.0)), 0u);
  EXPECT_EQ(log.EndOffset(0), 2u);
  EXPECT_EQ(log.EndOffset(1), 1u);
  ASSERT_TRUE(log.Read(0, 1).ok());
  EXPECT_DOUBLE_EQ(log.Read(0, 1)->field(1).AsDouble(), 2.0);
  EXPECT_FALSE(log.Read(0, 2).ok());
}

TEST(EventLogTest, ReadRangeCopiesASpanAndReportsTheClosedEnd) {
  EventLog log(2);
  for (int i = 0; i < 5; ++i) log.Append(0, Ev(i, 0, i));
  std::vector<Record> out;
  Result<bool> final = log.ReadRange(0, 1, 3, &out);
  ASSERT_TRUE(final.ok());
  EXPECT_FALSE(*final);
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0].timestamp, 1);
  EXPECT_EQ(out[2].timestamp, 3);
  // Appends to what `out` holds; the end of an open partition is not final.
  final = log.ReadRange(0, 4, 10, &out);
  ASSERT_TRUE(final.ok());
  EXPECT_FALSE(*final);
  ASSERT_EQ(out.size(), 4u);
  EXPECT_EQ(out[3].timestamp, 4);
  log.Close();
  // Once closed, a range reaching the end (even an empty one) is final.
  out.clear();
  final = log.ReadRange(0, 2, 3, &out);
  ASSERT_TRUE(final.ok());
  EXPECT_TRUE(*final);
  EXPECT_EQ(out.size(), 3u);
  final = log.ReadRange(0, 0, 2, &out);
  ASSERT_TRUE(final.ok());
  EXPECT_FALSE(*final);
  final = log.ReadRange(1, 0, 2, &out);
  ASSERT_TRUE(final.ok());
  EXPECT_TRUE(*final);
  EXPECT_EQ(out.size(), 5u);
}

TEST(EventLogTest, OutOfRangePartitionIsRejected) {
  EventLog log(2);
  log.Append(1, Ev(1, 0, 1.0));
  std::vector<Record> out;
  for (int bad : {-1, 2, 100}) {
    Result<bool> range = log.ReadRange(bad, 0, 4, &out);
    ASSERT_FALSE(range.ok()) << bad;
    EXPECT_EQ(range.status().code(), StatusCode::kInvalidArgument) << bad;
    Result<Record> read = log.Read(bad, 0);
    ASSERT_FALSE(read.ok()) << bad;
    EXPECT_EQ(read.status().code(), StatusCode::kInvalidArgument) << bad;
  }
  EXPECT_TRUE(out.empty());
  EXPECT_DEATH(log.EndOffset(2), "partition");
  EXPECT_DEATH(log.EndOffset(-1), "partition");
}

TEST(EventLogTest, AppendByKeyIsDeterministic) {
  EventLog log(4);
  for (int i = 0; i < 100; ++i) {
    log.AppendByKey(0, Ev(i, i % 10, 0));
  }
  // Same key always lands in the same partition.
  std::map<int64_t, int> partition_of;
  for (int p = 0; p < 4; ++p) {
    for (uint64_t off = 0; off < log.EndOffset(p); ++off) {
      const int64_t key = log.Read(p, off)->field(0).AsInt64();
      auto [it, inserted] = partition_of.emplace(key, p);
      if (!inserted) EXPECT_EQ(it->second, p) << "key " << key;
    }
  }
  EXPECT_EQ(partition_of.size(), 10u);
}

TEST(EventLogTest, BatchedPollMatchesPerRecordMerge) {
  // Five partitions of different lengths (one empty, several longer than
  // one read-ahead chunk) with timestamps that repeat within a partition
  // and tie across partitions.
  const std::vector<size_t> sizes = {600, 0, 257, 1100, 40};
  const std::vector<Timestamp> steps = {3, 1, 5, 2, 7};
  std::vector<std::vector<Timestamp>> parts(sizes.size());
  auto log = std::make_shared<EventLog>(static_cast<int>(sizes.size()));
  for (size_t p = 0; p < sizes.size(); ++p) {
    for (size_t j = 0; j < sizes[p]; ++j) {
      const Timestamp ts = static_cast<Timestamp>(j) * steps[p] / 4;
      parts[p].push_back(ts);
      log->Append(static_cast<int>(p),
                  MakeRecord(ts, Value(static_cast<int64_t>(p)),
                             Value(static_cast<int64_t>(j))));
    }
  }
  log->Close();

  for (int parallelism : {1, 2, 3}) {
    for (int subtask = 0; subtask < parallelism; ++subtask) {
      for (size_t preferred : {size_t{1}, size_t{7}, size_t{256}}) {
        for (uint64_t every : {0, 1, 16, 1000}) {
          SCOPED_TRACE("parallelism=" + std::to_string(parallelism) +
                       " subtask=" + std::to_string(subtask) +
                       " batch=" + std::to_string(preferred) +
                       " watermark_every=" + std::to_string(every));
          LogSource source(log, subtask, parallelism, every);
          RecordingContext ctx(preferred);
          EXPECT_EQ(PollWhileHasMore(&source, &ctx), SourcePoll::kExhausted);
          const std::vector<Emission> want =
              PerRecordMerge(parts, subtask, parallelism, every);
          ASSERT_EQ(ctx.out.size(), want.size());
          for (size_t k = 0; k < want.size(); ++k) {
            ASSERT_EQ(ctx.out[k], want[k]) << "at emission " << k;
          }
        }
      }
    }
  }
}

TEST(EventLogTest, BatchedPollOverOpenLogEmitsEachRecordOnce) {
  // Appends arrive between polls (bursts of uneven size, some partitions
  // skipping rounds), then the log closes: every record is emitted exactly
  // once, in per-partition order, and no watermark overtakes a record.
  constexpr int kPartitions = 3;
  auto log = std::make_shared<EventLog>(kPartitions);
  LogSource source(log, 0, 1, /*watermark_every=*/16);
  RecordingContext ctx(7);
  std::vector<int64_t> appended(kPartitions, 0);
  for (int round = 0; round < 25; ++round) {
    for (int p = 0; p < kPartitions; ++p) {
      const int burst = (round * 7 + p * 13) % 61;
      for (int j = 0; j < burst; ++j) {
        log->Append(p, MakeRecord(round * 100 + j, Value(int64_t{p}),
                                  Value(appended[p]++)));
      }
    }
    EXPECT_EQ(PollWhileHasMore(&source, &ctx), SourcePoll::kIdle);
  }
  log->Close();
  EXPECT_EQ(PollWhileHasMore(&source, &ctx), SourcePoll::kExhausted);

  std::vector<int64_t> next(kPartitions, 0);
  Timestamp wm = kMinTimestamp;
  for (const Emission& e : ctx.out) {
    if (e.watermark) {
      EXPECT_GE(e.ts, wm);
      wm = e.ts;
      continue;
    }
    EXPECT_GE(e.ts, wm) << e << " after its watermark";
    ASSERT_GE(e.partition, 0);
    ASSERT_LT(e.partition, kPartitions);
    EXPECT_EQ(e.offset, next[e.partition]++) << e;
  }
  EXPECT_EQ(next, appended);
}

TEST(EventLogTest, BoundedConsumptionThroughJob) {
  auto log = std::make_shared<EventLog>(3);
  for (int i = 0; i < 3000; ++i) {
    log->AppendByKey(0, Ev(i, i % 7, 1.0));
  }
  log->Close();
  Environment env;
  auto sink = env.FromSource("log", LogSource::Factory(log), 3).Collect();
  ASSERT_TRUE(env.Execute().ok());
  EXPECT_EQ(sink->size(), 3000u);
}

TEST(EventLogTest, LiveProducerThenClose) {
  auto log = std::make_shared<EventLog>(2);
  Environment env;
  auto sink = env.FromSource("log", LogSource::Factory(log), 1).Collect();
  auto job = env.CreateJob();
  ASSERT_TRUE(job.ok());
  ASSERT_TRUE((*job)->Start().ok());
  // Produce while the job is running.
  std::thread producer([&log] {
    for (int i = 0; i < 1000; ++i) {
      log->Append(i % 2, Ev(i, i % 3, 1.0));
      if (i % 100 == 0) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    }
    log->Close();
  });
  producer.join();
  ASSERT_TRUE((*job)->AwaitCompletion().ok());
  EXPECT_EQ(sink->size(), 1000u);
}

TEST(EventLogTest, WindowedJobOverPartitionedLog) {
  // Cross-partition skew + per-partition watermarks: the windowed counts
  // must still be exact.
  auto log = std::make_shared<EventLog>(4);
  for (int i = 0; i < 2000; ++i) {
    log->AppendByKey(0, Ev(i, i % 5, 1.0));
  }
  log->Close();
  Environment env(2);
  auto sink = env.FromSource("log", LogSource::Factory(log, 16), 2)
                  .KeyBy(0)
                  .Window(std::make_shared<TumblingWindowFn>(400))
                  .Aggregate(DynAggKind::kCount, 1)
                  .Collect();
  ASSERT_TRUE(env.Execute().ok());
  int64_t total = 0;
  for (const Record& r : sink->records()) total += r.field(4).AsInt64();
  EXPECT_EQ(total, 2000);
}

TEST(EventLogTest, ExactlyOnceRestoreFromOffsets) {
  auto log = std::make_shared<EventLog>(2);
  auto reduce = [](const Record& acc, const Record& in) {
    Record out = acc;
    out.fields[1] = Value(acc.field(1).AsDouble() + in.field(1).AsDouble());
    return out;
  };
  auto build = [&](Environment* env) {
    return env->FromSource("log", LogSource::Factory(log), 2)
        .KeyBy(0)
        .Reduce(reduce)
        .Collect();
  };

  // Run 1: consume the first 800 records, checkpoint while the source
  // idles on the open log (barriers are serviced via HandleIdle), then let
  // the rest of the log arrive and run to completion.
  auto store = std::make_shared<SnapshotStore>();
  uint64_t cp = 0;
  {
    for (int i = 0; i < 800; ++i) log->Append(i % 2, Ev(i, i % 3, 1.0));
    Environment env;
    auto sink = build(&env);
    JobOptions opts;
    opts.snapshot_store = store;
    auto job = env.CreateJob(opts);
    ASSERT_TRUE(job.ok());
    ASSERT_TRUE((*job)->Start().ok());
    while (sink->size() < 800) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    cp = (*job)->TriggerCheckpoint();  // source is idle-waiting here
    ASSERT_TRUE((*job)->AwaitCheckpoint(cp, 10.0));
    for (int i = 800; i < 1600; ++i) log->Append(i % 2, Ev(i, i % 3, 1.0));
    log->Close();
    ASSERT_TRUE((*job)->AwaitCompletion().ok());
  }

  // Reference: full run over the (now complete) log.
  std::map<int64_t, double> reference;
  {
    Environment env;
    auto sink = build(&env);
    ASSERT_TRUE(env.Execute().ok());
    for (const Record& r : sink->records()) {
      reference[r.field(0).AsInt64()] = r.field(1).AsDouble();
    }
  }

  // Run 2: restore; the source resumes at offset 800 per partition and the
  // reduce state continues from the snapshot -- final state matches the
  // uninterrupted reference exactly.
  {
    Environment env;
    auto sink = build(&env);
    JobOptions opts;
    opts.snapshot_store = store;
    opts.restore_from_checkpoint = cp;
    auto job = env.CreateJob(opts);
    ASSERT_TRUE(job.ok()) << job.status().ToString();
    ASSERT_TRUE((*job)->Run().ok());
    EXPECT_EQ(sink->size(), 800u);  // only the post-checkpoint records
    std::map<int64_t, double> final_state;
    for (const Record& r : sink->records()) {
      final_state[r.field(0).AsInt64()] = r.field(1).AsDouble();
    }
    EXPECT_EQ(final_state, reference);
  }
}

TEST(EventLogTest, ExactlyOnceCheckpointInsideBatchedEmission) {
  // A large closed log emitted at batch_size=256. A pass-through filter
  // fused behind the source triggers the checkpoint once the source is well
  // underway, so the barrier is injected at the start of a later batch
  // hand-over while the source is mid-stream. The restored job must re-read
  // exactly the unemitted suffix.
  constexpr int kRecords = 200000;
  constexpr int64_t kTriggerAt = 2000;
  auto log = std::make_shared<EventLog>(2);
  for (int i = 0; i < kRecords; ++i) {
    log->Append(i % 2, Ev(i, i % 7, 1.0 + i % 3));
  }
  log->Close();

  std::atomic<Job*> trigger_job{nullptr};
  std::atomic<int64_t> seen{0};
  std::atomic<uint64_t> cp{0};
  auto build = [&](Environment* env) {
    return env->FromSource("log", LogSource::Factory(log), 2)
        .Filter([&](const Record&) {
          Job* job = trigger_job.load();
          if (job != nullptr && seen.fetch_add(1) + 1 == kTriggerAt) {
            cp.store(job->TriggerCheckpoint());
          }
          return true;
        })
        .KeyBy(0)
        .Reduce([](const Record& acc, const Record& in) {
          Record out = acc;
          out.fields[1] =
              Value(acc.field(1).AsDouble() + in.field(1).AsDouble());
          return out;
        })
        .Collect();
  };
  auto final_state = [](const std::vector<Record>& records) {
    std::map<int64_t, double> state;
    for (const Record& r : records) {
      state[r.field(0).AsInt64()] = r.field(1).AsDouble();
    }
    return state;
  };
  JobOptions opts;
  opts.batch_size = 256;

  std::map<int64_t, double> reference;
  {
    Environment env;
    auto sink = build(&env);
    ASSERT_TRUE(env.Execute(opts).ok());
    ASSERT_EQ(sink->size(), static_cast<size_t>(kRecords));
    reference = final_state(sink->records());
  }

  auto store = std::make_shared<SnapshotStore>();
  opts.snapshot_store = store;
  int64_t pre_barrier = -1;
  {
    Environment env;
    auto sink = build(&env);
    auto job = env.CreateJob(opts);
    ASSERT_TRUE(job.ok()) << job.status().ToString();
    trigger_job.store(job->get());
    ASSERT_TRUE((*job)->Run().ok());
    trigger_job.store(nullptr);
    ASSERT_NE(cp.load(), 0u) << "checkpoint never triggered";
    ASSERT_TRUE((*job)->AwaitCheckpoint(cp.load(), 10.0));
    pre_barrier = sink->BarrierOffset(cp.load());
    // The barrier landed mid-stream, after the trigger record.
    ASSERT_GE(pre_barrier, kTriggerAt);
    ASSERT_LT(pre_barrier, kRecords);
  }

  {
    Environment env;
    auto sink = build(&env);
    opts.restore_from_checkpoint = cp.load();
    auto job = env.CreateJob(opts);
    ASSERT_TRUE(job.ok()) << job.status().ToString();
    ASSERT_TRUE((*job)->Run().ok());
    EXPECT_EQ(pre_barrier + static_cast<int64_t>(sink->size()), kRecords);
    EXPECT_EQ(final_state(sink->records()), reference);
  }
}

}  // namespace
}  // namespace streamline
