// Invariants of the executor's lock-free data plane: control-event
// ordering, end-of-stream drain, producer backpressure, and multi-edge
// routing. Every pipeline here forces a real channel (Rebalance, or more
// than one out-edge, breaks operator chaining) so the SPSC rings and the
// poll loop are actually on the path under test.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "api/datastream.h"

namespace streamline {
namespace {

// Asserts that by the time watermark W arrives, every record with
// ts <= W has already been delivered. The generator emits ts = seq with a
// watermark after every 64 records, so the expected prefix count is W + 1.
class WatermarkOrderProbe : public Operator {
 public:
  WatermarkOrderProbe(std::atomic<int>* violations,
                      std::atomic<uint64_t>* records)
      : violations_(violations), records_(records) {}

  void ProcessRecord(int, Record&& record, Collector* out) override {
    ++seen_;
    if (record.timestamp > max_ts_) max_ts_ = record.timestamp;
    records_->fetch_add(1, std::memory_order_relaxed);
    out->Emit(std::move(record));
  }

  void ProcessWatermark(Timestamp wm, Collector*) override {
    if (wm == kMaxTimestamp || wm == kMinTimestamp) return;
    // The channel must have delivered all records the watermark promises.
    if (seen_ < static_cast<uint64_t>(wm) + 1) violations_->fetch_add(1);
    // And no record behind the previous watermark may show up later --
    // checked implicitly: watermarks only grow, records arrive in order on
    // this single-channel pipeline.
    if (wm < last_wm_) violations_->fetch_add(1);
    last_wm_ = wm;
  }

  std::string Name() const override { return "wm-order-probe"; }

 private:
  std::atomic<int>* violations_;
  std::atomic<uint64_t>* records_;
  uint64_t seen_ = 0;
  Timestamp max_ts_ = kMinTimestamp;
  Timestamp last_wm_ = kMinTimestamp;
};

TEST(DataPlaneTest, ControlEventsDoNotOvertakeRecords) {
  constexpr uint64_t kRecords = 10'000;
  auto violations = std::make_shared<std::atomic<int>>(0);
  auto seen = std::make_shared<std::atomic<uint64_t>>(0);
  Environment env;
  env.FromGenerator("seq",
                    [](uint64_t s) -> std::optional<Record> {
                      if (s >= kRecords) return std::nullopt;
                      return MakeRecord(static_cast<Timestamp>(s),
                                        Value(static_cast<int64_t>(s)));
                    })
      .Rebalance(1)  // forces a real channel in front of the probe
      .Process([violations, seen]() {
        return std::make_unique<WatermarkOrderProbe>(violations.get(),
                                                     seen.get());
      })
      .Sink(std::make_shared<NullSink>());
  JobOptions options;
  options.batch_size = 16;  // several batches between watermarks
  ASSERT_TRUE(env.Execute(options).ok());
  EXPECT_EQ(seen->load(), kRecords);
  EXPECT_EQ(violations->load(), 0);
}

TEST(DataPlaneTest, EndOfStreamDrainsEveryBufferedRecord) {
  // Tiny channels + tiny batches: end-of-stream lands while records are
  // still buffered in rings and output buffers; all must still arrive.
  constexpr uint64_t kRecords = 5'000;
  Environment env;
  auto sink = env.FromGenerator("seq",
                                [](uint64_t s) -> std::optional<Record> {
                                  if (s >= kRecords) return std::nullopt;
                                  return MakeRecord(
                                      static_cast<Timestamp>(s),
                                      Value(static_cast<int64_t>(s)));
                                })
                  .Rebalance(1)
                  .Collect();
  JobOptions options;
  options.channel_capacity = 2;
  options.batch_size = 3;
  ASSERT_TRUE(env.Execute(options).ok());
  ASSERT_EQ(sink->size(), kRecords);
  uint64_t sum = 0;
  for (const Record& r : sink->records()) {
    sum += static_cast<uint64_t>(r.field(0).AsInt64());
  }
  EXPECT_EQ(sum, kRecords * (kRecords - 1) / 2);
}

// A slow consumer must stall the producer once channel + buffers are full:
// the emitted-minus-consumed gap stays bounded by the configured capacity,
// records are never dropped and never buffered without bound.
TEST(DataPlaneTest, BackpressureBlocksProducerAtCapacity) {
  auto emitted = std::make_shared<std::atomic<uint64_t>>(0);
  auto consumed = std::make_shared<std::atomic<uint64_t>>(0);
  Environment env;
  env.FromGenerator("fast",
                    [emitted](uint64_t) -> std::optional<Record> {
                      emitted->fetch_add(1, std::memory_order_relaxed);
                      return MakeRecord(0, Value(int64_t{1}));
                    })
      .Rebalance(1)
      .Sink(std::make_shared<CallbackSink>([consumed](const Record&) {
        consumed->fetch_add(1, std::memory_order_relaxed);
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      }));
  JobOptions options;
  options.channel_capacity = 4;  // rounded-up ring of 4 events
  options.batch_size = 8;
  auto job = env.CreateJob(options);
  ASSERT_TRUE(job.ok());
  ASSERT_TRUE((*job)->Start().ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  const uint64_t e = emitted->load();
  const uint64_t c = consumed->load();
  // In-flight at most: the ring (4 events x 8 records), the producer's
  // partial output buffer, one batch being dispatched, plus the record in
  // the producer's hand. Use a generous constant bound -- the point is
  // "bounded", not an exact count.
  EXPECT_GT(e, c);  // producer ran ahead...
  EXPECT_LE(e - c, 4 * 8 + 8 + 8 + 2u) << "emitted=" << e << " consumed=" << c;
  (*job)->Cancel();
  ASSERT_TRUE((*job)->AwaitCompletion().ok());
  // Everything emitted before cancellation that entered the pipeline was
  // either consumed or dropped with the cancelled source -- but nothing
  // was consumed twice.
  EXPECT_LE(consumed->load(), emitted->load());
}

// A producer stalled on a full ring parks until its consumer has drained
// the ring, instead of respinning: the morsels a job runs stay in
// proportion to the records it moves, however long the consumer takes.
// (Here a producer that respins on the full ring runs about half a million
// morsels while the sink sleeps; a parked one, about a thousand.)
TEST(DataPlaneTest, StalledProducerParksInsteadOfSpinning) {
  constexpr uint64_t kRecords = 400;
  auto consumed = std::make_shared<std::atomic<uint64_t>>(0);
  Environment env;
  env.FromGenerator("fast",
                    [](uint64_t s) -> std::optional<Record> {
                      if (s >= kRecords) return std::nullopt;
                      return MakeRecord(static_cast<Timestamp>(s),
                                        Value(static_cast<int64_t>(s)));
                    })
      .Rebalance(1)
      .Sink(std::make_shared<CallbackSink>([consumed](const Record&) {
        consumed->fetch_add(1, std::memory_order_relaxed);
        std::this_thread::sleep_for(std::chrono::microseconds(250));
      }));
  JobOptions options;
  options.worker_threads = 2;
  options.channel_capacity = 2;
  options.batch_size = 1;
  auto job = env.CreateJob(options);
  ASSERT_TRUE(job.ok());
  ASSERT_TRUE((*job)->Run().ok());
  EXPECT_EQ(consumed->load(), kRecords);
  MetricsRegistry* metrics = (*job)->metrics();
  double morsels = 0;
  for (const char* kind : {"local", "stolen", "injected", "inline"}) {
    morsels += metrics->GetGauge(std::string("scheduler.morsels_") + kind)
                   ->value();
  }
  // Per record: one source morsel and one sink morsel, plus the wake-ups
  // of the 1 ms idle-source timer over the ~100 ms the sink sleeps.
  EXPECT_LE(morsels, 20.0 * kRecords) << "morsels=" << morsels;
}

// Only its consumer's pops wake a parked operator task: no timer re-polls
// it the way the job re-polls idle sources, so one lost wake-up hangs the
// job (and the test times out). One-event rings and one-record batches
// make every hand-off between the map tasks and the sink a park/wake race.
TEST(DataPlaneTest, ParkedOperatorProducerIsAlwaysWoken) {
  constexpr uint64_t kRecords = 200'000;
  for (size_t workers : {1, 2, 4}) {
    Environment env;
    auto sink = env.FromGenerator("seq",
                                  [](uint64_t s) -> std::optional<Record> {
                                    if (s >= kRecords) return std::nullopt;
                                    return MakeRecord(
                                        static_cast<Timestamp>(s),
                                        Value(static_cast<int64_t>(s)));
                                  })
                    .Rebalance(2)
                    .Map([](Record&& r) { return std::move(r); }, "relay")
                    .Rebalance(1)
                    .Collect();
    JobOptions options;
    options.worker_threads = workers;
    options.channel_capacity = 1;
    options.batch_size = 1;
    ASSERT_TRUE(env.Execute(options).ok()) << workers << " workers";
    EXPECT_EQ(sink->size(), kRecords) << workers << " workers";
  }
}

// Terminal operator that hands every record, with the key hash it arrived
// with, to the CollectSink of its own subtask.
class SubtaskProbe : public Operator {
 public:
  explicit SubtaskProbe(std::vector<std::shared_ptr<CollectSink>> sinks)
      : sinks_(std::move(sinks)) {}
  Status Open(const OperatorContext& ctx) override {
    sink_ = sinks_[ctx.subtask_index].get();
    return Status::Ok();
  }
  void ProcessRecord(int, Record&& record, Collector*) override {
    ASSERT_TRUE(sink_->Invoke(record).ok());
  }
  std::string Name() const override { return "probe"; }

 private:
  std::vector<std::shared_ptr<CollectSink>> sinks_;
  CollectSink* sink_ = nullptr;
};

// Pass-through whose only ProcessRecord makes the default ProcessBatch hand
// the router one record at a time (Collector::Emit); MapOperator hands it
// whole batches (Collector::EmitBatch).
class EmitEach : public Operator {
 public:
  void ProcessRecord(int, Record&& record, Collector* out) override {
    out->Emit(std::move(record));
  }
  std::string Name() const override { return "emit-each"; }
};

// The computed key of the lambda-hashed edge, and its hash-only selector.
Value LambdaKey(const Record& r) {
  return Value("k" + std::to_string(r.field(0).AsInt64() % 11));
}
uint64_t LambdaKeyHash(const Record& r) { return KeyHashOf(LambdaKey(r)); }

struct FanoutEdge {
  const char* name;
  PartitionScheme scheme;
  int parallelism;
  bool lambda_key;  // kHash only: computed key instead of field 0
};

// One upstream node with an out-edge of every partitioning scheme. Each
// downstream subtask's rows, and the key hash each row arrives with, must
// equal a plain oracle -- whether the upstream routes record by record or
// batch by batch, at any batch size and in either edge order (the last edge
// moves its records, earlier ones copy).
TEST(DataPlaneTest, MultiEdgeFanoutMatchesOracle) {
  constexpr int64_t kRecords = 1000;
  std::vector<Record> input;
  for (int64_t i = 0; i < kRecords; ++i) {
    input.push_back(MakeRecord(i, Value(i * 7 % 50), Value(i),
                               Value("payload-" + std::to_string(i))));
  }
  const std::vector<FanoutEdge> kEdges = {
      {"hash_field", PartitionScheme::kHash, 3, false},
      {"hash_lambda", PartitionScheme::kHash, 4, true},
      {"rebalance", PartitionScheme::kRebalance, 3, false},
      {"forward", PartitionScheme::kForward, 1, false},
      {"broadcast", PartitionScheme::kBroadcast, 2, false},
  };
  for (const bool batch_upstream : {false, true}) {
    for (const size_t batch_size : {size_t{1}, size_t{7}, size_t{256}}) {
      for (const bool reversed : {false, true}) {
        SCOPED_TRACE(std::string(batch_upstream ? "Map" : "Emit") +
                     " upstream, batch_size " + std::to_string(batch_size) +
                     (reversed ? ", edges reversed" : ""));
        LogicalGraph g;
        const int src = g.AddSource(
            "src", 1, [&input](int, int) -> std::unique_ptr<SourceFunction> {
              return std::make_unique<VectorSource>(input);
            });
        const int up = g.AddOperator(
            "up", 1, [batch_upstream]() -> std::unique_ptr<Operator> {
              if (!batch_upstream) return std::make_unique<EmitEach>();
              return std::make_unique<MapOperator>(
                  "up", [](Record&& r) { return std::move(r); });
            });
        ASSERT_TRUE(g.Connect(src, up, PartitionScheme::kForward).ok());
        std::vector<std::vector<std::shared_ptr<CollectSink>>> sinks;
        for (const FanoutEdge& edge : kEdges) {
          sinks.emplace_back();
          for (int t = 0; t < edge.parallelism; ++t) {
            sinks.back().push_back(std::make_shared<CollectSink>());
          }
        }
        std::vector<size_t> order = {0, 1, 2, 3, 4};
        if (reversed) std::reverse(order.begin(), order.end());
        for (const size_t k : order) {
          const FanoutEdge& edge = kEdges[k];
          const int node = g.AddOperator(
              edge.name, edge.parallelism, [s = sinks[k]]() {
                return std::make_unique<SubtaskProbe>(s);
              });
          Status st;
          if (edge.scheme != PartitionScheme::kHash) {
            st = g.Connect(up, node, edge.scheme);
          } else if (edge.lambda_key) {
            st = g.Connect(up, node, edge.scheme, LambdaKey, 0, -1,
                           LambdaKeyHash);
          } else {
            st = g.Connect(up, node, edge.scheme, KeyField(0), 0, 0);
          }
          ASSERT_TRUE(st.ok()) << st.ToString();
        }
        JobOptions options;
        options.batch_size = batch_size;
        options.worker_threads = 2;
        auto job = Job::Create(g, options);
        ASSERT_TRUE(job.ok()) << job.status().ToString();
        ASSERT_TRUE((*job)->Run().ok());
        EXPECT_EQ(
            (*job)->metrics()->GetCounter("task.src->up.records_out")->value(),
            static_cast<uint64_t>(kRecords));

        for (size_t k = 0; k < kEdges.size(); ++k) {
          const FanoutEdge& edge = kEdges[k];
          SCOPED_TRACE(edge.name);
          // Oracle: per target subtask, the input rows it receives (in
          // input order) and the key hash each carries.
          const size_t p = static_cast<size_t>(edge.parallelism);
          std::vector<std::vector<std::pair<int64_t, uint64_t>>> want(p);
          uint64_t rr = 0;
          for (const Record& r : input) {
            const int64_t seq = r.field(1).AsInt64();
            switch (edge.scheme) {
              case PartitionScheme::kHash: {
                const uint64_t h = edge.lambda_key ? LambdaKeyHash(r)
                                                   : KeyHashOf(r.field(0));
                want[h % p].emplace_back(seq, h);
                break;
              }
              case PartitionScheme::kRebalance:
                want[rr++ % p].emplace_back(seq, Record::kNoKeyHash);
                break;
              case PartitionScheme::kForward:
              case PartitionScheme::kBroadcast:
                for (auto& rows : want) {
                  rows.emplace_back(seq, Record::kNoKeyHash);
                }
                break;
            }
          }
          uint64_t received = 0;
          for (size_t t = 0; t < p; ++t) {
            std::vector<std::pair<int64_t, uint64_t>> got;
            for (const Record& r : sinks[k][t]->records()) {
              ASSERT_EQ(r.fields.size(), 3u);
              EXPECT_EQ(r.timestamp, r.field(1).AsInt64());
              EXPECT_EQ(r.field(2).AsString(),
                        "payload-" + std::to_string(r.field(1).AsInt64()));
              got.emplace_back(r.field(1).AsInt64(), r.key_hash);
            }
            EXPECT_EQ(got, want[t]) << "subtask " << t;
            received += got.size();
          }
          EXPECT_EQ((*job)
                        ->metrics()
                        ->GetCounter("task." + std::string(edge.name) +
                                     ".records_in")
                        ->value(),
                    received);
        }
      }
    }
  }
}

}  // namespace
}  // namespace streamline
