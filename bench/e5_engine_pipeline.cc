// E5 -- the unified pipelined engine: batch == streaming, parallel scaling.
//
// Operationalizes: "a single uniform programming model that can
// automatically be optimized, parallelized ..." on "a single pipelined
// execution engine" (STREAMLINE, Sec. 1). The same pipeline runs over data
// at rest (bounded vector source) and data in motion (bounded generator
// standing in for a stream), and keyed work scales with parallelism.

#include <algorithm>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "api/datastream.h"
#include "bench/harness.h"
#include "common/random.h"

namespace streamline {
namespace {

using bench::Fmt;
using bench::Table;

constexpr uint64_t kRecords = 2'000'000;

Record MakeEvent(uint64_t i) {
  return MakeRecord(static_cast<Timestamp>(i),
                    Value(static_cast<int64_t>(i % 1024)),
                    Value(static_cast<double>(i % 97)));
}

double RunChainedPipeline(bool batch, size_t batch_size = 256) {
  Environment env;
  DataStream source = [&] {
    if (batch) {
      std::vector<Record> records;
      records.reserve(kRecords);
      for (uint64_t i = 0; i < kRecords; ++i) records.push_back(MakeEvent(i));
      return env.FromRecords(std::move(records), "at-rest");
    }
    return env.FromGenerator(
        "in-motion",
        [](uint64_t seq) -> std::optional<Record> {
          if (seq >= kRecords) return std::nullopt;
          return MakeEvent(seq);
        });
  }();
  auto sink = std::make_shared<NullSink>();
  source
      .Map([](Record&& r) {
        r.fields[1] = Value(r.field(1).AsDouble() * 1.5 + 1.0);
        return std::move(r);
      })
      .Filter([](const Record& r) { return r.field(1).AsDouble() > 10.0; })
      .Sink(sink);
  // Time execution only: plan building and source materialization are
  // setup, not pipeline throughput.
  JobOptions options;
  options.batch_size = batch_size;
  auto job = env.CreateJob(options);
  STREAMLINE_CHECK(job.ok());
  Stopwatch sw;
  STREAMLINE_CHECK_OK((*job)->Run());
  return sw.ElapsedSeconds();
}

// `workers` sizes the scheduler's worker pool (0 = hardware concurrency);
// when `report` is set, the job's scheduler.* gauges are copied into it
// under `sched_prefix`.
double RunKeyedReduce(int parallelism, size_t workers = 0,
                      bench::JsonReport* report = nullptr,
                      const std::string& sched_prefix = "") {
  Environment env(parallelism);
  std::vector<Record> records;
  records.reserve(kRecords);
  for (uint64_t i = 0; i < kRecords; ++i) records.push_back(MakeEvent(i));
  auto sink = std::make_shared<NullSink>();
  env.FromRecords(std::move(records), "events")
      .KeyBy(0)
      .Reduce([](const Record& acc, const Record& in) {
        Record out = acc;
        out.fields[1] =
            Value(acc.field(1).AsDouble() + in.field(1).AsDouble());
        return out;
      })
      .Sink(sink);
  JobOptions options;
  options.worker_threads = workers;
  auto job = env.CreateJob(options);
  STREAMLINE_CHECK(job.ok());
  Stopwatch sw;
  STREAMLINE_CHECK_OK((*job)->Run());
  const double secs = sw.ElapsedSeconds();
  if (report != nullptr) {
    bench::AddSchedulerGauges(*report, sched_prefix, (*job)->metrics());
  }
  return secs;
}

// End-to-end record latency through a real channel: each record carries
// its emit time (steady-clock ns) in a field, the sink records the delta.
// Rebalance(1) forces the record across an SPSC channel, so the number
// includes output batching, ring transfer and the consumer poll loop.
std::pair<double, double> RunLatencyProbe() {
  constexpr uint64_t kProbeRecords = 200'000;
  auto hist = std::make_shared<Histogram>();
  Environment env;
  env.FromGenerator(
         "latency-probe",
         [](uint64_t seq) -> std::optional<Record> {
           if (seq >= kProbeRecords) return std::nullopt;
           const int64_t now_ns =
               std::chrono::duration_cast<std::chrono::nanoseconds>(
                   std::chrono::steady_clock::now().time_since_epoch())
                   .count();
           return MakeRecord(static_cast<Timestamp>(seq), Value(now_ns));
         })
      .Rebalance(1)
      .Sink(std::make_shared<CallbackSink>([hist](const Record& r) {
        const int64_t now_ns =
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now().time_since_epoch())
                .count();
        const double us =
            static_cast<double>(now_ns - r.field(0).AsInt64()) / 1e3;
        hist->Record(us);
      }));
  STREAMLINE_CHECK_OK(env.Execute());
  return {hist->Quantile(0.5), hist->Quantile(0.99)};
}

void Run() {
  bench::Header(
      "E5: unified engine -- batch vs streaming, parallel scaling",
      "One pipelined engine executes data at rest and data in motion; "
      "keyed pipelines parallelize across subtasks");

  bench::JsonReport report("BENCH_E5.json");
  report.AddString("bench", "e5_engine_pipeline");
  report.Add("records", static_cast<uint64_t>(kRecords));

  // The headline rows are best-of-3: single runs on a busy single-core
  // host swing by double-digit percents, and the best run is the closest
  // estimate of the engine's steady-state rate.
  const auto best_of = [](auto&& fn, int reps = 3) {
    double best = fn();
    for (int i = 1; i < reps; ++i) best = std::min(best, fn());
    return best;
  };

  {
    Table table({"mode", "pipeline", "records", "throughput"});
    const double batch_s = best_of([] { return RunChainedPipeline(true); });
    const double stream_s = best_of([] { return RunChainedPipeline(false); });
    table.AddRow({"data at rest", "map->filter (fused chain)",
                  bench::Count(kRecords),
                  bench::Rate(kRecords, batch_s)});
    table.AddRow({"data in motion", "map->filter (fused chain)",
                  bench::Count(kRecords),
                  bench::Rate(kRecords, stream_s)});
    table.Print();
    report.Add("at_rest_records_per_sec",
               static_cast<double>(kRecords) / batch_s);
    report.Add("in_motion_records_per_sec",
               static_cast<double>(kRecords) / stream_s);
  }

  {
    // batch_size sweep: 1 ships one-record batches (one virtual
    // ProcessBatch call and one vector hand-off per record per hop),
    // larger sizes amortize both over whole batches. In-motion batches are
    // additionally cut by the source's watermark cadence (every 64
    // records).
    Table table({"batch_size", "at rest", "in motion"});
    for (size_t bs : {1u, 16u, 64u, 256u, 1024u}) {
      const double rest_s = RunChainedPipeline(true, bs);
      const double motion_s = RunChainedPipeline(false, bs);
      table.AddRow({Fmt("%zu", bs), bench::Rate(kRecords, rest_s),
                    bench::Rate(kRecords, motion_s)});
      report.Add(Fmt("at_rest_bs%zu_records_per_sec", bs),
                 static_cast<double>(kRecords) / rest_s);
      report.Add(Fmt("in_motion_bs%zu_records_per_sec", bs),
                 static_cast<double>(kRecords) / motion_s);
    }
    table.Print();
  }

  {
    const auto [p50_us, p99_us] = RunLatencyProbe();
    Table table({"probe", "records", "p50 latency", "p99 latency"});
    table.AddRow({"source->channel->sink", bench::Count(200'000),
                  Fmt("%.1f us", p50_us), Fmt("%.1f us", p99_us)});
    table.Print();
    report.Add("latency_p50_us", p50_us);
    report.Add("latency_p99_us", p99_us);
  }

  {
    const unsigned cores = std::thread::hardware_concurrency();
    std::printf(
        "Host has %u hardware thread(s). Wall-clock speedup beyond that "
        "core count is physically impossible; on a single-core host this "
        "table measures the engine's parallel-coordination overhead "
        "instead (correctness at parallelism 8 is covered by the test "
        "suite).\n\n",
        cores);
    Table table({"parallelism", "pipeline", "records", "throughput",
                 "vs p=1"});
    double base = 0;
    for (int p : {1, 2, 4, 8}) {
      const double secs = RunKeyedReduce(p);
      if (p == 1) base = secs;
      report.Add(Fmt("keyed_p%d_records_per_sec", p),
                 static_cast<double>(kRecords) / secs);
      table.AddRow({Fmt("%d", p), "key_by->reduce", bench::Count(kRecords),
                    bench::Rate(kRecords, secs),
                    Fmt("%.2fx", base / secs)});
    }
    table.Print();
  }

  {
    // Worker sweep: the same keyed job at parallelism 8 -- eight logical
    // key-groups -- multiplexed over scheduler pools of different sizes.
    // On a single-core host wall-clock stays ~flat (the interesting datum
    // is the coordination overhead of extra workers); the scheduler
    // counters recorded per row show where morsels actually ran.
    const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
    std::vector<size_t> sweep = {1, 2, 4};
    if (std::find(sweep.begin(), sweep.end(), static_cast<size_t>(hw)) ==
        sweep.end()) {
      sweep.push_back(hw);
    }
    Table table({"workers", "pipeline", "throughput", "vs w=1"});
    double base = 0;
    for (size_t w : sweep) {
      const double secs =
          RunKeyedReduce(8, w, &report, Fmt("keyed_p8_w%zu_sched_", w));
      if (w == 1) base = secs;
      report.Add(Fmt("keyed_p8_w%zu_records_per_sec", w),
                 static_cast<double>(kRecords) / secs);
      table.AddRow({Fmt("%zu%s", w, w == hw ? " (hw)" : ""),
                    "key_by->reduce (p=8)", bench::Rate(kRecords, secs),
                    Fmt("%.2fx", base / secs)});
    }
    table.Print();
  }

  report.Write();
}

}  // namespace
}  // namespace streamline

int main() {
  streamline::Run();
  return 0;
}
