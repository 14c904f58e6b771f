// E10 -- end-to-end "Yahoo Streaming Benchmark"-style job, plus the
// network-buffer ablation.
//
// The canonical engine-level streaming benchmark shape: read ad events
// from a partitioned log, filter to views, enrich ad -> campaign against a
// static table, and count per campaign in tumbling event-time windows.
// Exercises every engine layer at once (log source with per-partition
// offsets/watermarks, chained filter/map, hash shuffle, windowed state).
// The second table ablates the channel batch size -- the design choice
// that amortizes mailbox synchronization ("network buffers").

#include <algorithm>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "api/datastream.h"
#include "bench/harness.h"
#include "common/random.h"
#include "dataflow/event_log.h"

namespace streamline {
namespace {

using bench::Fmt;
using bench::Table;

constexpr uint64_t kEvents = 2'000'000;
constexpr int kAds = 1000;
constexpr int kCampaigns = 100;

std::shared_ptr<EventLog> BuildLog(int partitions) {
  auto log = std::make_shared<EventLog>(partitions);
  Rng rng(71);
  for (uint64_t i = 0; i < kEvents; ++i) {
    // [ad_id, event_type] -- ~1/3 of events are views.
    Record r = MakeRecord(
        static_cast<Timestamp>(i / 10),  // 10 events per ms
        Value(static_cast<int64_t>(rng.NextBelow(kAds))),
        Value(static_cast<int64_t>(rng.NextBelow(3))));
    log->Append(static_cast<int>(i % partitions), std::move(r));
  }
  log->Close();
  return log;
}

// `workers` sizes the scheduler's worker pool (0 = hardware concurrency);
// when `report` is set, the job's scheduler.* gauges are copied into it
// under `sched_prefix`.
double RunYsb(const std::shared_ptr<EventLog>& log, size_t batch_size,
              size_t workers = 0, bench::JsonReport* report = nullptr,
              const std::string& sched_prefix = "") {
  // Static ad -> campaign dimension table (the YSB "join").
  auto table = std::make_shared<std::unordered_map<int64_t, int64_t>>();
  for (int ad = 0; ad < kAds; ++ad) {
    (*table)[ad] = ad % kCampaigns;
  }
  Environment env(2);
  auto sink = std::make_shared<NullSink>();
  env.FromSource("ad-log", LogSource::Factory(log, /*watermark_every=*/256),
                 2)
      .Filter([](const Record& r) { return r.field(1).AsInt64() == 0; },
              "views-only")
      .Map(
          [table](Record&& r) {
            r.fields[1] = Value((*table)[r.field(0).AsInt64()]);
            return std::move(r);
          },
          "join-campaign")
      .KeyBy(1)
      .Window(std::make_shared<TumblingWindowFn>(10'000))
      .Aggregate(DynAggKind::kCount, 0)
      .Sink(sink);
  JobOptions opts;
  opts.batch_size = batch_size;
  opts.worker_threads = workers;
  auto job = env.CreateJob(opts);
  STREAMLINE_CHECK(job.ok());
  Stopwatch sw;
  STREAMLINE_CHECK_OK((*job)->Run());
  const double secs = sw.ElapsedSeconds();
  if (report != nullptr) {
    bench::AddSchedulerGauges(*report, sched_prefix, (*job)->metrics());
  }
  return secs;
}

void Run() {
  bench::Header(
      "E10: YSB-style end-to-end job (log -> filter -> join -> window)",
      "The full engine stack sustains millions of events/s on the "
      "canonical ad-analytics pipeline; channel batching is what pays for "
      "the shuffle");

  bench::JsonReport report("BENCH_E10.json");
  report.AddString("bench", "e10_ysb_pipeline");
  report.Add("events", static_cast<uint64_t>(kEvents));

  auto log = BuildLog(4);
  {
    Table table({"pipeline", "events", "throughput"});
    const double secs = RunYsb(log, 256);
    table.AddRow({"filter->join->window (p=2)", bench::Count(kEvents),
                  bench::Rate(static_cast<double>(kEvents), secs)});
    table.Print();
    report.Add("ysb_p2_events_per_sec", static_cast<double>(kEvents) / secs);
  }
  {
    // Batch size 1 ships one-record batches: every channel push and every
    // chain hop pays for a single record.
    std::printf("Ablation: channel batch size (network buffers)\n\n");
    Table table({"batch size", "throughput", "vs batch=256"});
    double base = 0;
    for (size_t batch : {256, 16, 1}) {
      const double secs = RunYsb(log, batch);
      if (batch == 256) base = secs;
      table.AddRow({Fmt("%zu", batch),
                    bench::Rate(static_cast<double>(kEvents), secs),
                    Fmt("%.2fx", base / secs)});
      report.Add(Fmt("batch_%zu_events_per_sec", batch),
                 static_cast<double>(kEvents) / secs);
    }
    table.Print();
  }
  {
    // Worker sweep: the full YSB job (4 log partitions, p=2 subtasks per
    // operator) over scheduler pools of {1,2,4,hw} workers. Scheduler
    // counters land in the JSON report per row.
    std::printf("Worker sweep (scheduler pool size)\n\n");
    const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
    std::vector<size_t> sweep = {1, 2, 4};
    if (std::find(sweep.begin(), sweep.end(), static_cast<size_t>(hw)) ==
        sweep.end()) {
      sweep.push_back(hw);
    }
    Table table({"workers", "throughput", "vs w=1"});
    double base = 0;
    for (size_t w : sweep) {
      const double secs =
          RunYsb(log, 256, w, &report, Fmt("ysb_w%zu_sched_", w));
      if (w == 1) base = secs;
      report.Add(Fmt("ysb_w%zu_events_per_sec", w),
                 static_cast<double>(kEvents) / secs);
      table.AddRow({Fmt("%zu%s", w, w == hw ? " (hw)" : ""),
                    bench::Rate(static_cast<double>(kEvents), secs),
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
