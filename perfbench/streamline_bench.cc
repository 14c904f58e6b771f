// streamline_bench -- the engine benchmark program.
//
// Runs one named workload in this process and prints one JSON object as the
// last line of stdout: end-to-end metrics (or, with --trace, per-layer
// metrics), results attempted/failed against an independent oracle, and
// any failures. perfbench/run.py builds this binary and drives it; see
// perfbench/README.md for the workloads and metric definitions.
//
//   streamline_bench --workload ysb-rest --seed 1 --seconds 20 [--trace]
//   streamline_bench --smoke            # all workloads, tiny, oracles on
//   streamline_bench --workload ysb-motion --ladder   # rate calibration
//
// Workloads at rest feed pre-generated in-memory inputs; workloads in
// motion are fed open loop over one loopback TCP connection by a generator
// thread that sends each frame when its last event is due, so latency is
// charged from the due time and a stall delays every later event.

#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "api/datastream.h"
#include "dataflow/event_log.h"
#include "net/event_loop.h"
#include "net/frame.h"
#include "net/socket.h"
#include "net/socket_source.h"
#include "net/subscription_server.h"
#include "probe.h"
#include "workload/adstream.h"
#include "workload/clickstream.h"

namespace streamline::perfbench {
namespace {

// ---------------------------------------------------------------------------
// Frozen workload parameters (see README.md, "Calibration").

/// Window-result latency limit: a 20 Hz dashboard refresh.
constexpr double kLatencyLimitMs = 50;
/// ysb-motion reference rate and ctr-ckpt rate, events/s: a quarter and a
/// half of the sustainable rates the ladder measured at the seed commit.
/// At half its sustainable rate ysb-motion keeps four threads busy, and
/// its latency rose by half when two other processes shared the 4 cores;
/// at a quarter it rose by under 15%.
constexpr double kYsbMotionRate = 700'000;
constexpr double kCtrRate = 700;
/// Motion workloads pin the pool so the generator and the net thread keep
/// cores of their own (2 workers + generator + net thread on 4 cores).
constexpr size_t kMotionWorkers = 2;
/// Keyed parallelism of every workload.
constexpr int kParallelism = 4;

constexpr int kYsbAds = 1000;
constexpr int kYsbCampaigns = 100;
constexpr uint64_t kCtrCampaigns = 100'000;
constexpr Duration kCtrSlideUs = 500'000;
constexpr Duration kCtrRangesUs[] = {1'000'000, 2'000'000, 4'000'000,
                                     8'000'000};
constexpr Duration kSessionGapMs = 30'000;

/// Events per wire frame and per source watermark in motion workloads: one
/// millisecond of event time at the nominal rate (at most 256), so neither
/// framing nor watermark cadence adds more than ~1 ms of latency.
size_t FrameEvents(double ts_rate) {
  return static_cast<size_t>(std::clamp(ts_rate / 1000, 1.0, 256.0));
}

/// Events per frame the generator sends at `rate` events/s (0: as fast as
/// the connection accepts them).
size_t SendFrameEvents(double rate) {
  return rate > 0 ? FrameEvents(rate) : 256;
}

struct Sizes {
  uint64_t ysb_rest_events;
  uint64_t sessions_events;
  uint64_t ysb_motion_burst;  // events per saturation job
  uint64_t ctr_burst;
};
constexpr Sizes kFullSizes{1'000'000, 300'000, 2'000'000, 10'000};
constexpr Sizes kSmokeSizes{40'000, 30'000, 40'000, 10'000};

// ---------------------------------------------------------------------------
// Command line and report.

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_out;
  std::string tmp_dir = ".";
  double deadline_s = 0;  // > 0 overrides every phase deadline
  bool smoke = false;
  bool ladder = false;
  double ladder_start = 250'000;
};

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

/// Everything one invocation reports. Guarded by a mutex because the
/// watchdog prints it from its own thread when a phase stalls.
class Report {
 public:
  void Set(const std::string& name, double v) {
    std::lock_guard<std::mutex> lock(mu_);
    metrics_[name] = v;
  }
  void Info(const std::string& name, double v) {
    std::lock_guard<std::mutex> lock(mu_);
    info_[name] = v;
  }
  void Attempt(uint64_t n) {
    std::lock_guard<std::mutex> lock(mu_);
    attempted_ += n;
  }
  void Fail(uint64_t n, const std::string& why) {
    std::lock_guard<std::mutex> lock(mu_);
    failed_ += n;
    failures_.push_back(why);
    std::fprintf(stderr, "FAIL: %s\n", why.c_str());
  }
  bool ok() const {
    std::lock_guard<std::mutex> lock(mu_);
    return failed_ == 0 && failures_.empty();
  }

  std::string Json(const std::string& workload, const Options& o) const {
    std::lock_guard<std::mutex> lock(mu_);
    std::ostringstream os;
    os << "{\"workload\":" << JsonString(workload) << ",\"seed\":" << o.seed
       << ",\"trace\":" << (o.trace ? "true" : "false")
       << ",\"compiler\":" << JsonString(STREAMLINE_BENCH_COMPILER)
       << ",\"build_type\":" << JsonString(STREAMLINE_BENCH_BUILD_TYPE)
       << ",\"ok\":" << (failed_ == 0 && failures_.empty() ? "true" : "false")
       << ",\"attempted\":" << attempted_ << ",\"failed\":" << failed_
       << ",\"failures\":[";
    for (size_t i = 0; i < failures_.size(); ++i) {
      os << (i ? "," : "") << JsonString(failures_[i]);
    }
    os << "],\"metrics\":" << Map(metrics_) << ",\"info\":" << Map(info_)
       << "}";
    return os.str();
  }

 private:
  static std::string Map(const std::map<std::string, double>& m) {
    std::string s = "{";
    for (const auto& [k, v] : m) {
      if (s.size() > 1) s += ",";
      s += JsonString(k) + ":" + JsonNumber(v);
    }
    return s + "}";
  }

  mutable std::mutex mu_;
  std::map<std::string, double> metrics_;
  std::map<std::string, double> info_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  std::vector<std::string> failures_;
};

/// The job the watchdog reports on when a phase stalls.
class CurrentJob {
 public:
  static std::mutex& mu() {
    static std::mutex m;
    return m;
  }
  static Job*& job() {
    static Job* j = nullptr;
    return j;
  }
  explicit CurrentJob(Job* job) {
    std::lock_guard<std::mutex> lock(mu());
    CurrentJob::job() = job;
  }
  ~CurrentJob() {
    std::lock_guard<std::mutex> lock(mu());
    CurrentJob::job() = nullptr;
  }
  CurrentJob(const CurrentJob&) = delete;
  CurrentJob& operator=(const CurrentJob&) = delete;

  /// The running job's scheduler gauges, read live from its pool.
  static std::string SchedulerGauges() {
    std::lock_guard<std::mutex> lock(mu());
    const Job* j = job();
    if (j == nullptr || j->scheduler() == nullptr) return "(no job running)";
    const WorkStealingPool* pool = j->scheduler();
    const SchedulerCounters& c = pool->counters();
    const auto rd = [](const std::atomic<uint64_t>& a) {
      return static_cast<unsigned long long>(a.load());
    };
    char buf[512];
    std::snprintf(buf, sizeof(buf),
                  "scheduler.workers=%zu morsels_local=%llu "
                  "morsels_stolen=%llu morsels_injected=%llu "
                  "morsels_inline=%llu steals=%llu parks=%llu wakeups=%llu "
                  "notifies=%llu ready_depth=%zu busy_micros=[",
                  pool->num_workers(), rd(c.morsels_local),
                  rd(c.morsels_stolen), rd(c.morsels_injected),
                  rd(c.morsels_inline), rd(c.steals), rd(c.parks),
                  rd(c.wakeups), rd(c.notifies), pool->ApproxReadyDepth());
    std::string s = buf;
    for (size_t i = 0; i < pool->num_workers(); ++i) {
      s += (i ? " " : "") + std::to_string(pool->WorkerBusyMicros(i));
    }
    return s + "]";
  }
};

double PeakRssMiB() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;
    }
  }
  return 0;
}

/// Restarts VmHWM from the current RSS, so the next PeakRssMiB() is the
/// peak of what ran in between. Where the kernel refuses, VmHWM stays the
/// peak since process start.
void ResetPeakRss() {
  std::ofstream("/proc/self/clear_refs") << "5";
}

/// Median HostProbeMs(1) over 40 invocations at the seed commit on the
/// reference host (4-vCPU KVM guest, Xeon).
constexpr double kReferenceProbeMs = 16.6;

/// Keeps ProbeWork()'s work from being optimized away.
std::atomic<uint64_t> g_probe_sink{0};

/// Wall time in ms of a fixed piece of benchmark-only work: page-faulting a
/// fresh 16 MiB table, 1M random read-modify-writes on it, and small
/// allocations. It exercises what the engine is most exposed to on a shared
/// host (cache, memory bandwidth, page faults, the allocator).
double ProbeWork() {
  const int64_t t0 = NowNs();
  std::vector<uint64_t> table(uint64_t{1} << 21);
  std::vector<std::unique_ptr<char[]>> live(256);
  uint64_t x = 0x9E3779B97F4A7C15ULL;
  for (int i = 0; i < 1'000'000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    table[x & (table.size() - 1)] += x;
    if ((i & 63) == 0) {
      auto& slot = live[(x >> 8) & 255];
      slot.reset(new char[64 + (x & 4095)]);
      slot[0] = static_cast<char>(x);
    }
  }
  uint64_t sum = table[x & (table.size() - 1)];
  for (const auto& p : live) {
    if (p != nullptr) sum += static_cast<unsigned char>(p[0]);
  }
  g_probe_sink.store(sum, std::memory_order_relaxed);
  return static_cast<double>(NowNs() - t0) / 1e6;
}

/// ProbeWork() on `threads` threads that start together, while no job runs;
/// the mean of their wall times. With as many threads as a job has workers
/// it also sees how many of the host's cores are free, which a multi-worker
/// job's speed depends on as much as on one core's speed.
double HostProbeMs(size_t threads) {
  std::vector<double> ms(threads);
  std::atomic<size_t> ready{0};
  const auto body = [&](size_t i) {
    ready.fetch_add(1);
    while (ready.load() < threads) std::this_thread::yield();
    ms[i] = ProbeWork();
  };
  std::vector<std::thread> others;
  for (size_t i = 1; i < threads; ++i) others.emplace_back(body, i);
  body(0);
  for (std::thread& t : others) t.join();
  double sum = 0;
  for (double m : ms) sum += m;
  return sum / static_cast<double>(threads);
}

/// "name value" lines of a job's metrics registry (counters and gauges).
std::map<std::string, double> ReadMetrics(Job* job) {
  std::map<std::string, double> out;
  std::istringstream in(job->metrics()->Report());
  std::string name;
  std::string value;
  while (in >> name && std::getline(in, value)) {
    char* end = nullptr;
    const double v = std::strtod(value.c_str(), &end);
    if (end != value.c_str()) out[name] = v;
  }
  return out;
}

uint64_t DirBytes(const std::string& dir) {
  std::error_code ec;
  uint64_t total = 0;
  for (auto it = std::filesystem::recursive_directory_iterator(dir, ec);
       !ec && it != std::filesystem::recursive_directory_iterator();
       it.increment(ec)) {
    if (it->is_regular_file(ec)) total += it->file_size(ec);
  }
  return total;
}

// ---------------------------------------------------------------------------
// Per-layer accounting over the traced jobs of a run.

struct LayerTotals {
  double events = 0;
  CounterRegistry::Totals cb;
  double busy_us = 0, worker_wall_us = 0, wall_s = 0;
  double morsels = 0, stolen = 0, inlined = 0, parks = 0, wakeups = 0;
  double bytes_out = 0;
  std::vector<double> results;
  double state_keys = 0, load_factor = 0, max_probe = 0;

  /// Adds one finished job: scheduler/task/state gauges from its registry
  /// and the callback counters accumulated while it ran.
  void AddJob(Job* job, double events_in, const CounterRegistry::Totals& d,
              double job_results) {
    const auto m = ReadMetrics(job);
    const auto get = [&m](const std::string& k) {
      const auto it = m.find(k);
      return it == m.end() ? 0.0 : it->second;
    };
    events += events_in;
    for (int l = 0; l < kNumLayers; ++l) cb.ns[l] += d.ns[l];
    cb.polls += d.polls;
    cb.useful_polls += d.useful_polls;
    cb.filter_calls += d.filter_calls;
    cb.filter_pass += d.filter_pass;
    const double workers = get("scheduler.workers");
    const double wall = get("scheduler.wall_micros");
    for (int i = 0; i < static_cast<int>(workers); ++i) {
      busy_us += get("scheduler.worker" + std::to_string(i) + ".busy_micros");
    }
    worker_wall_us += workers * wall;
    wall_s += wall / 1e6;
    const double local = get("scheduler.morsels_local");
    const double st = get("scheduler.morsels_stolen");
    const double inj = get("scheduler.morsels_injected");
    const double inl = get("scheduler.morsels_inline");
    morsels += local + st + inj + inl;
    stolen += st;
    inlined += inl;
    parks += get("scheduler.parks");
    wakeups += get("scheduler.wakeups");
    double keys = 0;
    for (const auto& [k, v] : m) {
      if (k.rfind("task.", 0) == 0 && k.size() > 10 &&
          k.compare(k.size() - 10, 10, ".bytes_out") == 0) {
        bytes_out += v;
      }
      if (k.rfind("op.window.", 0) == 0) {
        if (k.find(".state.keys") != std::string::npos) keys += v;
        if (k.find(".state.load_factor") != std::string::npos) {
          load_factor = std::max(load_factor, v);
        }
        if (k.find(".state.max_probe") != std::string::npos) {
          max_probe = std::max(max_probe, v);
        }
      }
    }
    state_keys = std::max(state_keys, keys);
    results.push_back(job_results);
  }

  void Write(Report* r) const {
    const double ev = std::max(events, 1.0);
    const double src = static_cast<double>(cb.ns[kSourceSelf]);
    const double user = static_cast<double>(cb.ns[kUser]);
    const double sink = static_cast<double>(cb.ns[kSink]);
    const double busy_ns = busy_us * 1e3;
    r->Set("source.ns_per_record", src / ev);
    r->Set("source.useful_poll_frac",
           cb.polls ? static_cast<double>(cb.useful_polls) / cb.polls : 0);
    r->Set("op.user_ns_per_record", user / ev);
    r->Set("op.filter_pass_frac",
           cb.filter_calls
               ? static_cast<double>(cb.filter_pass) / cb.filter_calls
               : 0);
    r->Set("sink.ns_per_record", sink / ev);
    r->Set("engine.busy_ns_per_record", busy_ns / ev);
    // Defined as the remainder, so source + user + sink + other is exactly
    // the workers' busy time.
    r->Set("engine.other_ns_per_record", (busy_ns - src - user - sink) / ev);
    r->Set("sched.busy_frac",
           worker_wall_us > 0 ? busy_us / worker_wall_us : 0);
    r->Set("sched.records_per_morsel", morsels > 0 ? events / morsels : 0);
    r->Set("sched.stolen_frac", morsels > 0 ? stolen / morsels : 0);
    r->Set("sched.inline_frac", morsels > 0 ? inlined / morsels : 0);
    r->Set("sched.parks_per_s", wall_s > 0 ? parks / wall_s : 0);
    r->Set("sched.wakeups_per_s", wall_s > 0 ? wakeups / wall_s : 0);
    r->Set("channel.shuffle_bytes_per_record", bytes_out / ev);
    r->Set("window.results", Median(results));
    r->Set("window.state.keys", state_keys);
    r->Set("window.state.load_factor", load_factor);
    r->Set("window.state.max_probe", max_probe);
  }
};

// ---------------------------------------------------------------------------
// Sinks.

/// Collects window results into per-thread digests and latency histograms;
/// `due` dates each result.
class ResultSink : public SinkFunction {
 public:
  using DueFn = std::function<Due(const WindowResult&)>;
  explicit ResultSink(DueFn due) : due_(std::move(due)) {}

  Status Invoke(const Record& record) override {
    CallbackTimer timer(kSink);
    const int64_t now = NowNs();
    const WindowResult r = ToWindowResult(record);
    shards_.Local()->Record(r, due_(r), now);
    return Status::Ok();
  }
  std::string Name() const override { return "bench-results"; }

  /// Merged state; call after the job finished.
  ResultShard Merged() {
    ResultShard all;
    shards_.ForEach([&all](ResultShard& s) { all.Merge(s); });
    return all;
  }

 private:
  DueFn due_;
  PerThread<ResultShard> shards_;
};

/// Publishes every result to an unkeyed SubscriptionServer topic.
class PublishSink : public SinkFunction {
 public:
  PublishSink(net::SubscriptionServer* server, std::string topic)
      : server_(server), topic_(std::move(topic)) {}
  Status Invoke(const Record& record) override {
    CallbackTimer timer(kSink);
    server_->Publish(topic_, record);
    return Status::Ok();
  }
  std::string Name() const override { return "bench-publish"; }

 private:
  net::SubscriptionServer* server_;
  std::string topic_;
};

// ---------------------------------------------------------------------------
// Input generators. Each is a deterministic function of the seed, so the
// oracle regenerates exactly what the engine saw.

/// YSB ad events [ad_id, event_type]; a third of them are views (type 0).
class YsbEvents {
 public:
  explicit YsbEvents(uint64_t seed) : rng_(seed * 0x9E3779B97F4A7C15ULL + 7) {}
  Record Next(Timestamp ts) {
    const auto ad = static_cast<int64_t>(rng_.NextBelow(kYsbAds));
    const auto type = static_cast<int64_t>(rng_.NextBelow(3));
    return MakeRecord(ts, Value(ad), Value(type));
  }

 private:
  Rng rng_;
};

/// The ad -> campaign dimension table the YSB job joins against.
std::shared_ptr<const std::vector<int64_t>> YsbTable(uint64_t seed) {
  Rng rng(seed ^ 0xC0FFEE);
  auto table = std::make_shared<std::vector<int64_t>>(kYsbAds);
  for (auto& c : *table) c = static_cast<int64_t>(rng.NextBelow(kYsbCampaigns));
  return table;
}

/// Dashboard events [campaign, is_click, cost] from the paper's ad stream.
class CtrEvents {
 public:
  explicit CtrEvents(uint64_t seed) : gen_(Opts(), seed * 31 + 5) {}
  Record Next(Timestamp ts) {
    AdEvent e = gen_.Next();
    e.ts = ts;
    return e.ToRecord();
  }
  static int64_t Cents(double cost) {
    return static_cast<int64_t>(std::llround(cost * 100));
  }

 private:
  static AdStreamGenerator::Options Opts() {
    AdStreamGenerator::Options o;
    o.num_campaigns = kCtrCampaigns;
    o.campaign_skew = 1.0;
    return o;
  }
  AdStreamGenerator gen_;
};

ClickstreamGenerator::Options SessionOptions() {
  ClickstreamGenerator::Options o;
  o.num_users = 100'000;
  o.user_skew = 0.8;
  o.sessions_per_second = 50;
  o.session_gap_ms = kSessionGapMs;
  return o;
}

/// Traffic skew across keyed subtasks under hash partitioning: the busiest
/// subtask's share over the mean share (1 = perfectly even).
double KeySkew(const std::unordered_map<int64_t, uint64_t>& per_key) {
  std::vector<double> load(kParallelism, 0);
  double total = 0;
  for (const auto& [key, n] : per_key) {
    load[KeyHashOf(Value(key)) % kParallelism] += static_cast<double>(n);
    total += static_cast<double>(n);
  }
  if (total == 0) return 0;
  return *std::max_element(load.begin(), load.end()) / (total / kParallelism);
}

// ---------------------------------------------------------------------------
// Oracles: plain C++ over the generated inputs, not through the engine.

struct Expected {
  Digest digest;
  double key_skew = 0;
};

/// Per-campaign view counts in tumbling windows of `window` time units.
Expected YsbOracle(uint64_t seed, uint64_t n,
                   const std::function<Timestamp(uint64_t)>& ts_of,
                   Duration window) {
  YsbEvents events(seed);
  const auto table = YsbTable(seed);
  std::map<std::pair<int64_t, int64_t>, int64_t> counts;
  std::unordered_map<int64_t, uint64_t> per_key;
  for (uint64_t i = 0; i < n; ++i) {
    const Timestamp ts = ts_of(i);
    const Record r = events.Next(ts);
    if (r.field(1).AsInt64() != 0) continue;
    const int64_t campaign = (*table)[r.field(0).AsInt64()];
    ++counts[{campaign, ts / window}];
    ++per_key[campaign];
  }
  Expected e;
  for (const auto& [kw, c] : counts) {
    e.digest.Add(
        {kw.first, kw.second * window, (kw.second + 1) * window, 0, c});
  }
  e.key_skew = KeySkew(per_key);
  return e;
}

/// Per-user session counts: a session ends where the gap to the user's next
/// event is at least the session gap.
Expected SessionsOracle(const std::vector<std::vector<Record>>& parts) {
  std::unordered_map<int64_t, std::vector<Timestamp>> by_user;
  for (const auto& part : parts) {
    for (const Record& r : part) {
      by_user[r.field(0).AsInt64()].push_back(r.timestamp);
    }
  }
  Expected e;
  std::unordered_map<int64_t, uint64_t> per_key;
  for (auto& [user, ts] : by_user) {
    std::sort(ts.begin(), ts.end());
    per_key[user] = ts.size();
    size_t first = 0;
    for (size_t i = 1; i <= ts.size(); ++i) {
      if (i == ts.size() || ts[i] - ts[i - 1] >= kSessionGapMs) {
        e.digest.Add({user, ts[first], ts[i - 1] + kSessionGapMs, 0,
                      static_cast<int64_t>(i - first)});
        first = i;
      }
    }
  }
  e.key_skew = KeySkew(per_key);
  return e;
}

/// Per-campaign cent sums in the K sliding windows: per-key slice sums
/// combined into every non-empty window.
Expected CtrOracle(uint64_t seed, uint64_t n,
                   const std::function<Timestamp(uint64_t)>& ts_of) {
  CtrEvents events(seed);
  std::vector<std::vector<std::pair<int64_t, int64_t>>> slices(kCtrCampaigns);
  std::unordered_map<int64_t, uint64_t> per_key;
  for (uint64_t i = 0; i < n; ++i) {
    const Timestamp ts = ts_of(i);
    const Record r = events.Next(ts);
    const int64_t key = r.field(0).AsInt64();
    const int64_t slice = ts / kCtrSlideUs;
    const int64_t cents = CtrEvents::Cents(r.field(2).AsDouble());
    auto& v = slices[key];
    if (v.empty() || v.back().first != slice) {
      v.push_back({slice, cents});
    } else {
      v.back().second += cents;
    }
    ++per_key[key];
  }
  Expected e;
  for (int64_t key = 0; key < static_cast<int64_t>(kCtrCampaigns); ++key) {
    const auto& v = slices[key];
    if (v.empty()) continue;
    for (int64_t q = 0; q < 4; ++q) {
      const int64_t k = kCtrRangesUs[q] / kCtrSlideUs;
      // Window ending at slice boundary `end` covers slices [end-k, end).
      size_t lo = 0;
      size_t hi = 0;
      int64_t sum = 0;
      int64_t end = v.front().first + 1;
      while (true) {
        while (hi < v.size() && v[hi].first < end) sum += v[hi++].second;
        while (lo < hi && v[lo].first < end - k) sum -= v[lo++].second;
        if (lo < hi) {
          e.digest.Add({key, (end - k) * kCtrSlideUs, end * kCtrSlideUs, q,
                        sum});
          ++end;
        } else if (hi < v.size()) {
          end = v[hi].first + 1;
        } else {
          break;
        }
      }
    }
  }
  e.key_skew = KeySkew(per_key);
  return e;
}

// ---------------------------------------------------------------------------
// Job plans.

std::unique_ptr<Job> MustCreate(Environment& env, const JobOptions& options,
                                Report* report) {
  auto job = env.CreateJob(options);
  if (!job.ok()) {
    report->Fail(1, "Job::Create failed: " + job.status().ToString());
    return nullptr;
  }
  return std::move(*job);
}

/// YSB: filter views -> join ad->campaign -> KeyBy -> tumbling count.
void PlanYsb(Environment* env, SourceFactory source, int source_parallelism,
             std::shared_ptr<const std::vector<int64_t>> table, Duration window,
             std::shared_ptr<SinkFunction> sink) {
  env->FromSource("ads", std::move(source), source_parallelism)
      .Filter(
          [](const Record& r) {
            CallbackTimer t(kUser);
            const bool pass = r.field(1).AsInt64() == 0;
            if (g_trace) {
              ThreadCounters* c = CounterRegistry::Get().Local();
              Bump(c->filter_calls, 1);
              Bump(c->filter_pass, pass ? 1 : 0);
            }
            return pass;
          },
          "views")
      .Map(
          [table](Record&& r) {
            CallbackTimer t(kUser);
            r.fields[1] = Value((*table)[r.field(0).AsInt64()]);
            return std::move(r);
          },
          "campaign")
      .KeyBy(1)
      .Window(std::make_shared<TumblingWindowFn>(window))
      .Aggregate(DynAggKind::kCount, 0, WindowBackend::kShared, "window")
      .Sink(std::move(sink), "sink");
}

/// Sessions: KeyBy user -> 30 s session-window count.
void PlanSessions(Environment* env, SourceFactory source,
                  std::shared_ptr<SinkFunction> sink) {
  env->FromSource("clicks", std::move(source), kParallelism)
      .KeyBy(0)
      .Window(std::make_shared<SessionWindowFn>(kSessionGapMs))
      .Aggregate(DynAggKind::kCount, 0, WindowBackend::kShared, "window")
      .Sink(std::move(sink), "sink");
}

/// CTR dashboard: cost -> integer cents, K shared sliding windows summing
/// cents per campaign.
void PlanCtr(Environment* env, SourceFactory source,
             std::shared_ptr<SinkFunction> sink) {
  std::vector<std::shared_ptr<const WindowFunction>> windows;
  for (Duration range : kCtrRangesUs) {
    windows.push_back(std::make_shared<SlidingWindowFn>(range, kCtrSlideUs));
  }
  env->FromSource("ads", std::move(source), 1)
      .Map(
          [](Record&& r) {
            CallbackTimer t(kUser);
            r.fields[1] = Value(CtrEvents::Cents(r.field(2).AsDouble()));
            return std::move(r);
          },
          "cents")
      .KeyBy(0)
      .Window(std::move(windows))
      .Aggregate(DynAggKind::kSum, 1, WindowBackend::kShared, "window")
      .Sink(std::move(sink), "sink");
}

// ---------------------------------------------------------------------------
// State shared by the phases of a run.

/// The host probe taken just before a job: the threads it ran on (as many
/// as the job's workers) and its index among the probes on that many
/// threads. `threads` == 0: the job had no probe.
struct ProbeRef {
  size_t threads = 0;
  size_t index = 0;
};

/// One job's measurement and the probe taken just before the job.
struct JobSample {
  ProbeRef probe;
  double value;
};

/// Each measurement interval of a latency job (a whole job at rest, 500 ms
/// of event time in motion) gives its result latency p50 and p99; a run
/// reports the lower quartile of each over its intervals. A host stall of
/// tens of milliseconds (the shared host's virtual CPUs are descheduled now
/// and then) sets the tail of any interval it hits, so the tail is read
/// from the quietest quarter of the intervals; a change that slows every
/// interval still shows.
constexpr double kLatencyQuantile = 0.25;
constexpr Duration kMotionIntervalUs = 500'000;
/// Intervals with fewer samples (the cut-off end of a stream) are skipped.
constexpr uint64_t kMinIntervalSamples = 100;

struct Context {
  Options opt;
  Sizes sizes{};
  Report* report = nullptr;
  Watchdog* watchdog = nullptr;
  uint64_t run_span = 0;
  std::vector<double> plan_ms;
  std::map<size_t, std::vector<double>> probe_ms;  // by probe threads
  LayerTotals layers;
  // End-to-end samples, one per job; FinishReport turns them into metrics.
  std::vector<JobSample> setup_s;
  std::vector<JobSample> eps;
  std::vector<JobSample> eps_w1;
  std::vector<JobSample> lat_p50;
  std::vector<JobSample> lat_p99;
  uint64_t lat_samples = 0;

  /// Times HostProbeMs(threads) before a job.
  ProbeRef ProbeHost(size_t threads) {
    std::vector<double>& v = probe_ms[threads];
    v.push_back(HostProbeMs(threads));
    return ProbeRef{threads, v.size() - 1};
  }

  /// How much slower than the reference host the host ran the job that
  /// followed probe `p`: the mean of `p` and the next probe on as many
  /// threads (the one before the next such job) over the reference time.
  double HostFactor(const ProbeRef& p) const {
    const std::vector<double>& v = probe_ms.at(p.threads);
    const double after = p.index + 1 < v.size() ? v[p.index + 1] : v[p.index];
    return (v[p.index] + after) / 2 / kReferenceProbeMs;
  }

  /// The q-quantile over jobs of `samples`, each scaled to the reference
  /// host: multiplied by its job's host factor raised to `power` (positive
  /// for rates, negative for times, 0 to take it as measured). Samples of
  /// jobs without a probe are taken as measured.
  double Scaled(const std::vector<JobSample>& samples, double q,
                double power) const {
    std::vector<double> v;
    for (const JobSample& s : samples) {
      v.push_back(s.probe.threads == 0
                      ? s.value
                      : s.value * std::pow(HostFactor(s.probe), power));
    }
    return Quantile(std::move(v), q);
  }

  /// Adds the quantiles of a latency job's intervals.
  void AddLatency(const ProbeRef& probe, const ResultShard& results) {
    for (const LatencyHistogram& h : results.latency) {
      if (h.count() < kMinIntervalSamples) continue;
      lat_p50.push_back({probe, h.QuantileMs(0.5)});
      lat_p99.push_back({probe, h.QuantileMs(0.99)});
      lat_samples += h.count();
    }
  }
};

/// Turns callback timing on for the jobs of one scope. Every job creates its
/// worker threads after this and joins them before it ends.
class TraceJob {
 public:
  explicit TraceJob(bool on) { g_trace = on; }
  ~TraceJob() { g_trace = false; }
  TraceJob(const TraceJob&) = delete;
  TraceJob& operator=(const TraceJob&) = delete;
};

/// Deadline of a phase whose seed-commit duration is `nominal_s`.
double Deadline(const Context& cx, double nominal_s) {
  return std::max(3 * nominal_s, cx.opt.smoke ? 20.0 : 5.0);
}

/// Checks one job's results against the oracle.
void Check(Context* cx, const std::string& what, const Digest& expected,
           const Digest& got) {
  cx->report->Attempt(expected.total());
  const uint64_t failed = Digest::Failures(expected, got);
  if (failed > 0) {
    cx->report->Fail(failed, what + ": " + std::to_string(failed) + " of " +
                                 std::to_string(expected.total()) +
                                 " window results missing or wrong (got " +
                                 std::to_string(got.total()) + ")");
  }
}

/// Runs a bounded job to completion under the watchdog; returns its wall
/// time in seconds, or a negative value when the job failed.
double RunToCompletion(Context* cx, Job* job, const std::string& phase,
                       double nominal_s, uint64_t parent_span) {
  ScopedSpan span("run " + phase, parent_span);
  Tracer::Get().current_step.store(span.id());
  CurrentJob current(job);
  Phase guard(cx->watchdog, phase, Deadline(*cx, nominal_s));
  const int64_t t0 = NowNs();
  const Status s = job->Run();
  const double secs = static_cast<double>(NowNs() - t0) / 1e9;
  if (!s.ok()) {
    cx->report->Fail(1, phase + ": job failed: " + s.ToString());
    return -1;
  }
  return secs;
}

// ---------------------------------------------------------------------------
// At-rest workloads: ysb-rest and sessions-rest.

/// One at-rest workload: its generated input, its plan over that input and
/// its oracle.
class RestWorkload {
 public:
  virtual ~RestWorkload() = default;
  virtual void Generate(uint64_t seed, uint64_t n) = 0;
  virtual uint64_t events() const = 0;
  virtual Expected Oracle(uint64_t seed) const = 0;
  /// Plans the next job with its source factory wrapped with `probes`.
  virtual void Plan(Environment* env, std::shared_ptr<SourceProbes> probes,
                    std::shared_ptr<SinkFunction> sink) = 0;
  /// Seed-commit events/s on one worker, for the phase deadlines.
  virtual double SeedEps() const = 0;
};

class YsbRest : public RestWorkload {
 public:
  void Generate(uint64_t seed, uint64_t n) override {
    n_ = n;
    table_ = YsbTable(seed);
    log_ = std::make_shared<EventLog>(kParallelism);
    YsbEvents events(seed);
    for (uint64_t i = 0; i < n; ++i) {
      log_->Append(static_cast<int>(i % kParallelism),
                   events.Next(TsOf(i)));
    }
    log_->Close();
  }
  uint64_t events() const override { return n_; }
  Expected Oracle(uint64_t seed) const override {
    return YsbOracle(seed, n_, TsOf, kWindowMs);
  }
  void Plan(Environment* env, std::shared_ptr<SourceProbes> probes,
            std::shared_ptr<SinkFunction> sink) override {
    PlanYsb(env, Probed(LogSource::Factory(log_, kWatermarkEvery), probes),
            kParallelism, table_, kWindowMs, std::move(sink));
  }
  double SeedEps() const override { return 1.0e6; }

 private:
  static constexpr Duration kWindowMs = 10'000;
  static constexpr uint64_t kWatermarkEvery = 256;
  static Timestamp TsOf(uint64_t i) { return static_cast<Timestamp>(i / 10); }
  uint64_t n_ = 0;
  std::shared_ptr<const std::vector<int64_t>> table_;
  std::shared_ptr<EventLog> log_;
};

class SessionsRest : public RestWorkload {
 public:
  void Generate(uint64_t seed, uint64_t n) override {
    seed_ = seed;
    ClickstreamGenerator gen(SessionOptions(), seed * 131 + 3);
    parts_ = std::make_shared<std::vector<std::vector<Record>>>(kParallelism);
    for (auto& p : *parts_) p.reserve(n / kParallelism + 1);
    for (uint64_t i = 0; i < n; ++i) {
      (*parts_)[i % kParallelism].push_back(gen.Next().ToRecord());
    }
    n_ = n;
  }
  uint64_t events() const override { return n_; }
  Expected Oracle(uint64_t) const override { return SessionsOracle(*parts_); }
  /// Every job shuffles the input differently: how fast a job runs depends
  /// on its arrival order, so a run averages over many orders rather than
  /// resting on one. Results do not depend on the order.
  void Plan(Environment* env, std::shared_ptr<SourceProbes> probes,
            std::shared_ptr<SinkFunction> sink) override {
    auto parts = parts_;
    const uint64_t seed = (seed_ * 7919 + jobs_++) * kParallelism;
    SourceFactory disordered =
        [parts, seed](int subtask, int) -> std::unique_ptr<SourceFunction> {
      const std::vector<Record>* part = &(*parts)[subtask];
      auto read = [parts, part](uint64_t seq) -> std::optional<Record> {
        CallbackTimer t(kUser);
        if (seq >= part->size()) return std::nullopt;
        return (*part)[seq];
      };
      return std::make_unique<DisorderedSource>(
          std::move(read), kDisorder, kWatermarkEvery,
          seed + static_cast<uint64_t>(subtask));
    };
    PlanSessions(env, Probed(std::move(disordered), probes), std::move(sink));
  }
  double SeedEps() const override { return 0.5e6; }

 private:
  static constexpr size_t kDisorder = 1024;
  static constexpr uint64_t kWatermarkEvery = 64;
  uint64_t seed_ = 0;
  uint64_t jobs_ = 0;
  uint64_t n_ = 0;
  std::shared_ptr<std::vector<std::vector<Record>>> parts_;
};

struct RestJobResult {
  ProbeRef probe;  // the host probe before the job
  double eps = -1;
  double peak_rss_mb = 0;  // when asked for: VmHWM while the job ran
  ResultShard results;
};

/// Probes the host on as many threads as the job has workers (0: the
/// default pool, one per hardware thread), then builds and runs one job
/// over the current input.
RestJobResult RunRestJob(Context* cx, RestWorkload* w,
                         const Expected& expected, size_t workers,
                         bool traced, const std::string& label,
                         bool measure_peak = false) {
  RestJobResult out;
  out.probe = cx->ProbeHost(
      workers > 0 ? workers
                  : std::max<size_t>(1, std::thread::hardware_concurrency()));
  if (measure_peak) ResetPeakRss();
  TraceJob trace_job(traced);
  ScopedSpan job_span("job " + label, cx->run_span);
  auto probes = std::make_shared<SourceProbes>(kParallelism);
  // At rest all of a job's input is there when it starts, so every result
  // is due at the start.
  auto start = std::make_shared<std::atomic<int64_t>>(0);
  auto sink = std::make_shared<ResultSink>(
      [start](const WindowResult&) { return Due{start->load(), 0}; });
  // Set-up: the environment, the plan and Job::Create.
  const int64_t t0 = NowNs();
  std::unique_ptr<Job> job;
  {
    ScopedSpan s("setup.plan", job_span.id());
    Phase guard(cx->watchdog, "setup " + label, Deadline(*cx, 0.5));
    Environment env(kParallelism);
    w->Plan(&env, probes, sink);
    JobOptions options;
    options.worker_threads = workers;
    job = MustCreate(env, options, cx->report);
  }
  const double setup_ns = static_cast<double>(NowNs() - t0);
  cx->setup_s.push_back({out.probe, setup_ns / 1e9});
  cx->plan_ms.push_back(setup_ns / 1e6);
  if (job == nullptr) return out;
  const auto cb0 = CounterRegistry::Get().Sum();
  const double nominal =
      static_cast<double>(w->events()) / (w->SeedEps() * 0.5);
  start->store(NowNs());
  const double secs =
      RunToCompletion(cx, job.get(), label, nominal, job_span.id());
  if (measure_peak) out.peak_rss_mb = PeakRssMiB();
  out.results = sink->Merged();
  Check(cx, label, expected.digest, out.results.digest);
  if (secs <= 0) return out;
  out.eps = static_cast<double>(w->events()) / secs;
  if (traced) {
    cx->layers.AddJob(job.get(), static_cast<double>(probes->records()),
                      CounterRegistry::Get().Sum().Minus(cb0),
                      static_cast<double>(out.results.digest.total()));
  }
  return out;
}

/// Rounds of jobs a run makes at least, whatever --seconds says.
constexpr int kMinRounds = 3;

/// Whether a run whose rounds started at `start_ns` has time for another
/// round as long as the last one (so a run ends within its --seconds).
bool TimeForRound(int round, int64_t start_ns,
                  int64_t last_round_ns, double budget_s) {
  if (round < kMinRounds) return true;
  return static_cast<double>(NowNs() - start_ns + last_round_ns) / 1e9 <=
         budget_s;
}

void RunRest(Context* cx, RestWorkload* w, uint64_t n) {
  Report* report = cx->report;
  {
    ScopedSpan span("generate", cx->run_span);
    Phase guard(cx->watchdog, "generate",
                Deadline(*cx, static_cast<double>(n) / 2e6));
    w->Generate(cx->opt.seed, n);
  }
  const Expected expected = w->Oracle(cx->opt.seed);
  report->Info("input_events", static_cast<double>(n));

  std::vector<double> eps_untraced;
  std::vector<double> eps_traced;
  const int64_t start = NowNs();
  int64_t last_round_ns = 0;
  // Round 0 warms up (first touch of the input, allocator arenas) and is
  // not counted.
  for (int round = 0;
       TimeForRound(round, start, last_round_ns, cx->opt.seconds);
       ++round) {
    const int64_t round_start = NowNs();
    const std::string r = std::to_string(round);
    if (cx->opt.trace) {
      // Untraced and traced jobs alternate: the difference is the
      // tracing overhead, the traced ones give the per-layer numbers.
      const RestJobResult plain =
          RunRestJob(cx, w, expected, 0, false, "untraced#" + r);
      const RestJobResult traced =
          RunRestJob(cx, w, expected, 0, true, "traced#" + r);
      if (round > 0 && plain.eps > 0) eps_untraced.push_back(plain.eps);
      if (round > 0 && traced.eps > 0) eps_traced.push_back(traced.eps);
    } else {
      // Peak memory of the first job: every later job starts fresh worker
      // threads whose allocator arenas only add noise.
      const RestJobResult full = RunRestJob(cx, w, expected, 0, false,
                                            "default#" + r, round == 0);
      if (round == 0) report->Set("peak_rss_mb", full.peak_rss_mb);
      const RestJobResult one =
          RunRestJob(cx, w, expected, 1, false, "w1#" + r);
      if (round > 0) {
        if (full.eps > 0) {
          cx->eps.push_back({full.probe, full.eps});
          cx->AddLatency(full.probe, full.results);
        }
        if (one.eps > 0) cx->eps_w1.push_back({one.probe, one.eps});
      }
    }
    last_round_ns = NowNs() - round_start;
  }
  if (cx->opt.trace) {
    report->Set("channel.key_skew", expected.key_skew);
    report->Set("trace.overhead_frac",
                eps_untraced.empty() || eps_traced.empty()
                    ? 0
                    : 1 - Median(eps_traced) / Median(eps_untraced));
  }
}

// ---------------------------------------------------------------------------
// Workloads in motion: ysb-motion and ctr-ckpt.

/// Result subscriber of ysb-motion: one connection to the subscription
/// server; checks and dates every result it receives.
class Subscriber {
 public:
  using DueFn = ResultSink::DueFn;

  static std::unique_ptr<Subscriber> Connect(uint16_t port,
                                             const std::string& topic,
                                             DueFn due, Report* report) {
    auto fd = net::TcpConnect(port);
    if (!fd.ok()) {
      report->Fail(1, "subscriber connect: " + fd.status().ToString());
      return nullptr;
    }
    const std::string sub = net::EncodeSubscribe(topic);
    if (!net::SendAll(fd->get(), sub.data(), sub.size()).ok()) {
      report->Fail(1, "subscriber subscribe failed");
      return nullptr;
    }
    return std::unique_ptr<Subscriber>(
        new Subscriber(std::move(*fd), std::move(due)));
  }

  ~Subscriber() { Stop(); }
  Subscriber(const Subscriber&) = delete;
  Subscriber& operator=(const Subscriber&) = delete;

  bool hello_seen() const { return hello_.load(); }
  uint64_t received() const { return received_.load(); }
  bool closed() const { return closed_.load(); }

  /// Ends the connection and joins the reader; returns what it collected.
  ResultShard Stop() {
    if (thread_.joinable()) {
      ::shutdown(fd_.get(), SHUT_RDWR);
      thread_.join();
    }
    return std::move(shard_);
  }

 private:
  Subscriber(net::Fd fd, DueFn due)
      : fd_(std::move(fd)), due_(std::move(due)),
        thread_([this] { Loop(); }) {}

  void Loop() {
    net::FrameDecoder decoder;
    std::vector<char> buf(1 << 16);
    std::vector<Record> records;
    for (;;) {
      auto n = net::RecvSome(fd_.get(), buf.data(), buf.size());
      if (!n.ok() || *n == 0) break;
      decoder.Append(buf.data(), *n);
      std::string_view payload;
      for (;;) {
        auto next = decoder.Next(&payload);
        if (!next.ok()) {
          closed_.store(true);
          return;
        }
        if (!*next) break;
        if (payload.empty() ||
            static_cast<uint8_t>(payload[0]) != net::kMsgData) {
          continue;
        }
        records.clear();
        if (!net::DecodeDataBatch(payload, &records).ok()) {
          closed_.store(true);
          return;
        }
        for (const Record& r : records) Handle(r);
      }
    }
    closed_.store(true);
  }

  void Handle(const Record& record) {
    const int64_t now = NowNs();
    if (record.num_fields() != 5) {  // handshake marker
      hello_.store(true);
      return;
    }
    const WindowResult r = ToWindowResult(record);
    shard_.Record(r, due_(r), now);
    received_.fetch_add(1);
  }

  net::Fd fd_;
  DueFn due_;
  ResultShard shard_;
  std::atomic<bool> hello_{false};
  std::atomic<bool> closed_{false};
  std::atomic<uint64_t> received_{0};
  std::thread thread_;
};

/// What the generator thread observed.
struct GenStats {
  LatencyHistogram lag;
  double last_lag_ms = 0;
  int64_t blocked_ns = 0;
  int64_t wall_ns = 0;
  Status status;
};

/// The wire frame of events [first, first + count) of a stream: event i
/// carries timestamp round(i * 1e6 / ts_rate), i.e. its due time in
/// microseconds at the nominal rate. `events` must be at event `first`.
template <typename Events>
std::string EncodeFrame(Events* events, uint64_t first, uint64_t count,
                        double ts_rate) {
  std::vector<Record> frame;
  frame.reserve(count);
  for (uint64_t i = first; i < first + count; ++i) {
    frame.push_back(events->Next(static_cast<Timestamp>(
        std::llround(static_cast<double>(i) * 1e6 / ts_rate))));
  }
  return net::EncodeDataBatch(frame.data(), frame.size());
}

/// Every frame of events [0, n), `per_frame` events each.
template <typename Events>
std::vector<std::string> EncodeStream(Events events, uint64_t n,
                                      uint64_t per_frame, double ts_rate) {
  std::vector<std::string> frames;
  for (uint64_t first = 0; first < n; first += per_frame) {
    frames.push_back(EncodeFrame(&events, first,
                                 std::min(n - first, per_frame), ts_rate));
  }
  return frames;
}

/// Sends the frames of events [0, n), `per_frame` events each, over `fd`.
/// With `rate` > 0 each frame is sent when its last event is due (origin +
/// i/rate s), except that frames of events before `prefill` go out at
/// once; with `rate` == 0 every frame goes out as fast as the connection
/// accepts it. `frame(first, count)` yields a frame's bytes; it is called
/// for the next frame right after a frame is sent, so a frame encoded on
/// the fly is encoded while the generator waits for its due time.
template <typename FrameFn>
void Generate(net::Fd fd, uint64_t n, uint64_t per_frame, double rate,
              uint64_t prefill, int64_t origin_ns, FrameFn frame,
              GenStats* out) {
  const int64_t start = NowNs();
  std::string_view bytes = frame(0, std::min(n, per_frame));
  for (uint64_t first = 0; first < n; first += per_frame) {
    const uint64_t last = std::min(n, first + per_frame) - 1;
    if (rate > 0 && last >= prefill) {
      const int64_t due =
          origin_ns + static_cast<int64_t>(static_cast<double>(last) * 1e9 /
                                           rate);
      std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
          std::chrono::nanoseconds(due)));
      const int64_t lag = NowNs() - due;
      out->lag.Record(lag);
      out->last_lag_ms = static_cast<double>(lag) / 1e6;
    }
    const int64_t t = NowNs();
    const Status s = net::SendAll(fd.get(), bytes.data(), bytes.size());
    out->blocked_ns += NowNs() - t;
    if (!s.ok()) {
      out->status = s;
      break;
    }
    if (last + 1 < n) {
      bytes = frame(last + 1, std::min(n - last - 1, per_frame));
    }
  }
  out->wall_ns = NowNs() - start;
  // Closing the connection ends the bounded ingest, and with it the job.
}

struct CheckpointStats {
  std::vector<double> ms;
  std::vector<double> bytes;
  uint64_t timeouts = 0;
  uint64_t disk_bytes = 0;
};

/// Every 500 ms, from `first_ns` on, calls TriggerCheckpoint then
/// AwaitCheckpoint until `done`; a checkpoint not complete within 10 s is a
/// timeout. The caller puts `first_ns` midway between two slide boundaries
/// of the stream, so every run sees checkpoints at the same phase of the
/// window fires. A checkpoint that overruns skips the slots it missed.
void CheckpointLoop(Job* job, IncrementalSnapshotStore* store,
                    const std::atomic<bool>* done, int64_t first_ns,
                    uint64_t parent_span, CheckpointStats* out,
                    Report* report) {
  constexpr int64_t kIntervalNs = 500'000'000;
  constexpr double kTimeoutS = 10;
  int64_t next = first_ns;
  if (next < NowNs()) {
    next += (NowNs() - next + kIntervalNs - 1) / kIntervalNs * kIntervalNs;
  }
  while (!done->load()) {
    while (!done->load() && NowNs() < next) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    if (done->load()) break;
    next += kIntervalNs;
    if (next < NowNs()) {
      next += (NowNs() - next) / kIntervalNs * kIntervalNs + kIntervalNs;
    }
    ScopedSpan span("checkpoint", parent_span);
    const int64_t t0 = NowNs();
    const uint64_t id = job->TriggerCheckpoint();
    bool complete = false;
    while (!done->load() &&
           static_cast<double>(NowNs() - t0) / 1e9 < kTimeoutS) {
      if (job->AwaitCheckpoint(id, 0.02)) {
        complete = true;
        break;
      }
    }
    if (complete) {
      out->ms.push_back(static_cast<double>(NowNs() - t0) / 1e6);
      out->bytes.push_back(static_cast<double>(store->BytesWrittenFor(id)));
    } else if (!done->load()) {
      ++out->timeouts;
      report->Fail(1, "checkpoint " + std::to_string(id) + " timed out");
    }
  }
  out->disk_bytes = std::max<uint64_t>(out->disk_bytes,
                                        DirBytes(store->root_dir()));
}

enum class MotionKind { kYsb, kCtr };

/// One phase of a motion workload: a fresh net edge and job, fed `n`
/// events at `rate` (0 = as fast as the connection accepts them).
struct MotionPhase {
  std::string label;
  size_t workers = kMotionWorkers;
  uint64_t n = 0;
  double rate = 0;
  double ts_rate = 0;      // events/s of event time (the nominal rate)
  Duration warmup_us = 0;  // windows ending earlier carry no latency sample
  /// Events before this event time are sent at once, and the schedule
  /// starts at it: the state of that much stream without its wall time.
  Duration prefill_us = 0;
  bool traced = false;       // time the benchmark callbacks
  bool layers = false;       // add the job to the per-layer totals
  bool checkpoints = false;  // ctr-ckpt: checkpoint every 500 ms
  bool measure_peak = false;  // VmHWM of set-up and run
  /// The stream, encoded before the job (throughput jobs, so encoding is
  /// not timed); otherwise frames are encoded as they fall due.
  const std::vector<std::string>* frames = nullptr;
  ProbeRef probe;  // the host probe taken just before the job, if any
};

struct MotionOutcome {
  double eps = -1;
  double peak_rss_mb = 0;
  ResultShard results;
  GenStats gen;
  CheckpointStats ckpt;
  net::SocketIngest::Stats ingest;
  net::SubscriptionServer::Stats egress;
};

MotionOutcome RunMotionPhase(Context* cx, MotionKind kind,
                             const MotionPhase& ph, const Expected& expected,
                             const std::string& store_dir) {
  Report* report = cx->report;
  MotionOutcome out;
  if (ph.measure_peak) ResetPeakRss();
  TraceJob trace_job(ph.traced);
  ScopedSpan job_span("job " + ph.label, cx->run_span);
  const Timestamp last_ts = static_cast<Timestamp>(
      std::llround(static_cast<double>(ph.n - 1) * 1e6 / ph.ts_rate));
  // Due time of a window result: origin + window end; windows ending in
  // the warm-up or after the last event (flushed at end of stream) are
  // not dated.
  auto origin = std::make_shared<std::atomic<int64_t>>(0);
  auto due = [origin, warm = ph.warmup_us, last_ts,
              dated = ph.rate > 0](const WindowResult& r) -> Due {
    if (!dated || r.end < warm || r.end > last_ts) return Due{};
    return Due{origin->load() + r.end * 1000,
               static_cast<size_t>((r.end - warm) / kMotionIntervalUs)};
  };

  // --- set-up: net edge, plan, job, connections.
  const int64_t setup0 = NowNs();
  std::unique_ptr<Phase> guard = std::make_unique<Phase>(
      cx->watchdog, "setup " + ph.label, Deadline(*cx, 0.5));
  auto loop = std::make_unique<net::EventLoop>();
  net::IngestOptions io;
  auto ingest_or = net::SocketIngest::Create(loop.get(), io);
  if (!ingest_or.ok()) {
    report->Fail(1, "ingest: " + ingest_or.status().ToString());
    return out;
  }
  std::shared_ptr<net::SocketIngest> ingest = std::move(*ingest_or);
  std::unique_ptr<net::SubscriptionServer> server;
  if (kind == MotionKind::kYsb) {
    auto s = net::SubscriptionServer::Create(loop.get(), {});
    if (!s.ok() || !(*s)->RegisterTopic("results", -1).ok()) {
      report->Fail(1, "subscription server set-up failed");
      return out;
    }
    server = std::move(*s);
  }
  if (!loop->Start().ok()) {
    report->Fail(1, "event loop failed to start");
    return out;
  }
  auto probes = std::make_shared<SourceProbes>(1);
  // One watermark per frame the generator sends.
  const size_t frame_events = SendFrameEvents(ph.rate);
  SourceFactory source = Probed(
      [ingest, frame_events](int, int) -> std::unique_ptr<SourceFunction> {
        return std::make_unique<net::SocketSource>(ingest, frame_events);
      },
      probes);
  std::shared_ptr<ResultSink> result_sink;
  std::shared_ptr<IncrementalSnapshotStore> store;
  std::unique_ptr<Job> job;
  {
    ScopedSpan s("setup.plan", job_span.id());
    const int64_t p0 = NowNs();
    Environment env(kParallelism);
    JobOptions options;
    options.worker_threads = ph.workers;
    if (kind == MotionKind::kYsb) {
      PlanYsb(&env, source, 1, YsbTable(cx->opt.seed), 100'000,
              std::make_shared<PublishSink>(server.get(), "results"));
    } else {
      result_sink = std::make_shared<ResultSink>(due);
      PlanCtr(&env, source, result_sink);
      if (ph.checkpoints) {
        std::filesystem::remove_all(store_dir);
        store = std::make_shared<IncrementalSnapshotStore>(store_dir);
        options.snapshot_store = store;
        options.incremental_checkpoints = true;
      }
    }
    job = MustCreate(env, options, report);
    cx->plan_ms.push_back(static_cast<double>(NowNs() - p0) / 1e6);
  }
  std::unique_ptr<Subscriber> subscriber;
  if (job != nullptr && kind == MotionKind::kYsb) {
    ScopedSpan s("setup.subscribe", job_span.id());
    subscriber = Subscriber::Connect(server->port(), "results", due, report);
    // Handshake: publish markers until the subscription is live, so no
    // result can be published before the subscriber listens. The poll is
    // short so that it does not quantize setup_s.
    while (subscriber != nullptr && !subscriber->hello_seen() &&
           !subscriber->closed()) {
      server->Publish("results", MakeRecord(0, Value(int64_t{-1})));
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
  }
  auto gen_fd = net::TcpConnect(ingest->port());
  if (!gen_fd.ok()) report->Fail(1, "generator connect failed");
  guard.reset();
  cx->setup_s.push_back(
      {ph.probe, static_cast<double>(NowNs() - setup0) / 1e9});

  if (job != nullptr && gen_fd.ok() &&
      (kind != MotionKind::kYsb || subscriber != nullptr)) {
    // --- run: the job, the open-loop generator and (ctr-ckpt) the
    // checkpoint loop.
    const auto cb0 = CounterRegistry::Get().Sum();
    std::atomic<bool> done{false};
    if (!job->Start().ok()) report->Fail(1, ph.label + ": job start failed");
    // The first scheduled frame is due in 2 ms.
    origin->store(NowNs() + 2'000'000 - ph.prefill_us * 1000);
    const auto prefill = static_cast<uint64_t>(std::ceil(
        static_cast<double>(ph.prefill_us) * ph.ts_rate / 1e6));
    const int64_t t0 = NowNs();
    std::thread gen([&] {
      const uint64_t per_frame = SendFrameEvents(ph.rate);
      const auto send = [&](auto frame) {
        Generate(std::move(*gen_fd), ph.n, per_frame, ph.rate, prefill,
                 origin->load(), frame, &out.gen);
      };
      const auto live = [&](auto events) {
        std::string bytes;
        send([&](uint64_t first, uint64_t count) -> std::string_view {
          bytes = EncodeFrame(&events, first, count, ph.ts_rate);
          return bytes;
        });
      };
      if (ph.frames != nullptr) {
        send([&](uint64_t first, uint64_t) -> std::string_view {
          return (*ph.frames)[first / per_frame];
        });
      } else if (kind == MotionKind::kYsb) {
        live(YsbEvents(cx->opt.seed));
      } else {
        live(CtrEvents(cx->opt.seed));
      }
    });
    std::thread ckpt;
    if (store != nullptr) {
      ckpt = std::thread([&] {
        CheckpointLoop(job.get(), store.get(), &done,
                       origin->load() + kCtrSlideUs * 1000 / 2, job_span.id(),
                       &out.ckpt, report);
      });
    }
    const double nominal =
        ph.rate > 0 ? static_cast<double>(ph.n) / ph.rate + 1
                    : static_cast<double>(ph.n) / 2e5 + 1;
    Status status;
    {
      ScopedSpan span("run " + ph.label, job_span.id());
      Tracer::Get().current_step.store(span.id());
      CurrentJob current(job.get());
      Phase run_guard(cx->watchdog, ph.label, Deadline(*cx, nominal));
      status = job->AwaitCompletion();
      gen.join();
    }
    const double secs = static_cast<double>(NowNs() - t0) / 1e9;
    done.store(true);
    if (ckpt.joinable()) ckpt.join();
    if (ph.measure_peak) out.peak_rss_mb = PeakRssMiB();
    if (!status.ok()) {
      report->Fail(1, ph.label + ": job failed: " + status.ToString());
    }
    if (!out.gen.status.ok()) {
      report->Fail(1, ph.label + ": generator: " + out.gen.status.ToString());
    }
    if (subscriber != nullptr) {
      // Results are in flight on the egress until the subscriber has them.
      Phase drain(cx->watchdog, "drain " + ph.label, Deadline(*cx, 1));
      const int64_t d0 = NowNs();
      while (subscriber->received() < expected.digest.total() &&
             !subscriber->closed() && NowNs() - d0 < 5'000'000'000) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      if (subscriber->closed()) {
        report->Fail(1, ph.label + ": subscriber disconnected");
      }
      out.results = subscriber->Stop();
      out.egress = server->stats();
    } else {
      out.results = result_sink->Merged();
    }
    out.ingest = ingest->stats();
    Check(cx, ph.label, expected.digest, out.results.digest);
    if (status.ok() && secs > 0) out.eps = static_cast<double>(ph.n) / secs;
    if (ph.layers) {
      cx->layers.AddJob(job.get(), static_cast<double>(probes->records()),
                        CounterRegistry::Get().Sum().Minus(cb0),
                        static_cast<double>(out.results.digest.total()));
    }
  }
  subscriber.reset();
  job.reset();
  loop->Stop();
  server.reset();
  ingest.reset();
  if (store != nullptr) {
    store.reset();
    std::filesystem::remove_all(store_dir);
  }
  return out;
}

/// Timing of a motion workload. Latency is dated only after `warmup_us` of
/// event time: for ctr-ckpt that is the largest window plus one slide, the
/// point where state and checkpoint size stop growing. A frozen-rate job
/// sends the events before `prefill_us` at once (ctr-ckpt: its windows fill
/// without spending their 8 s of wall time), then `measure_s` of dated
/// stream follows the warm-up. Each round of a run has one frozen-rate job
/// and `burst_pairs` pairs of throughput jobs, which sets how the run's
/// time is shared between latency and throughput.
struct MotionShape {
  Duration warmup_us;
  Duration prefill_us;
  double measure_s;
  int burst_pairs;
  double ladder_measure_s;  // measured part of one ladder step
};

MotionShape ShapeOf(MotionKind kind) {
  return kind == MotionKind::kYsb
             ? MotionShape{500'000, 0, 1.5, 1, 2}
             : MotionShape{kCtrRangesUs[3] + kCtrSlideUs,
                           kCtrRangesUs[3] - kCtrSlideUs, 3, 8, 4};
}

Expected MotionOracle(MotionKind kind, uint64_t seed, uint64_t n,
                      double ts_rate) {
  const auto ts_of = [ts_rate](uint64_t i) {
    return static_cast<Timestamp>(
        std::llround(static_cast<double>(i) * 1e6 / ts_rate));
  };
  return kind == MotionKind::kYsb ? YsbOracle(seed, n, ts_of, 100'000)
                                  : CtrOracle(seed, n, ts_of);
}

void RunMotion(Context* cx, MotionKind kind) {
  Report* report = cx->report;
  const double rate = kind == MotionKind::kYsb ? kYsbMotionRate : kCtrRate;
  const std::string store_dir =
      cx->opt.tmp_dir + "/ckpt-" + std::to_string(::getpid());
  const uint64_t burst = kind == MotionKind::kYsb ? cx->sizes.ysb_motion_burst
                                                  : cx->sizes.ctr_burst;
  const MotionShape shape = ShapeOf(kind);
  report->Info("rate_eps", rate);

  if (cx->opt.ladder) {
    // Calibration: from --ladder-start events/s, x1.25 per step, each step
    // a fresh job (so the backlog of a failing step never leaks into the
    // next) of warm-up plus measured time; after the first failing step
    // three bisection probes.
    const auto passes = [&](double r, int step) {
      MotionPhase ph;
      ph.label = "ladder step " + std::to_string(step);
      ph.n = static_cast<uint64_t>(
          r * (static_cast<double>(shape.warmup_us) / 1e6 +
               shape.ladder_measure_s));
      ph.rate = r;
      ph.ts_rate = r;
      ph.warmup_us = shape.warmup_us;
      ph.checkpoints = kind == MotionKind::kCtr;
      const Expected e = MotionOracle(kind, cx->opt.seed, ph.n, r);
      const MotionOutcome o = RunMotionPhase(cx, kind, ph, e, store_dir);
      const double p99 = o.results.AllLatency().QuantileMs(0.99);
      const bool ok = p99 <= kLatencyLimitMs && o.gen.last_lag_ms <= 5;
      std::fprintf(stderr, "ladder %.0f ev/s: p99 %.2f ms, lag %.2f ms: %s\n",
                   r, p99, o.gen.last_lag_ms, ok ? "pass" : "fail");
      return ok;
    };
    double good = 0;
    double bad = 0;
    int step = 0;
    for (double r = cx->opt.ladder_start; r < 2e7; r *= 1.25) {
      if (!passes(r, step++)) {
        bad = r;
        break;
      }
      good = r;
    }
    for (int i = 0; i < 3 && bad > 0; ++i) {
      const double mid = std::sqrt(std::max(good, 1.0) * bad);
      (passes(mid, step++) ? good : bad) = mid;
    }
    report->Set("sustained_eps", good);
    return;
  }

  // Each round runs one open-loop job at the frozen rate (latency), then
  // sends a pre-encoded stream as fast as the connection accepts it
  // (bounded by TCP backpressure) to 2 workers and to 1 worker
  // (throughput); traced, to an untraced and a traced job instead. Latency
  // jobs spread over the whole run, so a stretch of time in which the host
  // is disturbed, or one job that falls into a slow state, does not decide
  // the run's numbers. Every job is preceded by a host probe, as at rest.
  MotionPhase fixed;
  fixed.rate = rate;
  fixed.ts_rate = rate;
  fixed.warmup_us = cx->opt.smoke ? 0 : shape.warmup_us;
  fixed.prefill_us = cx->opt.smoke ? 0 : shape.prefill_us;
  const double fixed_s =
      cx->opt.smoke ? 1.2
                    : static_cast<double>(shape.warmup_us) / 1e6 +
                          shape.measure_s;
  fixed.n = static_cast<uint64_t>(rate * fixed_s);
  fixed.traced = cx->opt.trace;
  fixed.layers = cx->opt.trace;
  fixed.checkpoints = kind == MotionKind::kCtr;
  const Expected fixed_expected =
      MotionOracle(kind, cx->opt.seed, fixed.n, rate);
  const Expected burst_expected =
      MotionOracle(kind, cx->opt.seed, burst, rate);
  std::vector<std::string> burst_frames;
  std::vector<MotionOutcome> fixed_runs;
  std::vector<double> eps_untraced;
  std::vector<double> eps_traced;
  const int64_t start = NowNs();
  int64_t last_round_ns = 0;
  for (int round = 0;
       TimeForRound(round, start, last_round_ns, cx->opt.seconds); ++round) {
    const int64_t round_start = NowNs();
    const std::string r = std::to_string(round);
    fixed.label = "fixed-rate#" + r;
    // Peak memory of the first job, the frozen-rate one (checkpointed in
    // ctr-ckpt); later jobs start fresh threads whose allocator arenas
    // only add noise.
    fixed.measure_peak = round == 0;
    fixed.probe = cx->ProbeHost(fixed.workers);
    fixed_runs.push_back(
        RunMotionPhase(cx, kind, fixed, fixed_expected, store_dir));
    cx->AddLatency(fixed.probe, fixed_runs.back().results);
    if (round == 0) {
      report->Set("peak_rss_mb", fixed_runs[0].peak_rss_mb);
      // Encoded after that job, so they are not in its peak memory.
      burst_frames = kind == MotionKind::kYsb
                         ? EncodeStream(YsbEvents(cx->opt.seed), burst,
                                        SendFrameEvents(0), rate)
                         : EncodeStream(CtrEvents(cx->opt.seed), burst,
                                        SendFrameEvents(0), rate);
    }
    for (int pair = 0; pair < (cx->opt.smoke ? 1 : shape.burst_pairs);
         ++pair) {
      MotionPhase a;
      a.n = burst;
      a.ts_rate = rate;
      a.frames = &burst_frames;
      MotionPhase b = a;
      const std::string id = r + "." + std::to_string(pair);
      if (cx->opt.trace) {
        a.label = "untraced#" + id;
        b.label = "traced#" + id;
        b.traced = true;
      } else {
        a.label = "burst w2#" + id;
        b.label = "burst w1#" + id;
        b.workers = 1;
      }
      a.probe = cx->ProbeHost(a.workers);
      const MotionOutcome oa =
          RunMotionPhase(cx, kind, a, burst_expected, store_dir);
      b.probe = cx->ProbeHost(b.workers);
      const MotionOutcome ob =
          RunMotionPhase(cx, kind, b, burst_expected, store_dir);
      if (cx->opt.trace) {
        if (oa.eps > 0) eps_untraced.push_back(oa.eps);
        if (ob.eps > 0) eps_traced.push_back(ob.eps);
      } else {
        if (oa.eps > 0) cx->eps.push_back({a.probe, oa.eps});
        if (ob.eps > 0) cx->eps_w1.push_back({b.probe, ob.eps});
      }
    }
    last_round_ns = NowNs() - round_start;
  }

  std::vector<double> ckpt_ms;
  std::vector<double> ckpt_bytes;
  std::vector<double> ckpt_count;
  for (const MotionOutcome& o : fixed_runs) {
    ckpt_ms.insert(ckpt_ms.end(), o.ckpt.ms.begin(), o.ckpt.ms.end());
    ckpt_bytes.insert(ckpt_bytes.end(), o.ckpt.bytes.begin(),
                      o.ckpt.bytes.end());
    ckpt_count.push_back(static_cast<double>(o.ckpt.ms.size()));
  }
  report->Info("burst_events", static_cast<double>(burst));
  report->Info("fixed_events", static_cast<double>(fixed.n));
  report->Info("ckpt_p50_ms", Median(ckpt_ms));
  if (!cx->opt.trace) return;
  // Sums over the frozen-rate jobs; counts are reported per job.
  LatencyHistogram lag;
  double blocked_ns = 0, gen_ns = 0, records = 0, bytes = 0, pauses = 0;
  double egress = 0, max_queued = 0, disconnects = 0, timeouts = 0;
  double disk = 0;
  for (const MotionOutcome& o : fixed_runs) {
    lag.Merge(o.gen.lag);
    blocked_ns += static_cast<double>(o.gen.blocked_ns);
    gen_ns += static_cast<double>(o.gen.wall_ns);
    records += static_cast<double>(o.ingest.records);
    bytes += static_cast<double>(o.ingest.bytes);
    pauses += static_cast<double>(o.ingest.pauses);
    egress += static_cast<double>(o.egress.bytes_sent);
    max_queued = std::max(max_queued,
                          static_cast<double>(o.egress.max_queued_bytes));
    disconnects += static_cast<double>(o.egress.slow_disconnects +
                                       o.egress.dropped_connections);
    timeouts += static_cast<double>(o.ckpt.timeouts);
    disk = std::max(disk, static_cast<double>(o.ckpt.disk_bytes));
  }
  const double jobs = std::max<double>(fixed_runs.size(), 1);
  report->Set("gen.lag_p99_ms", lag.QuantileMs(0.99));
  report->Set("gen.send_blocked_frac", gen_ns > 0 ? blocked_ns / gen_ns : 0);
  report->Set("net.ingest.records", records / jobs);
  report->Set("net.ingest.bytes_per_record",
              records > 0 ? bytes / records : 0);
  report->Set("net.ingest.pauses", pauses / jobs);
  report->Set("net.egress.bytes", egress / jobs);
  report->Set("net.egress.max_queued_bytes", max_queued);
  report->Set("net.egress.disconnects", disconnects);
  report->Set("ckpt.count", Median(ckpt_count));
  report->Set("ckpt.p50_ms", Median(ckpt_ms));
  report->Set("ckpt.bytes_p50", Median(ckpt_bytes));
  report->Set("ckpt.disk_bytes", disk);
  report->Set("ckpt.timeouts", timeouts);
  report->Set("channel.key_skew", fixed_expected.key_skew);
  report->Set("trace.overhead_frac",
              eps_untraced.empty() || eps_traced.empty()
                  ? 0
                  : 1 - Median(eps_traced) / Median(eps_untraced));
}

// ---------------------------------------------------------------------------

const char* const kWorkloads[] = {"ysb-rest", "ysb-motion", "ctr-ckpt",
                                  "sessions-rest"};

void RunWorkload(Context* cx, const std::string& name) {
  ScopedSpan run_span("workload " + name, 0);
  cx->run_span = run_span.id();
  if (name == "ysb-rest") {
    YsbRest w;
    RunRest(cx, &w, cx->sizes.ysb_rest_events);
  } else if (name == "sessions-rest") {
    SessionsRest w;
    RunRest(cx, &w, cx->sizes.sessions_events);
  } else if (name == "ysb-motion") {
    RunMotion(cx, MotionKind::kYsb);
  } else {
    RunMotion(cx, MotionKind::kCtr);
  }
}

/// How closely a workload's metrics follow the host's speed: each job's
/// sample is scaled by its host factor raised to this power. 1 for work the
/// workers do on their own processors; 1/2 for work that also waits on
/// other threads, a contended lock or the kernel's network stack; 0 for
/// latency that is set by the arrival schedule. Chosen by mechanism and
/// checked against three calibration suites at the seed commit (README,
/// "Host-speed scaling"); a change to what bounds a workload calls for a
/// new check.
struct HostSensitivity {
  double setup_s;  // thread, socket and plan set-up
  double eps;      // default pool at rest; 2 workers in motion
  double eps_w1;
  double latency;
};

HostSensitivity SensitivityOf(const std::string& workload) {
  // ysb-rest's default pool is bound by four sources contending for the
  // event log's lock; its single worker is not.
  if (workload == "ysb-rest") return {0.5, 0.5, 1, 0.5};
  // One socket source and the net thread bound both throughputs; small
  // fires leave latency to framing and wake-ups.
  if (workload == "ysb-motion") return {0.5, 0.5, 0.5, 0};
  // Throughput is window work in the workers; a result at the frozen rate
  // waits for its fire and for the wake-ups around it.
  if (workload == "ctr-ckpt") return {0.5, 1, 1, 0.5};
  return {0.5, 1, 1, 1};  // sessions-rest: window and reorder-heap work
}

/// Turns the run's per-job samples into the end-to-end metrics (or, traced,
/// writes the per-layer metrics).
void FinishReport(Context* cx, const std::string& workload) {
  Report* r = cx->report;
  if (cx->opt.trace) {
    cx->layers.Write(r);
    r->Set("api.plan_ms", Median(cx->plan_ms));
    return;
  }
  // Jobs go at the speed of the shared host, so their samples are scaled
  // to the reference host (HostProbeMs) as far as the workload follows it.
  for (auto& [threads, v] : cx->probe_ms) {
    v.push_back(HostProbeMs(threads));  // closes the last job's pair
    const std::string name = threads == 1 ? "host_factor" : "host_factor_pool";
    r->Info(name, Median(v) / kReferenceProbeMs);
  }
  const HostSensitivity k = SensitivityOf(workload);
  const struct {
    const char* name;
    const std::vector<JobSample>* samples;
    double q;
    double power;
  } metrics[] = {
      {"setup_s", &cx->setup_s, 0.5, -k.setup_s},
      {"throughput_eps", &cx->eps, 0.5, k.eps},
      {"throughput_w1_eps", &cx->eps_w1, 0.5, k.eps_w1},
      {"lat_p50_ms", &cx->lat_p50, kLatencyQuantile, -k.latency},
      {"lat_p99_ms", &cx->lat_p99, kLatencyQuantile, -k.latency},
  };
  for (const auto& m : metrics) {
    r->Set(m.name, cx->Scaled(*m.samples, m.q, m.power));
    if (!cx->probe_ms.empty()) {
      r->Info(std::string("raw.") + m.name, cx->Scaled(*m.samples, m.q, 0));
    }
  }
  r->Info("setup_samples", static_cast<double>(cx->setup_s.size()));
  r->Info("jobs_per_variant", static_cast<double>(cx->eps.size()));
  r->Info("lat_intervals", static_cast<double>(cx->lat_p50.size()));
  r->Info("lat_samples", static_cast<double>(cx->lat_samples));
}

bool ParseArgs(int argc, char** argv, Options* o) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : "";
    };
    if (a == "--workload") {
      o->workload = value();
    } else if (a == "--seed") {
      o->seed = std::strtoull(value(), nullptr, 10);
    } else if (a == "--seconds") {
      o->seconds = std::atof(value());
    } else if (a == "--trace") {
      o->trace = true;
    } else if (a == "--trace-out") {
      o->trace_out = value();
    } else if (a == "--tmp-dir") {
      o->tmp_dir = value();
    } else if (a == "--deadline-s") {
      o->deadline_s = std::atof(value());
    } else if (a == "--smoke") {
      o->smoke = true;
    } else if (a == "--ladder") {
      o->ladder = true;
    } else if (a == "--ladder-start") {
      o->ladder_start = std::atof(value());
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", a.c_str());
      return false;
    }
  }
  return true;
}

int Main(int argc, char** argv) {
  Options opt;
  if (!ParseArgs(argc, argv, &opt)) return 2;
  std::vector<std::string> workloads;
  if (opt.smoke) {
    workloads.assign(std::begin(kWorkloads), std::end(kWorkloads));
    opt.seconds = 0;
  } else if (std::find(std::begin(kWorkloads), std::end(kWorkloads),
                       opt.workload) != std::end(kWorkloads)) {
    workloads.push_back(opt.workload);
  } else {
    std::fprintf(stderr,
                 "usage: streamline_bench --workload "
                 "{ysb-rest|ysb-motion|ctr-ckpt|sessions-rest} --seed N "
                 "--seconds S [--trace] [--trace-out PATH] [--tmp-dir DIR] "
                 "[--deadline-s S] [--ladder [--ladder-start "
                 "EPS]]\n"
                 "       streamline_bench --smoke\n");
    return 2;
  }
  if (opt.trace) {
    Tracer::Get().Enable(opt.workload + "-seed" + std::to_string(opt.seed));
  }
  // Layers a workload does not exercise (the net edge at rest, checkpoints
  // outside ctr-ckpt) report 0.
  static const char* const kNetAndCheckpointLayers[] = {
      "gen.lag_p99_ms",   "gen.send_blocked_frac",
      "net.ingest.records", "net.ingest.bytes_per_record",
      "net.ingest.pauses", "net.egress.bytes",
      "net.egress.max_queued_bytes", "net.egress.disconnects",
      "ckpt.count",       "ckpt.p50_ms",
      "ckpt.bytes_p50",   "ckpt.disk_bytes",
      "ckpt.timeouts"};

  int exit_code = 0;
  for (const std::string& name : workloads) {
    Report report;
    Watchdog watchdog(opt.deadline_s, [&](const std::string& msg) {
      std::fprintf(stderr, "%s\n%s\n", msg.c_str(),
                   CurrentJob::SchedulerGauges().c_str());
      report.Fail(1, msg);
      std::printf("%s\n", report.Json(name, opt).c_str());
    });
    if (opt.trace) {
      for (const char* m : kNetAndCheckpointLayers) report.Set(m, 0);
    }
    Context cx;
    cx.opt = opt;
    cx.sizes = opt.smoke ? kSmokeSizes : kFullSizes;
    cx.report = &report;
    cx.watchdog = &watchdog;
    const int64_t t0 = NowNs();
    RunWorkload(&cx, name);
    FinishReport(&cx, name);
    report.Info("wall_s", static_cast<double>(NowNs() - t0) / 1e9);
    report.Info("nproc", std::thread::hardware_concurrency());
    if (!opt.trace_out.empty() &&
        !Tracer::Get().WriteChromeJson(opt.trace_out)) {
      report.Fail(1, "could not write " + opt.trace_out);
    }
    std::printf("%s\n", report.Json(name, opt).c_str());
    std::fflush(stdout);
    if (!report.ok()) exit_code = 1;
  }
  return exit_code;
}

}  // namespace
}  // namespace streamline::perfbench

int main(int argc, char** argv) {
  return streamline::perfbench::Main(argc, argv);
}
