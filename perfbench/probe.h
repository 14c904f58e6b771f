#ifndef STREAMLINE_PERFBENCH_PROBE_H_
#define STREAMLINE_PERFBENCH_PROBE_H_

// Measurement plumbing of the engine benchmark. Everything here observes the
// engine from outside: it wraps the benchmark's own callbacks (sources, user
// lambdas, sinks) and reads the engine's public counters. Nothing under
// src/ is instrumented.

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/record.h"
#include "common/time.h"
#include "dataflow/source.h"

namespace streamline::perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// The q-quantile of `v`, interpolated between the closest ranks; 0 when
/// `v` is empty.
inline double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

inline double Median(std::vector<double> v) {
  return Quantile(std::move(v), 0.5);
}

/// Log-linear histogram of non-negative nanosecond values: exact below 128,
/// then 64 buckets per power of two (~1.6% resolution). Single writer;
/// merge shards after their writers finished.
class LatencyHistogram {
 public:
  LatencyHistogram() : buckets_(kNumBuckets, 0) {}

  void Record(int64_t ns) {
    ++buckets_[BucketOf(ns < 0 ? 0 : static_cast<uint64_t>(ns))];
    ++count_;
  }
  void Merge(const LatencyHistogram& o) {
    for (size_t i = 0; i < buckets_.size(); ++i) buckets_[i] += o.buckets_[i];
    count_ += o.count_;
  }
  uint64_t count() const { return count_; }

  /// Nearest-rank quantile in milliseconds (bucket midpoint).
  double QuantileMs(double q) const {
    if (count_ == 0) return 0;
    const uint64_t rank = std::clamp<uint64_t>(
        static_cast<uint64_t>(std::ceil(q * static_cast<double>(count_))), 1,
        count_);
    uint64_t seen = 0;
    for (size_t i = 0; i < buckets_.size(); ++i) {
      seen += buckets_[i];
      if (seen >= rank) {
        const auto [lo, width] = BucketRange(i);
        return (static_cast<double>(lo) + static_cast<double>(width) / 2) /
               1e6;
      }
    }
    return 0;
  }

 private:
  static constexpr int kSubBits = 6;
  static constexpr size_t kLinear = size_t{2} << kSubBits;  // 128
  static constexpr size_t kNumBuckets = kLinear + (63 - kSubBits) * 64;

  static size_t BucketOf(uint64_t v) {
    if (v < kLinear) return static_cast<size_t>(v);
    const int msb = 63 - std::countl_zero(v);
    const int shift = msb - kSubBits;
    return kLinear + static_cast<size_t>(msb - kSubBits - 1) * 64 +
           static_cast<size_t>((v >> shift) - 64);
  }
  static std::pair<uint64_t, uint64_t> BucketRange(size_t i) {
    if (i < kLinear) return {i, 1};
    const size_t k = i - kLinear;
    const int shift = static_cast<int>(k / 64) + 1;
    return {(64 + k % 64) << shift, uint64_t{1} << shift};
  }

  std::vector<uint64_t> buckets_;
  uint64_t count_ = 0;
};

// ---------------------------------------------------------------------------
// Per-layer accounting for callbacks the engine makes into benchmark code.

/// True while the current job is traced. Written only between jobs (before
/// any thread that reads it is started), so plain reads are race-free.
inline bool g_trace = false;

enum Layer : int { kSourceSelf = 0, kUser = 1, kSink = 2, kNumLayers = 3 };

/// One thread's counters. Single writer (the owning thread) using relaxed
/// load+store, so a reader on another thread sees a consistent monotone
/// value without paying for atomic read-modify-writes on the hot path.
struct ThreadCounters {
  std::atomic<uint64_t> ns[kNumLayers] = {};
  std::atomic<uint64_t> polls{0};
  std::atomic<uint64_t> useful_polls{0};
  std::atomic<uint64_t> filter_calls{0};
  std::atomic<uint64_t> filter_pass{0};
  // Time of the outermost timed region (Emit into the engine, or a
  // callback) on this thread; a source Poll subtracts its delta to get the
  // source's self time. Owner-thread only.
  uint64_t excluded_ns = 0;
  int depth = 0;
};

inline void Bump(std::atomic<uint64_t>& a, uint64_t d) {
  a.store(a.load(std::memory_order_relaxed) + d, std::memory_order_relaxed);
}

/// Registry of every thread's counters. Entries are never freed, so a
/// finished worker's totals stay readable after its job ended.
class CounterRegistry {
 public:
  static CounterRegistry& Get() {
    static CounterRegistry* r = new CounterRegistry();
    return *r;
  }
  ThreadCounters* Local() {
    thread_local ThreadCounters* mine = nullptr;
    if (mine == nullptr) {
      std::lock_guard<std::mutex> lock(mu_);
      all_.push_back(std::make_unique<ThreadCounters>());
      mine = all_.back().get();
    }
    return mine;
  }

  struct Totals {
    uint64_t ns[kNumLayers] = {};
    uint64_t polls = 0, useful_polls = 0, filter_calls = 0, filter_pass = 0;

    Totals Minus(const Totals& o) const {
      Totals d;
      for (int l = 0; l < kNumLayers; ++l) d.ns[l] = ns[l] - o.ns[l];
      d.polls = polls - o.polls;
      d.useful_polls = useful_polls - o.useful_polls;
      d.filter_calls = filter_calls - o.filter_calls;
      d.filter_pass = filter_pass - o.filter_pass;
      return d;
    }
  };

  Totals Sum() {
    Totals t;
    std::lock_guard<std::mutex> lock(mu_);
    const auto rd = [](const std::atomic<uint64_t>& a) {
      return a.load(std::memory_order_relaxed);
    };
    for (const auto& c : all_) {
      for (int l = 0; l < kNumLayers; ++l) t.ns[l] += rd(c->ns[l]);
      t.polls += rd(c->polls);
      t.useful_polls += rd(c->useful_polls);
      t.filter_calls += rd(c->filter_calls);
      t.filter_pass += rd(c->filter_pass);
    }
    return t;
  }

 private:
  std::mutex mu_;
  std::vector<std::unique_ptr<ThreadCounters>> all_;
};

/// Times a region excluded from an enclosing source Poll's self time. Only
/// the outermost region on a thread counts, so nested regions (a lambda
/// running inside an Emit) are not subtracted twice.
class ExcludedRegion {
 public:
  ExcludedRegion() : c_(g_trace ? CounterRegistry::Get().Local() : nullptr) {
    if (c_ != nullptr) {
      ++c_->depth;
      t0_ = NowNs();
    }
  }
  ~ExcludedRegion() {
    if (c_ != nullptr && --c_->depth == 0) {
      c_->excluded_ns += static_cast<uint64_t>(NowNs() - t0_);
    }
  }
  ExcludedRegion(const ExcludedRegion&) = delete;
  ExcludedRegion& operator=(const ExcludedRegion&) = delete;

 protected:
  ThreadCounters* c_;
  int64_t t0_ = 0;
};

/// Times one call of benchmark code made by the engine (a user lambda or a
/// sink) into its layer's per-thread accumulator.
class CallbackTimer : public ExcludedRegion {
 public:
  explicit CallbackTimer(Layer layer) : layer_(layer) {}
  ~CallbackTimer() {
    if (c_ != nullptr) {
      Bump(c_->ns[layer_], static_cast<uint64_t>(NowNs() - t0_));
    }
  }

 private:
  Layer layer_;
};

// ---------------------------------------------------------------------------
// Spans, written as Chrome trace-event JSON at the end of a traced run.

struct Span {
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint64_t id = 0;
  uint64_t parent = 0;
  uint64_t tid = 0;
};

class Tracer {
 public:
  static Tracer& Get() {
    static Tracer* t = new Tracer();
    return *t;
  }

  bool enabled() const { return enabled_; }
  void Enable(std::string run_id) {
    enabled_ = true;
    run_id_ = std::move(run_id);
    origin_ns_ = NowNs();
  }

  uint64_t NextId() { return next_id_.fetch_add(1, std::memory_order_relaxed); }

  void Add(Span span) {
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(std::move(span));
  }

  /// Admission control for the per-Poll spans, the only high-volume kind:
  /// the first `kMaxPollSpans` are kept, the rest are only accumulated.
  bool AdmitPollSpan() {
    return enabled_ && poll_spans_.fetch_add(1, std::memory_order_relaxed) <
                           kMaxPollSpans;
  }

  /// Parent of the Poll spans: the job or step span currently running.
  std::atomic<uint64_t> current_step{0};

  bool WriteChromeJson(const std::string& path) const;

 private:
  static constexpr uint64_t kMaxPollSpans = 20000;
  bool enabled_ = false;
  std::string run_id_;
  int64_t origin_ns_ = 0;
  std::atomic<uint64_t> next_id_{1};
  std::atomic<uint64_t> poll_spans_{0};
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

inline uint64_t ThreadTag() {
  return std::hash<std::thread::id>()(std::this_thread::get_id()) % 100000;
}

/// RAII span; a no-op unless tracing is enabled.
class ScopedSpan {
 public:
  ScopedSpan(std::string name, uint64_t parent) {
    Tracer& t = Tracer::Get();
    if (!t.enabled()) return;
    span_.name = std::move(name);
    span_.parent = parent;
    span_.id = t.NextId();
    span_.tid = ThreadTag();
    span_.start_ns = NowNs();
  }
  ~ScopedSpan() {
    if (span_.id == 0) return;
    span_.end_ns = NowNs();
    Tracer::Get().Add(std::move(span_));
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  uint64_t id() const { return span_.id; }

 private:
  Span span_;
};

inline bool Tracer::WriteChromeJson(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::lock_guard<std::mutex> lock(mu_);
  std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%llu,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu,"
                 "\"parent\":%llu,\"run\":\"%s\"}}%s\n",
                 s.name.c_str(), static_cast<unsigned long long>(s.tid),
                 static_cast<double>(s.start_ns - origin_ns_) / 1e3,
                 static_cast<double>(s.end_ns - s.start_ns) / 1e3,
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent), run_id_.c_str(),
                 i + 1 < spans_.size() ? "," : "");
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

// ---------------------------------------------------------------------------
// Source instrumentation.

/// Due time of a window result that carries no latency sample (the warm-up
/// of a job at a frozen rate, its end-of-stream flush, a throughput job in
/// motion).
constexpr int64_t kNotTimed = -1;

/// Records emitted per source subtask of one job.
class SourceProbes {
 public:
  explicit SourceProbes(int parallelism) {
    for (int i = 0; i < parallelism; ++i) {
      subtasks_.push_back(std::make_unique<Subtask>());
    }
  }

  /// Single writer: the subtask's source.
  void AddRecords(int subtask, uint64_t n) {
    Bump(subtasks_[subtask]->records, n);
  }
  uint64_t records() const {
    uint64_t n = 0;
    for (const auto& s : subtasks_) {
      n += s->records.load(std::memory_order_relaxed);
    }
    return n;
  }

 private:
  struct Subtask {
    alignas(64) std::atomic<uint64_t> records{0};
  };
  std::vector<std::unique_ptr<Subtask>> subtasks_;
};

/// Forwards every SourceContext call to the engine's context, counting
/// records and timing the Emit calls (engine work done inline by the
/// source's task).
class ProbeContext : public SourceContext {
 public:
  explicit ProbeContext(SourceContext* base) : base_(base) {}

  bool Emit(Record&& record) override {
    ExcludedRegion r;
    ++records_;
    return base_->Emit(std::move(record));
  }
  bool EmitSpan(Record* records, size_t n) override {
    ExcludedRegion r;
    records_ += n;
    return base_->EmitSpan(records, n);
  }
  bool EmitBatch(std::vector<Record>&& batch) override {
    ExcludedRegion r;
    records_ += batch.size();
    return base_->EmitBatch(std::move(batch));
  }
  size_t PreferredBatchSize() const override {
    return base_->PreferredBatchSize();
  }
  void EmitWatermark(Timestamp wm) override {
    ExcludedRegion r;
    base_->EmitWatermark(wm);
  }
  void HandleIdle() override {
    ExcludedRegion r;
    base_->HandleIdle();
  }
  bool IsCancelled() const override { return base_->IsCancelled(); }

  uint64_t records() const { return records_; }

 private:
  SourceContext* base_;
  uint64_t records_ = 0;
};

/// Wraps a source subtask: counts what it emits and, when
/// traced, times each Poll (self time = Poll minus the engine work inside
/// its Emit calls and the benchmark callbacks it made).
class ProbedSource : public SourceFunction {
 public:
  ProbedSource(std::unique_ptr<SourceFunction> inner,
               std::shared_ptr<SourceProbes> probes, int subtask)
      : inner_(std::move(inner)), probes_(std::move(probes)),
        subtask_(subtask) {}

  Result<SourcePoll> Poll(SourceContext* ctx) override {
    ProbeContext probe(ctx);
    if (!g_trace) return Finish(inner_->Poll(&probe), probe);
    ThreadCounters* c = CounterRegistry::Get().Local();
    std::optional<ScopedSpan> span;
    if (Tracer::Get().AdmitPollSpan()) {
      span.emplace("source.poll", Tracer::Get().current_step.load());
    }
    const uint64_t excluded0 = c->excluded_ns;
    const int64_t t0 = NowNs();
    Result<SourcePoll> polled = inner_->Poll(&probe);
    const uint64_t total = static_cast<uint64_t>(NowNs() - t0);
    const uint64_t excluded = c->excluded_ns - excluded0;
    Bump(c->ns[kSourceSelf], total > excluded ? total - excluded : 0);
    Bump(c->polls, 1);
    if (probe.records() > 0) Bump(c->useful_polls, 1);
    return Finish(std::move(polled), probe);
  }

  Status SnapshotState(BinaryWriter* w) const override {
    return inner_->SnapshotState(w);
  }
  Status RestoreState(BinaryReader* r) override {
    return inner_->RestoreState(r);
  }
  std::string Name() const override { return inner_->Name(); }

 private:
  Result<SourcePoll> Finish(Result<SourcePoll> polled,
                            const ProbeContext& probe) {
    probes_->AddRecords(subtask_, probe.records());
    return polled;
  }

  std::unique_ptr<SourceFunction> inner_;
  std::shared_ptr<SourceProbes> probes_;
  int subtask_;
};

inline SourceFactory Probed(SourceFactory inner,
                            std::shared_ptr<SourceProbes> probes) {
  return [inner = std::move(inner), probes = std::move(probes)](
             int subtask, int parallelism) -> std::unique_ptr<SourceFunction> {
    return std::make_unique<ProbedSource>(inner(subtask, parallelism), probes,
                                          subtask);
  };
}

// ---------------------------------------------------------------------------
// Result checking.

inline uint64_t Mix(uint64_t h) {
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdULL;
  h ^= h >> 33;
  h *= 0xc4ceb9fe1a85ec53ULL;
  h ^= h >> 33;
  return h;
}

/// A window result as the oracle and the sinks see it.
struct WindowResult {
  int64_t key = 0;
  int64_t start = 0;
  int64_t end = 0;
  int64_t query = 0;
  int64_t value = 0;
};

/// Integer value of an aggregate, or a sentinel that never matches an
/// oracle value when the engine produced a non-integral number.
inline int64_t IntegralValue(const Value& v) {
  const double d = v.ToDouble();
  if (!(std::fabs(d) < 9.0e15) || d != std::floor(d)) return INT64_MIN;
  return static_cast<int64_t>(d);
}

/// Window operator output [key, start, end, query, value] as a result.
inline WindowResult ToWindowResult(const Record& r) {
  return WindowResult{r.field(0).AsInt64(), r.field(1).AsInt64(),
                      r.field(2).AsInt64(), r.field(3).AsInt64(),
                      IntegralValue(r.field(4))};
}

/// Order-independent multiset digest of window results, bucketed by
/// (query, window end, key mod 64) so a mismatch is localised: the number
/// of failed results is bounded by the sizes of the buckets that differ.
class Digest {
 public:
  void Add(const WindowResult& r) {
    const uint64_t bucket =
        Mix(static_cast<uint64_t>(r.query) * 0x9E3779B97F4A7C15ULL ^
            Mix(static_cast<uint64_t>(r.end)) ^
            static_cast<uint64_t>(r.key & 63));
    Entry& e = buckets_[bucket];
    ++e.count;
    e.sum += Mix(Mix(Mix(Mix(static_cast<uint64_t>(r.key)) ^
                         static_cast<uint64_t>(r.start)) ^
                     static_cast<uint64_t>(r.end)) ^
                 static_cast<uint64_t>(r.query) * 31 ^
                 static_cast<uint64_t>(r.value));
    ++total_;
  }
  void Merge(const Digest& o) {
    for (const auto& [b, e] : o.buckets_) {
      Entry& mine = buckets_[b];
      mine.count += e.count;
      mine.sum += e.sum;
    }
    total_ += o.total_;
  }
  uint64_t total() const { return total_; }

  /// Results of `expected` that `got` is missing or got wrong (plus
  /// unexpected extras), bucket-granular.
  static uint64_t Failures(const Digest& expected, const Digest& got) {
    uint64_t failed = 0;
    for (const auto& [b, e] : expected.buckets_) {
      const auto it = got.buckets_.find(b);
      if (it == got.buckets_.end()) {
        failed += e.count;
      } else if (it->second.count != e.count || it->second.sum != e.sum) {
        failed += std::max(e.count, it->second.count);
      }
    }
    for (const auto& [b, e] : got.buckets_) {
      if (expected.buckets_.find(b) == expected.buckets_.end()) {
        failed += e.count;
      }
    }
    return failed;
  }

 private:
  struct Entry {
    uint64_t count = 0;
    uint64_t sum = 0;
  };
  std::unordered_map<uint64_t, Entry> buckets_;
  uint64_t total_ = 0;
};

/// Per-thread shards of a sink's state, merged after the job finished.
/// Each instance gets a unique id so the thread-local shard cache never
/// hands out a shard of an earlier (destroyed) instance.
template <typename Shard>
class PerThread {
 public:
  PerThread() : id_(NextInstanceId()) {}

  Shard* Local() {
    thread_local uint64_t cached_id = 0;
    thread_local void* cached = nullptr;
    if (cached_id == id_) return static_cast<Shard*>(cached);
    std::lock_guard<std::mutex> lock(mu_);
    shards_.push_back(std::make_unique<Shard>());
    cached_id = id_;
    cached = shards_.back().get();
    return shards_.back().get();
  }

  /// Call only after every writer thread finished.
  template <typename Fn>
  void ForEach(Fn fn) {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto& s : shards_) fn(*s);
  }

 private:
  static uint64_t NextInstanceId() {
    static std::atomic<uint64_t> next{1};
    return next.fetch_add(1);
  }
  const uint64_t id_;
  std::mutex mu_;
  std::vector<std::unique_ptr<Shard>> shards_;
};

/// When a window result was due (steady-clock ns, or kNotTimed) and the
/// measurement interval its latency sample belongs to.
struct Due {
  int64_t ns = kNotTimed;
  size_t interval = 0;
};

/// What a result sink accumulates per thread: the digest and a latency
/// histogram per interval.
struct ResultShard {
  Digest digest;
  std::vector<LatencyHistogram> latency;

  void Record(const WindowResult& r, const Due& due, int64_t now_ns) {
    digest.Add(r);
    if (due.ns == kNotTimed) return;
    if (latency.size() <= due.interval) latency.resize(due.interval + 1);
    latency[due.interval].Record(now_ns - due.ns);
  }
  void Merge(const ResultShard& o) {
    digest.Merge(o.digest);
    if (latency.size() < o.latency.size()) latency.resize(o.latency.size());
    for (size_t i = 0; i < o.latency.size(); ++i) {
      latency[i].Merge(o.latency[i]);
    }
  }
  /// Every interval's samples in one histogram.
  LatencyHistogram AllLatency() const {
    LatencyHistogram all;
    for (const auto& h : latency) all.Merge(h);
    return all;
  }
};

// ---------------------------------------------------------------------------
// Watchdog.

/// Gives every benchmark phase a deadline. A phase that overruns is a
/// stall: the watchdog names the phase, lets `on_fire` print diagnostics
/// (the scheduler gauges of the running job) and the failed result, and
/// ends the process with exit code 3 -- the suite never hangs.
class Watchdog {
 public:
  /// `override_s` > 0 replaces every phase's own deadline.
  Watchdog(double override_s, std::function<void(const std::string&)> on_fire)
      : override_s_(override_s), on_fire_(std::move(on_fire)),
        thread_([this] { Loop(); }) {}
  ~Watchdog() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }
  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

  void Enter(const std::string& phase, double deadline_s) {
    std::lock_guard<std::mutex> lock(mu_);
    phase_ = phase;
    const double d = override_s_ > 0 ? override_s_ : deadline_s;
    deadline_ns_ = NowNs() + static_cast<int64_t>(d * 1e9);
    deadline_s_ = d;
  }
  void Exit() {
    std::lock_guard<std::mutex> lock(mu_);
    phase_.clear();
  }

 private:
  void Loop() {
    std::unique_lock<std::mutex> lock(mu_);
    while (!stop_) {
      cv_.wait_for(lock, std::chrono::milliseconds(10));
      if (stop_ || phase_.empty() || NowNs() < deadline_ns_) continue;
      char msg[512];
      std::snprintf(msg, sizeof(msg),
                    "watchdog: phase '%s' exceeded its %.3f s deadline",
                    phase_.c_str(), deadline_s_);
      lock.unlock();
      on_fire_(msg);
      std::fflush(stdout);
      std::fflush(stderr);
      std::_Exit(3);
    }
  }

  const double override_s_;
  std::function<void(const std::string&)> on_fire_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::string phase_;
  int64_t deadline_ns_ = 0;
  double deadline_s_ = 0;
  std::thread thread_;
};

/// Scoped watchdog phase.
class Phase {
 public:
  Phase(Watchdog* w, const std::string& name, double deadline_s) : w_(w) {
    w_->Enter(name, deadline_s);
  }
  ~Phase() { w_->Exit(); }
  Phase(const Phase&) = delete;
  Phase& operator=(const Phase&) = delete;

 private:
  Watchdog* w_;
};

}  // namespace streamline::perfbench

#endif  // STREAMLINE_PERFBENCH_PROBE_H_
