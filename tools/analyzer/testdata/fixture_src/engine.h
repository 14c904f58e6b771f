#ifndef FIXTURE_ENGINE_H_
#define FIXTURE_ENGINE_H_

// Miniature engine surface for streamline-analyzer fixture tests. These
// files are parsed by the analyzer, never compiled; they model just enough
// of the real src/ shapes (Schedulable, Operator, Collector, Mutex/CondVar,
// Record, the replay classes) for every check to have a firing, a waived,
// and a clean case.

#include <chrono>
#include <vector>

class Mutex {
 public:
  void Lock();
  void Unlock();
};

class MutexLock {
 public:
  explicit MutexLock(Mutex* mu);
};

class CondVar {
 public:
  // Bodies are inline so the analyzer has call-graph nodes to resolve to
  // (a declared-but-bodiless method is never a target).
  void Wait(Mutex* mu) { waiters_ = waiters_ + 1; }
  bool WaitFor(Mutex* mu, int millis) { return millis > 0; }

 private:
  int waiters_ = 0;
};

class Schedulable {
 public:
  virtual ~Schedulable() = default;
  virtual bool Step() = 0;
};

struct Record {
  long key_hash = 0;
  std::vector<int> fields;
};

struct Value {
  int tag = 0;
};

class Operator {
 public:
  virtual ~Operator() = default;
  virtual void ProcessRecord(Record& r) = 0;
  virtual void ProcessBatch(std::vector<Record>& batch) = 0;
  virtual void ProcessWatermark(long wm) {}
};

class Collector {
 public:
  virtual ~Collector() = default;
};

/// Replay classes: every method of these (and of their subclasses) is a
/// snapshot-nondeterminism entry, whatever its name.
class SnapshotStore {
 public:
  virtual ~SnapshotStore() = default;
  virtual void Put(long id) = 0;
};

class EventLog {
 public:
  long Append(Record record);
};

/// Cross-TU helper: declared here, bodies live in support.cc, callers in
/// blocking.cc -- the block-in-morsel firing path crosses translation units.
class ChannelHelper {
 public:
  void BlockingPop();
  void FastPop();

 private:
  Mutex mu_;
  CondVar cv_;
};

#endif  // FIXTURE_ENGINE_H_
