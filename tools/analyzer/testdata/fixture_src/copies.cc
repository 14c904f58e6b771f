#include "engine.h"

#include <utility>

// record-copy-in-hot-path cases.

/// FIRING (decl copy) and CLEAN (move) inside an Operator hot path.
class CopyOperator : public Operator {
 public:
  void ProcessRecord(Record& r) override {
    Record dup = r;
    Stash(std::move(dup));
  }
  void ProcessBatch(std::vector<Record>& batch) override {
    for (auto& r : batch) {
      Record moved = std::move(r);
      Stash(std::move(moved));
    }
  }

 private:
  void Stash(Record&& r) { staged_.push_back(std::move(r)); }

  std::vector<Record> staged_;
};

/// FIRING (by-value parameter) and WAIVED variants on a Collector Emit
/// chain.
class FanoutCollector : public Collector {
 public:
  void Emit(Record& r) {
    Record staged = std::move(r);
    Forward(staged);
    // analyzer:allow(record-copy-in-hot-path): fixture models a vetted copy
    Forward(staged);
  }

 private:
  void Forward(Record r) { staged_.push_back(std::move(r)); }

  std::vector<Record> staged_;
};

/// Step is a hot-path entry too. FIRING: a movable record appended by
/// copy, and a copy of a container element. CLEAN: a reference binding,
/// and a borrowed `const Record&` that a sink must copy to keep.
class BufferingTask : public Schedulable {
 public:
  bool Step() override {
    Buffer(Record{});
    Keep(pending_.back());
    return true;
  }

 private:
  void Buffer(Record&& record) {
    pending_.push_back(record);
    Record first = pending_.front();
    const Record& last = pending_.back();
  }
  void Keep(const Record& record) { pending_.push_back(record); }

  std::vector<Record> pending_;
};

/// A record-copy waiver vouches for the copy on its line only. WAIVED: the
/// by-value hand-off. FIRING: the copy in the callee behind it.
class ForwardingOperator : public Operator {
 public:
  void ProcessRecord(Record& r) override {
    // analyzer:allow(record-copy-in-hot-path): fixture models a vetted hand-off
    Hold(r);
  }
  void ProcessBatch(std::vector<Record>& batch) override { batch.clear(); }

 private:
  void Hold(Record r) { Record again = r; }
};

/// ProcessWatermark is a hot-path entry: a window operator buffers its
/// records and applies every one of them when the watermark passes it.
/// FIRING: a copy in the watermark's apply loop, and one in the per-record
/// callee it calls.
class BufferedWindowOperator : public Operator {
 public:
  void ProcessRecord(Record& r) override { pending_.push_back(std::move(r)); }
  void ProcessBatch(std::vector<Record>& batch) override { batch.clear(); }
  void ProcessWatermark(long wm) override {
    for (const Record& record : pending_) {
      Record staged = record;
      Apply(record);
    }
    pending_.clear();
  }

 private:
  void Apply(const Record& record) { Record copy = record; }

  std::vector<Record> pending_;
};
