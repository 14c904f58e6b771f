#include "engine.h"

// snapshot-nondeterminism through the replay classes: their methods are
// entries although no name starts with Snapshot/Restore/ApplyDelta.

/// FIRING: a checkpoint store stamps its writes with wall-clock time.
class DiskStore : public SnapshotStore {
 public:
  void Put(long id) override { last_ = id + time(nullptr); }

 private:
  long last_ = 0;
};

/// FIRING: the replayable log draws ambient randomness on append.
long EventLog::Append(Record record) { return record.key_hash + rand(); }
