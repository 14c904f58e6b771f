#include "engine.h"

// snapshot-nondeterminism cases.

class StateHolder {
 public:
  /// FIRING: snapshot path stamps wall-clock time through a helper.
  void SnapshotState() { StampTime(); }

  /// WAIVED: restore path seeds from rand(), with a reasoned waiver.
  void RestoreState() {
    // analyzer:allow(snapshot-nondeterminism): fixture models a vetted seed
    seed_ = rand();
  }

  /// CLEAN: delta application is pure state transformation.
  void ApplyDelta(int delta) { seed_ += delta; }

  /// FIRING: a nondeterministic std type named as a local's type.
  void RestoreSeed() {
    std::random_device entropy;
    seed_ = static_cast<int>(entropy());
  }

 private:
  void StampTime() {
    stamp_ = std::chrono::system_clock::now().time_since_epoch().count();
  }

  long stamp_ = 0;
  int seed_ = 0;
};
