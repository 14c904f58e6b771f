#ifndef STREAMLINE_COMMON_SPSC_RING_H_
#define STREAMLINE_COMMON_SPSC_RING_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>

namespace streamline {

/// Cache-line size used for padding hot atomics. 64 bytes covers x86 and
/// most ARM cores; over-aligning on exotic hardware only wastes bytes.
inline constexpr size_t kCacheLineSize = 64;

/// Bounded lock-free single-producer/single-consumer ring buffer -- the
/// engine's per-edge data-plane channel. One thread may call the producer
/// side (TryPush), one thread the consumer side (TryPop); head and tail
/// live on separate cache lines and each side keeps a cached copy of the
/// other's index, so the steady-state fast path touches no shared cache
/// line beyond the slot itself (acquire/release ordering only, no RMW).
///
/// Capacity is rounded up to a power of two. Elements must be
/// default-constructible and move-assignable.
template <typename T>
class SpscRing {
 public:
  explicit SpscRing(size_t capacity)
      : capacity_(RoundUpPow2(capacity < 1 ? 1 : capacity)),
        mask_(capacity_ - 1),
        slots_(new T[capacity_]) {}

  SpscRing(const SpscRing&) = delete;
  SpscRing& operator=(const SpscRing&) = delete;

  /// Producer side. Returns false when the ring is full.
  bool TryPush(T&& item) {
    const uint64_t tail = tail_.load(std::memory_order_relaxed);
    if (tail - cached_head_ >= capacity_) {
      cached_head_ = head_.load(std::memory_order_acquire);
      if (tail - cached_head_ >= capacity_) return false;
    }
    slots_[tail & mask_] = std::move(item);
    tail_.store(tail + 1, std::memory_order_release);
    return true;
  }

  /// Consumer side. Returns false when the ring is empty.
  bool TryPop(T* out) {
    const uint64_t head = head_.load(std::memory_order_relaxed);
    if (head == cached_tail_) {
      cached_tail_ = tail_.load(std::memory_order_acquire);
      if (head == cached_tail_) return false;
    }
    *out = std::move(slots_[head & mask_]);
    head_.store(head + 1, std::memory_order_release);
    return true;
  }

  /// Producer-side full check (exact for the producer, approximate
  /// elsewhere).
  bool Full() const {
    return tail_.load(std::memory_order_acquire) -
               head_.load(std::memory_order_acquire) >=
           capacity_;
  }

  /// Consumer-side empty check (exact for the consumer, approximate
  /// elsewhere).
  bool Empty() const {
    return head_.load(std::memory_order_acquire) ==
           tail_.load(std::memory_order_acquire);
  }

  /// Consumer-side element count that touches only the consumer's cache
  /// line: never above the true count (the cached tail lags the
  /// producer's), so a consumer waiting for the count to fall below a mark
  /// sees it no later than the true count gets there.
  size_t ConsumerSize() const {
    return static_cast<size_t>(cached_tail_ -
                               head_.load(std::memory_order_relaxed));
  }

  /// Approximate element count (exact only from a quiescent state).
  size_t size() const {
    const uint64_t tail = tail_.load(std::memory_order_acquire);
    const uint64_t head = head_.load(std::memory_order_acquire);
    return static_cast<size_t>(tail - head);
  }

  size_t capacity() const { return capacity_; }

 private:
  static size_t RoundUpPow2(size_t v) {
    size_t p = 1;
    while (p < v) p <<= 1;
    return p;
  }

  const size_t capacity_;
  const size_t mask_;
  std::unique_ptr<T[]> slots_;

  // Consumer-owned line: read index plus a cached copy of the producer's
  // tail (refreshed only when the ring looks empty).
  alignas(kCacheLineSize) std::atomic<uint64_t> head_{0};
  uint64_t cached_tail_ = 0;

  // Producer-owned line, symmetric.
  alignas(kCacheLineSize) std::atomic<uint64_t> tail_{0};
  uint64_t cached_head_ = 0;

  // Keep the producer line from sharing its cache line with whatever is
  // allocated after this object.
  char pad_[kCacheLineSize - sizeof(std::atomic<uint64_t>) - sizeof(uint64_t)];
};

}  // namespace streamline

#endif  // STREAMLINE_COMMON_SPSC_RING_H_
