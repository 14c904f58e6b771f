#ifndef STREAMLINE_COMMON_RECORD_H_
#define STREAMLINE_COMMON_RECORD_H_

#include <algorithm>
#include <cstdint>
#include <initializer_list>
#include <iterator>
#include <string>
#include <type_traits>
#include <utility>

#include "common/time.h"
#include "common/value.h"

namespace streamline {

/// Field storage for Record with inline capacity for small rows: up to
/// kInlineCapacity values live inside the record itself, so typical rows
/// (a key, a couple of measures) never touch the heap on the engine's
/// forward path. Wider rows spill to a heap array transparently.
///
/// Deliberately a minimal std::vector<Value> subset -- exactly the API the
/// engine and its operators use.
class FieldVec {
 public:
  static constexpr size_t kInlineCapacity = 4;

  using value_type = Value;
  using iterator = Value*;
  using const_iterator = const Value*;

  FieldVec() = default;

  FieldVec(std::initializer_list<Value> init) {
    reserve(init.size());
    for (const Value& v : init) push_back(v);
  }

  FieldVec(const FieldVec& other) {
    reserve(other.size_);
    Value* d = data();
    for (uint32_t i = 0; i < other.size_; ++i) d[i] = other.data()[i];
    size_ = other.size_;
  }

  FieldVec(FieldVec&& other) noexcept { MoveFrom(std::move(other)); }

  FieldVec& operator=(const FieldVec& other) {
    if (this == &other) return *this;
    clear();
    reserve(other.size_);
    Value* d = data();
    for (uint32_t i = 0; i < other.size_; ++i) d[i] = other.data()[i];
    size_ = other.size_;
    return *this;
  }

  FieldVec& operator=(FieldVec&& other) noexcept {
    if (this == &other) return *this;
    if (heap_ == nullptr && size_ == 0) {
      // Moved-from or fresh destination -- the dominant case on the batch
      // path (map write-back, filter compaction): nothing to release,
      // relocation alone suffices.
      MoveFrom(std::move(other));
      return *this;
    }
    clear();  // release owned payloads before relocation overwrites them
    delete[] heap_;
    heap_ = nullptr;
    capacity_ = kInlineCapacity;
    MoveFrom(std::move(other));
    return *this;
  }

  FieldVec& operator=(std::initializer_list<Value> init) {
    clear();
    reserve(init.size());
    for (const Value& v : init) push_back(v);
    return *this;
  }

  ~FieldVec() { delete[] heap_; }

  Value* data() { return heap_ != nullptr ? heap_ : inline_; }
  const Value* data() const { return heap_ != nullptr ? heap_ : inline_; }

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  size_t capacity() const { return capacity_; }

  Value& operator[](size_t i) { return data()[i]; }
  const Value& operator[](size_t i) const { return data()[i]; }

  iterator begin() { return data(); }
  iterator end() { return data() + size_; }
  const_iterator begin() const { return data(); }
  const_iterator end() const { return data() + size_; }

  Value& front() { return data()[0]; }
  Value& back() { return data()[size_ - 1]; }
  const Value& front() const { return data()[0]; }
  const Value& back() const { return data()[size_ - 1]; }

  void reserve(size_t n) {
    if (n <= capacity_) return;
    Grow(n);
  }

  void push_back(Value v) {
    if (size_ == capacity_) Grow(capacity_ * 2);
    data()[size_++] = std::move(v);
  }

  template <typename... Args>
  void emplace_back(Args&&... args) {
    push_back(Value(std::forward<Args>(args)...));
  }

  void pop_back() { data()[--size_] = Value(); }

  /// Drops all elements (releasing any string payloads) but keeps the
  /// current storage, inline or heap.
  void clear() {
    if (heap_ == nullptr) {
      // Destroy the whole inline array with a compile-time span length:
      // the elements past size_ are null by the invariant, so the extra
      // string checks predict false and the memset lowers to plain stores.
      Value::DestroySpan(inline_, kInlineCapacity);
    } else {
      Value::DestroySpan(heap_, size_);
    }
    size_ = 0;
  }

  void resize(size_t n) {
    if (n < size_) {
      Value::DestroySpan(data() + n, size_ - n);
    } else {
      reserve(n);
    }
    size_ = static_cast<uint32_t>(n);
  }

  /// Inserts [first, last) before `pos`. Iterators are invalidated.
  /// Inserting a range of this vector's own elements is supported (like
  /// std::vector): the source is copied aside first, because reserve() may
  /// reallocate out from under it and the shift below moves the tail --
  /// which can contain the source -- even without reallocation.
  template <typename InputIt>
  iterator insert(iterator pos, InputIt first, InputIt last) {
    const size_t idx = static_cast<size_t>(pos - begin());
    const size_t n = static_cast<size_t>(std::distance(first, last));
    if (n == 0) return begin() + idx;
    if constexpr (std::is_convertible_v<InputIt, const Value*>) {
      const Value* f = first;
      if (f >= data() && f < data() + size_) {
        FieldVec tmp;
        tmp.reserve(n);
        for (size_t i = 0; i < n; ++i) tmp.push_back(f[i]);
        return insert(begin() + idx, tmp.begin(), tmp.end());
      }
    }
    reserve(size_ + n);
    Value* d = data();
    for (size_t i = size_; i > idx; --i) {
      d[i + n - 1] = std::move(d[i - 1]);
    }
    for (size_t i = 0; i < n; ++i) {
      d[idx + i] = *first++;
    }
    size_ += static_cast<uint32_t>(n);
    return d + idx;
  }

  /// Inserts one value before `pos`. Iterators are invalidated.
  iterator insert(iterator pos, Value v) {
    const Value* p = &v;
    return insert(pos, p, p + 1);
  }

  bool operator==(const FieldVec& other) const {
    return size_ == other.size_ &&
           std::equal(begin(), end(), other.begin());
  }
  bool operator!=(const FieldVec& other) const { return !(*this == other); }

 private:
  // Relocation invariant: every inline_ element at index >= size_ (and all
  // of inline_ once the vector has spilled to heap_) is null. clear(),
  // pop_back(), resize() and RelocateSpan() all null what they vacate, so
  // MoveFrom can memcpy-relocate over the destination without leaking.
  void MoveFrom(FieldVec&& other) noexcept {
    if (other.heap_ != nullptr) {
      heap_ = other.heap_;
      capacity_ = other.capacity_;
      size_ = other.size_;
      other.heap_ = nullptr;
      other.capacity_ = kInlineCapacity;
      other.size_ = 0;
    } else {
      // Relocate the full inline array, not just other.size_ elements:
      // the elements past size_ are null by the invariant, so copying and
      // re-nulling them is harmless, and the compile-time span length
      // turns the memcpy+memset into a handful of inline stores.
      Value::RelocateSpan(inline_, other.inline_, kInlineCapacity);
      size_ = other.size_;
      other.size_ = 0;
    }
  }

  void Grow(size_t want) {
    size_t new_cap = capacity_;
    while (new_cap < want) new_cap *= 2;
    Value* bigger = new Value[new_cap];
    Value::RelocateSpan(bigger, data(), size_);
    delete[] heap_;
    heap_ = bigger;
    capacity_ = static_cast<uint32_t>(new_cap);
  }

  Value inline_[kInlineCapacity];
  Value* heap_ = nullptr;
  uint32_t size_ = 0;
  uint32_t capacity_ = kInlineCapacity;
};

/// The engine's row: an event-time timestamp plus dynamically typed fields.
/// Field meaning is given by the Schema attached to the stream, not stored
/// per record. Rows of up to FieldVec::kInlineCapacity fields are fully
/// heap-allocation-free.
struct Record {
  /// Record::key_hash == kNoKeyHash: no hash attached.
  static constexpr uint64_t kNoKeyHash = 0;

  Timestamp timestamp = 0;
  /// Hash-once shuffle routing: the router stamps KeyHashOf(partition key)
  /// here when it ships the record over a hash edge (and resets it to
  /// kNoKeyHash on every other edge), so the keyed operator behind that
  /// edge can index its state without re-hashing. Carried through
  /// batching, chaining and record serde; ignored by operator==
  /// (it is a cache of the key, not data).
  uint64_t key_hash = kNoKeyHash;
  FieldVec fields;

  // User-provided rather than `= default`: value-initialization
  // (`Record()`, `emplace_back()`, `resize(n)`) then runs only the member
  // initializers above instead of first zero-filling the whole record,
  // which GCC lowers to a `rep stos` that cost more than decoding a
  // two-field record in place.
  Record() {}
  Record(Timestamp ts, FieldVec f)
      : timestamp(ts), fields(std::move(f)) {}

  bool has_key_hash() const { return key_hash != kNoKeyHash; }

  const Value& field(size_t i) const { return fields[i]; }
  Value& field(size_t i) { return fields[i]; }
  size_t num_fields() const { return fields.size(); }

  /// "@ts [v0, v1, ...]" rendering for sinks, logs and tests.
  std::string ToString() const;

  /// Rough in-memory footprint, used for channel byte accounting.
  size_t ApproxBytes() const {
    size_t bytes = sizeof(Record);
    if (fields.size() > FieldVec::kInlineCapacity) {
      bytes += fields.capacity() * sizeof(Value);
    }
    for (const Value& v : fields) {
      if (v.type() == DataType::kString) bytes += v.AsString().size();
    }
    return bytes;
  }

  bool operator==(const Record& other) const {
    return timestamp == other.timestamp && fields == other.fields;
  }
};

/// Convenience builder: MakeRecord(12, Value(int64_t{1}), Value("a")).
template <typename... Vs>
Record MakeRecord(Timestamp ts, Vs&&... values) {
  Record r;
  r.timestamp = ts;
  r.fields.reserve(sizeof...(values));
  (r.fields.push_back(std::forward<Vs>(values)), ...);
  return r;
}

}  // namespace streamline

#endif  // STREAMLINE_COMMON_RECORD_H_
