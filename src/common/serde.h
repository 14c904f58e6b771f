#ifndef STREAMLINE_COMMON_SERDE_H_
#define STREAMLINE_COMMON_SERDE_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "common/crc32.h"
#include "common/record.h"
#include "common/status.h"
#include "common/value.h"

namespace streamline {

/// Append-only little-endian binary writer. Used for state snapshots
/// (checkpointing) and for channel byte accounting.
class BinaryWriter {
 public:
  void WriteU8(uint8_t v) { buf_.push_back(static_cast<char>(v)); }
  void WriteI64(int64_t v) { WriteRaw(&v, sizeof(v)); }
  void WriteU64(uint64_t v) { WriteRaw(&v, sizeof(v)); }
  void WriteDouble(double v) { WriteRaw(&v, sizeof(v)); }
  void WriteBool(bool v) { WriteU8(v ? 1 : 0); }
  void WriteString(const std::string& s) {
    WriteU64(s.size());
    WriteRaw(s.data(), s.size());
  }
  void WriteValue(const Value& v);
  void WriteRecord(const Record& r);

  const std::string& buffer() const { return buf_; }
  std::string Release() { return std::move(buf_); }
  size_t size() const { return buf_.size(); }

 private:
  void WriteRaw(const void* data, size_t len) {
    const char* p = static_cast<const char*>(data);
    buf_.append(p, len);
  }
  std::string buf_;
};

/// Sequential reader over a buffer produced by BinaryWriter. All Read*
/// methods return OutOfRange on truncated input instead of crashing, so a
/// corrupted snapshot surfaces as a recoverable error.
///
/// One pass, no per-scalar Status: every fixed-width value goes through
/// the inline Take, and an error text is built (out of line) only when a
/// read fails. Values and records decode straight into caller-owned
/// storage (ReadValueInto / ReadRecordInto); ReadValue and ReadRecord are
/// wrappers over them.
class BinaryReader {
 public:
  explicit BinaryReader(std::string_view data) : data_(data) {}

  Result<uint8_t> ReadU8() { return ReadScalar<uint8_t>(); }
  Result<int64_t> ReadI64() { return ReadScalar<int64_t>(); }
  Result<uint64_t> ReadU64() { return ReadScalar<uint64_t>(); }
  Result<double> ReadDouble() { return ReadScalar<double>(); }
  Result<bool> ReadBool() {
    uint8_t v = 0;
    if (!Take(&v)) return Truncated(sizeof(v));
    return v != 0;
  }
  Result<std::string> ReadString();
  Result<Value> ReadValue();
  Result<Record> ReadRecord();

  /// Decodes one value into `*out`. On error `*out` is left valid but
  /// unspecified.
  Status ReadValueInto(Value* out);
  /// Decodes one record into `*out`, reusing its field storage. On error
  /// `*out` is left valid but unspecified.
  Status ReadRecordInto(Record* out);

  bool AtEnd() const { return pos_ == data_.size(); }
  size_t remaining() const { return data_.size() - pos_; }

 private:
  /// The one bounds-checked read: copies the next sizeof(T) bytes into
  /// `*out` (memcpy, so any offset is fine) and advances. On short input
  /// returns false and moves nothing.
  template <typename T>
  bool Take(T* out) {
    if (sizeof(T) > remaining()) return false;
    std::memcpy(out, data_.data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    return true;
  }
  template <typename T>
  Result<T> ReadScalar() {
    T v{};
    if (!Take(&v)) return Truncated(sizeof(T));
    return v;
  }
  /// OutOfRange "truncated buffer: need `need` bytes, have ...".
  Status Truncated(size_t need) const;

  std::string_view data_;
  size_t pos_ = 0;
};

}  // namespace streamline

#endif  // STREAMLINE_COMMON_SERDE_H_
