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
class BinaryReader {
 public:
  explicit BinaryReader(std::string_view data) : data_(data) {}

  Result<uint8_t> ReadU8();
  Result<int64_t> ReadI64();
  Result<uint64_t> ReadU64();
  Result<double> ReadDouble();
  Result<bool> ReadBool();
  Result<std::string> ReadString();
  Result<Value> ReadValue();
  Result<Record> ReadRecord();

  bool AtEnd() const { return pos_ == data_.size(); }
  size_t remaining() const { return data_.size() - pos_; }

 private:
  Status ReadRaw(void* out, size_t len);
  std::string_view data_;
  size_t pos_ = 0;
};

}  // namespace streamline

#endif  // STREAMLINE_COMMON_SERDE_H_
