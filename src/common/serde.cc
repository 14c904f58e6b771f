#include "common/serde.h"

namespace streamline {

void BinaryWriter::WriteValue(const Value& v) {
  WriteU8(static_cast<uint8_t>(v.type()));
  switch (v.type()) {
    case DataType::kNull:
      break;
    case DataType::kInt64:
      WriteI64(v.AsInt64());
      break;
    case DataType::kDouble:
      WriteDouble(v.AsDouble());
      break;
    case DataType::kBool:
      WriteBool(v.AsBool());
      break;
    case DataType::kString:
      WriteString(v.AsString());
      break;
  }
}

void BinaryWriter::WriteRecord(const Record& r) {
  WriteI64(r.timestamp);
  // The carried key hash survives serde so a snapshot/restore cycle does
  // not silently reintroduce re-hashing on buffered records.
  WriteU64(r.key_hash);
  WriteU64(r.fields.size());
  for (const Value& v : r.fields) WriteValue(v);
}

Status BinaryReader::ReadRaw(void* out, size_t len) {
  if (pos_ + len > data_.size()) {
    return Status::OutOfRange("truncated buffer: need " +
                              std::to_string(len) + " bytes, have " +
                              std::to_string(data_.size() - pos_));
  }
  std::memcpy(out, data_.data() + pos_, len);
  pos_ += len;
  return Status::Ok();
}

Result<uint8_t> BinaryReader::ReadU8() {
  uint8_t v = 0;
  Status st = ReadRaw(&v, sizeof(v));
  if (!st.ok()) return st;
  return v;
}

Result<int64_t> BinaryReader::ReadI64() {
  int64_t v = 0;
  Status st = ReadRaw(&v, sizeof(v));
  if (!st.ok()) return st;
  return v;
}

Result<uint64_t> BinaryReader::ReadU64() {
  uint64_t v = 0;
  Status st = ReadRaw(&v, sizeof(v));
  if (!st.ok()) return st;
  return v;
}

Result<double> BinaryReader::ReadDouble() {
  double v = 0;
  Status st = ReadRaw(&v, sizeof(v));
  if (!st.ok()) return st;
  return v;
}

Result<bool> BinaryReader::ReadBool() {
  auto v = ReadU8();
  if (!v.ok()) return v.status();
  return *v != 0;
}

Result<std::string> BinaryReader::ReadString() {
  auto len = ReadU64();
  if (!len.ok()) return len.status();
  if (pos_ + *len > data_.size()) {
    return Status::OutOfRange("truncated string of length " +
                              std::to_string(*len));
  }
  std::string s(data_.substr(pos_, *len));
  pos_ += *len;
  return s;
}

Result<Value> BinaryReader::ReadValue() {
  auto tag = ReadU8();
  if (!tag.ok()) return tag.status();
  switch (static_cast<DataType>(*tag)) {
    case DataType::kNull:
      return Value::Null();
    case DataType::kInt64: {
      auto v = ReadI64();
      if (!v.ok()) return v.status();
      return Value(*v);
    }
    case DataType::kDouble: {
      auto v = ReadDouble();
      if (!v.ok()) return v.status();
      return Value(*v);
    }
    case DataType::kBool: {
      auto v = ReadBool();
      if (!v.ok()) return v.status();
      return Value(*v);
    }
    case DataType::kString: {
      auto v = ReadString();
      if (!v.ok()) return v.status();
      return Value(std::move(*v));
    }
  }
  return Status::Internal("unknown Value tag " + std::to_string(*tag));
}

Result<Record> BinaryReader::ReadRecord() {
  auto ts = ReadI64();
  if (!ts.ok()) return ts.status();
  auto kh = ReadU64();
  if (!kh.ok()) return kh.status();
  auto n = ReadU64();
  if (!n.ok()) return n.status();
  // Every field needs at least one tag byte: a count beyond the remaining
  // buffer is corrupt input, not a reason to attempt a huge allocation.
  if (*n > remaining()) {
    return Status::OutOfRange("field count " + std::to_string(*n) +
                              " exceeds remaining buffer");
  }
  Record r;
  r.timestamp = *ts;
  r.key_hash = *kh;
  r.fields.reserve(*n);
  for (uint64_t i = 0; i < *n; ++i) {
    auto v = ReadValue();
    if (!v.ok()) return v.status();
    r.fields.push_back(std::move(*v));
  }
  return r;
}

}  // namespace streamline
