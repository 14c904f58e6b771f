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

namespace {

// Error texts are built out of line and only on failure, so the decode
// paths carry no string building.
[[gnu::cold]] Status TruncatedString(uint64_t len) {
  return Status::OutOfRange("truncated string of length " +
                            std::to_string(len));
}

[[gnu::cold]] Status UnknownTag(uint8_t tag) {
  return Status::Internal("unknown Value tag " + std::to_string(tag));
}

[[gnu::cold]] Status FieldCountTooLarge(uint64_t n) {
  return Status::OutOfRange("field count " + std::to_string(n) +
                            " exceeds remaining buffer");
}

}  // namespace

[[gnu::cold]] Status BinaryReader::Truncated(size_t need) const {
  return Status::OutOfRange("truncated buffer: need " + std::to_string(need) +
                            " bytes, have " + std::to_string(remaining()));
}

Result<std::string> BinaryReader::ReadString() {
  uint64_t len = 0;
  if (!Take(&len)) return Truncated(sizeof(len));
  if (len > remaining()) return TruncatedString(len);
  std::string s(data_.substr(pos_, len));
  pos_ += len;
  return s;
}

Status BinaryReader::ReadValueInto(Value* out) {
  uint8_t tag = 0;
  if (!Take(&tag)) return Truncated(sizeof(tag));
  switch (static_cast<DataType>(tag)) {
    case DataType::kNull:
      *out = Value();
      return Status::Ok();
    case DataType::kInt64: {
      int64_t v = 0;
      if (!Take(&v)) return Truncated(sizeof(v));
      *out = Value(v);
      return Status::Ok();
    }
    case DataType::kDouble: {
      double v = 0;
      if (!Take(&v)) return Truncated(sizeof(v));
      *out = Value(v);
      return Status::Ok();
    }
    case DataType::kBool: {
      uint8_t v = 0;
      if (!Take(&v)) return Truncated(sizeof(v));
      *out = Value(v != 0);
      return Status::Ok();
    }
    case DataType::kString: {
      auto v = ReadString();
      if (!v.ok()) return v.status();
      *out = Value(std::move(*v));
      return Status::Ok();
    }
  }
  return UnknownTag(tag);
}

Status BinaryReader::ReadRecordInto(Record* out) {
  uint64_t n = 0;
  if (!Take(&out->timestamp)) return Truncated(sizeof(out->timestamp));
  if (!Take(&out->key_hash)) return Truncated(sizeof(out->key_hash));
  if (!Take(&n)) return Truncated(sizeof(n));
  // Every field needs at least one tag byte: a count beyond the remaining
  // buffer is corrupt input, not a reason to attempt a huge allocation.
  if (n > remaining()) return FieldCountTooLarge(n);
  out->fields.resize(n);
  for (Value& v : out->fields) STREAMLINE_RETURN_IF_ERROR(ReadValueInto(&v));
  return Status::Ok();
}

Result<Value> BinaryReader::ReadValue() {
  Value v;
  STREAMLINE_RETURN_IF_ERROR(ReadValueInto(&v));
  return v;
}

Result<Record> BinaryReader::ReadRecord() {
  Record r;
  STREAMLINE_RETURN_IF_ERROR(ReadRecordInto(&r));
  return r;
}

}  // namespace streamline
