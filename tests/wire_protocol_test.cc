// Wire protocol: serde round-trip property over random records, and the
// fail-closed decoder contract against torn/garbage frames -- CRC
// mismatch, oversized length prefix, mid-frame truncation. The decoder
// must never over-read, never return a partial frame, and stay poisoned
// once the stream is provably corrupt.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

#include "common/random.h"
#include "common/serde.h"
#include "net/frame.h"

namespace streamline {
namespace net {
namespace {

/// Random record with 0..6 fields of mixed types (including strings with
/// embedded NULs and null values), random timestamp sign included.
Record RandomRecord(Rng* rng) {
  Record r;
  r.timestamp = static_cast<Timestamp>(rng->NextU64());
  const size_t fields = rng->NextBelow(7);
  r.fields.reserve(fields);
  for (size_t i = 0; i < fields; ++i) {
    switch (rng->NextBelow(5)) {
      case 0:
        r.fields.push_back(Value(static_cast<int64_t>(rng->NextU64())));
        break;
      case 1:
        r.fields.push_back(Value(rng->NextDouble(-1e9, 1e9)));
        break;
      case 2:
        r.fields.push_back(Value(rng->NextBool(0.5)));
        break;
      case 3: {
        std::string s;
        const size_t n = rng->NextBelow(24);
        for (size_t j = 0; j < n; ++j) {
          s.push_back(static_cast<char>(rng->NextBelow(256)));  // incl. '\0'
        }
        r.fields.push_back(Value(std::move(s)));
        break;
      }
      default:
        r.fields.push_back(Value());  // null
        break;
    }
  }
  return r;
}

/// Feeds `stream` into `dec` in random chunks, draining every complete
/// payload into `decoded` via DecodeDataBatch. Returns the first error.
Status FeedChunked(FrameDecoder* dec, std::string_view stream, Rng* rng,
                   std::vector<Record>* decoded, size_t* frames) {
  size_t off = 0;
  while (off < stream.size()) {
    const size_t chunk =
        std::min<size_t>(1 + rng->NextBelow(13), stream.size() - off);
    dec->Append(stream.data() + off, chunk);
    off += chunk;
    while (true) {
      std::string_view payload;
      auto has = dec->Next(&payload);
      if (!has.ok()) return has.status();
      if (!*has) break;
      ++*frames;
      STREAMLINE_RETURN_IF_ERROR(DecodeDataBatch(payload, decoded));
    }
  }
  return Status::Ok();
}

// ---------------------------------------------------------------------------
// Round-trip property: random records, random batch sizes, random chunking.

TEST(WireProtocolTest, RandomBatchesRoundTripThroughChunkedDecoder) {
  Rng rng(2024);
  std::vector<Record> sent;
  std::string stream;
  size_t frames_encoded = 0;
  for (int batch = 0; batch < 200; ++batch) {
    std::vector<Record> records;
    const size_t n = rng.NextBelow(17);  // incl. empty batches
    for (size_t i = 0; i < n; ++i) records.push_back(RandomRecord(&rng));
    stream += EncodeDataBatch(records.data(), records.size());
    ++frames_encoded;
    for (auto& r : records) sent.push_back(std::move(r));
  }

  FrameDecoder dec;
  std::vector<Record> got;
  size_t frames = 0;
  ASSERT_TRUE(FeedChunked(&dec, stream, &rng, &got, &frames).ok());
  EXPECT_EQ(frames, frames_encoded);
  EXPECT_EQ(dec.buffered_bytes(), 0u);
  ASSERT_EQ(got.size(), sent.size());
  for (size_t i = 0; i < sent.size(); ++i) {
    EXPECT_EQ(got[i], sent[i]) << "record " << i << " diverged";
  }
}

TEST(WireProtocolTest, SubscribeFrameRoundTrips) {
  const std::string framed = EncodeSubscribe("pixels/m4");
  FrameDecoder dec;
  dec.Append(framed.data(), framed.size());
  std::string_view payload;
  auto has = dec.Next(&payload);
  ASSERT_TRUE(has.ok());
  ASSERT_TRUE(*has);
  BinaryReader r(payload);
  auto type = r.ReadU8();
  ASSERT_TRUE(type.ok());
  EXPECT_EQ(*type, kMsgSubscribe);
  auto topic = r.ReadString();
  ASSERT_TRUE(topic.ok());
  EXPECT_EQ(*topic, "pixels/m4");
  EXPECT_TRUE(r.AtEnd());
}

TEST(WireProtocolTest, ControlFramesAreEmptyBodied) {
  for (uint8_t type : {kMsgSnapshotBegin, kMsgSnapshotEnd}) {
    const std::string framed = EncodeControl(type);
    FrameDecoder dec;
    dec.Append(framed.data(), framed.size());
    std::string_view payload;
    auto has = dec.Next(&payload);
    ASSERT_TRUE(has.ok());
    ASSERT_TRUE(*has);
    ASSERT_EQ(payload.size(), 1u);
    EXPECT_EQ(static_cast<uint8_t>(payload[0]), type);
  }
}

// ---------------------------------------------------------------------------
// Fail-closed decoding: corruption poisons, truncation waits.

TEST(WireProtocolTest, CrcMismatchPoisonsDecoderPermanently) {
  Rng rng(7);
  std::vector<Record> records = {RandomRecord(&rng), RandomRecord(&rng)};
  std::string stream = EncodeDataBatch(records.data(), records.size());
  // Flip one payload byte; the header (and its CRC field) stay intact.
  stream[kFrameHeaderBytes + (stream.size() - kFrameHeaderBytes) / 2] ^= 0x40;

  FrameDecoder dec;
  dec.Append(stream.data(), stream.size());
  std::string_view payload;
  auto has = dec.Next(&payload);
  ASSERT_FALSE(has.ok());
  EXPECT_TRUE(dec.poisoned());
  // Sticky: a later good frame cannot resurrect the stream.
  const std::string good = EncodeDataBatch(records.data(), 1);
  dec.Append(good.data(), good.size());
  EXPECT_FALSE(dec.Next(&payload).ok());
}

TEST(WireProtocolTest, OversizedLengthPrefixFailsWithoutAllocating) {
  // Header advertising a 1 GiB frame against a 4 KiB limit: rejected from
  // the 8 header bytes alone -- no buffering of attacker-sized lengths.
  char header[kFrameHeaderBytes];
  const uint32_t huge = 1u << 30;
  std::memcpy(header, &huge, 4);
  std::memset(header + 4, 0, 4);
  FrameDecoder dec(/*max_frame_bytes=*/4096);
  dec.Append(header, sizeof(header));
  std::string_view payload;
  auto has = dec.Next(&payload);
  ASSERT_FALSE(has.ok());
  EXPECT_TRUE(dec.poisoned());
}

TEST(WireProtocolTest, TruncatedFrameNeverYieldsAndNeverOverReads) {
  Rng rng(11);
  std::vector<Record> records = {RandomRecord(&rng)};
  const std::string stream = EncodeDataBatch(records.data(), records.size());
  // Byte at a time: exactly one frame appears, exactly when the last byte
  // lands. A mid-frame disconnect at any prefix leaves the decoder clean
  // (no error, no partial frame) -- the frame simply never happened.
  FrameDecoder dec;
  std::string_view payload;
  for (size_t i = 0; i + 1 < stream.size(); ++i) {
    dec.Append(&stream[i], 1);
    auto has = dec.Next(&payload);
    ASSERT_TRUE(has.ok()) << "at byte " << i;
    EXPECT_FALSE(*has) << "frame surfaced " << stream.size() - 1 - i
                       << " bytes early";
    EXPECT_EQ(dec.buffered_bytes(), i + 1);
    EXPECT_FALSE(dec.poisoned());
  }
  dec.Append(&stream[stream.size() - 1], 1);
  auto has = dec.Next(&payload);
  ASSERT_TRUE(has.ok());
  ASSERT_TRUE(*has);
  std::vector<Record> got;
  ASSERT_TRUE(DecodeDataBatch(payload, &got).ok());
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0], records[0]);
  EXPECT_FALSE(*dec.Next(&payload));  // and nothing invented after it
}

TEST(WireProtocolTest, DataPayloadRejectsWrongType) {
  std::vector<Record> out;
  const std::string sub = EncodeSubscribe("t");
  // Strip the frame header to get the raw payload.
  EXPECT_FALSE(
      DecodeDataBatch(
          std::string_view(sub).substr(kFrameHeaderBytes), &out)
          .ok());
  EXPECT_TRUE(out.empty());
}

TEST(WireProtocolTest, DataPayloadRejectsAbsurdCountBeforeAllocating) {
  // type + count claiming 2^60 records in a 9-byte payload.
  BinaryWriter w;
  w.WriteU8(kMsgData);
  w.WriteU64(uint64_t{1} << 60);
  std::vector<Record> out;
  EXPECT_FALSE(DecodeDataBatch(w.buffer(), &out).ok());
  EXPECT_TRUE(out.empty());
}

TEST(WireProtocolTest, DataPayloadDecodeIsAllOrNothing) {
  Rng rng(13);
  std::vector<Record> records = {RandomRecord(&rng), RandomRecord(&rng),
                                 RandomRecord(&rng)};
  const std::string framed = EncodeDataBatch(records.data(), records.size());
  const std::string_view payload =
      std::string_view(framed).substr(kFrameHeaderBytes);

  // Pre-existing (recycled-vector) contents must survive a failed decode.
  std::vector<Record> out;
  out.push_back(MakeRecord(99, Value(int64_t{7})));

  // Truncated mid-record: error, out untouched.
  EXPECT_FALSE(
      DecodeDataBatch(payload.substr(0, payload.size() - 3), &out).ok());
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].timestamp, 99);

  // Trailing garbage after the last record: error, out untouched.
  std::string padded(payload);
  padded += "xx";
  EXPECT_FALSE(DecodeDataBatch(padded, &out).ok());
  ASSERT_EQ(out.size(), 1u);

  // The intact payload appends after the recycled prefix.
  ASSERT_TRUE(DecodeDataBatch(payload, &out).ok());
  ASSERT_EQ(out.size(), 1u + records.size());
  for (size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(out[1 + i], records[i]);
  }
}

TEST(WireProtocolTest, GarbageBytesPoisonInsteadOfLoopingOrOverreading) {
  // 64 KiB of deterministic garbage: the decoder must terminate with an
  // error (poisoned) or keep waiting for more bytes -- never yield a frame,
  // never touch memory past what it was handed.
  Rng rng(17);
  std::string garbage(64u << 10, '\0');
  for (char& c : garbage) c = static_cast<char>(rng.NextBelow(256));
  FrameDecoder dec(/*max_frame_bytes=*/1u << 20);
  size_t off = 0;
  bool poisoned = false;
  while (off < garbage.size() && !poisoned) {
    const size_t chunk =
        std::min<size_t>(1 + rng.NextBelow(4096), garbage.size() - off);
    dec.Append(garbage.data() + off, chunk);
    off += chunk;
    std::string_view payload;
    auto has = dec.Next(&payload);
    if (!has.ok()) {
      poisoned = true;
    } else {
      // A random 4-byte length happening to be small enough is possible,
      // but the CRC then fails with probability 1 - 2^-32; either way a
      // frame must not surface from noise.
      EXPECT_FALSE(*has);
    }
  }
  EXPECT_TRUE(poisoned || dec.buffered_bytes() > 0);
}

// ---------------------------------------------------------------------------
// Differential decoding: DecodeDataBatch and BinaryReader::ReadRecord
// against a plain parser of the documented wire format, over every strict
// prefix and every single-byte corruption of one payload.

/// Bit-exact record comparison: operator== ignores key_hash and treats
/// doubles numerically (-0.0 == 0.0, NaN != NaN); the wire must preserve
/// every bit.
::testing::AssertionResult SameBits(const Record& a, const Record& b) {
  if (a.timestamp != b.timestamp || a.key_hash != b.key_hash ||
      a.fields.size() != b.fields.size()) {
    return ::testing::AssertionFailure()
           << "header differs: " << a.ToString() << " vs " << b.ToString();
  }
  for (size_t i = 0; i < a.fields.size(); ++i) {
    const Value& x = a.fields[i];
    const Value& y = b.fields[i];
    bool same = x.type() == y.type();
    if (same && x.type() == DataType::kDouble) {
      const double dx = x.AsDouble();
      const double dy = y.AsDouble();
      same = std::memcmp(&dx, &dy, sizeof(double)) == 0;
    } else if (same) {
      same = x == y;
    }
    if (!same) {
      return ::testing::AssertionFailure()
             << "field " << i << " differs: " << a.ToString() << " vs "
             << b.ToString();
    }
  }
  return ::testing::AssertionSuccess();
}

::testing::AssertionResult SameBits(const std::vector<Record>& a,
                                    const std::vector<Record>& b) {
  if (a.size() != b.size()) {
    return ::testing::AssertionFailure()
           << a.size() << " records vs " << b.size();
  }
  for (size_t i = 0; i < a.size(); ++i) {
    auto same = SameBits(a[i], b[i]);
    if (!same) return same << " (record " << i << ")";
  }
  return ::testing::AssertionSuccess();
}

/// Reference parser of the kMsgData payload, written from the format
/// comments alone: little-endian fixed-width integers, a value is a type
/// tag byte plus its payload, a string is a u64 length plus its bytes.
/// Returns the StatusCode the decoder's contract assigns to each failure.
class RefParser {
 public:
  explicit RefParser(std::string_view bytes) : b_(bytes) {}

  StatusCode Batch(std::vector<Record>* out) {
    uint64_t type = 0;
    uint64_t count = 0;
    if (!Fixed(1, &type)) return StatusCode::kOutOfRange;
    if (type != kMsgData) return StatusCode::kInvalidArgument;
    if (!Fixed(8, &count)) return StatusCode::kOutOfRange;
    // 17 bytes is the smallest record; a larger count is rejected before
    // anything is decoded.
    if (count > b_.size() / 17 + 1) return StatusCode::kInvalidArgument;
    for (uint64_t i = 0; i < count; ++i) {
      Record r;
      const StatusCode code = Rec(&r);
      if (code != StatusCode::kOk) return code;
      out->push_back(std::move(r));
    }
    return at_ == b_.size() ? StatusCode::kOk : StatusCode::kInvalidArgument;
  }

  StatusCode Rec(Record* r) {
    uint64_t ts = 0;
    uint64_t n = 0;
    if (!Fixed(8, &ts) || !Fixed(8, &r->key_hash) || !Fixed(8, &n)) {
      return StatusCode::kOutOfRange;
    }
    r->timestamp = static_cast<Timestamp>(ts);
    if (n > b_.size() - at_) return StatusCode::kOutOfRange;
    for (uint64_t i = 0; i < n; ++i) {
      uint64_t tag = 0;
      uint64_t bits = 0;
      if (!Fixed(1, &tag)) return StatusCode::kOutOfRange;
      switch (tag) {
        case 0:
          r->fields.push_back(Value());
          break;
        case 1:
          if (!Fixed(8, &bits)) return StatusCode::kOutOfRange;
          r->fields.push_back(Value(static_cast<int64_t>(bits)));
          break;
        case 2: {
          if (!Fixed(8, &bits)) return StatusCode::kOutOfRange;
          double d = 0;
          std::memcpy(&d, &bits, sizeof(d));
          r->fields.push_back(Value(d));
          break;
        }
        case 3:
          if (!Fixed(1, &bits)) return StatusCode::kOutOfRange;
          r->fields.push_back(Value(bits != 0));
          break;
        case 4:
          if (!Fixed(8, &bits)) return StatusCode::kOutOfRange;
          if (bits > b_.size() - at_) return StatusCode::kOutOfRange;
          r->fields.push_back(Value(std::string(b_.substr(at_, bits))));
          at_ += bits;
          break;
        default:
          return StatusCode::kInternal;
      }
    }
    return StatusCode::kOk;
  }

  bool AtEnd() const { return at_ == b_.size(); }

 private:
  bool Fixed(size_t width, uint64_t* v) {
    if (b_.size() - at_ < width) return false;
    *v = 0;
    for (size_t i = 0; i < width; ++i) {
      *v |= uint64_t{static_cast<unsigned char>(b_[at_ + i])} << (8 * i);
    }
    at_ += width;
    return true;
  }

  std::string_view b_;
  size_t at_ = 0;
};

/// Records covering every value type and encoding edge: > 4 fields (heap
/// FieldVec), empty and long strings, -0.0, a NaN payload, extreme
/// integers, zero and non-zero key hashes, an empty row.
std::vector<Record> EdgeCorpus() {
  double nan = 0;
  const uint64_t nan_bits = 0x7ff8'0000'dead'beefULL;
  std::memcpy(&nan, &nan_bits, sizeof(nan));
  std::string long_str(300, 'x');
  long_str[7] = '\0';
  std::vector<Record> recs;
  recs.push_back(MakeRecord(0, Value(), Value(int64_t{-1}), Value(-0.0),
                            Value(true), Value(std::string())));
  recs.push_back(MakeRecord(
      std::numeric_limits<int64_t>::min(), Value(long_str), Value(nan),
      Value(std::numeric_limits<int64_t>::max()), Value(false), Value(),
      Value(1.5), Value("k")));
  recs.back().key_hash = 0x9e37'79b9'7f4a'7c15ULL;
  recs.push_back(MakeRecord(42));
  recs.back().key_hash = 1;
  recs.push_back(MakeRecord(-7, Value(int64_t{17}), Value(int64_t{2})));
  recs.back().key_hash = ~uint64_t{0};
  return recs;
}

/// Decodes `bytes` with DecodeDataBatch over a vector holding `prior` and
/// with the reference parser; the two must agree on the outcome, and a
/// failure must leave the vector exactly as it was.
void ExpectBatchDecodeAgrees(std::string_view bytes,
                             const std::vector<Record>& prior,
                             const std::string& what) {
  std::vector<Record> want;
  const StatusCode want_code = RefParser(bytes).Batch(&want);
  std::vector<Record> out = prior;
  const Status st = DecodeDataBatch(bytes, &out);
  ASSERT_EQ(st.code(), want_code) << what << ": " << st.ToString();
  std::vector<Record> expect = prior;
  if (st.ok()) {
    for (Record& r : want) expect.push_back(std::move(r));
  }
  EXPECT_TRUE(SameBits(out, expect)) << what;
}

/// Reads records with BinaryReader::ReadRecord from `bytes` (after the
/// 9-byte batch header) until the end or the first error; the reference
/// parser, stepping over the same bytes, must agree at every step.
void ExpectReadRecordAgrees(std::string_view bytes, const std::string& what) {
  if (bytes.size() < 9) return;
  const std::string_view body = bytes.substr(9);
  BinaryReader reader(body);
  RefParser ref(body);
  while (!reader.AtEnd()) {
    Record want;
    const StatusCode want_code = ref.Rec(&want);
    auto got = reader.ReadRecord();
    ASSERT_EQ(got.status().code(), want_code)
        << what << ": " << got.status().ToString();
    if (!got.ok()) return;
    ASSERT_TRUE(SameBits(*got, want)) << what;
    ASSERT_EQ(reader.AtEnd(), ref.AtEnd()) << what;
  }
}

TEST(WireProtocolTest, DecodeMatchesReferenceParserOnEveryPrefixAndFlip) {
  const std::vector<Record> corpus = EdgeCorpus();
  const std::string framed = EncodeDataBatch(corpus.data(), corpus.size());
  const std::string payload = framed.substr(kFrameHeaderBytes);

  // The intact payload decodes to the corpus, bit for bit.
  std::vector<Record> whole;
  ASSERT_TRUE(DecodeDataBatch(payload, &whole).ok());
  EXPECT_TRUE(SameBits(whole, corpus));
  ExpectBatchDecodeAgrees(payload, {}, "intact");
  ExpectReadRecordAgrees(payload, "intact");

  // A recycled vector with content (a heap-spilled row among them) that a
  // failed decode must not disturb.
  std::vector<Record> prior = {corpus[1], corpus[3]};
  for (size_t len = 0; len < payload.size(); ++len) {
    const std::string what = "prefix " + std::to_string(len);
    const std::string_view cut = std::string_view(payload).substr(0, len);
    ExpectBatchDecodeAgrees(cut, prior, what);
    ExpectReadRecordAgrees(cut, what);
  }
  for (size_t pos = 0; pos < payload.size(); ++pos) {
    const std::string what = "xor 0xFF at byte " + std::to_string(pos);
    std::string bent = payload;
    bent[pos] = static_cast<char>(bent[pos] ^ 0xFF);
    ExpectBatchDecodeAgrees(bent, prior, what);
    ExpectReadRecordAgrees(bent, what);
  }
}

TEST(WireProtocolTest, EncodedFramesMatchAppendFrameOverTheirPayload) {
  // Frames are encoded in one buffer with the header filled in last; the
  // bytes must be exactly a header built over the finished payload.
  const std::vector<Record> corpus = EdgeCorpus();
  for (size_t n = 0; n <= corpus.size(); ++n) {
    BinaryWriter w;
    w.WriteU8(kMsgData);
    w.WriteU64(n);
    for (size_t i = 0; i < n; ++i) w.WriteRecord(corpus[i]);
    std::string want;
    AppendFrame(&want, w.buffer());
    EXPECT_EQ(EncodeDataBatch(corpus.data(), n), want) << n << " records";
  }
  BinaryWriter sub;
  sub.WriteU8(kMsgSubscribe);
  sub.WriteString("pixels/m4");
  std::string want;
  AppendFrame(&want, sub.buffer());
  EXPECT_EQ(EncodeSubscribe("pixels/m4"), want);
  for (uint8_t type : {kMsgSnapshotBegin, kMsgSnapshotEnd}) {
    want.clear();
    AppendFrame(&want, std::string(1, static_cast<char>(type)));
    EXPECT_EQ(EncodeControl(type), want);
  }
}

}  // namespace
}  // namespace net
}  // namespace streamline
