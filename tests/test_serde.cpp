// Unit + property tests: Buffer, binary wire format, Serde<T>, KV streams,
// CRC32.
#include <gtest/gtest.h>

#include <array>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "serde/checksum.hpp"
#include "serde/kv.hpp"
#include "serde/serde.hpp"
#include "serde/wire.hpp"

namespace asyncmr::serde {
namespace {

std::vector<uint8_t> Bytes(const Buffer& buf) {
  return {buf.view().begin(), buf.view().end()};
}

TEST(Buffer, ZeroLengthAppendOnEmptyBuffer) {
  Buffer buf;
  buf.Append(nullptr, 0);
  buf.Prepend(nullptr, 0);
  EXPECT_TRUE(buf.empty());
  EXPECT_EQ(buf.view().size(), 0u);
  const uint8_t byte = 7;
  buf.Append(&byte, 1);
  buf.Append(nullptr, 0);
  EXPECT_EQ(Bytes(buf), std::vector<uint8_t>{7});
}

TEST(Buffer, AppendByteGrowsAcrossCapacityBoundaries) {
  Buffer buf;
  std::vector<uint8_t> expected;
  for (int i = 0; i < 1000; ++i) {
    buf.AppendByte(static_cast<uint8_t>(i * 7));
    expected.push_back(static_cast<uint8_t>(i * 7));
  }
  EXPECT_EQ(Bytes(buf), expected);
  buf.clear();
  EXPECT_TRUE(buf.empty());
  buf.AppendByte(1);
  EXPECT_EQ(Bytes(buf), std::vector<uint8_t>{1});
}

TEST(Buffer, PrependIntoEmptyAndNonEmpty) {
  const std::array<uint8_t, 3> head{1, 2, 3};
  Buffer empty;
  empty.Prepend(head.data(), head.size());
  EXPECT_EQ(Bytes(empty), (std::vector<uint8_t>{1, 2, 3}));

  Buffer filled;
  for (uint8_t b = 10; b < 110; ++b) filled.AppendByte(b);
  filled.Prepend(head.data(), head.size());
  ASSERT_EQ(filled.size(), 103u);
  EXPECT_EQ(filled.data()[0], 1);
  EXPECT_EQ(filled.data()[2], 3);
  EXPECT_EQ(filled.data()[3], 10);
  EXPECT_EQ(filled.data()[102], 109);
}

TEST(Buffer, CopiesAreIndependent) {
  Buffer a;
  for (uint8_t b = 0; b < 100; ++b) a.AppendByte(b);
  Buffer b(a);
  EXPECT_EQ(a, b);
  b.data()[0] = 0xFF;
  b.AppendByte(1);
  EXPECT_EQ(a.data()[0], 0);
  EXPECT_EQ(a.size(), 100u);

  Buffer c;
  c.AppendByte(42);
  c = a;
  EXPECT_EQ(c, a);
  c.data()[1] = 0xFF;
  EXPECT_EQ(a.data()[1], 1);

  const Buffer& alias = c;
  c = alias;  // self-assignment keeps the contents
  EXPECT_EQ(c.size(), 100u);
  EXPECT_EQ(c.data()[1], 0xFF);

  Buffer empty;
  c = empty;
  EXPECT_TRUE(c.empty());
  EXPECT_EQ(a.size(), 100u);
}

TEST(Buffer, MovedFromBufferIsEmptyAndReusable) {
  Buffer a;
  for (uint8_t b = 0; b < 50; ++b) a.AppendByte(b);
  const Buffer snapshot = a;
  Buffer b(std::move(a));
  EXPECT_EQ(b, snapshot);
  EXPECT_TRUE(a.empty());  // NOLINT(bugprone-use-after-move)
  a.AppendByte(9);
  EXPECT_EQ(Bytes(a), std::vector<uint8_t>{9});

  Buffer c;
  c.AppendByte(1);
  c = std::move(b);
  EXPECT_EQ(c, snapshot);
  EXPECT_TRUE(b.empty());  // NOLINT(bugprone-use-after-move)
  b.Append(snapshot.data(), snapshot.size());
  EXPECT_EQ(b, snapshot);
}

TEST(Buffer, EqualityComparesBytes) {
  Buffer empty;
  Buffer other_empty;
  Buffer one;
  one.AppendByte(0);
  EXPECT_EQ(empty, other_empty);
  EXPECT_FALSE(empty == one);
  EXPECT_FALSE(one == empty);
  other_empty.AppendByte(0);
  EXPECT_EQ(one, other_empty);
  other_empty.data()[0] = 1;
  EXPECT_FALSE(one == other_empty);
}

TEST(Wire, ZigzagRoundTrip) {
  for (int64_t v : {0L, 1L, -1L, 63L, -64L, (int64_t)1e15, -(int64_t)1e15,
                    std::numeric_limits<int64_t>::max(),
                    std::numeric_limits<int64_t>::min()}) {
    EXPECT_EQ(ZigzagDecode(ZigzagEncode(v)), v);
  }
}

TEST(Wire, VarintSmallValuesAreOneByte) {
  Buffer buf;
  Writer w(buf);
  w.WriteVarU64(127);
  EXPECT_EQ(buf.size(), 1u);
}

TEST(Wire, VarintRoundTrip) {
  Rng rng(1);
  Buffer buf;
  Writer w(buf);
  std::vector<uint64_t> values;
  for (int i = 0; i < 1000; ++i) {
    const uint64_t v = rng.Next() >> (rng.NextBounded(64));
    values.push_back(v);
    w.WriteVarU64(v);
  }
  Reader r(buf);
  for (uint64_t expected : values) {
    uint64_t got = 0;
    ASSERT_TRUE(r.ReadVarU64(got).ok());
    EXPECT_EQ(got, expected);
  }
  EXPECT_TRUE(r.AtEnd());
}

TEST(Wire, TruncatedVarintFails) {
  Buffer buf;
  buf.AppendByte(0x80);  // continuation bit with no next byte
  Reader r(buf);
  uint64_t v;
  EXPECT_EQ(r.ReadVarU64(v).code(), StatusCode::kDataLoss);
}

TEST(Wire, TruncatedStringFails) {
  Buffer buf;
  Writer w(buf);
  w.WriteVarU64(100);  // claims 100 bytes, provides none
  Reader r(buf);
  std::string s;
  EXPECT_EQ(r.ReadString(s).code(), StatusCode::kDataLoss);
}

TEST(Wire, ReadPastEndFails) {
  Buffer buf;
  Writer w(buf);
  w.WriteU32(7);
  Reader r(buf);
  uint64_t v;
  EXPECT_FALSE(r.ReadU64(v).ok());
}

TEST(Serde, ScalarRoundTrips) {
  EXPECT_EQ(Decode<int32_t>(Encode<int32_t>(-12345)).value(), -12345);
  EXPECT_EQ(Decode<uint64_t>(Encode<uint64_t>(1ull << 60)).value(), 1ull << 60);
  EXPECT_EQ(Decode<bool>(Encode<bool>(true)).value(), true);
  EXPECT_DOUBLE_EQ(Decode<double>(Encode<double>(3.14159)).value(), 3.14159);
  EXPECT_FLOAT_EQ(Decode<float>(Encode<float>(2.5f)).value(), 2.5f);
}

TEST(Serde, StringRoundTrip) {
  const std::string s = "hello \0 world";
  EXPECT_EQ(Decode<std::string>(Encode(s)).value(), s);
}

TEST(Serde, PairAndVectorRoundTrip) {
  using T = std::vector<std::pair<uint32_t, double>>;
  const T v{{1, 0.5}, {7, -2.0}, {42, 1e9}};
  EXPECT_EQ(Decode<T>(Encode(v)).value(), v);
}

TEST(Serde, NestedVectorRoundTrip) {
  using T = std::vector<std::vector<std::string>>;
  const T v{{"a", "b"}, {}, {"c"}};
  EXPECT_EQ(Decode<T>(Encode(v)).value(), v);
}

TEST(Serde, TrailingBytesRejected) {
  Buffer buf = Encode<uint32_t>(5);
  buf.AppendByte(0);
  EXPECT_EQ(Decode<uint32_t>(buf).status().code(), StatusCode::kDataLoss);
}

TEST(Serde, CorruptVectorLengthRejectedForAllElementTypes) {
  // A length prefix beyond the remaining payload is corruption and must be
  // rejected up front — for vector<bool> too, which the old nested guard
  // silently skipped (so a hostile length reached reserve()).
  Buffer buf;
  Writer w(buf);
  w.WriteVarU64(uint64_t{1} << 40);  // claims ~10^12 elements, no payload
  EXPECT_EQ(Decode<std::vector<bool>>(buf).status().code(),
            StatusCode::kDataLoss);
  EXPECT_EQ(Decode<std::vector<uint8_t>>(buf).status().code(),
            StatusCode::kDataLoss);
  EXPECT_EQ(Decode<std::vector<double>>(buf).status().code(),
            StatusCode::kDataLoss);
}

TEST(Serde, EncodedSizeMatchesEncodeWithoutEncoding) {
  const std::vector<std::string> v{"alpha", "", "beta"};
  EXPECT_EQ(EncodedSize(v), Encode(v).size());
  const std::pair<uint32_t, double> p{7, 0.25};
  EXPECT_EQ(EncodedSize(p), Encode(p).size());
  EXPECT_EQ(EncodedSize(true), Encode(true).size());
  EXPECT_EQ(EncodedSize(uint64_t{1} << 40), Encode(uint64_t{1} << 40).size());
}

struct TestRecord {
  uint32_t node = 0;
  double rank = 0.0;
  std::string tag;
  std::vector<int32_t> path;
  AMR_SERDE_FIELDS(node, rank, tag, path)
  bool operator==(const TestRecord&) const = default;
};

TEST(Serde, UserStructRoundTrip) {
  TestRecord rec{42, 0.85, "hub", {1, -2, 3}};
  EXPECT_EQ(Decode<TestRecord>(Encode(rec)).value(), rec);
}

TEST(Serde, PropertyRandomRoundTrips) {
  Rng rng(77);
  for (int trial = 0; trial < 200; ++trial) {
    TestRecord rec;
    rec.node = static_cast<uint32_t>(rng.Next());
    rec.rank = rng.NextDouble(-1e6, 1e6);
    rec.tag.assign(rng.NextBounded(32), 'x');
    const size_t len = rng.NextBounded(16);
    for (size_t i = 0; i < len; ++i) {
      rec.path.push_back(static_cast<int32_t>(rng.Next()));
    }
    EXPECT_EQ(Decode<TestRecord>(Encode(rec)).value(), rec);
  }
}

TEST(KvStream, WriteReadRoundTrip) {
  KvWriter<uint32_t, double> w;
  for (uint32_t i = 0; i < 100; ++i) w.Add(i, i * 0.5);
  EXPECT_EQ(w.count(), 100u);
  Buffer buf = std::move(w).Finish();

  KvReader<uint32_t, double> r(buf);
  EXPECT_EQ(r.count(), 100u);
  uint32_t k;
  double v;
  uint32_t expected = 0;
  while (r.Next(k, v)) {
    EXPECT_EQ(k, expected);
    EXPECT_DOUBLE_EQ(v, expected * 0.5);
    ++expected;
  }
  EXPECT_EQ(expected, 100u);
  EXPECT_TRUE(r.status().ok());
}

TEST(KvStream, ResetReusesWriterAndFinishBytesAreCanonical) {
  // Finish() prepends the header into the record buffer and moves it out —
  // the bytes must match a freshly encoded stream, and Reset() must allow
  // reuse with identical output.
  auto encode_fresh = [] {
    KvWriter<uint32_t, double> w;
    for (uint32_t i = 0; i < 300; ++i) w.Add(i, 1.5 * i);
    return std::move(w).Finish();
  };
  KvWriter<uint32_t, double> reused;
  reused.Add(9, 9.0);
  reused.Reset();
  EXPECT_EQ(reused.count(), 0u);
  EXPECT_EQ(reused.byte_size(), 0u);
  for (uint32_t i = 0; i < 300; ++i) reused.Add(i, 1.5 * i);
  EXPECT_EQ(std::move(reused).Finish(), encode_fresh());
}

TEST(KvStream, ReadAllMatchesEncode) {
  const std::vector<std::pair<std::string, uint64_t>> records{
      {"alpha", 1}, {"beta", 2}, {"", 3}};
  Buffer buf = EncodeKvStream(records);
  KvReader<std::string, uint64_t> r(buf);
  EXPECT_EQ(r.ReadAll().value(), records);
}

TEST(KvStream, CorruptedStreamReportsDataLoss) {
  KvWriter<uint32_t, std::string> w;
  w.Add(1, "abcdefgh");
  w.Add(2, "ijklmnop");
  Buffer buf = std::move(w).Finish();
  // Truncate mid-record. The buffer must outlive the reader (KvReader holds
  // a view, not a copy — it refuses temporaries for exactly this reason).
  const Buffer truncated{
      std::vector<uint8_t>(buf.view().begin(), buf.view().end() - 5)};
  KvReader<uint32_t, std::string> r(truncated);
  EXPECT_FALSE(r.ReadAll().ok());
}

TEST(KvStream, StreamCutInsideKeyVarintReportsDataLoss) {
  // Keys of 2^21 and more take 4 varint bytes; the cut lands after the
  // second byte of the last key, with enough records before it that the
  // earlier keys decode on the varint fast path.
  KvWriter<uint32_t, double> w;
  for (uint32_t i = 0; i < 8; ++i) w.Add((1u << 21) + i, 0.5 * i);
  const Buffer buf = std::move(w).Finish();
  const size_t last_record = 4 + 8;  // varint key + fixed double
  const Buffer truncated{
      std::span<const uint8_t>(buf.data(), buf.size() - last_record + 2)};
  KvReader<uint32_t, double> r(truncated);
  uint32_t k = 0;
  double v = 0;
  uint32_t records = 0;
  while (r.Next(k, v)) ++records;
  EXPECT_EQ(records, 7u);
  EXPECT_EQ(r.status().code(), StatusCode::kDataLoss);
  EXPECT_FALSE(r.Next(k, v));
  EXPECT_EQ(r.status().code(), StatusCode::kDataLoss);
}

TEST(KvStream, EmptyStream) {
  KvWriter<uint32_t, uint32_t> w;
  Buffer buf = std::move(w).Finish();
  KvReader<uint32_t, uint32_t> r(buf);
  EXPECT_EQ(r.count(), 0u);
  EXPECT_TRUE(r.ReadAll().value().empty());
}

// The plain byte-at-a-time CRC-32 the sliced implementation must match.
uint32_t ReferenceCrc32(std::span<const uint8_t> bytes, uint32_t seed = 0) {
  uint32_t c = seed ^ 0xFFFFFFFFu;
  for (uint8_t b : bytes) {
    c ^= b;
    for (int k = 0; k < 8; ++k) c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
  }
  return c ^ 0xFFFFFFFFu;
}

TEST(Crc32, MatchesByteWiseReferenceAtEveryOffsetAndLength) {
  Rng rng(5);
  std::vector<uint8_t> data(8 + 257);
  for (auto& b : data) b = static_cast<uint8_t>(rng.Next());
  for (size_t offset = 0; offset < 8; ++offset) {
    for (size_t len = 0; len <= 257; ++len) {
      const std::span<const uint8_t> slice(data.data() + offset, len);
      ASSERT_EQ(Crc32(slice), ReferenceCrc32(slice))
          << "offset " << offset << " length " << len;
    }
  }
}

TEST(Crc32, ChainsAcrossSplits) {
  Rng rng(6);
  std::vector<uint8_t> data(300);
  for (auto& b : data) b = static_cast<uint8_t>(rng.Next());
  const std::span<const uint8_t> all(data);
  for (size_t split : {0, 1, 7, 8, 9, 63, 64, 150, 299, 300}) {
    const uint32_t head = Crc32(all.first(split));
    EXPECT_EQ(Crc32(all.subspan(split), head), Crc32(all)) << "split " << split;
    EXPECT_EQ(Crc32(all.subspan(split), head),
              ReferenceCrc32(all.subspan(split), ReferenceCrc32(all.first(split))));
  }
}

TEST(Crc32, KnownVector) {
  const std::string data = "123456789";
  const uint32_t crc =
      Crc32({reinterpret_cast<const uint8_t*>(data.data()), data.size()});
  EXPECT_EQ(crc, 0xCBF43926u);  // standard CRC-32 check value
}

TEST(Crc32, DetectsBitFlip) {
  std::vector<uint8_t> data(256);
  for (size_t i = 0; i < data.size(); ++i) data[i] = static_cast<uint8_t>(i);
  const uint32_t before = Crc32(data);
  data[100] ^= 0x01;
  EXPECT_NE(before, Crc32(data));
}

TEST(Crc32, EmptyInput) {
  EXPECT_EQ(Crc32({}), 0u);
}

}  // namespace
}  // namespace asyncmr::serde
