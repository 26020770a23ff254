// Tests for the little-endian checkpoint codec, with emphasis on the
// belt-and-braces bounds/overflow behaviour the checkpoint fuzzer leans
// on: hostile length fields must yield InvalidArgument, never a wrapped
// cursor, a huge allocation, or undefined behaviour.

#include "common/binary_io.h"

#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "sim/stream.h"

namespace spes {
namespace {

TEST(BinaryIoTest, PrimitivesRoundTrip) {
  BinaryWriter w;
  w.PutU8(0xab);
  w.PutBool(true);
  w.PutU32(0xdeadbeef);
  w.PutU64(0x0123456789abcdefULL);
  w.PutI32(-42);
  w.PutI64(std::numeric_limits<int64_t>::min());
  w.PutDouble(-0.125);
  w.PutBytes("payload");

  const std::string blob = w.data();
  BinaryReader r(blob);
  EXPECT_EQ(r.U8().ValueOrDie(), 0xab);
  EXPECT_TRUE(r.Bool().ValueOrDie());
  EXPECT_EQ(r.U32().ValueOrDie(), 0xdeadbeefu);
  EXPECT_EQ(r.U64().ValueOrDie(), 0x0123456789abcdefULL);
  EXPECT_EQ(r.I32().ValueOrDie(), -42);
  EXPECT_EQ(r.I64().ValueOrDie(), std::numeric_limits<int64_t>::min());
  EXPECT_EQ(r.Double().ValueOrDie(), -0.125);
  EXPECT_EQ(r.Bytes().ValueOrDie(), "payload");
  EXPECT_TRUE(r.AtEnd());
}

TEST(BinaryIoTest, DoubleRoundTripIsBitwise) {
  // NaN payload bits and signed zero must survive exactly.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  BinaryWriter w;
  w.PutDouble(nan);
  w.PutDouble(-0.0);
  BinaryReader r(w.data());
  const double nan_back = r.Double().ValueOrDie();
  EXPECT_NE(nan_back, nan_back);  // still a NaN
  const double zero_back = r.Double().ValueOrDie();
  EXPECT_EQ(zero_back, 0.0);
  EXPECT_TRUE(std::signbit(zero_back));
}

TEST(BinaryIoTest, TruncatedPrimitiveIsInvalidArgument) {
  const std::string three_bytes("\x01\x02\x03", 3);
  BinaryReader r(three_bytes);
  const auto v = r.U32();
  EXPECT_EQ(v.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(v.status().message().find("truncated"), std::string::npos);
}

TEST(BinaryIoTest, MaxU64LengthFieldCannotWrapTheCursor) {
  // A Bytes() length of UINT64_MAX: adding it to the cursor would wrap
  // to a small value if the check were done in wrapped arithmetic.
  BinaryWriter w;
  w.PutU64(std::numeric_limits<uint64_t>::max());
  w.PutU8(0x7f);  // one actual payload byte
  BinaryReader r(w.data());
  const auto bytes = r.Bytes();
  EXPECT_EQ(bytes.status().code(), StatusCode::kInvalidArgument);
  // The reader did not advance past the length field, so the payload
  // byte is still readable: the cursor never wrapped.
  EXPECT_EQ(r.remaining(), 1u);
  EXPECT_EQ(r.U8().ValueOrDie(), 0x7f);
}

TEST(BinaryIoTest, NearMaxLengthFieldIsRejectedToo) {
  // SIZE_MAX - small: still astronomically larger than the buffer; the
  // comparison must happen in u64 space, not after size_t narrowing.
  BinaryWriter w;
  w.PutU64(std::numeric_limits<uint64_t>::max() - 7);
  BinaryReader r(w.data());
  EXPECT_EQ(r.Bytes().status().code(), StatusCode::kInvalidArgument);
}

TEST(BinaryIoTest, LengthBoundsElementCountAgainstRemainingBytes) {
  BinaryWriter w;
  w.PutU64(1000);  // announce 1000 elements...
  w.PutU32(0);     // ...but provide 4 bytes
  BinaryReader r(w.data());
  const auto count = r.Length(/*min_element_bytes=*/40);
  EXPECT_EQ(count.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(count.status().message().find("element count"),
            std::string::npos);
}

TEST(BinaryIoTest, LengthOverflowProofForHugeCounts) {
  // count * min_element_bytes would overflow u64; the division phrasing
  // must still reject it.
  BinaryWriter w;
  w.PutU64(std::numeric_limits<uint64_t>::max() / 2);
  BinaryReader r(w.data());
  EXPECT_EQ(r.Length(40).status().code(), StatusCode::kInvalidArgument);
}

TEST(BinaryIoTest, LengthAcceptsExactFit) {
  BinaryWriter w;
  w.PutU64(3);
  w.PutU32(1);
  w.PutU32(2);
  w.PutU32(3);
  BinaryReader r(w.data());
  EXPECT_EQ(r.Length(4).ValueOrDie(), 3u);
}

TEST(BinaryIoTest, LengthRejectsZeroMinElementBytes) {
  BinaryWriter w;
  w.PutU64(1);
  BinaryReader r(w.data());
  // A zero element size would disable the allocation bound entirely;
  // that is a caller bug, reported as Internal.
  EXPECT_EQ(r.Length(0).status().code(), StatusCode::kInternal);
}

TEST(BinaryIoTest, EmptyBufferReportsPositionInErrors) {
  // NB: BinaryReader borrows its buffer, so it must be a named lvalue —
  // BinaryReader(std::string("...")) is a deleted overload by design.
  const std::string empty;
  BinaryReader r(empty);
  const auto v = r.U64();
  EXPECT_EQ(v.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(v.status().message().find("offset 0"), std::string::npos);
  EXPECT_TRUE(r.AtEnd());
}

// A hostile checkpoint header: valid magic + version, then a lane count
// of UINT64_MAX. ParseCheckpoint must reject via the Length() bound
// instead of attempting a ~10^18-entry reserve.
TEST(BinaryIoTest, HostileCheckpointLaneCountIsRejected) {
  BinaryWriter w;
  w.PutBytes("SPESCKPT");
  w.PutU32(1);                      // version
  w.PutI32(0);                      // cursor
  w.PutI32(0);                      // train_minutes
  w.PutI32(0);                      // end_minute
  w.PutBool(true);                  // executions pin (always 1)
  w.PutU64(0);                      // num_functions
  w.PutBool(false);                 // stopped
  w.PutU64(std::numeric_limits<uint64_t>::max());  // lane count
  const auto parsed = ParseCheckpoint(w.data());
  EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(parsed.status().message().find("element count"),
            std::string::npos);
}

TEST(BinaryIoTest, BoolRejectsBytesOtherThanZeroAndOne) {
  const std::string bytes("\x00\x01\x02", 3);
  BinaryReader r(bytes);
  EXPECT_FALSE(r.Bool().ValueOrDie());
  EXPECT_TRUE(r.Bool().ValueOrDie());
  const auto bad = r.Bool();
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(bad.status().message().find("offset 2"), std::string::npos);
}

TEST(BinaryIoTest, FixedWidthVectorsRoundTripInTheScalarEncoding) {
  const std::vector<int32_t> ints = {-1, 0, 7, INT32_MIN};
  const std::vector<double> doubles = {-0.0, 1.5};
  const std::vector<uint8_t> bytes = {0, 255};
  BinaryWriter w;
  w.PutVector(ints);
  w.PutArray(doubles);
  w.PutVector(std::vector<uint64_t>{});
  w.PutVector(bytes);

  // Byte for byte what the scalar writers produce.
  BinaryWriter scalar;
  scalar.PutU64(ints.size());
  for (const int32_t v : ints) scalar.PutI32(v);
  for (const double v : doubles) scalar.PutDouble(v);
  scalar.PutU64(0);
  scalar.PutU64(bytes.size());
  for (const uint8_t v : bytes) scalar.PutU8(v);
  ASSERT_EQ(w.data(), scalar.data());

  BinaryReader r(w.data());
  EXPECT_EQ(r.Vector<int32_t>().ValueOrDie(), ints);
  const std::vector<double> doubles_back = r.Array<double>(2).ValueOrDie();
  EXPECT_TRUE(std::signbit(doubles_back[0]));
  EXPECT_EQ(doubles_back[1], 1.5);
  EXPECT_TRUE(r.Vector<uint64_t>().ValueOrDie().empty());
  EXPECT_EQ(r.Vector<uint8_t>().ValueOrDie(), bytes);
  EXPECT_TRUE(r.AtEnd());
}

TEST(BinaryIoTest, VectorCountIsBoundedByTheElementWidth) {
  // Eight bytes follow the count: two u32s fit, three do not.
  BinaryWriter w;
  w.PutU64(3);
  w.PutU64(0);
  BinaryReader r(w.data());
  const auto too_many = r.Vector<uint32_t>();
  EXPECT_EQ(too_many.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(too_many.status().message().find("element count"),
            std::string::npos);

  BinaryReader exact(w.data());
  ASSERT_TRUE(exact.U64().ok());
  EXPECT_EQ(exact.Array<uint32_t>(2).ValueOrDie().size(), 2u);
  EXPECT_TRUE(exact.AtEnd());

  // A caller-supplied count near UINT64_MAX cannot overflow the check.
  BinaryReader hostile(w.data());
  EXPECT_EQ(hostile.Array<uint64_t>(std::numeric_limits<uint64_t>::max())
                .status()
                .code(),
            StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace spes
