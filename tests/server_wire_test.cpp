// Wire format: scalar/value/space round trips (bit-exact doubles),
// truncation errors, CRC32 golden value, socket framing.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include <sys/socket.h>

#include "server/wire.hpp"
#include "sweep/param_space.hpp"
#include "util/socket.hpp"

namespace {

using namespace mss::server;
using mss::sweep::Axis;
using mss::sweep::ParamSpace;
using mss::sweep::Value;

std::uint64_t bits_of(double d) {
  std::uint64_t u = 0;
  std::memcpy(&u, &d, sizeof u);
  return u;
}

TEST(Crc32, MatchesIeeeGoldenValue) {
  const char* s = "123456789";
  EXPECT_EQ(crc32(s, 9), 0xCBF43926u);
  EXPECT_EQ(crc32("", 0), 0x00000000u);
}

TEST(Crc32, SeedChains) {
  const char* s = "123456789";
  const std::uint32_t half = crc32(s, 4);
  EXPECT_EQ(crc32(s + 4, 5, half), crc32(s, 9));
}

TEST(Wire, ScalarRoundTrip) {
  WireWriter w;
  w.u8(0xAB);
  w.u16(0xBEEF);
  w.u32(0xDEADBEEFu);
  w.u64(0x0123456789ABCDEFull);
  w.i32(-7);
  w.i64(std::numeric_limits<std::int64_t>::min());
  w.f64(-0.0);
  w.str(std::string("hello\0world", 11));

  WireReader r(w.bytes());
  EXPECT_EQ(r.u8(), 0xAB);
  EXPECT_EQ(r.u16(), 0xBEEF);
  EXPECT_EQ(r.u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.u64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(r.i32(), -7);
  EXPECT_EQ(r.i64(), std::numeric_limits<std::int64_t>::min());
  EXPECT_EQ(bits_of(r.f64()), bits_of(-0.0));
  EXPECT_EQ(r.str(), std::string("hello\0world", 11));
  EXPECT_EQ(r.remaining(), 0u);
}

TEST(Wire, DoubleRoundTripIsBitExact) {
  const double cases[] = {0.0,
                          -0.0,
                          1.0,
                          -1.0 / 3.0,
                          std::numeric_limits<double>::denorm_min(),
                          -std::numeric_limits<double>::denorm_min(),
                          std::numeric_limits<double>::max(),
                          std::numeric_limits<double>::infinity(),
                          -std::numeric_limits<double>::infinity(),
                          std::numeric_limits<double>::quiet_NaN(),
                          std::nextafter(1.0, 2.0)};
  for (const double d : cases) {
    WireWriter w;
    w.f64(d);
    WireReader r(w.bytes());
    EXPECT_EQ(bits_of(r.f64()), bits_of(d));
  }
}

TEST(Wire, ValueRoundTripAllTags) {
  const Value cases[] = {Value(std::int64_t(-42)), Value(2.5),
                         Value(std::string("tag;=\\with\x1f specials")),
                         Value(std::int64_t(0)), Value(-0.0)};
  for (const Value& v : cases) {
    WireWriter w;
    w.value(v);
    WireReader r(w.bytes());
    const Value got = r.value();
    ASSERT_EQ(got.index(), v.index());
    if (std::holds_alternative<double>(v)) {
      EXPECT_EQ(bits_of(std::get<double>(got)), bits_of(std::get<double>(v)));
    } else {
      EXPECT_EQ(got, v);
    }
  }
}

TEST(Wire, TruncatedReadsThrow) {
  WireWriter w;
  w.u32(7);
  WireReader r(w.bytes());
  EXPECT_EQ(r.u32(), 7u);
  EXPECT_THROW((void)r.u8(), WireError);

  // A string whose length prefix promises more than the buffer holds.
  WireWriter w2;
  w2.u32(1000);
  WireReader r2(w2.bytes());
  EXPECT_THROW((void)r2.str(), WireError);
}

TEST(Wire, SpaceRoundTripPreservesStructureAndKeys) {
  ParamSpace space;
  space
      .zip({Axis::list("mats", std::vector<std::int64_t>{1, 2, 4}),
            Axis::list("rows", std::vector<std::int64_t>{64, 128, 256})})
      .cross(Axis::linear("v", 0.1, 0.9, 5))
      .cross(Axis::list("tag", std::vector<std::string>{"a;b", "c=d", "e\\f"}));

  WireWriter w;
  w.space(space);
  WireReader r(w.bytes());
  const ParamSpace got = r.space();
  EXPECT_EQ(r.remaining(), 0u);

  ASSERT_EQ(got.size(), space.size());
  ASSERT_EQ(got.dims(), space.dims());
  EXPECT_EQ(got.names(), space.names());
  for (std::size_t i = 0; i < space.size(); ++i) {
    EXPECT_EQ(got.at(i).key(), space.at(i).key()) << "point " << i;
  }
}

TEST(Wire, EmptySpaceRoundTrip) {
  ParamSpace space; // one point, no coordinates
  WireWriter w;
  w.space(space);
  WireReader r(w.bytes());
  const ParamSpace got = r.space();
  EXPECT_EQ(got.size(), 1u);
  EXPECT_EQ(got.at(0).key(), "");
}

// `n` binary axes crossed: 2^n points from a frame of a few hundred bytes.
ParamSpace binary_axes(std::size_t n) {
  ParamSpace space;
  for (std::size_t i = 0; i < n; ++i) {
    space.cross(
        Axis::list("b" + std::to_string(i), std::vector<double>{0.0, 1.0}));
  }
  return space;
}

ParamSpace decode(const ParamSpace& space) {
  WireWriter w;
  w.space(space);
  WireReader r(w.bytes());
  return r.space();
}

// The point bound covers the product over dimensions, not just each axis:
// 2^24 points decode, one more binary axis (or 64, whose product wraps a
// 64-bit size to 0) is rejected as a malformed frame.
TEST(Wire, SpacePointProductIsBounded) {
  EXPECT_EQ(decode(binary_axes(24)).size(), kMaxSpacePoints);
  EXPECT_THROW((void)decode(binary_axes(25)), WireError);
  EXPECT_THROW((void)decode(binary_axes(64)), WireError);
}

TEST(Wire, FramesRoundTripOverASocketPair) {
  int sv[2] = {-1, -1};
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  mss::util::Fd a(sv[0]);
  mss::util::Fd b(sv[1]);

  send_frame(a, "hello");
  send_frame(a, std::string("\x00\x01\x02", 3));
  send_frame(a, ""); // empty payload is legal framing

  EXPECT_EQ(recv_frame(b), "hello");
  EXPECT_EQ(recv_frame(b), std::string("\x00\x01\x02", 3));
  EXPECT_EQ(recv_frame(b), "");

  a.close(); // clean EOF at a frame boundary
  EXPECT_FALSE(recv_frame(b).has_value());
}

TEST(Wire, OversizedFrameLengthIsRejected) {
  int sv[2] = {-1, -1};
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  mss::util::Fd a(sv[0]);
  mss::util::Fd b(sv[1]);

  const std::uint32_t huge = kMaxFrameBytes + 1;
  char prefix[4];
  std::memcpy(prefix, &huge, 4); // little-endian host (x86/arm64 CI)
  mss::util::write_all(a, prefix, 4);
  EXPECT_THROW((void)recv_frame(b), WireError);
}

} // namespace
