#include "server/wire.hpp"

#include <algorithm>
#include <array>
#include <cstring>
#include <system_error>

namespace mss::server {

namespace {

std::array<std::uint32_t, 256> make_crc_table() {
  std::array<std::uint32_t, 256> t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    t[i] = c;
  }
  return t;
}

const std::array<std::uint32_t, 256> kCrcTable = make_crc_table();

} // namespace

std::uint32_t crc32(const void* data, std::size_t n, std::uint32_t seed) {
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint32_t c = seed ^ 0xFFFFFFFFu;
  for (std::size_t i = 0; i < n; ++i) {
    c = kCrcTable[(c ^ p[i]) & 0xFFu] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

// --- WireWriter --------------------------------------------------------------

void WireWriter::u16(std::uint16_t v) {
  u8(std::uint8_t(v));
  u8(std::uint8_t(v >> 8));
}

void WireWriter::u32(std::uint32_t v) {
  for (int i = 0; i < 4; ++i) u8(std::uint8_t(v >> (8 * i)));
}

void WireWriter::u64(std::uint64_t v) {
  for (int i = 0; i < 8; ++i) u8(std::uint8_t(v >> (8 * i)));
}

void WireWriter::f64(double v) {
  std::uint64_t bits;
  static_assert(sizeof bits == sizeof v);
  std::memcpy(&bits, &v, sizeof bits); // raw IEEE bits: NaN payloads, -0.0
  u64(bits);                           // and denormals all round-trip
}

void WireWriter::str(const std::string& s) {
  u32(std::uint32_t(s.size()));
  buf_.append(s);
}

void WireWriter::value(const sweep::Value& v) {
  if (const auto* i = std::get_if<std::int64_t>(&v)) {
    u8(0);
    i64(*i);
  } else if (const auto* d = std::get_if<double>(&v)) {
    u8(1);
    f64(*d);
  } else {
    u8(2);
    str(std::get<std::string>(v));
  }
}

void WireWriter::space(const sweep::ParamSpace& s) {
  // The structural encoding mirrors ParamSpace::dimensions() one-to-one,
  // so the reader reconstructs an identical space through cross()/zip()
  // and every Point::key() decoded from it matches the sender's — the
  // identity the persistent cache requires.
  const auto& dims = s.dimensions();
  u32(std::uint32_t(dims.size()));
  for (const auto& group : dims) {
    u32(std::uint32_t(group.size()));
    for (const auto& axis : group) {
      str(axis.name());
      u64(axis.size());
      for (std::size_t i = 0; i < axis.size(); ++i) value(axis.at(i));
    }
  }
}

// --- WireReader --------------------------------------------------------------

const void* WireReader::need(std::size_t n) {
  if (buf_.size() - pos_ < n) {
    throw WireError("wire: truncated message (need " + std::to_string(n) +
                    " bytes, have " + std::to_string(buf_.size() - pos_) +
                    ")");
  }
  const void* p = buf_.data() + pos_;
  pos_ += n;
  return p;
}

std::uint8_t WireReader::u8() {
  return *static_cast<const unsigned char*>(need(1));
}

std::uint16_t WireReader::u16() {
  const auto* p = static_cast<const unsigned char*>(need(2));
  return std::uint16_t(p[0] | (std::uint16_t(p[1]) << 8));
}

std::uint32_t WireReader::u32() {
  const auto* p = static_cast<const unsigned char*>(need(4));
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= std::uint32_t(p[i]) << (8 * i);
  return v;
}

std::uint64_t WireReader::u64() {
  const auto* p = static_cast<const unsigned char*>(need(8));
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= std::uint64_t(p[i]) << (8 * i);
  return v;
}

double WireReader::f64() {
  const std::uint64_t bits = u64();
  double v;
  std::memcpy(&v, &bits, sizeof v);
  return v;
}

std::string WireReader::str() {
  const std::uint32_t n = u32();
  if (n > kMaxFrameBytes) throw WireError("wire: string length too large");
  const auto* p = static_cast<const char*>(need(n));
  return std::string(p, n);
}

sweep::Value WireReader::value() {
  switch (u8()) {
    case 0: return sweep::Value(i64());
    case 1: return sweep::Value(f64());
    case 2: return sweep::Value(str());
    default: throw WireError("wire: bad value tag");
  }
}

sweep::ParamSpace WireReader::space() {
  const std::uint32_t n_dims = u32();
  if (n_dims > 4096) throw WireError("wire: absurd dimension count");
  sweep::ParamSpace out;
  std::uint64_t points = 1;
  for (std::uint32_t d = 0; d < n_dims; ++d) {
    const std::uint32_t n_axes = u32();
    if (n_axes == 0 || n_axes > 4096) {
      throw WireError("wire: bad axis count in dimension");
    }
    std::vector<sweep::Axis> axes;
    axes.reserve(n_axes);
    for (std::uint32_t a = 0; a < n_axes; ++a) {
      std::string name = str();
      const std::uint64_t n_values = u64();
      if (n_values > kMaxSpacePoints) throw WireError("wire: axis too long");
      std::vector<sweep::Value> vals;
      // Reserve only what the remaining payload could actually encode
      // (every value is >= 5 bytes): a hostile length field must not be
      // able to commit hundreds of MB before truncation is detected.
      vals.reserve(std::size_t(
          std::min<std::uint64_t>(n_values, remaining() / 5 + 1)));
      for (std::uint64_t v = 0; v < n_values; ++v) vals.push_back(value());
      axes.push_back(sweep::Axis::values(std::move(name), std::move(vals)));
    }
    // Overflow-safe form of points * len > kMaxSpacePoints (a zip group's
    // length is its first axis's; mismatched lengths are rejected below).
    const std::uint64_t len = axes.front().size();
    if (len != 0 && points > kMaxSpacePoints / len) {
      throw WireError("wire: space has more than 2^24 points");
    }
    points *= len;
    try {
      if (axes.size() == 1) {
        out.cross(std::move(axes.front()));
      } else {
        out.zip(std::move(axes));
      }
    } catch (const std::invalid_argument& e) {
      // duplicate axis names / zip length mismatch from a hostile encoder
      throw WireError(std::string("wire: invalid space: ") + e.what());
    }
  }
  return out;
}

// --- framing -----------------------------------------------------------------

void send_frame(const util::Fd& fd, const std::string& payload,
                int idle_timeout_ms) {
  if (payload.size() > kMaxFrameBytes) {
    throw WireError("wire: frame payload too large");
  }
  char head[4];
  const auto len = std::uint32_t(payload.size());
  for (int i = 0; i < 4; ++i) head[i] = char(len >> (8 * i));
  // One send for the header keeps syscall count at 2/frame; the transport
  // is a stream socket, so splitting is semantically irrelevant.
  util::write_all(fd, head, sizeof head, idle_timeout_ms);
  util::write_all(fd, payload.data(), payload.size(), idle_timeout_ms);
}

std::optional<std::string> recv_frame(const util::Fd& fd,
                                      int idle_timeout_ms) {
  unsigned char head[4];
  if (!util::read_exact(fd, head, sizeof head, idle_timeout_ms)) {
    return std::nullopt;
  }
  std::uint32_t len = 0;
  for (int i = 0; i < 4; ++i) len |= std::uint32_t(head[i]) << (8 * i);
  if (len > kMaxFrameBytes) throw WireError("wire: oversized frame");
  std::string payload(len, '\0');
  if (len > 0 && !util::read_exact(fd, payload.data(), len, idle_timeout_ms)) {
    throw std::system_error(std::make_error_code(std::errc::connection_reset),
                            "recv_frame: EOF mid-frame");
  }
  return payload;
}

} // namespace mss::server
