// mss-server wire format: compact length-prefixed binary framing with
// versioned handshake and explicit error frames, plus the stable binary
// serialization of sweep::Value / sweep::ParamSpace and a CRC32 used by
// both the framing tests and the persistent cache records.
//
// Layout (all integers little-endian; see src/server/README.md for the
// full frame table):
//
//   frame   := u32 payload_len | payload            (len <= kMaxFrameBytes)
//   payload := u8 frame_type | body
//   string  := u32 len | bytes
//   value   := u8 tag (0 = int64 | 1 = double | 2 = string) | payload
//              int64 as u64 two's complement, double as raw IEEE-754 bits
//              (bit-exact round trip — the cache's bit-identity contract
//              rides on this), string as above
//   space   := u32 n_dims | dim*
//   dim     := u32 n_axes | axis*                   (n_axes > 1 => zipped)
//   axis    := string name | u64 n_values | value*
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "sweep/param_space.hpp"
#include "util/socket.hpp"

namespace mss::server {

/// Protocol version carried by the Hello handshake; a server refuses
/// mismatching clients with Error{BadVersion} instead of misparsing.
/// History: v1 = PR-8 original; v2 added the scheduler's `slices` counter
/// to the StatusOk/TableEnd body. The handshake is transport-independent —
/// identical over the unix socket and TCP.
inline constexpr std::uint32_t kProtocolVersion = 2;

/// Upper bound a receiver accepts for one frame (defends against garbage
/// length prefixes from a non-protocol peer).
inline constexpr std::uint32_t kMaxFrameBytes = 64u << 20;

/// Upper bound a receiver accepts for the points of one decoded space, per
/// axis and for the product over all dimensions: a few-KB Submit frame of
/// binary axes must not name a job whose bookkeeping alone costs gigabytes
/// (or whose point count wraps around).
inline constexpr std::uint64_t kMaxSpacePoints = 1u << 24;

/// Frame types. Client->server requests are odd-ended names; every server
/// reply is either its *Ok counterpart, a stream of Table* frames, or an
/// Error frame.
enum class FrameType : std::uint8_t {
  Hello = 1,       ///< c->s: u32 protocol_version
  HelloOk = 2,     ///< s->c: u32 protocol_version | string server_id
  Submit = 3,      ///< c->s: string experiment_id | u32 experiment_version
                   ///< (0 = registered) | u64 seed | u32 chunk_size (0 =
                   ///< server default) | u32 threads | i32 priority |
                   ///< u8 has_space | [space]
  Submitted = 4,   ///< s->c: u64 job_id
  Status = 5,      ///< c->s: u64 job_id
  StatusOk = 6,    ///< s->c: u64 job_id | u8 state | u64 total | u64
                   ///< rows_done | u64 evaluated | u64 cache_hits |
                   ///< u64 memo_hits | u64 slices | string error
  Cancel = 7,      ///< c->s: u64 job_id; replied with StatusOk
  Fetch = 8,       ///< c->s: u64 job_id; replied with TableBegin,
                   ///< Row*, TableEnd (streamed as rows complete)
  TableBegin = 9,  ///< s->c: u64 job_id | u32 n_columns | string*
  Row = 10,        ///< s->c: u32 n_cells | value*
  TableEnd = 11,   ///< s->c: same body as StatusOk (final stats)
  Error = 12,      ///< s->c: u16 code | string message
  Shutdown = 13,   ///< c->s: empty; replied with ShutdownOk, then the
                   ///< server stops accepting and drains
  ShutdownOk = 14, ///< s->c: empty
  ListExperiments = 15, ///< c->s: empty
  ExperimentsOk = 16,   ///< s->c: u32 n | (string id | u32 version |
                        ///< string description | u64 default_space_size |
                        ///< u32 n_columns | string*)*
};

/// Error frame codes.
enum class ErrorCode : std::uint16_t {
  BadFrame = 1,          ///< malformed/truncated payload
  BadVersion = 2,        ///< Hello protocol version mismatch
  UnknownExperiment = 3, ///< Submit id/version not in the registry
  UnknownJob = 4,        ///< Status/Cancel/Fetch of an id the server has
                         ///< no record of (e.g. submitted before a restart)
  ShuttingDown = 5,      ///< request raced the server's stop
  Internal = 6,          ///< evaluation threw; message carries what()
  Busy = 7,              ///< connection cap reached; sent instead of the
                         ///< HelloOk, then the server closes — retryable
};

/// Thrown by WireReader on truncated/malformed input; the server converts
/// it into an Error{BadFrame} reply rather than dying.
class WireError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// CRC32 (IEEE 802.3, reflected 0xEDB88320) over a byte range — guards the
/// persistent cache records. crc32("123456789") == 0xCBF43926.
[[nodiscard]] std::uint32_t crc32(const void* data, std::size_t n,
                                  std::uint32_t seed = 0);

/// Append-only little-endian encoder.
class WireWriter {
 public:
  void u8(std::uint8_t v) { buf_.push_back(char(v)); }
  void u16(std::uint16_t v);
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  void i32(std::int32_t v) { u32(std::uint32_t(v)); }
  void i64(std::int64_t v) { u64(std::uint64_t(v)); }
  void f64(double v);
  void str(const std::string& s);
  void value(const sweep::Value& v);
  void space(const sweep::ParamSpace& s);

  [[nodiscard]] const std::string& bytes() const { return buf_; }
  [[nodiscard]] std::string take() { return std::move(buf_); }

 private:
  std::string buf_;
};

/// Cursor-based decoder over a byte buffer; every read throws WireError on
/// truncation, and trailing garbage is detectable via remaining().
class WireReader {
 public:
  explicit WireReader(const std::string& buf) : buf_(buf) {}

  [[nodiscard]] std::uint8_t u8();
  [[nodiscard]] std::uint16_t u16();
  [[nodiscard]] std::uint32_t u32();
  [[nodiscard]] std::uint64_t u64();
  [[nodiscard]] std::int32_t i32() { return std::int32_t(u32()); }
  [[nodiscard]] std::int64_t i64() { return std::int64_t(u64()); }
  [[nodiscard]] double f64();
  [[nodiscard]] std::string str();
  [[nodiscard]] sweep::Value value();
  [[nodiscard]] sweep::ParamSpace space();

  [[nodiscard]] std::size_t remaining() const { return buf_.size() - pos_; }

 private:
  const void* need(std::size_t n);

  const std::string& buf_;
  std::size_t pos_ = 0;
};

/// Sends one frame (length prefix + payload) over a socket.
/// `idle_timeout_ms > 0`: a peer accepting no byte for that long fails the
/// send with ETIMEDOUT (util::write_all's idle-timeout semantics) — how
/// the server evicts a stalled reader instead of pinning a handler thread.
void send_frame(const util::Fd& fd, const std::string& payload,
                int idle_timeout_ms = 0);

/// Receives one frame payload; nullopt on clean EOF at a frame boundary.
/// Throws WireError on oversized frames, std::system_error on I/O errors.
/// `idle_timeout_ms > 0`: no byte for that long throws ETIMEDOUT — a
/// slow-loris peer (half a header, then silence) is evicted, it cannot
/// hold read_exact forever.
[[nodiscard]] std::optional<std::string> recv_frame(const util::Fd& fd,
                                                    int idle_timeout_ms = 0);

} // namespace mss::server
