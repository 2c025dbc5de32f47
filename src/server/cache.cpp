#include "server/cache.hpp"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <system_error>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include "server/wire.hpp"
#include "util/io_fault.hpp"

namespace mss::server {

namespace {

constexpr char kMagic[4] = {'M', 'S', 'S', 'C'};
constexpr std::uint32_t kFormatVersion = 1;
constexpr std::size_t kHeaderBytes = 8;
// A row record beyond this is certainly garbage from a torn/overwritten
// file, not data (rows are a handful of cells).
constexpr std::uint32_t kMaxRecordBytes = 16u << 20;
// Arena block size; a larger record gets a block of its own size.
constexpr std::size_t kBlockBytes = 1u << 20;

[[noreturn]] void throw_errno(const std::string& what) {
  throw std::system_error(errno, std::generic_category(), what);
}

std::string file_header() {
  std::string header(kHeaderBytes, '\0');
  std::memcpy(header.data(), kMagic, 4);
  for (int i = 0; i < 4; ++i) header[4 + i] = char(kFormatVersion >> (8 * i));
  return header;
}

/// write(2) loop through the fault shim; retries EINTR and short writes.
/// Returns false (with errno set) on any other failure.
bool write_fully(int fd, const char* data, std::size_t n) {
  std::size_t off = 0;
  while (off < n) {
    const ssize_t w = util::fault::write(fd, data + off, n - off);
    if (w < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    off += std::size_t(w);
  }
  return true;
}

/// A whole file image in one heap block.
struct Image {
  std::unique_ptr<char[]> bytes;
  std::size_t size = 0;

  [[nodiscard]] std::string_view view() const { return {bytes.get(), size}; }
};

/// Reads a whole file image through the fault shim (pread, EINTR-safe).
Image read_image(int fd, const std::string& what) {
  struct stat st {};
  if (::fstat(fd, &st) != 0) throw_errno(what + ": fstat");
  const auto file_size = std::size_t(st.st_size);
  Image image{std::make_unique_for_overwrite<char[]>(file_size), 0};
  while (image.size < file_size) {
    const ssize_t r =
        util::fault::pread(fd, image.bytes.get() + image.size,
                           file_size - image.size, off_t(image.size));
    if (r < 0) {
      if (errno == EINTR) continue;
      throw_errno(what + ": pread");
    }
    if (r == 0) break; // truncated under us; use what we have
    image.size += std::size_t(r);
  }
  return image;
}

/// Size of the valid record at the start of `bytes` (its 8-byte head plus
/// payload), or 0 when there is none: a length out of bounds or past the
/// end, a CRC mismatch, or a payload that is not exactly
/// `string key | u32 n_cells | value*`. Walks the structure, decodes
/// nothing.
std::size_t valid_record_size(std::string_view bytes) {
  if (bytes.size() < 8) return 0;
  const std::uint32_t len = read_u32le(bytes.data());
  if (len == 0 || len > kMaxRecordBytes || len > bytes.size() - 8) return 0;
  const char* q = bytes.data() + 8;
  if (crc32(q, len) != read_u32le(bytes.data() + 4)) return 0;

  const char* const end = q + len;
  const auto skip = [&](std::size_t n) { // false when fewer than n remain
    if (std::size_t(end - q) < n) return false;
    q += n;
    return true;
  };
  const auto skip_string = [&] {
    return skip(4) && skip(read_u32le(q - 4));
  };
  if (!skip_string() || !skip(4)) return 0;
  const std::uint32_t n_cells = read_u32le(q - 4);
  for (std::uint32_t c = 0; c < n_cells; ++c) {
    if (q == end) return 0;
    switch (*q++) {
      case 0: // int64
      case 1: // double
        if (!skip(8)) return 0;
        break;
      case 2:
        if (!skip_string()) return 0;
        break;
      default: return 0; // bad value tag
    }
  }
  return q == end ? 8 + std::size_t(len) : 0; // no trailing bytes
}

/// Walks the records of a file image, header excluded, calling
/// `on_record(offset)` for each valid one. Stops at the first torn or
/// corrupt record and returns the clean-prefix length.
template <typename OnRecord>
std::size_t walk_image(std::string_view image, OnRecord&& on_record) {
  std::size_t pos = kHeaderBytes;
  while (const std::size_t n = valid_record_size(image.substr(pos))) {
    on_record(pos);
    pos += n;
  }
  return pos;
}

} // namespace

std::string cache_key(const std::string& experiment_id,
                      std::uint32_t experiment_version, std::uint64_t seed,
                      const std::string& point_key) {
  std::string key;
  key.reserve(experiment_id.size() + point_key.size() + 32);
  key += experiment_id;
  key += '\x1f';
  key += std::to_string(experiment_version);
  key += '\x1f';
  key += std::to_string(seed);
  key += '\x1f';
  key += point_key;
  return key;
}

// --- RowRef ------------------------------------------------------------------

std::string_view RowRef::record() const {
  return {record_, 8 + std::size_t(read_u32le(record_))};
}

std::string_view RowRef::key() const {
  return {record_ + 12, read_u32le(record_ + 8)};
}

std::string_view RowRef::cells() const {
  return record().substr(12 + key().size());
}

Row RowRef::decode() const {
  WireReader r(cells());
  const std::uint32_t n_cells = r.u32();
  Row row;
  row.reserve(n_cells);
  for (std::uint32_t c = 0; c < n_cells; ++c) row.push_back(r.value());
  return row;
}

// --- ResultCache -------------------------------------------------------------

ResultCache::ResultCache(const std::string& path, CacheOptions options)
    : path_(path), options_(options) {
  if (path_.empty()) return; // in-memory only
  fd_ = util::fault::open(path_.c_str(), O_RDWR | O_CREAT | O_APPEND, 0644);
  if (fd_ < 0) throw_errno("ResultCache: open '" + path_ + "'");
  replay();
}

ResultCache::~ResultCache() {
  if (fd_ >= 0) ::close(fd_);
}

std::string ResultCache::encode_record(const std::string& key,
                                       const Row& row) {
  WireWriter w;
  w.u32(0); // length and CRC, patched below
  w.u32(0);
  w.str(key);
  w.u32(std::uint32_t(row.size()));
  for (const auto& cell : row) w.value(cell);
  std::string record = w.take();

  const auto len = std::uint32_t(record.size() - 8);
  const std::uint32_t crc = crc32(record.data() + 8, len);
  for (int i = 0; i < 4; ++i) {
    record[i] = char(len >> (8 * i));
    record[4 + i] = char(crc >> (8 * i));
  }
  return record;
}

void ResultCache::replay() {
  Image file = read_image(fd_, "ResultCache");

  const std::string header = file_header();
  if (file.size < kHeaderBytes &&
      file.view() == std::string_view(header).substr(0, file.size)) {
    // A fresh file, or one whose header write a crash tore: (re)write the
    // header now so every non-empty cache file is self-identifying.
    if (::ftruncate(fd_, 0) != 0) throw_errno("ResultCache: ftruncate");
    if (!write_fully(fd_, header.data(), header.size())) {
      throw_errno("ResultCache: write header");
    }
    file_bytes_ = kHeaderBytes;
    return;
  }

  if (file.size < kHeaderBytes ||
      std::memcmp(file.bytes.get(), kMagic, 4) != 0) {
    throw std::runtime_error("ResultCache: '" + path_ +
                             "' is not a cache file (bad magic)");
  }
  const std::uint32_t version = read_u32le(file.bytes.get() + 4);
  if (version != kFormatVersion) {
    throw std::runtime_error("ResultCache: '" + path_ +
                             "' has format version " + std::to_string(version) +
                             ", expected " + std::to_string(kFormatVersion));
  }

  // The image is the first arena block: records are indexed where they
  // lie, first write wins.
  std::size_t records = 0;
  const std::size_t good_end = walk_image(file.view(), [&](std::size_t at) {
    ++records;
    index_locked(RowRef(file.bytes.get() + at));
  });
  blocks_.push_back(std::move(file.bytes));
  replayed_ = map_.size();
  discarded_ = file.size - good_end;
  file_bytes_ = good_end;
  file_records_ = records;
  disk_entries_ = map_.size();

  if (discarded_ != 0) {
    // Truncate the torn tail so the next append starts a clean record.
    if (::ftruncate(fd_, off_t(good_end)) != 0) {
      throw_errno("ResultCache: ftruncate");
    }
  }
}

void ResultCache::index_locked(RowRef row) {
  if (map_.try_emplace(row.key(), row).second) order_.push_back(row);
}

RowRef ResultCache::store_locked(std::string_view record) {
  if (record.size() > block_left_) {
    const std::size_t n = std::max(kBlockBytes, record.size());
    blocks_.push_back(std::make_unique_for_overwrite<char[]>(n));
    block_next_ = blocks_.back().get();
    block_left_ = n;
  }
  char* const at = block_next_;
  std::memcpy(at, record.data(), record.size());
  block_next_ += record.size();
  block_left_ -= record.size();
  return RowRef(at);
}

RowRef ResultCache::lookup(std::string_view key) const {
  std::lock_guard<std::mutex> lk(m_);
  const auto it = map_.find(key);
  return it == map_.end() ? RowRef() : it->second;
}

void ResultCache::append_locked(std::string_view record) {
  // Usually one write(2) per record (O_APPEND), but short writes and EINTR
  // are retried, so a crash mid-append can tear the tail record at *any*
  // byte boundary — inside the 8-byte header or mid-payload. Crash safety
  // comes from replay(), not from append atomicity: it CRC-checks record
  // by record and truncates the file at the first torn/corrupt one.
  if (write_fully(fd_, record.data(), record.size())) {
    file_bytes_ += record.size();
    ++file_records_;
    ++disk_entries_;
    return;
  }
  // Disk failure (ENOSPC, EIO, ...) mid-record: roll the file back to the
  // last clean boundary — a *surviving* process never leaves a torn tail —
  // and degrade to memory-only so a full disk cannot fail jobs. A later
  // successful compact() re-enables persistence.
  ++append_failures_;
  (void)::ftruncate(fd_, off_t(file_bytes_)); // best-effort rollback
  ::close(fd_);
  fd_ = -1;
}

RowRef ResultCache::insert(const std::string& key, const Row& row) {
  const std::string record = encode_record(key, row);
  std::lock_guard<std::mutex> lk(m_);
  if (const auto it = map_.find(key); it != map_.end()) {
    return it->second; // first write wins
  }
  const RowRef stored = store_locked(record);
  index_locked(stored);

  if (fd_ < 0) return stored;
  if (options_.max_bytes != 0 &&
      file_bytes_ + record.size() > options_.max_bytes) {
    // Over the cap. If the file carries duplicate records (concurrent
    // writers), a compaction reclaims them — and persists every live
    // entry, this row included, so a successful pass is the append.
    if (file_records_ > disk_entries_) {
      try {
        (void)compact_locked();
        return stored;
      } catch (const std::exception&) {
        // Compaction failing (e.g. no space for the temp file) leaves the
        // original intact; fall through to the cap.
      }
    }
    ++capped_; // row stays in memory; the file respects the cap
    return stored;
  }
  append_locked(record);
  return stored;
}

CompactStats ResultCache::compact() {
  std::lock_guard<std::mutex> lk(m_);
  return compact_locked();
}

CompactStats ResultCache::compact_locked() {
  CompactStats stats;
  if (path_.empty()) return stats;
  stats.bytes_before = file_bytes_;
  stats.records_before = file_records_;
  stats.records_after = map_.size();

  // The compacted image: header + every stored record verbatim, in
  // first-insertion order (deterministic layout, stable across passes).
  std::string image = file_header();
  for (const RowRef row : order_) image += row.record();

  const std::string tmp_path = path_ + ".compact.tmp";
  int tmp = util::fault::open(tmp_path.c_str(),
                              O_RDWR | O_CREAT | O_TRUNC, 0644);
  if (tmp < 0) throw_errno("ResultCache: open '" + tmp_path + "'");
  try {
    if (!write_fully(tmp, image.data(), image.size())) {
      throw_errno("ResultCache: write '" + tmp_path + "'");
    }
    if (::fsync(tmp) != 0) throw_errno("ResultCache: fsync '" + tmp_path + "'");

    // Prove the rewrite before swapping it in: byte-for-byte, and through
    // replay's record walk — every record valid, one per live entry.
    const Image readback = read_image(tmp, "ResultCache: verify");
    if (readback.view() != image) {
      throw std::runtime_error("ResultCache: compacted file read back "
                               "differently than written");
    }
    std::size_t records = 0;
    const std::size_t good_end =
        walk_image(readback.view(), [&](std::size_t) { ++records; });
    if (good_end != readback.size || records != map_.size()) {
      throw std::runtime_error(
          "ResultCache: compacted file failed replay verification");
    }

    if (::rename(tmp_path.c_str(), path_.c_str()) != 0) {
      throw_errno("ResultCache: rename '" + tmp_path + "'");
    }
  } catch (...) {
    ::close(tmp);
    ::unlink(tmp_path.c_str());
    throw;
  }
  ::close(tmp);

  // Swap the append fd to the new file. A successful compaction proves
  // the disk writes again, so it also lifts memory-only degradation.
  if (fd_ >= 0) ::close(fd_);
  fd_ = util::fault::open(path_.c_str(), O_RDWR | O_APPEND, 0644);
  if (fd_ < 0) throw_errno("ResultCache: reopen '" + path_ + "'");
  file_bytes_ = image.size();
  file_records_ = map_.size();
  disk_entries_ = map_.size();
  stats.bytes_after = file_bytes_;
  return stats;
}

std::size_t ResultCache::entries() const {
  std::lock_guard<std::mutex> lk(m_);
  return map_.size();
}

std::size_t ResultCache::file_bytes() const {
  std::lock_guard<std::mutex> lk(m_);
  return fd_ >= 0 ? file_bytes_ : 0;
}

bool ResultCache::persistent() const {
  std::lock_guard<std::mutex> lk(m_);
  return fd_ >= 0;
}

std::size_t ResultCache::capped_appends() const {
  std::lock_guard<std::mutex> lk(m_);
  return capped_;
}

std::size_t ResultCache::append_failures() const {
  std::lock_guard<std::mutex> lk(m_);
  return append_failures_;
}

} // namespace mss::server
