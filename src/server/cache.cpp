#include "server/cache.hpp"

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

std::uint32_t read_u32le(const unsigned char* p) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= std::uint32_t(p[i]) << (8 * i);
  return v;
}

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

/// Reads a whole file image through the fault shim (pread, EINTR-safe).
std::string read_image(int fd, const std::string& what) {
  struct stat st {};
  if (::fstat(fd, &st) != 0) throw_errno(what + ": fstat");
  const auto file_size = std::size_t(st.st_size);
  std::string file(file_size, '\0');
  std::size_t got = 0;
  while (got < file_size) {
    const ssize_t r =
        util::fault::pread(fd, file.data() + got, file_size - got, off_t(got));
    if (r < 0) {
      if (errno == EINTR) continue;
      throw_errno(what + ": pread");
    }
    if (r == 0) break; // truncated under us; use what we have
    got += std::size_t(r);
  }
  file.resize(got);
  return file;
}

/// Bit-exact Value equality: doubles compare by their IEEE representation
/// (NaN == NaN, -0.0 != +0.0 — exactly the cache's identity contract).
bool bit_equal(const sweep::Value& a, const sweep::Value& b) {
  if (a.index() != b.index()) return false;
  if (const auto* da = std::get_if<double>(&a)) {
    const double db = std::get<double>(b);
    return std::memcmp(da, &db, sizeof db) == 0;
  }
  return a == b;
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
  w.str(key);
  w.u32(std::uint32_t(row.size()));
  for (const auto& cell : row) w.value(cell);
  const std::string payload = w.take();

  std::string record;
  record.reserve(8 + payload.size());
  const auto len = std::uint32_t(payload.size());
  const std::uint32_t crc = crc32(payload.data(), payload.size());
  for (int i = 0; i < 4; ++i) record += char(len >> (8 * i));
  for (int i = 0; i < 4; ++i) record += char(crc >> (8 * i));
  record += payload;
  return record;
}

std::size_t ResultCache::parse_image(
    const std::string& file, std::vector<std::pair<std::string, Row>>& out,
    std::size_t& records) {
  std::size_t pos = kHeaderBytes;
  std::size_t good_end = pos;
  std::unordered_map<std::string, std::size_t> seen;
  while (pos + 8 <= file.size()) {
    const auto* base = reinterpret_cast<const unsigned char*>(file.data());
    const std::uint32_t len = read_u32le(base + pos);
    const std::uint32_t want_crc = read_u32le(base + pos + 4);
    if (len == 0 || len > kMaxRecordBytes || pos + 8 + len > file.size()) {
      break; // torn tail (or garbage length): stop before it
    }
    const char* payload = file.data() + pos + 8;
    if (crc32(payload, len) != want_crc) break; // corrupt record
    try {
      const std::string body(payload, len);
      WireReader r(body);
      std::string key = r.str();
      const std::uint32_t n_cells = r.u32();
      Row row;
      row.reserve(n_cells);
      for (std::uint32_t c = 0; c < n_cells; ++c) row.push_back(r.value());
      if (r.remaining() != 0) break; // trailing junk inside the record
      ++records;
      if (seen.emplace(key, out.size()).second) { // first write wins
        out.emplace_back(std::move(key), std::move(row));
      }
    } catch (const WireError&) {
      break; // structurally invalid despite CRC: treat as tail corruption
    }
    pos += 8 + std::size_t(len);
    good_end = pos;
  }
  return good_end;
}

void ResultCache::replay() {
  const std::string file = read_image(fd_, "ResultCache");

  if (file.empty()) {
    // Fresh file: write the header now so every non-empty cache file is
    // self-identifying.
    const std::string header = file_header();
    if (!write_fully(fd_, header.data(), header.size())) {
      throw_errno("ResultCache: write header");
    }
    file_bytes_ = kHeaderBytes;
    return;
  }

  if (file.size() < kHeaderBytes || std::memcmp(file.data(), kMagic, 4) != 0) {
    throw std::runtime_error("ResultCache: '" + path_ +
                             "' is not a cache file (bad magic)");
  }
  const std::uint32_t version =
      read_u32le(reinterpret_cast<const unsigned char*>(file.data()) + 4);
  if (version != kFormatVersion) {
    throw std::runtime_error("ResultCache: '" + path_ +
                             "' has format version " + std::to_string(version) +
                             ", expected " + std::to_string(kFormatVersion));
  }

  std::vector<std::pair<std::string, Row>> parsed;
  std::size_t records = 0;
  const std::size_t good_end = parse_image(file, parsed, records);
  for (auto& [key, row] : parsed) {
    const auto [it, fresh] = map_.emplace(std::move(key), std::move(row));
    if (fresh) order_.push_back(&it->first);
  }
  replayed_ = map_.size();
  discarded_ = file.size() - good_end;
  file_bytes_ = good_end;
  file_records_ = records;
  disk_entries_ = map_.size();

  if (good_end < file.size()) {
    // Truncate the torn tail so the next append starts a clean record.
    if (::ftruncate(fd_, off_t(good_end)) != 0) {
      throw_errno("ResultCache: ftruncate");
    }
  }
}

const Row* ResultCache::lookup(const std::string& key) const {
  std::lock_guard<std::mutex> lk(m_);
  const auto it = map_.find(key);
  return it == map_.end() ? nullptr : &it->second;
}

void ResultCache::append_locked(const std::string& record) {
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

const Row& ResultCache::insert(const std::string& key, Row row) {
  std::lock_guard<std::mutex> lk(m_);
  const auto [it, fresh] = map_.try_emplace(key, std::move(row));
  const Row& stored = it->second;
  if (!fresh) return stored; // first write wins
  order_.push_back(&it->first);

  if (fd_ < 0) return stored;
  const std::string record = encode_record(key, stored);

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

  // Build the compacted image: header + one record per live entry, in
  // first-insertion order (deterministic layout, stable across passes).
  std::string image = file_header();
  for (const std::string* key : order_) {
    image += encode_record(*key, map_.at(*key));
  }

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
    // the replay parser — the image must parse to exactly the live
    // entries, every row bit-identical to the in-memory index.
    const std::string readback = read_image(tmp, "ResultCache: verify");
    if (readback != image) {
      throw std::runtime_error("ResultCache: compacted file read back "
                               "differently than written");
    }
    std::vector<std::pair<std::string, Row>> parsed;
    std::size_t records = 0;
    const std::size_t good_end = parse_image(readback, parsed, records);
    bool ok = good_end == readback.size() && records == map_.size() &&
              parsed.size() == map_.size();
    for (std::size_t i = 0; ok && i < parsed.size(); ++i) {
      const auto it = map_.find(parsed[i].first);
      ok = it != map_.end() &&
           parsed[i].second.size() == it->second.size();
      for (std::size_t c = 0; ok && c < it->second.size(); ++c) {
        ok = bit_equal(parsed[i].second[c], it->second[c]);
      }
    }
    if (!ok) {
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
