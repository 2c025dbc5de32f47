// Persistent cross-run result cache: an append-only on-disk store of
// (experiment id, experiment version, seed, Point::key()) -> ResultTable
// row, with CRC-guarded records and crash-safe replay.
//
// This is what turns the job server's sweeps resumable: every evaluated
// row is appended before it is streamed, so a SIGKILLed server replays the
// file on restart and a resubmitted job serves the already-computed points
// from the cache — bit-identical to an in-memory memo hit, because rows
// are stored as raw typed cells (doubles as IEEE bits, never text).
//
// File layout (little-endian):
//   header  := "MSSC" | u32 format_version (1)
//   record  := u32 payload_len | u32 crc32(payload) | payload
//   payload := string key | u32 n_cells | value*        (wire encoding)
//
// Crash safety: appends go to an O_APPEND fd and are *usually* one
// write(2), but short writes and EINTR are retried, so a crash can tear
// the tail record at any byte boundary (mid-header or mid-payload) — no
// atomicity is assumed. The real guarantee is replay's: it checks each
// record's length bound and CRC and walks its key and cells (valid tags,
// nothing past the record's end, no trailing bytes), and *truncates* the
// file at the first bad record, so the next append lands on a clean
// boundary instead of burying garbage mid-file. CRC (not just length)
// guards against a torn write whose length field survived. A file that
// holds only a prefix of the header (a crash while a fresh cache wrote
// it) replays as empty, with the header rewritten.
//
// Disk-failure degradation: an append that fails mid-record (ENOSPC, EIO)
// is rolled back with ftruncate to the last clean record boundary and the
// cache drops to memory-only mode (`persistent()` turns false) — the row
// is still served from the in-memory index and jobs keep streaming; only
// cross-run persistence of *new* rows is lost. A later successful
// compact() re-enables persistence (compaction proves the disk writes
// again). The file is never left with a torn tail by a *surviving*
// process; replay-truncation covers the killed ones.
//
// Growth management: `CacheOptions::max_bytes` caps the file. An append
// that would cross the cap first triggers a compaction (dropping
// first-write-wins duplicate records left by concurrent writers); if the
// file still cannot take the record under the cap, the append is skipped
// (counted in `capped_appends()`) and the row lives in memory only.
// `compact()` rewrites the file via temp-file + rename: the rewritten
// image is the stored records concatenated, read back and proven
// byte-identical and structurally valid *before* the rename swaps it in,
// so a crash at any point leaves either the old or the new file, both
// valid.
//
// Record ownership: the cache keeps every row as the exact record bytes
// it writes to the file, never decoded. Records live in an append-only
// arena of blocks that are never moved or freed before the cache is — the
// replayed file image is the first block — and the key index holds
// string_views into them. Memory is therefore about the file's bytes plus
// the index. lookup() and insert() hand out RowRef handles (one pointer to
// a record), and nothing ever erases an index entry (compaction rewrites
// only the file; capped and degraded inserts still store the record), so
// a handle stays valid — and its bytes immutable — for the cache's whole
// lifetime. Readers may therefore dereference it without holding any
// cache lock. A record's cell bytes are byte-identical to the body of a
// wire Row frame, so fetches stream them verbatim.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "sweep/param_space.hpp"

namespace mss::server {

/// One result row: the typed cells of a ResultTable row.
using Row = std::vector<sweep::Value>;

/// A handle to one stored row: a single pointer to its record in a
/// ResultCache's arena, or null. Trivially copyable; valid (and the bytes
/// it names immutable) for the lifetime of the cache that returned it.
class RowRef {
 public:
  RowRef() = default;

  [[nodiscard]] explicit operator bool() const { return record_ != nullptr; }
  friend bool operator==(RowRef, RowRef) = default;

  /// The cache key the row is stored under.
  [[nodiscard]] std::string_view key() const;
  /// The row's wire encoding, `u32 n_cells | value*` — byte-identical to
  /// the body of a Row frame.
  [[nodiscard]] std::string_view cells() const;
  /// Decodes the typed cells (doubles bit-exact).
  [[nodiscard]] Row decode() const;

 private:
  friend class ResultCache;
  explicit RowRef(const char* record) : record_(record) {}
  /// The whole record: `u32 len | u32 crc | string key | cells`.
  [[nodiscard]] std::string_view record() const;

  const char* record_ = nullptr;
};

/// Composes the full cache key. `point_key` is Point::key() — injective
/// over coordinates — and the 0x1F unit separators cannot appear unescaped
/// inside any component, so distinct (experiment, version, seed, point)
/// tuples never collide.
[[nodiscard]] std::string cache_key(const std::string& experiment_id,
                                    std::uint32_t experiment_version,
                                    std::uint64_t seed,
                                    const std::string& point_key);

struct CacheOptions {
  /// Maximum cache file size in bytes; 0 = unlimited. Appends that would
  /// cross the cap trigger a compaction, then drop to memory-only.
  std::size_t max_bytes = 0;
};

/// What a compact() pass did.
struct CompactStats {
  std::size_t bytes_before = 0;
  std::size_t bytes_after = 0;
  std::size_t records_before = 0; ///< file records, duplicates included
  std::size_t records_after = 0;  ///< == live entries
};

/// The persistent row cache. Thread-safe; one instance per server.
class ResultCache {
 public:
  /// Opens (creating if absent) and replays `path`. Empty path = purely
  /// in-memory (no persistence) — the executor unit tests use this.
  explicit ResultCache(const std::string& path, CacheOptions options = {});
  ~ResultCache();

  ResultCache(const ResultCache&) = delete;
  ResultCache& operator=(const ResultCache&) = delete;

  /// The cached row, or a null handle.
  [[nodiscard]] RowRef lookup(std::string_view key) const;

  /// Appends (key, row) to the file and the in-memory store and returns
  /// the stored row. A key that is already present keeps its row, which
  /// is returned instead (first write wins — the memo-hit semantics: the
  /// first computed result is the canonical one). Disk failures degrade
  /// to memory-only (see header) — insert never throws for them, so a
  /// full disk cannot fail jobs.
  RowRef insert(const std::string& key, const Row& row);

  /// Rewrites the file with exactly one record per live entry, in
  /// first-insertion order, via temp-file + rename. The new image is
  /// read back and verified byte-identical and valid before the swap.
  /// Throws std::system_error / std::runtime_error on failure — the
  /// original file is left untouched. No-op (zeros) when in-memory.
  CompactStats compact();

  /// Entries currently indexed.
  [[nodiscard]] std::size_t entries() const;
  /// Entries recovered from disk by the constructor's replay.
  [[nodiscard]] std::size_t replayed() const { return replayed_; }
  /// Bytes discarded from the tail during replay (torn/corrupt records).
  [[nodiscard]] std::size_t discarded_bytes() const { return discarded_; }
  /// Current file size in bytes (header + clean records); 0 if in-memory.
  [[nodiscard]] std::size_t file_bytes() const;
  /// False when a disk failure dropped the cache to memory-only mode (or
  /// the cache was opened without a path).
  [[nodiscard]] bool persistent() const;
  /// Appends skipped because the size cap left no room even after
  /// compaction.
  [[nodiscard]] std::size_t capped_appends() const;
  /// Disk-failure count (each one rolled back; the first drops
  /// persistence).
  [[nodiscard]] std::size_t append_failures() const;

  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  void replay();
  /// Serializes one record (length | crc | payload) for (key, row).
  [[nodiscard]] static std::string encode_record(const std::string& key,
                                                const Row& row);
  /// Copies `record` into the arena; the copy never moves.
  RowRef store_locked(std::string_view record);
  /// Indexes a stored record; a duplicate key keeps its first record.
  void index_locked(RowRef row);
  CompactStats compact_locked();
  /// Appends `record` with rollback-to-boundary + degrade on failure.
  void append_locked(std::string_view record);

  std::string path_;
  CacheOptions options_;
  int fd_ = -1; ///< O_APPEND fd; -1 when in-memory or degraded
  mutable std::mutex m_;
  /// Append-only record storage; blocks are never moved or freed (see
  /// "Record ownership" above).
  std::vector<std::unique_ptr<char[]>> blocks_;
  char* block_next_ = nullptr; ///< free space of the current block
  std::size_t block_left_ = 0;
  /// Key -> record; keys view the records' own bytes. Never erased from.
  std::unordered_map<std::string_view, RowRef> map_;
  /// Stored rows in first-insertion order — the deterministic record
  /// order compact() writes.
  std::vector<RowRef> order_;
  std::size_t replayed_ = 0;
  std::size_t discarded_ = 0;
  std::size_t file_bytes_ = 0;   ///< clean bytes on disk
  std::size_t file_records_ = 0; ///< records on disk, duplicates included
  std::size_t disk_entries_ = 0; ///< distinct keys on disk
  std::size_t capped_ = 0;
  std::size_t append_failures_ = 0;
};

} // namespace mss::server
