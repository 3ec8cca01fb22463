// Embedded log-structured key-value store.
//
// This is the storage engine beneath the schema repository (the role
// Yggdrasil's RDBMS plays in the paper's architecture, Fig. 5). The design
// is bitcask-style: all writes append CRC-checksummed records to the active
// segment file; an in-memory hash index maps each live key to its latest
// record's location; Get() reads one record back from disk and verifies
// its checksum. Deletes append tombstones. Compaction rewrites live
// records into a fresh segment and drops the old files.
//
// Durability/recovery contract (DESIGN.md §8 has the full crash matrix):
// every record is self-validating (masked CRC32 over header+payload). On
// Open() the store replays all segments in id order to rebuild the index;
// a corrupt or torn record in the *newest* segment is treated as a crashed
// tail -- the file is truncated at the last valid record and the store
// opens cleanly. A bad record in any older (immutable) segment is real
// corruption and fails Open() with Corruption, unless
// KvStoreOptions::salvage_corrupt_segments is set, in which case the
// damaged byte ranges are quarantined (skipped with a resync scan), the
// loss is tallied in repair_report(), and Open() succeeds with whatever
// records remain readable. In salvage mode the newest segment follows the
// same rule wherever a checksummed record follows the damage; only damage
// that none follows is a crashed tail and truncated.
//
// Compaction is crash-safe via a COMPACTING marker file: the marker
// (naming the first output segment id) is made durable before any output
// is written, and old segments are deleted only after the marker is
// cleared. Recover() consults the marker -- if present, the compaction
// did not commit, its partial output is discarded, and the old segments
// (all still on disk) are replayed as if the compaction never ran. A
// compaction that fails mid-write restores the old in-memory view and
// leaves the store fully usable.
//
// All file writes go through the fault-injection shims
// (util/fault_injection.h); see README "Fault injection" for the site
// names. An append failure that cannot be rolled back (the torn record
// cannot be truncated away) wedges the store: reads keep working, writes
// return the sticky IOError.
//
// Record layout (little-endian):
//   fixed32 masked_crc | u8 type | varint key_len | varint value_len |
//   key bytes | value bytes
// where crc covers everything after the crc field.

#ifndef SCHEMR_STORE_KV_STORE_H_
#define SCHEMR_STORE_KV_STORE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "util/status.h"

namespace schemr {

struct KvStoreOptions {
  /// The active segment rolls over once it exceeds this many bytes.
  uint64_t max_segment_bytes = 4ull << 20;
  /// fsync after every write (slow; off for bulk loads and tests).
  bool sync_on_write = false;
  /// Open() normally fails with Corruption when an older (immutable)
  /// segment has a bad record. With salvage on, the corrupt byte ranges
  /// are skipped instead (scanning forward for the next checksummed
  /// record), the damage is tallied in repair_report(), and the store
  /// opens with every record that is still readable -- in the newest
  /// segment too, where only damage that no checksummed record follows
  /// is truncated as a crashed tail. Keys whose only copy sat in a
  /// quarantined range are lost; a key overwritten there may resurface
  /// with its last intact (older) value.
  bool salvage_corrupt_segments = false;
};

/// What salvage-mode recovery had to skip (all zero on a clean open).
struct KvRepairReport {
  size_t corrupt_segments = 0;   ///< segments with >=1 bad range
  size_t corrupt_regions = 0;    ///< contiguous quarantined byte ranges
  uint64_t skipped_bytes = 0;    ///< bytes in quarantined ranges
  size_t salvaged_records = 0;   ///< records recovered after a bad range

  bool AnyDamage() const { return corrupt_regions > 0; }
  std::string ToString() const;
};

/// Point-in-time statistics, for tests and the storage bench.
struct KvStoreStats {
  size_t live_keys = 0;
  size_t segment_count = 0;
  uint64_t total_bytes = 0;     ///< sum of segment file sizes
  uint64_t dead_records = 0;    ///< overwritten/deleted records since open
};

/// Single-threaded embedded KV store. Not internally synchronized; wrap
/// with external locking for concurrent use (the repository layer does).
class KvStore {
 public:
  /// Opens (creating if needed) a store rooted at directory `path` and
  /// replays existing segments to rebuild the index.
  static Result<std::unique_ptr<KvStore>> Open(std::string path,
                                               KvStoreOptions options = {});

  ~KvStore();
  KvStore(const KvStore&) = delete;
  KvStore& operator=(const KvStore&) = delete;

  /// Inserts or overwrites `key`.
  Status Put(std::string_view key, std::string_view value);

  /// Removes `key`. OK (idempotent) if absent.
  Status Delete(std::string_view key);

  /// Reads the current value of `key`; NotFound if absent or deleted.
  Result<std::string> Get(std::string_view key) const;

  bool Contains(std::string_view key) const;

  /// Number of live keys.
  size_t Size() const { return index_.size(); }

  /// All live keys, sorted lexicographically.
  std::vector<std::string> Keys() const;

  /// Invokes `fn` for every live (key, value) pair in sorted key order;
  /// stops and propagates on the first error the callback returns.
  Status ForEach(
      const std::function<Status(std::string_view key,
                                 std::string_view value)>& fn) const;

  /// Rewrites all live records into a fresh segment and removes the old
  /// files. Reclaims space from overwrites and tombstones. Crash-safe
  /// (COMPACTING marker); on failure the old view stays fully valid.
  Status Compact();

  /// Flushes the active segment to the OS (and fsyncs).
  Status Flush();

  KvStoreStats GetStats() const;

  /// What (if anything) salvage-mode recovery skipped at Open().
  const KvRepairReport& repair_report() const { return repair_report_; }

  const std::string& path() const { return path_; }

 private:
  struct Location {
    uint64_t segment_id = 0;
    uint64_t offset = 0;  ///< byte offset of the record start
  };

  KvStore(std::string path, KvStoreOptions options)
      : path_(std::move(path)), options_(options) {}

  Status Recover();
  Status ReplaySegment(uint64_t segment_id, bool newest);
  Status OpenActiveSegment();
  Status RollSegmentIfNeeded();
  Status AppendRecord(uint8_t type, std::string_view key,
                      std::string_view value, Location* loc);
  Result<std::pair<std::string, std::string>> ReadRecordAt(
      const Location& loc) const;

  std::string SegmentFileName(uint64_t segment_id) const;
  std::string MarkerFileName() const;
  Status WriteCompactionMarker(uint64_t first_output_id);
  Status RemoveCompactionMarker();
  Status SyncDirectory();
  Status WedgedStatus() const;

  std::string path_;
  KvStoreOptions options_;
  std::unordered_map<std::string, Location> index_;
  std::vector<uint64_t> segment_ids_;  ///< sorted ascending; back() is active
  int active_fd_ = -1;
  uint64_t active_offset_ = 0;
  uint64_t dead_records_ = 0;
  KvRepairReport repair_report_;
  /// Set when an append failure could not be rolled back; all further
  /// writes are refused so the damaged tail cannot be built upon.
  bool wedged_ = false;
};

}  // namespace schemr

#endif  // SCHEMR_STORE_KV_STORE_H_
