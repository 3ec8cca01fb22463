#include "store/kv_store.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <fstream>

#include "obs/fault_bridge.h"
#include "obs/metrics.h"
#include "util/crc32.h"
#include "util/fault_injection.h"
#include "util/logging.h"
#include "util/varint.h"

namespace schemr {

namespace fs = std::filesystem;

namespace {

constexpr uint8_t kTypePut = 1;
constexpr uint8_t kTypeDelete = 2;
constexpr char kSegmentSuffix[] = ".seg";
constexpr char kCompactingMarker[] = "COMPACTING";

/// Operation counters, shared by all open stores; GetStats() additionally
/// bridges the per-store KvStoreStats into the *_gauge metrics below.
struct StoreMetrics {
  Counter* reads;
  Counter* read_misses;
  Counter* read_bytes;
  Counter* writes;
  Counter* write_bytes;
  Counter* deletes;
  Counter* compactions;
  Counter* salvaged_records;
  Gauge* live_keys;
  Gauge* segment_count;
  Gauge* total_bytes;
  Gauge* dead_records;

  static const StoreMetrics& Get() {
    static const StoreMetrics* metrics = [] {
      InstallFaultMetricsBridge();
      MetricsRegistry& r = MetricsRegistry::Global();
      return new StoreMetrics{
          r.GetCounter("schemr_store_reads_total", "KV store Get hits."),
          r.GetCounter("schemr_store_read_misses_total",
                       "KV store Gets of absent keys."),
          r.GetCounter("schemr_store_read_bytes_total",
                       "Key+value bytes read from segments."),
          r.GetCounter("schemr_store_writes_total", "KV store Puts."),
          r.GetCounter("schemr_store_write_bytes_total",
                       "Key+value bytes appended by Puts."),
          r.GetCounter("schemr_store_deletes_total", "KV store Deletes."),
          r.GetCounter("schemr_store_compactions_total",
                       "Segment compactions run."),
          r.GetCounter("schemr_store_salvaged_records_total",
                       "Records recovered from corrupt segments by "
                       "salvage-mode recovery."),
          r.GetGauge("schemr_store_live_keys",
                     "Live keys at the last GetStats call."),
          r.GetGauge("schemr_store_segment_count",
                     "Segment files at the last GetStats call."),
          r.GetGauge("schemr_store_total_bytes",
                     "Segment bytes on disk at the last GetStats call."),
          r.GetGauge("schemr_store_dead_records",
                     "Overwritten/deleted records at the last GetStats call."),
      };
    }();
    return *metrics;
  }
};

Status ErrnoStatus(const std::string& what) {
  return Status::IOError(what + ": " + std::strerror(errno));
}

/// Closes an fd on scope exit (the fault shims can throw InjectedCrash
/// between open and close; the torture harness runs thousands of cycles
/// in-process, so leaked descriptors would exhaust the limit).
class FdCloser {
 public:
  explicit FdCloser(int fd) : fd_(fd) {}
  ~FdCloser() {
    if (fd_ >= 0) ::close(fd_);
  }
  FdCloser(const FdCloser&) = delete;
  FdCloser& operator=(const FdCloser&) = delete;

 private:
  int fd_;
};

/// Serializes one record; returns the bytes to append.
std::string EncodeRecord(uint8_t type, std::string_view key,
                         std::string_view value) {
  std::string body;
  body.push_back(static_cast<char>(type));
  PutVarint64(&body, key.size());
  PutVarint64(&body, value.size());
  body.append(key);
  body.append(value);
  std::string record;
  PutFixed32(&record, Crc32Mask(Crc32(body)));
  record += body;
  return record;
}

/// One decoded record, viewing into the segment buffer.
struct ParsedRecord {
  uint8_t type = 0;
  std::string_view key;
  std::string_view value;
  uint64_t size = 0;  ///< encoded bytes consumed
};

/// Parses (and validates) the record at the head of *data; advances past
/// it on success, leaves *data untouched on failure.
Status ParseRecord(std::string_view* data, ParsedRecord* out) {
  std::string_view view = *data;
  uint32_t masked_crc = 0;
  SCHEMR_RETURN_IF_ERROR(GetFixed32(&view, &masked_crc));
  if (view.empty()) return Status::Corruption("truncated record");
  uint8_t type = static_cast<uint8_t>(view.front());
  view.remove_prefix(1);
  uint64_t key_len = 0, value_len = 0;
  SCHEMR_RETURN_IF_ERROR(GetVarint64(&view, &key_len));
  SCHEMR_RETURN_IF_ERROR(GetVarint64(&view, &value_len));
  // Lengths come from untrusted bytes; compare without key+value overflow.
  if (key_len > view.size() || value_len > view.size() - key_len) {
    return Status::Corruption("record payload truncated");
  }
  size_t header_len = data->size() - view.size();
  std::string_view body =
      data->substr(4, header_len - 4 + key_len + value_len);
  if (Crc32Unmask(masked_crc) != Crc32(body)) {
    return Status::Corruption("record checksum mismatch");
  }
  if (type != kTypePut && type != kTypeDelete) {
    return Status::Corruption("unknown record type");
  }
  out->type = type;
  out->key = view.substr(0, key_len);
  out->value = view.substr(key_len, value_len);
  out->size = header_len + key_len + value_len;
  data->remove_prefix(out->size);
  return Status::OK();
}

/// Bytes from the start of `data` to the next offset where a checksummed
/// record parses, or data.size() when none does. The CRC makes a false
/// resync vanishingly unlikely.
size_t BytesToNextRecord(std::string_view data) {
  for (size_t skip = 1; skip < data.size(); ++skip) {
    std::string_view probe = data.substr(skip);
    ParsedRecord record;
    if (ParseRecord(&probe, &record).ok()) return skip;
  }
  return data.size();
}

}  // namespace

std::string KvRepairReport::ToString() const {
  return "repair: " + std::to_string(corrupt_segments) +
         " corrupt segment(s), " + std::to_string(corrupt_regions) +
         " quarantined region(s), " + std::to_string(skipped_bytes) +
         " byte(s) skipped, " + std::to_string(salvaged_records) +
         " record(s) salvaged";
}

Result<std::unique_ptr<KvStore>> KvStore::Open(std::string path,
                                               KvStoreOptions options) {
  std::error_code ec;
  fs::create_directories(path, ec);
  if (ec) {
    return Status::IOError("cannot create store directory '" + path +
                           "': " + ec.message());
  }
  std::unique_ptr<KvStore> store(new KvStore(std::move(path), options));
  SCHEMR_RETURN_IF_ERROR(store->Recover());
  return store;
}

KvStore::~KvStore() {
  if (active_fd_ >= 0) ::close(active_fd_);
}

std::string KvStore::SegmentFileName(uint64_t segment_id) const {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%08llu",
                static_cast<unsigned long long>(segment_id));
  return path_ + "/" + buf + kSegmentSuffix;
}

std::string KvStore::MarkerFileName() const {
  return path_ + "/" + kCompactingMarker;
}

Status KvStore::WedgedStatus() const {
  return Status::IOError("store '" + path_ +
                         "' is wedged after an unrecoverable write "
                         "failure; reopen to recover");
}

Status KvStore::SyncDirectory() {
  int fd = ::open(path_.c_str(), O_RDONLY);
  if (fd < 0) return ErrnoStatus("open dir " + path_);
  FdCloser closer(fd);
  if (FaultInjector::Global().Fsync("kv/dir/fsync", fd) != 0) {
    return ErrnoStatus("fsync dir " + path_);
  }
  return Status::OK();
}

Status KvStore::WriteCompactionMarker(uint64_t first_output_id) {
  // The trailing newline makes the marker self-validating under torn
  // writes: any proper prefix of "<digits>\n" lacks the terminator, so
  // recovery can tell a half-written marker (no output can exist yet)
  // from a durable one -- without it, a torn "13" could read as id 1 and
  // discard live segments.
  std::string contents = std::to_string(first_output_id) + "\n";
  int fd = ::open(MarkerFileName().c_str(), O_WRONLY | O_CREAT | O_TRUNC,
                  0644);
  if (fd < 0) return ErrnoStatus("open " + MarkerFileName());
  FdCloser closer(fd);
  FaultInjector& fi = FaultInjector::Global();
  const char* p = contents.data();
  size_t remaining = contents.size();
  while (remaining > 0) {
    ssize_t n = fi.Write("kv/compact/marker_write", fd, p, remaining);
    if (n < 0) {
      if (errno == EINTR) continue;
      return ErrnoStatus("write marker");
    }
    p += n;
    remaining -= static_cast<size_t>(n);
  }
  if (fi.Fsync("kv/compact/marker_fsync", fd) != 0) {
    return ErrnoStatus("fsync marker");
  }
  // The marker must be durable before any compaction output exists, or a
  // torn output segment could fail a markerless recovery.
  return SyncDirectory();
}

Status KvStore::RemoveCompactionMarker() {
  std::error_code ec;
  fs::remove(MarkerFileName(), ec);
  if (ec) {
    return Status::IOError("cannot remove compaction marker: " +
                           ec.message());
  }
  return SyncDirectory();
}

Status KvStore::Recover() {
  segment_ids_.clear();
  index_.clear();
  dead_records_ = 0;
  repair_report_ = KvRepairReport{};
  wedged_ = false;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(path_, ec)) {
    if (!entry.is_regular_file()) continue;
    std::string name = entry.path().filename().string();
    if (name.size() <= sizeof(kSegmentSuffix) - 1 ||
        name.substr(name.size() - (sizeof(kSegmentSuffix) - 1)) !=
            kSegmentSuffix) {
      continue;
    }
    uint64_t id = 0;
    try {
      id = std::stoull(name.substr(0, name.size() - 4));
    } catch (...) {
      continue;  // not one of ours
    }
    segment_ids_.push_back(id);
  }
  if (ec) return Status::IOError("cannot list '" + path_ + "': " + ec.message());
  std::sort(segment_ids_.begin(), segment_ids_.end());

  // An unfinished compaction left its marker: the output segments (ids >=
  // the marker's id) may be arbitrarily incomplete, but every old segment
  // is still on disk (they are deleted only after the marker is cleared).
  // Discard the output and recover the pre-compaction state.
  if (fs::exists(MarkerFileName(), ec)) {
    std::ifstream in(MarkerFileName(), std::ios::binary);
    std::string marker((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
    in.close();
    uint64_t first_output_id = 0;
    bool valid = marker.size() >= 2 && marker.back() == '\n';
    if (valid) {
      for (size_t i = 0; i + 1 < marker.size(); ++i) {
        if (marker[i] < '0' || marker[i] > '9') {
          valid = false;
          break;
        }
        first_output_id = first_output_id * 10 +
                          static_cast<uint64_t>(marker[i] - '0');
      }
      valid = valid && first_output_id != 0;
    }
    if (!valid) {
      // A torn marker (missing its terminator) means the crash happened
      // while writing the marker itself -- compaction output only starts
      // after the complete marker is fsynced, so there is nothing to
      // roll back.
      SCHEMR_LOG(kWarning) << "removing torn COMPACTING marker in '" << path_
                           << "'";
      SCHEMR_RETURN_IF_ERROR(RemoveCompactionMarker());
      first_output_id = 0;
    }
    if (first_output_id != 0) {
      size_t discarded = 0;
      std::vector<uint64_t> kept;
      for (uint64_t id : segment_ids_) {
        if (id >= first_output_id) {
          fs::remove(SegmentFileName(id), ec);
          if (ec) {
            return Status::IOError("cannot discard compaction output " +
                                   SegmentFileName(id) + ": " + ec.message());
          }
          ++discarded;
        } else {
          kept.push_back(id);
        }
      }
      segment_ids_ = std::move(kept);
      SCHEMR_LOG(kWarning) << "rolled back unfinished compaction in '"
                           << path_ << "': discarded " << discarded
                           << " partial output segment(s)";
      SCHEMR_RETURN_IF_ERROR(RemoveCompactionMarker());
    }
  }

  for (size_t i = 0; i < segment_ids_.size(); ++i) {
    bool newest = (i + 1 == segment_ids_.size());
    SCHEMR_RETURN_IF_ERROR(ReplaySegment(segment_ids_[i], newest));
  }
  if (repair_report_.AnyDamage()) {
    StoreMetrics::Get().salvaged_records->Increment(
        repair_report_.salvaged_records);
    SCHEMR_LOG(kWarning) << "store '" << path_
                         << "' opened in salvage mode; "
                         << repair_report_.ToString();
  }
  if (segment_ids_.empty()) segment_ids_.push_back(1);
  return OpenActiveSegment();
}

Status KvStore::ReplaySegment(uint64_t segment_id, bool newest) {
  std::string filename = SegmentFileName(segment_id);
  std::ifstream in(filename, std::ios::binary);
  if (!in) return Status::IOError("cannot open segment " + filename);
  std::string contents((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  in.close();

  std::string_view data(contents);
  uint64_t offset = 0;
  uint64_t valid_end = 0;
  bool segment_corrupt = false;
  while (!data.empty()) {
    ParsedRecord rec;
    Status st = ParseRecord(&data, &rec);
    if (!st.ok()) {
      const bool salvage = options_.salvage_corrupt_segments;
      if (!salvage && !newest) {
        return Status::Corruption("segment " + filename + ": " +
                                  st.message());
      }
      const size_t skip = salvage ? BytesToNextRecord(data) : data.size();
      if (newest && skip == data.size()) {
        // Torn tail of the active segment from a crash: truncate and
        // move on. Without salvage, any damage here counts as one.
        SCHEMR_LOG(kWarning) << "truncating torn tail of " << filename
                             << " at " << valid_end << " (" << st.message()
                             << ")";
        std::error_code ec;
        fs::resize_file(filename, valid_end, ec);
        if (ec) {
          return Status::IOError("cannot truncate " + filename + ": " +
                                 ec.message());
        }
        return Status::OK();
      }
      // Salvage: quarantine the bytes before the next checksummed record
      // (in the newest segment, damage that such a record follows is not
      // a torn tail).
      if (!segment_corrupt) {
        segment_corrupt = true;
        ++repair_report_.corrupt_segments;
      }
      ++repair_report_.corrupt_regions;
      repair_report_.skipped_bytes += skip;
      SCHEMR_LOG(kWarning) << "salvage: quarantined " << skip
                           << " byte(s) of " << filename << " at offset "
                           << offset << " (" << st.message() << ")";
      data.remove_prefix(skip);
      offset += skip;
      continue;
    }
    if (rec.type == kTypePut) {
      auto [it, inserted] = index_.insert_or_assign(
          std::string(rec.key), Location{segment_id, offset});
      (void)it;
      if (!inserted) ++dead_records_;
    } else {
      if (index_.erase(std::string(rec.key)) > 0) ++dead_records_;
      ++dead_records_;  // the tombstone itself is dead weight
    }
    if (segment_corrupt) ++repair_report_.salvaged_records;
    offset += rec.size;
    valid_end = offset;
  }
  return Status::OK();
}

Status KvStore::OpenActiveSegment() {
  if (active_fd_ >= 0) {
    ::close(active_fd_);
    active_fd_ = -1;
  }
  std::string filename = SegmentFileName(segment_ids_.back());
  active_fd_ = ::open(filename.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
  if (active_fd_ < 0) return ErrnoStatus("open " + filename);
  off_t size = ::lseek(active_fd_, 0, SEEK_END);
  if (size < 0) return ErrnoStatus("lseek " + filename);
  active_offset_ = static_cast<uint64_t>(size);
  return Status::OK();
}

Status KvStore::RollSegmentIfNeeded() {
  if (active_offset_ < options_.max_segment_bytes) return Status::OK();
  // Sync the outgoing segment: once it is no longer the newest, the
  // torn-tail truncation rule stops applying to it, so its contents must
  // be durable before anything lands in the successor.
  if (FaultInjector::Global().Fsync("kv/roll/fsync", active_fd_) != 0) {
    return ErrnoStatus("fsync before roll");
  }
  segment_ids_.push_back(segment_ids_.back() + 1);
  return OpenActiveSegment();
}

Status KvStore::AppendRecord(uint8_t type, std::string_view key,
                             std::string_view value, Location* loc) {
  if (wedged_) return WedgedStatus();
  SCHEMR_RETURN_IF_ERROR(RollSegmentIfNeeded());
  std::string record = EncodeRecord(type, key, value);
  FaultInjector& fi = FaultInjector::Global();
  const char* p = record.data();
  size_t remaining = record.size();
  while (remaining > 0) {
    ssize_t n = fi.Write("kv/append/write", active_fd_, p, remaining);
    if (n < 0) {
      if (errno == EINTR) continue;
      Status st = ErrnoStatus("write");
      // A prefix of the record may have reached the file (short or torn
      // write). Cut it back off so the next append starts on a record
      // boundary; if even that fails, refuse further writes.
      if (::ftruncate(active_fd_,
                      static_cast<off_t>(active_offset_)) != 0) {
        wedged_ = true;
        SCHEMR_LOG(kError) << "cannot truncate torn append in '" << path_
                           << "'; wedging store: " << std::strerror(errno);
      }
      return st;
    }
    p += n;
    remaining -= static_cast<size_t>(n);
  }
  if (options_.sync_on_write &&
      fi.Fsync("kv/append/fsync", active_fd_) != 0) {
    Status st = ErrnoStatus("fsync");
    // The record is fully in the file but its durability is unknown. Cut
    // it back off so the fd's append position stays in step with
    // active_offset_ -- otherwise the next append lands after this
    // orphan record while the index records the stale offset, and every
    // later read in this segment fails with Corruption.
    if (::ftruncate(active_fd_, static_cast<off_t>(active_offset_)) != 0) {
      wedged_ = true;
      SCHEMR_LOG(kError) << "cannot truncate unsynced append in '" << path_
                         << "'; wedging store: " << std::strerror(errno);
    }
    return st;
  }
  if (loc != nullptr) {
    loc->segment_id = segment_ids_.back();
    loc->offset = active_offset_;
  }
  active_offset_ += record.size();
  return Status::OK();
}

Status KvStore::Put(std::string_view key, std::string_view value) {
  const StoreMetrics& metrics = StoreMetrics::Get();
  Location loc;
  SCHEMR_RETURN_IF_ERROR(AppendRecord(kTypePut, key, value, &loc));
  auto [it, inserted] = index_.insert_or_assign(std::string(key), loc);
  (void)it;
  if (!inserted) ++dead_records_;
  metrics.writes->Increment();
  metrics.write_bytes->Increment(key.size() + value.size());
  return Status::OK();
}

Status KvStore::Delete(std::string_view key) {
  auto it = index_.find(std::string(key));
  if (it == index_.end()) return Status::OK();
  SCHEMR_RETURN_IF_ERROR(AppendRecord(kTypeDelete, key, "", nullptr));
  index_.erase(it);
  dead_records_ += 2;  // the overwritten record and the tombstone
  StoreMetrics::Get().deletes->Increment();
  return Status::OK();
}

Result<std::pair<std::string, std::string>> KvStore::ReadRecordAt(
    const Location& loc) const {
  std::string filename = SegmentFileName(loc.segment_id);
  std::ifstream in(filename, std::ios::binary);
  if (!in) return Status::IOError("cannot open segment " + filename);
  in.seekg(static_cast<std::streamoff>(loc.offset));
  // Read the fixed header then the payload. Varints are at most 10 bytes
  // each, so 25 bytes covers crc+type+both lengths.
  char header[25];
  in.read(header, sizeof(header));
  std::streamsize got = in.gcount();
  if (got < 6) return Status::Corruption("record header truncated");
  std::string_view view(header, static_cast<size_t>(got));
  uint32_t masked_crc = 0;
  SCHEMR_RETURN_IF_ERROR(GetFixed32(&view, &masked_crc));
  uint8_t type = static_cast<uint8_t>(view.front());
  view.remove_prefix(1);
  uint64_t key_len = 0, value_len = 0;
  SCHEMR_RETURN_IF_ERROR(GetVarint64(&view, &key_len));
  SCHEMR_RETURN_IF_ERROR(GetVarint64(&view, &value_len));
  size_t header_len = static_cast<size_t>(got) - view.size();

  std::string body;
  body.resize(header_len - 4 + key_len + value_len);
  std::memcpy(body.data(), header + 4, header_len - 4);
  in.clear();
  in.seekg(static_cast<std::streamoff>(loc.offset + header_len));
  in.read(body.data() + header_len - 4,
          static_cast<std::streamsize>(key_len + value_len));
  if (static_cast<uint64_t>(in.gcount()) != key_len + value_len) {
    return Status::Corruption("record payload truncated");
  }
  if (Crc32Unmask(masked_crc) != Crc32(body)) {
    return Status::Corruption("record checksum mismatch on read");
  }
  if (type != kTypePut) {
    return Status::Corruption("index points at non-put record");
  }
  size_t key_start = header_len - 4;
  return std::make_pair(body.substr(key_start, key_len),
                        body.substr(key_start + key_len, value_len));
}

Result<std::string> KvStore::Get(std::string_view key) const {
  const StoreMetrics& metrics = StoreMetrics::Get();
  auto it = index_.find(std::string(key));
  if (it == index_.end()) {
    metrics.read_misses->Increment();
    return Status::NotFound("key '" + std::string(key) + "'");
  }
  SCHEMR_ASSIGN_OR_RETURN(auto kv, ReadRecordAt(it->second));
  if (kv.first != key) {
    return Status::Corruption("index points at record for different key");
  }
  metrics.reads->Increment();
  metrics.read_bytes->Increment(kv.first.size() + kv.second.size());
  return std::move(kv.second);
}

bool KvStore::Contains(std::string_view key) const {
  return index_.find(std::string(key)) != index_.end();
}

std::vector<std::string> KvStore::Keys() const {
  std::vector<std::string> keys;
  keys.reserve(index_.size());
  for (const auto& [key, loc] : index_) keys.push_back(key);
  std::sort(keys.begin(), keys.end());
  return keys;
}

Status KvStore::ForEach(
    const std::function<Status(std::string_view, std::string_view)>& fn)
    const {
  // Walk the index directly (one ReadRecordAt per record) instead of
  // Keys() + Get(), which would re-hash and copy every key a second time.
  std::vector<const std::pair<const std::string, Location>*> entries;
  entries.reserve(index_.size());
  for (const auto& entry : index_) entries.push_back(&entry);
  std::sort(entries.begin(), entries.end(),
            [](const auto* a, const auto* b) { return a->first < b->first; });
  for (const auto* entry : entries) {
    SCHEMR_ASSIGN_OR_RETURN(auto kv, ReadRecordAt(entry->second));
    if (kv.first != entry->first) {
      return Status::Corruption("index points at record for different key");
    }
    SCHEMR_RETURN_IF_ERROR(fn(entry->first, kv.second));
  }
  return Status::OK();
}

Status KvStore::Compact() {
  if (wedged_) return WedgedStatus();
  StoreMetrics::Get().compactions->Increment();
  SCHEMR_RETURN_IF_ERROR(Flush());
  const uint64_t new_id = segment_ids_.back() + 1;
  const std::vector<uint64_t> old_ids = segment_ids_;
  FaultInjector& fi = FaultInjector::Global();

  // 1. Durable intent: until the marker is cleared, recovery discards
  //    every segment with id >= new_id and falls back to the old files.
  Status marked = WriteCompactionMarker(new_id);
  if (!marked.ok()) {
    // The marker payload may be complete on disk even though its fsync or
    // the directory sync failed. If it survives while writes continue, a
    // later segment roll can mint id new_id and the next Recover() would
    // discard it as compaction output -- so remove the marker, or refuse
    // further writes.
    Status cleared = RemoveCompactionMarker();
    if (!cleared.ok()) {
      wedged_ = true;
      SCHEMR_LOG(kError) << "cannot clear compaction marker after failed "
                            "marker write; wedging store: "
                         << cleared;
    }
    return marked;
  }
  fi.CrashPoint("kv/compact/after_marker");

  // Restores the pre-compaction view after a mid-compaction failure: the
  // partial output is deleted, the old segments (untouched so far) become
  // current again, and the marker is cleared.
  auto restore_old_view = [&](Status cause) -> Status {
    if (active_fd_ >= 0) {
      ::close(active_fd_);
      active_fd_ = -1;
    }
    for (uint64_t id : segment_ids_) {
      if (id < new_id) continue;
      std::error_code ec;
      fs::remove(SegmentFileName(id), ec);
    }
    segment_ids_ = old_ids;
    Status reopen = OpenActiveSegment();
    if (!reopen.ok()) {
      wedged_ = true;
      SCHEMR_LOG(kError) << "cannot reopen old active segment after failed "
                            "compaction; wedging store: "
                         << reopen;
      return reopen;
    }
    Status cleared = RemoveCompactionMarker();
    if (!cleared.ok()) {
      // A stale marker would discard future segments at the next open;
      // refuse writes so no such segment can come into existence.
      wedged_ = true;
      SCHEMR_LOG(kError) << "cannot clear compaction marker after failed "
                            "compaction; wedging store: "
                         << cleared;
    }
    return cause;
  };

  // 2. Write all live records into the new segment(s).
  segment_ids_.push_back(new_id);
  Status opened = OpenActiveSegment();
  if (!opened.ok()) return restore_old_view(opened);
  std::unordered_map<std::string, Location> new_index;
  for (const auto& [key, old_loc] : index_) {
    auto kv = ReadRecordAt(old_loc);
    if (!kv.ok()) return restore_old_view(kv.status());
    Location loc;
    Status appended = AppendRecord(kTypePut, key, kv->second, &loc);
    if (!appended.ok()) return restore_old_view(appended);
    new_index[key] = loc;
  }
  if (fi.Fsync("kv/compact/fsync", active_fd_) != 0) {
    return restore_old_view(ErrnoStatus("fsync after compaction"));
  }

  // 3. Commit: swap the in-memory view, then clear the marker. A crash
  //    before the clear rolls the whole compaction back on reopen; a
  //    crash after it replays old + new segments in id order, which the
  //    newer output records win.
  index_ = std::move(new_index);
  dead_records_ = 0;
  std::vector<uint64_t> kept;
  for (uint64_t id : segment_ids_) {
    if (id >= new_id) kept.push_back(id);
  }
  segment_ids_ = std::move(kept);
  fi.CrashPoint("kv/compact/before_clear_marker");
  Status cleared = RemoveCompactionMarker();
  if (!cleared.ok()) {
    // Data is intact (old + new on disk), but a stale marker would
    // discard the output at the next open; stop writes here.
    wedged_ = true;
    SCHEMR_LOG(kError) << "cannot clear compaction marker; wedging store: "
                       << cleared;
    return cleared;
  }
  fi.CrashPoint("kv/compact/after_clear_marker");

  // 4. Old segments are garbage now; reclaim them.
  for (uint64_t id : old_ids) {
    fi.CrashPoint("kv/compact/delete_old");
    std::error_code ec;
    fs::remove(SegmentFileName(id), ec);
    if (ec) {
      SCHEMR_LOG(kWarning) << "cannot remove old segment " << id << ": "
                           << ec.message();
    }
  }
  return Status::OK();
}

Status KvStore::Flush() {
  if (active_fd_ >= 0 &&
      FaultInjector::Global().Fsync("kv/flush/fsync", active_fd_) != 0) {
    return ErrnoStatus("fsync");
  }
  return Status::OK();
}

KvStoreStats KvStore::GetStats() const {
  KvStoreStats stats;
  stats.live_keys = index_.size();
  stats.segment_count = segment_ids_.size();
  stats.dead_records = dead_records_;
  for (uint64_t id : segment_ids_) {
    std::error_code ec;
    auto size = fs::file_size(SegmentFileName(id), ec);
    if (!ec) stats.total_bytes += size;
  }
  const StoreMetrics& metrics = StoreMetrics::Get();
  metrics.live_keys->Set(static_cast<double>(stats.live_keys));
  metrics.segment_count->Set(static_cast<double>(stats.segment_count));
  metrics.total_bytes->Set(static_cast<double>(stats.total_bytes));
  metrics.dead_records->Set(static_cast<double>(stats.dead_records));
  return stats;
}

}  // namespace schemr
