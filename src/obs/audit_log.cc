#include "obs/audit_log.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>

#include "obs/metrics.h"
#include "util/crc32.h"
#include "util/fault_injection.h"
#include "util/varint.h"

namespace schemr {

namespace fs = std::filesystem;

namespace {

// Record framing: fixed32 masked CRC (over the payload) | fixed32 payload
// length | payload. The fixed-width prelude makes the salvage resync scan
// cheap and unambiguous.
constexpr size_t kFramePrelude = 8;
constexpr uint8_t kRecordVersion = 1;
/// Sanity cap on one record (keywords + fragment are service-limited to
/// ~1MB; anything claiming more is framing damage, not data).
constexpr uint32_t kMaxRecordBytes = 4u << 20;

constexpr char kSegmentPrefix[] = "audit-";
constexpr char kSegmentSuffix[] = ".log";

struct AuditMetrics {
  Counter* records;
  Counter* bytes;
  Counter* drops;
  Counter* slow;
  Gauge* segments;

  static const AuditMetrics& Get() {
    static const AuditMetrics* metrics = [] {
      MetricsRegistry& r = MetricsRegistry::Global();
      return new AuditMetrics{
          r.GetCounter("schemr_audit_records_total",
                       "Requests recorded into the audit log."),
          r.GetCounter("schemr_audit_bytes_written_total",
                       "Bytes appended to audit segments."),
          r.GetCounter("schemr_audit_drops_total",
                       "Audit records dropped because an append failed."),
          r.GetCounter("schemr_audit_slow_queries_total",
                       "Audited requests over the slow-query threshold "
                       "(full query text retained)."),
          r.GetGauge("schemr_audit_segments",
                     "Audit segment files currently on disk."),
      };
    }();
    return *metrics;
  }
};

std::string SegmentFileName(const std::string& dir, uint64_t id) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%06llu",
                static_cast<unsigned long long>(id));
  return dir + "/" + kSegmentPrefix + buf + kSegmentSuffix;
}

/// Segment ids present in `dir`, ascending. Non-matching files ignored.
std::vector<uint64_t> ListSegmentIds(const std::string& dir) {
  std::vector<uint64_t> ids;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    const std::string name = entry.path().filename().string();
    if (name.size() <= sizeof(kSegmentPrefix) - 1 + sizeof(kSegmentSuffix) - 1)
      continue;
    if (name.rfind(kSegmentPrefix, 0) != 0) continue;
    if (name.substr(name.size() - (sizeof(kSegmentSuffix) - 1)) !=
        kSegmentSuffix)
      continue;
    const std::string digits = name.substr(
        sizeof(kSegmentPrefix) - 1,
        name.size() - (sizeof(kSegmentPrefix) - 1) - (sizeof(kSegmentSuffix) - 1));
    if (digits.empty() ||
        digits.find_first_not_of("0123456789") != std::string::npos)
      continue;
    ids.push_back(std::strtoull(digits.c_str(), nullptr, 10));
  }
  std::sort(ids.begin(), ids.end());
  return ids;
}

/// Tries to parse one framed record at `data[offset..]`. On success sets
/// *consumed and *payload and returns true. `frame_ok` distinguishes "not
/// a valid frame here" from "valid frame, undecodable payload".
bool ParseFrameAt(std::string_view data, size_t offset, size_t* consumed,
                  std::string_view* payload) {
  if (offset + kFramePrelude > data.size()) return false;
  std::string_view cursor = data.substr(offset);
  uint32_t masked_crc = 0;
  uint32_t length = 0;
  if (!GetFixed32(&cursor, &masked_crc).ok()) return false;
  if (!GetFixed32(&cursor, &length).ok()) return false;
  if (length > kMaxRecordBytes) return false;
  if (offset + kFramePrelude + length > data.size()) return false;
  std::string_view body = data.substr(offset + kFramePrelude, length);
  if (Crc32Unmask(masked_crc) != Crc32(body)) return false;
  *consumed = kFramePrelude + length;
  *payload = body;
  return true;
}

/// The first offset at or after `from` that frames a valid record, or
/// npos when none does: the resync scan past damage, shared by the
/// writer's tail check and every reader.
size_t NextFrame(std::string_view data, size_t from) {
  for (size_t probe = from; probe + kFramePrelude <= data.size(); ++probe) {
    size_t consumed = 0;
    std::string_view payload;
    if (ParseFrameAt(data, probe, &consumed, &payload)) return probe;
  }
  return std::string_view::npos;
}

Result<std::string> ReadWholeFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IOError("cannot open " + path);
  std::string contents((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  return contents;
}

}  // namespace

const char* AuditOutcomeName(AuditOutcome outcome) {
  switch (outcome) {
    case AuditOutcome::kOk:
      return "ok";
    case AuditOutcome::kDegraded:
      return "degraded";
    case AuditOutcome::kError:
      return "error";
    case AuditOutcome::kShedQueueFull:
      return "shed_queue_full";
    case AuditOutcome::kShedDeadline:
      return "shed_deadline";
    case AuditOutcome::kShedDrain:
      return "shed_drain";
    case AuditOutcome::kCancelled:
      return "cancelled";
  }
  return "unknown";
}

bool IsShedOutcome(AuditOutcome outcome) {
  return outcome == AuditOutcome::kShedQueueFull ||
         outcome == AuditOutcome::kShedDeadline ||
         outcome == AuditOutcome::kShedDrain;
}

void EncodeAuditRecord(const AuditRecord& record, std::string* out) {
  out->push_back(static_cast<char>(kRecordVersion));
  PutVarint64(out, record.timestamp_micros);
  PutFixed64(out, record.fingerprint);
  out->push_back(static_cast<char>(record.outcome));
  PutVarint64(out, record.total_micros);
  PutVarint64(out, record.phase1_micros);
  PutVarint64(out, record.phase2_micros);
  PutVarint64(out, record.phase3_micros);
  PutVarint64(out, record.deadline_micros);
  PutVarint64(out, record.budget_micros);
  PutFixed64(out, record.result_digest);
  PutVarint32(out, record.result_count);
  PutVarint32(out, record.top_k);
  PutVarint32(out, record.candidate_pool);
  PutVarint32(out, record.coarse_only_candidates);
  PutVarint32(out, record.dropped_matchers);
  uint32_t flags = 0;
  if (record.deadline_hit) flags |= 1u;
  if (record.has_query_text) flags |= 2u;
  if (record.cache_hit) flags |= 4u;
  if (!record.request_id.empty()) flags |= 8u;
  PutVarint32(out, flags);
  if (record.has_query_text) {
    PutLengthPrefixed(out, record.keywords);
    PutLengthPrefixed(out, record.fragment);
  }
  // Trailing optional field (flags bit 8): records without a request id
  // stay byte-identical to the pre-fleet layout, so old segments and new
  // readers interoperate in both directions under version 1.
  if (!record.request_id.empty()) {
    PutLengthPrefixed(out, record.request_id);
  }
}

Status DecodeAuditRecord(std::string_view payload, AuditRecord* record) {
  if (payload.empty()) return Status::Corruption("empty audit record");
  const uint8_t version = static_cast<uint8_t>(payload[0]);
  if (version != kRecordVersion) {
    return Status::Corruption("unknown audit record version " +
                              std::to_string(version));
  }
  payload.remove_prefix(1);
  *record = AuditRecord{};
  SCHEMR_RETURN_IF_ERROR(GetVarint64(&payload, &record->timestamp_micros));
  SCHEMR_RETURN_IF_ERROR(GetFixed64(&payload, &record->fingerprint));
  if (payload.empty()) return Status::Corruption("truncated audit record");
  const uint8_t outcome = static_cast<uint8_t>(payload[0]);
  if (outcome > static_cast<uint8_t>(AuditOutcome::kCancelled)) {
    return Status::Corruption("bad audit outcome byte");
  }
  record->outcome = static_cast<AuditOutcome>(outcome);
  payload.remove_prefix(1);
  SCHEMR_RETURN_IF_ERROR(GetVarint64(&payload, &record->total_micros));
  SCHEMR_RETURN_IF_ERROR(GetVarint64(&payload, &record->phase1_micros));
  SCHEMR_RETURN_IF_ERROR(GetVarint64(&payload, &record->phase2_micros));
  SCHEMR_RETURN_IF_ERROR(GetVarint64(&payload, &record->phase3_micros));
  SCHEMR_RETURN_IF_ERROR(GetVarint64(&payload, &record->deadline_micros));
  SCHEMR_RETURN_IF_ERROR(GetVarint64(&payload, &record->budget_micros));
  SCHEMR_RETURN_IF_ERROR(GetFixed64(&payload, &record->result_digest));
  SCHEMR_RETURN_IF_ERROR(GetVarint32(&payload, &record->result_count));
  SCHEMR_RETURN_IF_ERROR(GetVarint32(&payload, &record->top_k));
  SCHEMR_RETURN_IF_ERROR(GetVarint32(&payload, &record->candidate_pool));
  SCHEMR_RETURN_IF_ERROR(
      GetVarint32(&payload, &record->coarse_only_candidates));
  SCHEMR_RETURN_IF_ERROR(GetVarint32(&payload, &record->dropped_matchers));
  uint32_t flags = 0;
  SCHEMR_RETURN_IF_ERROR(GetVarint32(&payload, &flags));
  record->deadline_hit = (flags & 1u) != 0;
  record->has_query_text = (flags & 2u) != 0;
  record->cache_hit = (flags & 4u) != 0;
  if (record->has_query_text) {
    std::string_view keywords, fragment;
    SCHEMR_RETURN_IF_ERROR(GetLengthPrefixed(&payload, &keywords));
    SCHEMR_RETURN_IF_ERROR(GetLengthPrefixed(&payload, &fragment));
    record->keywords.assign(keywords);
    record->fragment.assign(fragment);
  }
  if ((flags & 8u) != 0) {
    std::string_view request_id;
    SCHEMR_RETURN_IF_ERROR(GetLengthPrefixed(&payload, &request_id));
    record->request_id.assign(request_id);
  }
  if (!payload.empty()) {
    return Status::Corruption("trailing bytes in audit record");
  }
  return Status::OK();
}

AuditLog::AuditLog(std::string dir, AuditLogOptions options)
    : dir_(std::move(dir)), options_(options) {}

AuditLog::~AuditLog() { Close(); }

Result<std::unique_ptr<AuditLog>> AuditLog::Open(std::string dir,
                                                 AuditLogOptions options) {
  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec) {
    return Status::IOError("cannot create audit dir " + dir + ": " +
                           ec.message());
  }
  std::unique_ptr<AuditLog> log(new AuditLog(std::move(dir), options));

  std::vector<uint64_t> ids = ListSegmentIds(log->dir_);
  uint64_t open_id = ids.empty() ? 1 : ids.back();
  uint64_t resume_offset = 0;
  if (!ids.empty()) {
    // Validate the newest segment's tail: scan framed records forward and
    // truncate a tail that no valid record follows, which is what a
    // crashed writer leaves. Damage that a valid record follows is
    // mid-file damage: it is left for readers to salvage, and the writer
    // rolls to a fresh segment instead of appending after it.
    const std::string path = SegmentFileName(log->dir_, open_id);
    auto contents = ReadWholeFile(path);
    if (contents.ok()) {
      size_t offset = 0;
      size_t consumed = 0;
      std::string_view payload;
      while (ParseFrameAt(*contents, offset, &consumed, &payload)) {
        offset += consumed;
      }
      const bool damaged = offset < contents->size() &&
                           NextFrame(*contents, offset + 1) !=
                               std::string_view::npos;
      if (damaged) {
        open_id = ids.back() + 1;  // leave the damaged file for salvage
      } else {
        if (offset < contents->size()) {
          // Torn tail: truncate to the last whole record.
          std::error_code trunc_ec;
          fs::resize_file(path, offset, trunc_ec);
          if (trunc_ec) open_id = ids.back() + 1;
        }
        resume_offset = offset;
        if (resume_offset >= options.max_segment_bytes) {
          open_id = ids.back() + 1;
          resume_offset = 0;
        }
      }
    } else {
      open_id = ids.back() + 1;
    }
  }

  std::lock_guard<std::mutex> lock(log->mutex_);
  log->active_segment_id_ = open_id;
  log->active_bytes_ = resume_offset;
  const std::string path = SegmentFileName(log->dir_, open_id);
  if (FaultInjector::Global().Check("audit/rotate/open") != 0) {
    return Status::IOError("injected fault opening audit segment " + path);
  }
  log->fd_ = ::open(path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
  if (log->fd_ < 0) {
    return Status::IOError("cannot open audit segment " + path);
  }
  AuditMetrics::Get().segments->Set(
      static_cast<double>(ListSegmentIds(log->dir_).size()));
  return log;
}

Status AuditLog::RotateLocked() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  ++active_segment_id_;
  active_bytes_ = 0;
  if (FaultInjector::Global().Check("audit/rotate/open") != 0) {
    return Status::IOError("injected fault rotating audit segment");
  }
  const std::string path = SegmentFileName(dir_, active_segment_id_);
  fd_ = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd_ < 0) return Status::IOError("cannot open audit segment " + path);

  // Retention: delete oldest segments beyond the bound. Deletion failures
  // are ignored (the bound is best-effort, never request-fatal).
  std::vector<uint64_t> ids = ListSegmentIds(dir_);
  if (ids.size() > options_.max_segments) {
    const size_t excess = ids.size() - options_.max_segments;
    for (size_t i = 0; i < excess; ++i) {
      std::error_code ec;
      fs::remove(SegmentFileName(dir_, ids[i]), ec);
    }
  }
  AuditMetrics::Get().segments->Set(
      static_cast<double>(ListSegmentIds(dir_).size()));
  return Status::OK();
}

void AuditLog::AppendLocked(const AuditRecord& record) {
  if (fd_ < 0) return;  // append path disabled by an earlier failure
  std::string payload;
  EncodeAuditRecord(record, &payload);
  std::string frame;
  frame.reserve(kFramePrelude + payload.size());
  PutFixed32(&frame, Crc32Mask(Crc32(payload)));
  PutFixed32(&frame, static_cast<uint32_t>(payload.size()));
  frame.append(payload);

  const AuditMetrics& metrics = AuditMetrics::Get();
  FaultInjector& fi = FaultInjector::Global();
  const ssize_t written =
      fi.Write("audit/append/write", fd_, frame.data(), frame.size());
  if (written != static_cast<ssize_t>(frame.size())) {
    // A short or failed append leaves a torn tail; the next Open (or any
    // reader) truncates/skips it. Disable this segment and try to roll a
    // fresh one so subsequent records still land somewhere.
    metrics.drops->Increment();
    if (written > 0) active_bytes_ += static_cast<uint64_t>(written);
    if (!RotateLocked().ok()) {
      if (fd_ >= 0) ::close(fd_);
      fd_ = -1;  // wedge the appender; reads and serving are unaffected
    }
    return;
  }
  if (options_.sync_on_write &&
      fi.Fsync("audit/append/fsync", fd_) != 0) {
    metrics.drops->Increment();
    return;  // record is written but not durable; keep appending
  }
  active_bytes_ += frame.size();
  metrics.records->Increment();
  metrics.bytes->Increment(frame.size());
  if (active_bytes_ >= options_.max_segment_bytes) {
    if (!RotateLocked().ok() && fd_ >= 0) {
      ::close(fd_);
      fd_ = -1;
    }
  }
}

void AuditLog::Record(AuditRecord record) {
  const bool slow =
      record.total_micros >=
      static_cast<uint64_t>(options_.slow_threshold_seconds * 1e6);
  // Query text is retained when the request is worth replaying or
  // debugging by hand: slow, refused, or failed. Fast healthy requests
  // keep only their fingerprint.
  const bool keep_text = slow || IsShedOutcome(record.outcome) ||
                         record.outcome == AuditOutcome::kError;
  if (!keep_text) {
    record.keywords.clear();
    record.fragment.clear();
    record.has_query_text = false;
  } else {
    record.has_query_text = true;
  }

  std::lock_guard<std::mutex> lock(mutex_);
  if (slow) {
    AuditMetrics::Get().slow->Increment();
    slow_ring_.push_back(record);
    while (slow_ring_.size() > options_.slow_ring_capacity) {
      slow_ring_.pop_front();
    }
  }
  AppendLocked(record);
}

std::vector<AuditRecord> AuditLog::SlowQueries() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return {slow_ring_.begin(), slow_ring_.end()};
}

void AuditLog::Close() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Result<AuditReadReport> ReadAuditSegment(const std::string& path) {
  uint64_t next_offset = 0;
  return ReadAuditSegmentFrom(path, 0, &next_offset);
}

Result<AuditReadReport> ReadAuditLog(const std::string& dir) {
  std::error_code ec;
  if (!fs::is_directory(dir, ec)) {
    return Status::IOError("not an audit directory: " + dir);
  }
  AuditReadReport report;
  for (uint64_t id : ListSegmentIds(dir)) {
    auto segment = ReadAuditSegment(SegmentFileName(dir, id));
    if (!segment.ok()) continue;  // unreadable segment: skip, keep going
    report.segments_read += segment->segments_read;
    report.skipped_records += segment->skipped_records;
    report.skipped_bytes += segment->skipped_bytes;
    report.torn_tail = report.torn_tail || segment->torn_tail;
    for (AuditRecord& r : segment->records) {
      report.records.push_back(std::move(r));
    }
  }
  return report;
}

Result<AuditReadReport> ReadAuditSegmentFrom(const std::string& path,
                                             uint64_t start_offset,
                                             uint64_t* next_offset) {
  SCHEMR_ASSIGN_OR_RETURN(std::string contents, ReadWholeFile(path));
  AuditReadReport report;
  report.segments_read = 1;
  *next_offset = start_offset;
  size_t offset = static_cast<size_t>(start_offset);
  while (offset < contents.size()) {
    size_t consumed = 0;
    std::string_view payload;
    if (ParseFrameAt(contents, offset, &consumed, &payload)) {
      AuditRecord record;
      if (DecodeAuditRecord(payload, &record).ok()) {
        report.records.push_back(std::move(record));
      } else {
        ++report.skipped_records;
        report.skipped_bytes += consumed;
      }
      offset += consumed;
      *next_offset = offset;
      continue;
    }
    // Damage at `offset`: resync at the next valid record. The cursor only
    // advances over damage that a valid record follows: a tail that does
    // not frame yet may simply be a record the writer has not finished,
    // and must be re-read by the next poll.
    const size_t resync = NextFrame(contents, offset + 1);
    if (resync == std::string_view::npos) {
      report.torn_tail = true;
      report.skipped_bytes += contents.size() - offset;
      break;  // *next_offset stays parked at the incomplete frame
    }
    ++report.skipped_records;
    report.skipped_bytes += resync - offset;
    offset = resync;
  }
  return report;
}

Result<AuditReadReport> ReadAuditLogFrom(const std::string& dir,
                                         AuditCursor* cursor) {
  std::error_code ec;
  if (!fs::is_directory(dir, ec)) {
    return Status::IOError("not an audit directory: " + dir);
  }
  AuditReadReport report;
  const std::vector<uint64_t> ids = ListSegmentIds(dir);
  if (ids.empty()) return report;
  if (cursor->segment_id < ids.front()) {
    // Retention deleted the cursor's segment out from under us; the
    // records between are gone, resume at the oldest survivor.
    cursor->segment_id = ids.front();
    cursor->offset = 0;
  }
  for (uint64_t id : ids) {
    if (id < cursor->segment_id) continue;
    const uint64_t start = id == cursor->segment_id ? cursor->offset : 0;
    uint64_t next = start;
    auto segment = ReadAuditSegmentFrom(SegmentFileName(dir, id), start, &next);
    if (!segment.ok()) continue;  // unreadable segment: skip, keep going
    report.segments_read += segment->segments_read;
    report.skipped_records += segment->skipped_records;
    report.skipped_bytes += segment->skipped_bytes;
    for (AuditRecord& r : segment->records) {
      report.records.push_back(std::move(r));
    }
    cursor->segment_id = id;
    cursor->offset = next;
    if (segment->torn_tail) {
      if (id == ids.back()) {
        // The live segment ends mid-record: park here and let the next
        // poll pick the record up once the writer finishes it.
        report.torn_tail = true;
        break;
      }
      // A torn tail in a *rotated* segment can never heal (the writer
      // has moved on); consume it so the follow loop cannot wedge.
    }
  }
  return report;
}

bool LooksLikeAuditLog(const std::string& path) {
  std::error_code ec;
  if (fs::is_directory(path, ec)) return !ListSegmentIds(path).empty();
  const std::string name = fs::path(path).filename().string();
  return name.rfind(kSegmentPrefix, 0) == 0 &&
         name.size() > sizeof(kSegmentSuffix) &&
         name.substr(name.size() - (sizeof(kSegmentSuffix) - 1)) ==
             kSegmentSuffix;
}

}  // namespace schemr
