// Audit-log coverage (DESIGN.md §10): record codec round-trips, segment
// rotation and retention bounds, crash tolerance (torn tails, mid-file
// byte flips, injected short writes), the slow-query ring, fingerprint
// and digest stability, the service integration that writes records for
// served, shed, and failed requests, and the incremental cursor reads
// behind `schemr audit tail --follow`.

#include "obs/audit_log.h"

#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <fstream>
#include <thread>

#include "core/fingerprint.h"
#include "core/query_parser.h"
#include "repo/schema_repository.h"
#include "schema/schema_builder.h"
#include "service/schemr_service.h"
#include "util/fault_injection.h"

namespace schemr {
namespace {

namespace fs = std::filesystem;

AuditRecord SampleRecord(uint64_t n) {
  AuditRecord record;
  record.timestamp_micros = 1700000000000000ull + n;
  record.fingerprint = 0xabcdef12345678ull ^ n;
  record.outcome = AuditOutcome::kOk;
  record.total_micros = 1000 + n;
  record.phase1_micros = 100 + n;
  record.phase2_micros = 700 + n;
  record.phase3_micros = 200 + n;
  record.deadline_micros = 2000000;
  record.budget_micros = 0;
  record.result_digest = 0x1122334455667788ull + n;
  record.result_count = 10;
  record.top_k = 10;
  record.candidate_pool = 50;
  return record;
}

class AuditLogTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("schemr_audit_test_" +
            std::to_string(
                ::testing::UnitTest::GetInstance()->random_seed()) +
            "_" + ::testing::UnitTest::GetInstance()
                      ->current_test_info()
                      ->name());
    fs::remove_all(dir_);
    FaultInjector::Global().DisarmAll();
  }
  void TearDown() override {
    FaultInjector::Global().DisarmAll();
    fs::remove_all(dir_);
  }

  std::unique_ptr<AuditLog> OpenLog(AuditLogOptions options = {}) {
    auto result = AuditLog::Open(dir_.string(), options);
    EXPECT_TRUE(result.ok()) << result.status();
    return std::move(result).value();
  }

  std::vector<fs::path> SegmentFiles() const {
    std::vector<fs::path> files;
    for (const auto& entry : fs::directory_iterator(dir_)) {
      files.push_back(entry.path());
    }
    std::sort(files.begin(), files.end());
    return files;
  }

  fs::path dir_;
};

// --- record codec -----------------------------------------------------------

TEST(AuditRecordCodec, RoundTripsEveryField) {
  AuditRecord record = SampleRecord(7);
  record.outcome = AuditOutcome::kDegraded;
  record.budget_micros = 12345;
  record.coarse_only_candidates = 3;
  record.dropped_matchers = 2;
  record.deadline_hit = true;
  record.has_query_text = true;
  record.keywords = "customer order";
  record.fragment = "CREATE TABLE t (id INT);";

  std::string payload;
  EncodeAuditRecord(record, &payload);
  AuditRecord decoded;
  ASSERT_TRUE(DecodeAuditRecord(payload, &decoded).ok());
  EXPECT_EQ(decoded.timestamp_micros, record.timestamp_micros);
  EXPECT_EQ(decoded.fingerprint, record.fingerprint);
  EXPECT_EQ(decoded.outcome, record.outcome);
  EXPECT_EQ(decoded.total_micros, record.total_micros);
  EXPECT_EQ(decoded.phase1_micros, record.phase1_micros);
  EXPECT_EQ(decoded.phase2_micros, record.phase2_micros);
  EXPECT_EQ(decoded.phase3_micros, record.phase3_micros);
  EXPECT_EQ(decoded.deadline_micros, record.deadline_micros);
  EXPECT_EQ(decoded.budget_micros, record.budget_micros);
  EXPECT_EQ(decoded.result_digest, record.result_digest);
  EXPECT_EQ(decoded.result_count, record.result_count);
  EXPECT_EQ(decoded.top_k, record.top_k);
  EXPECT_EQ(decoded.candidate_pool, record.candidate_pool);
  EXPECT_EQ(decoded.coarse_only_candidates, record.coarse_only_candidates);
  EXPECT_EQ(decoded.dropped_matchers, record.dropped_matchers);
  EXPECT_EQ(decoded.deadline_hit, record.deadline_hit);
  EXPECT_TRUE(decoded.has_query_text);
  EXPECT_EQ(decoded.keywords, record.keywords);
  EXPECT_EQ(decoded.fragment, record.fragment);
}

TEST(AuditRecordCodec, RoundTripsWithoutText) {
  AuditRecord record = SampleRecord(1);
  std::string payload;
  EncodeAuditRecord(record, &payload);
  AuditRecord decoded;
  ASSERT_TRUE(DecodeAuditRecord(payload, &decoded).ok());
  EXPECT_FALSE(decoded.has_query_text);
  EXPECT_TRUE(decoded.keywords.empty());
}

TEST(AuditRecordCodec, RoundTripsRequestId) {
  AuditRecord record = SampleRecord(3);
  record.has_query_text = true;
  record.keywords = "customer";
  record.request_id = "r1a2b3-cafe-7";
  std::string payload;
  EncodeAuditRecord(record, &payload);
  AuditRecord decoded;
  ASSERT_TRUE(DecodeAuditRecord(payload, &decoded).ok());
  EXPECT_EQ(decoded.request_id, record.request_id);
  EXPECT_EQ(decoded.keywords, record.keywords);
}

// Cross-version compatibility: the request-id field is flag-gated and
// trailing, so a record WITHOUT one encodes byte-identically to the
// pre-request-id layout — old segments keep parsing (backward), and old
// readers only ever see old-shaped bytes for id-less records (forward:
// nothing but the new flag bit plus trailing bytes was added).
TEST(AuditRecordCodec, RequestIdFieldIsBackwardAndForwardCompatible) {
  AuditRecord record = SampleRecord(4);
  record.has_query_text = true;
  record.keywords = "order lines";

  std::string old_layout;
  EncodeAuditRecord(record, &old_layout);

  AuditRecord tagged = record;
  tagged.request_id = "join-me-42";
  std::string new_layout;
  EncodeAuditRecord(tagged, &new_layout);

  // The new field costs exactly its length prefix + bytes (plus the flag
  // bit inside the existing flags varint — free below 128), appended
  // after every pre-existing field.
  ASSERT_EQ(new_layout.size(),
            old_layout.size() + 1 + tagged.request_id.size());

  // An id-less record decodes with an empty id under the same version
  // byte — old segments keep parsing.
  AuditRecord decoded_old;
  ASSERT_TRUE(DecodeAuditRecord(old_layout, &decoded_old).ok());
  EXPECT_TRUE(decoded_old.request_id.empty());

  // A tagged record decodes losslessly — and with no trailing bytes left
  // over (the decoder still rejects any).
  AuditRecord decoded_new;
  ASSERT_TRUE(DecodeAuditRecord(new_layout, &decoded_new).ok());
  EXPECT_EQ(decoded_new.request_id, "join-me-42");
  EXPECT_FALSE(DecodeAuditRecord(new_layout + "x", &decoded_new).ok());

  // Clearing the id reproduces the old layout byte-for-byte: the field
  // is strictly additive, never a re-arrangement.
  decoded_new.request_id.clear();
  std::string reencoded;
  EncodeAuditRecord(decoded_new, &reencoded);
  EXPECT_EQ(reencoded, old_layout);
}

TEST(AuditRecordCodec, RejectsDamage) {
  std::string payload;
  EncodeAuditRecord(SampleRecord(2), &payload);
  AuditRecord decoded;
  // Truncation at every prefix length must fail cleanly, never crash.
  for (size_t len = 0; len < payload.size(); ++len) {
    EXPECT_FALSE(
        DecodeAuditRecord(std::string_view(payload.data(), len), &decoded)
            .ok())
        << "prefix length " << len;
  }
  // Trailing garbage is damage too (the frame length said otherwise).
  EXPECT_FALSE(DecodeAuditRecord(payload + "x", &decoded).ok());
  // Unknown version byte.
  std::string versioned = payload;
  versioned[0] = 99;
  EXPECT_FALSE(DecodeAuditRecord(versioned, &decoded).ok());
}

// --- append / read / bounds -------------------------------------------------

TEST_F(AuditLogTest, RecordsReadBackInOrder) {
  auto log = OpenLog();
  for (uint64_t i = 0; i < 20; ++i) log->Record(SampleRecord(i));
  log->Close();

  auto report = ReadAuditLog(dir_.string());
  ASSERT_TRUE(report.ok()) << report.status();
  ASSERT_EQ(report->records.size(), 20u);
  EXPECT_EQ(report->skipped_records, 0u);
  EXPECT_FALSE(report->torn_tail);
  for (uint64_t i = 0; i < 20; ++i) {
    EXPECT_EQ(report->records[i].fingerprint, SampleRecord(i).fingerprint);
  }
}

TEST_F(AuditLogTest, AppendsContinueAcrossReopen) {
  AuditLogOptions options;
  {
    auto log = OpenLog(options);
    for (uint64_t i = 0; i < 5; ++i) log->Record(SampleRecord(i));
  }
  {
    auto log = OpenLog(options);
    for (uint64_t i = 5; i < 10; ++i) log->Record(SampleRecord(i));
  }
  auto report = ReadAuditLog(dir_.string());
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->records.size(), 10u);
  EXPECT_EQ(report->skipped_records, 0u);
}

TEST_F(AuditLogTest, RotationKeepsTheLogBounded) {
  AuditLogOptions options;
  options.max_segment_bytes = 256;  // a few records per segment
  options.max_segments = 3;
  auto log = OpenLog(options);
  for (uint64_t i = 0; i < 200; ++i) log->Record(SampleRecord(i));
  log->Close();

  EXPECT_LE(SegmentFiles().size(), options.max_segments + 1);
  auto report = ReadAuditLog(dir_.string());
  ASSERT_TRUE(report.ok());
  // Retention dropped the oldest records but whatever remains is intact
  // and ends with the newest record.
  EXPECT_GT(report->records.size(), 0u);
  EXPECT_LT(report->records.size(), 200u);
  EXPECT_EQ(report->records.back().fingerprint, SampleRecord(199).fingerprint);
  EXPECT_EQ(report->skipped_records, 0u);
}

TEST_F(AuditLogTest, TornTailIsTruncatedOnReopen) {
  {
    auto log = OpenLog();
    for (uint64_t i = 0; i < 5; ++i) log->Record(SampleRecord(i));
  }
  // Simulate a crash mid-append: a dangling half-record at the tail.
  std::vector<fs::path> files = SegmentFiles();
  ASSERT_EQ(files.size(), 1u);
  {
    std::ofstream out(files[0], std::ios::binary | std::ios::app);
    out << "\x12\x34\x56\x78\x0c\x00\x00\x00torn";
  }
  // A reader sees the torn tail and reports it without dropping whole
  // records.
  auto before = ReadAuditLog(dir_.string());
  ASSERT_TRUE(before.ok());
  EXPECT_EQ(before->records.size(), 5u);
  EXPECT_TRUE(before->torn_tail);

  // Reopening the writer truncates the tail; appends continue cleanly in
  // the same segment.
  {
    auto log = OpenLog();
    log->Record(SampleRecord(5));
  }
  auto after = ReadAuditLog(dir_.string());
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->records.size(), 6u);
  EXPECT_EQ(after->skipped_records, 0u);
  EXPECT_FALSE(after->torn_tail);
}

TEST_F(AuditLogTest, MidFileByteFlipIsQuarantined) {
  {
    auto log = OpenLog();
    for (uint64_t i = 0; i < 10; ++i) log->Record(SampleRecord(i));
  }
  std::vector<fs::path> files = SegmentFiles();
  ASSERT_EQ(files.size(), 1u);
  // Flip one byte a third of the way in: the record it lands in (and at
  // most its immediate neighbors, if the flip confuses framing) is
  // quarantined; everything else survives.
  const auto size = fs::file_size(files[0]);
  {
    std::fstream out(files[0],
                     std::ios::binary | std::ios::in | std::ios::out);
    out.seekp(static_cast<std::streamoff>(size / 3));
    char byte;
    out.seekg(static_cast<std::streamoff>(size / 3));
    out.get(byte);
    byte = static_cast<char>(byte ^ 0x40);
    out.seekp(static_cast<std::streamoff>(size / 3));
    out.put(byte);
  }
  auto report = ReadAuditSegment(files[0].string());
  ASSERT_TRUE(report.ok());
  EXPECT_GE(report->skipped_records + (report->torn_tail ? 1 : 0), 1u);
  EXPECT_GE(report->records.size(), 7u);
  EXPECT_GT(report->skipped_bytes, 0u);
}

TEST_F(AuditLogTest, InjectedShortWriteDropsOnlyThatRecord) {
  auto log = OpenLog();
  log->Record(SampleRecord(0));
  // One torn append (fails after persisting 10 bytes), then healthy again
  // — the writer must roll past the damage and keep recording.
  FaultSpec torn;
  torn.kind = FaultKind::kShortWrite;
  torn.arg = 10;
  torn.count = 1;
  FaultInjector::Global().Arm("audit/append/write", torn);
  log->Record(SampleRecord(1));  // dropped (torn)
  FaultInjector::Global().DisarmAll();
  log->Record(SampleRecord(2));
  log->Close();

  auto report = ReadAuditLog(dir_.string());
  ASSERT_TRUE(report.ok());
  ASSERT_EQ(report->records.size(), 2u);
  EXPECT_EQ(report->records[0].fingerprint, SampleRecord(0).fingerprint);
  EXPECT_EQ(report->records[1].fingerprint, SampleRecord(2).fingerprint);
}

TEST_F(AuditLogTest, SlowRingRetainsTextWithinCapacity) {
  AuditLogOptions options;
  options.slow_threshold_seconds = 0.0005;  // 500us
  options.slow_ring_capacity = 4;
  auto log = OpenLog(options);
  for (uint64_t i = 0; i < 10; ++i) {
    AuditRecord record = SampleRecord(i);
    record.total_micros = (i % 2 == 0) ? 10'000 : 10;  // alternate slow/fast
    record.keywords = "query " + std::to_string(i);
    log->Record(std::move(record));
  }
  // Ring holds the newest slow requests only, text intact.
  std::vector<AuditRecord> slow = log->SlowQueries();
  ASSERT_EQ(slow.size(), 4u);
  for (const AuditRecord& r : slow) {
    EXPECT_TRUE(r.has_query_text);
    EXPECT_FALSE(r.keywords.empty());
    EXPECT_GE(r.total_micros, 500u);
  }
  EXPECT_EQ(slow.back().keywords, "query 8");
  log->Close();

  // Persisted records: slow ones kept text, fast ones elided it.
  auto report = ReadAuditLog(dir_.string());
  ASSERT_TRUE(report.ok());
  ASSERT_EQ(report->records.size(), 10u);
  for (size_t i = 0; i < 10; ++i) {
    EXPECT_EQ(report->records[i].has_query_text, i % 2 == 0) << i;
  }
}

// --- fingerprints and digests -----------------------------------------------

TEST(FingerprintTest, KeywordOrderDoesNotMatter) {
  auto a = ParseQuery("customer order invoice");
  auto b = ParseQuery("invoice customer order");
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(FingerprintQuery(*a), FingerprintQuery(*b));
}

TEST(FingerprintTest, KeywordCaseAndDelimitersNormalize) {
  auto a = ParseQuery("Customer, Order");
  auto b = ParseQuery("order customer");
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(FingerprintQuery(*a), FingerprintQuery(*b));
}

TEST(FingerprintTest, DifferentTermsDiffer) {
  auto a = ParseQuery("customer order");
  auto b = ParseQuery("customer orders");
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_NE(FingerprintQuery(*a), FingerprintQuery(*b));
}

TEST(FingerprintTest, FragmentShapeMatters) {
  // Same names, different structure: the attribute moves to the other
  // entity. Shapes must hash different.
  auto a = ParseQuery("", "CREATE TABLE x (id INT, who TEXT);"
                          " CREATE TABLE y (id INT);");
  auto b = ParseQuery("", "CREATE TABLE x (id INT);"
                          " CREATE TABLE y (id INT, who TEXT);");
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_NE(FingerprintQuery(*a), FingerprintQuery(*b));
}

TEST(FingerprintTest, FragmentColumnOrderDoesNotMatter) {
  auto a = ParseQuery("", "CREATE TABLE x (id INT, who TEXT);");
  auto b = ParseQuery("", "CREATE TABLE x (who TEXT, id INT);");
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(FingerprintQuery(*a), FingerprintQuery(*b));
}

TEST(FingerprintTest, RawRequestMatchesParsedForKeywordOnly) {
  auto parsed = ParseQuery("Customer, ORDER  invoice");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(FingerprintRawRequest("Customer, ORDER  invoice", ""),
            FingerprintQuery(*parsed));
  // With a fragment the raw fingerprint is byte-based — different hash
  // space, but still deterministic.
  EXPECT_EQ(FingerprintRawRequest("a", "CREATE TABLE t (x INT);"),
            FingerprintRawRequest("a", "CREATE TABLE t (x INT);"));
  EXPECT_NE(FingerprintRawRequest("a", "CREATE TABLE t (x INT);"),
            FingerprintRawRequest("a", ""));
}

std::vector<SearchResult> MakeResults() {
  std::vector<SearchResult> results(3);
  results[0].schema_id = 11;
  results[0].score = 0.75;
  results[1].schema_id = 22;
  results[1].score = 0.5;
  results[2].schema_id = 33;
  results[2].score = 0.25;
  return results;
}

TEST(DigestTest, StableUnderOneUlpScoreNoise) {
  std::vector<SearchResult> a = MakeResults();
  std::vector<SearchResult> b = MakeResults();
  for (SearchResult& r : b) {
    r.score = std::nextafter(r.score, 1.0);  // ±1 double ulp
  }
  std::vector<SearchResult> c = MakeResults();
  for (SearchResult& r : c) {
    r.score = std::nextafter(r.score, 0.0);
  }
  EXPECT_EQ(DigestResults(a), DigestResults(b));
  EXPECT_EQ(DigestResults(a), DigestResults(c));
}

TEST(DigestTest, SensitiveToOrderIdsAndRealScoreChanges) {
  std::vector<SearchResult> base = MakeResults();
  std::vector<SearchResult> swapped = MakeResults();
  std::swap(swapped[0], swapped[1]);
  EXPECT_NE(DigestResults(base), DigestResults(swapped));

  std::vector<SearchResult> other_id = MakeResults();
  other_id[2].schema_id = 34;
  EXPECT_NE(DigestResults(base), DigestResults(other_id));

  std::vector<SearchResult> other_score = MakeResults();
  other_score[1].score = 0.51;  // far beyond float rounding
  EXPECT_NE(DigestResults(base), DigestResults(other_score));

  EXPECT_NE(DigestResults({}), 0u);  // "no results" ≠ "not recorded"
}

// --- service integration ----------------------------------------------------

class ServiceAuditTest : public AuditLogTest {
 protected:
  void SeedService() {
    auto repo = SchemaRepository::OpenInMemory();
    ASSERT_TRUE(repo
                    ->Insert(SchemaBuilder("customer_orders")
                                 .Entity("customer")
                                 .Attribute("id")
                                 .Attribute("name")
                                 .Entity("order")
                                 .Attribute("id")
                                 .Attribute("customer_id")
                                 .Build())
                    .ok());
    auto corpus = ServingCorpus::Create(std::move(repo));
    ASSERT_TRUE(corpus.ok()) << corpus.status();
    corpus_ = *std::move(corpus);
    service_ = std::make_unique<SchemrService>(corpus_.get());
    ASSERT_TRUE(service_->EnableAudit(dir_.string()).ok());
  }

  std::unique_ptr<ServingCorpus> corpus_;
  std::unique_ptr<SchemrService> service_;
};

TEST_F(ServiceAuditTest, HandledRequestIsRecorded) {
  SeedService();
  SearchRequest request;
  request.keywords = "customer order";
  std::string xml = service_->HandleSearchXml(request);
  EXPECT_NE(xml.find("<results"), std::string::npos);
  service_->audit()->Close();

  auto report = ReadAuditLog(dir_.string());
  ASSERT_TRUE(report.ok());
  ASSERT_EQ(report->records.size(), 1u);
  const AuditRecord& record = report->records[0];
  EXPECT_EQ(record.outcome, AuditOutcome::kOk);
  auto query = ParseQuery(request.keywords);
  ASSERT_TRUE(query.ok());
  EXPECT_EQ(record.fingerprint, FingerprintQuery(*query));
  EXPECT_NE(record.result_digest, 0u);
  EXPECT_EQ(record.result_count, 1u);
  EXPECT_GT(record.total_micros, 0u);
  EXPECT_GT(record.deadline_micros, 0u);
}

TEST_F(ServiceAuditTest, RecordedDigestMatchesRecomputedSearch) {
  SeedService();
  SearchRequest request;
  request.keywords = "customer order";
  (void)service_->HandleSearchXml(request);
  auto results = service_->Search(request);
  ASSERT_TRUE(results.ok());
  service_->audit()->Close();

  auto report = ReadAuditLog(dir_.string());
  ASSERT_TRUE(report.ok());
  // HandleSearchXml + Search both audited; same query, same digest.
  ASSERT_EQ(report->records.size(), 2u);
  EXPECT_EQ(report->records[0].result_digest, DigestResults(*results));
  EXPECT_EQ(report->records[1].result_digest, DigestResults(*results));
  EXPECT_EQ(report->records[0].fingerprint, report->records[1].fingerprint);
}

TEST_F(ServiceAuditTest, PipelineErrorIsRecordedWithText) {
  SeedService();
  SearchRequest request;  // empty keywords AND fragment: parse error
  std::string xml = service_->HandleSearchXml(request);
  EXPECT_NE(xml.find("<error"), std::string::npos);
  service_->audit()->Close();

  auto report = ReadAuditLog(dir_.string());
  ASSERT_TRUE(report.ok());
  ASSERT_EQ(report->records.size(), 1u);
  EXPECT_EQ(report->records[0].outcome, AuditOutcome::kError);
  // Error records keep their (here empty but flagged) query text so the
  // failure is reproducible.
  EXPECT_TRUE(report->records[0].has_query_text);
}

TEST_F(ServiceAuditTest, PostShutdownRefusalIsRecorded) {
  SeedService();
  ASSERT_TRUE(service_->Shutdown(0.0).ok());
  SearchRequest request;
  request.keywords = "customer";
  std::string xml = service_->HandleSearchXml(request);
  EXPECT_NE(xml.find("shutting_down"), std::string::npos);
  service_->audit()->Close();

  auto report = ReadAuditLog(dir_.string());
  ASSERT_TRUE(report.ok());
  ASSERT_EQ(report->records.size(), 1u);
  const AuditRecord& record = report->records[0];
  EXPECT_EQ(record.outcome, AuditOutcome::kShedDrain);
  EXPECT_TRUE(IsShedOutcome(record.outcome));
  EXPECT_TRUE(record.has_query_text);
  EXPECT_EQ(record.keywords, "customer");
  EXPECT_EQ(record.fingerprint, FingerprintRawRequest("customer", ""));
}

TEST_F(ServiceAuditTest, FailedSearchIsRecorded) {
  // Search() records a request that never reached the engine, as the
  // wire path does: one error record under the raw-request fingerprint,
  // with its text kept so the failure can be reproduced.
  SeedService();
  SearchRequest invalid;
  invalid.keywords = "customer order";
  invalid.top_k = 0;
  EXPECT_FALSE(service_->Search(invalid).ok());
  SearchRequest empty;  // no keywords and no fragment: parse error
  EXPECT_FALSE(service_->Search(empty).ok());
  service_->audit()->Close();

  auto report = ReadAuditLog(dir_.string());
  ASSERT_TRUE(report.ok());
  ASSERT_EQ(report->records.size(), 2u);
  const SearchRequest* requests[] = {&invalid, &empty};
  for (size_t i = 0; i < 2; ++i) {
    const AuditRecord& record = report->records[i];
    EXPECT_EQ(record.outcome, AuditOutcome::kError) << i;
    EXPECT_EQ(record.fingerprint,
              FingerprintRawRequest(requests[i]->keywords,
                                    requests[i]->fragment))
        << i;
    EXPECT_TRUE(record.has_query_text) << i;
    EXPECT_EQ(record.keywords, requests[i]->keywords) << i;
    EXPECT_EQ(record.top_k, requests[i]->top_k) << i;
    EXPECT_EQ(record.result_count, 0u) << i;
  }
}

TEST_F(ServiceAuditTest, RetainedTraceMatchesItsRecord) {
  // One admitted request and one refused after Shutdown: each leaves one
  // audit record and one retained trace, and the trace carries its
  // record's timestamp, fingerprint, outcome, total, cache hit and id.
  auto corpus = ServingCorpus::Create(SchemaRepository::OpenInMemory());
  ASSERT_TRUE(corpus.ok()) << corpus.status();
  ASSERT_TRUE((*corpus)
                  ->Ingest(SchemaBuilder("customer_orders")
                               .Entity("customer")
                               .Attribute("name")
                               .Build())
                  .ok());
  SchemrService service(corpus->get());
  ASSERT_TRUE(service.EnableAudit(dir_.string()).ok());
  ServingOptions serving;
  serving.trace_retention.sample_every_n = 1;
  ASSERT_TRUE(service.StartServing(serving).ok());
  SearchRequest admitted;
  admitted.keywords = "customer name";
  admitted.request_id = "admitted-1";
  EXPECT_NE(service.HandleSearchXml(admitted).find("<results"),
            std::string::npos);
  ASSERT_TRUE(service.Shutdown(5.0).ok());
  SearchRequest refused;
  refused.keywords = "customer";
  refused.request_id = "refused-2";
  EXPECT_NE(service.HandleSearchXml(refused).find("shutting_down"),
            std::string::npos);
  service.audit()->Close();

  auto report = ReadAuditLog(dir_.string());
  ASSERT_TRUE(report.ok());
  ASSERT_EQ(report->records.size(), 2u);
  const std::vector<RetainedTrace> traces =
      service.trace_retention()->Snapshot();
  ASSERT_EQ(traces.size(), 2u);
  for (const AuditRecord& record : report->records) {
    const RetainedTrace* trace = nullptr;
    for (const RetainedTrace& t : traces) {
      if (t.request_id == record.request_id) trace = &t;
    }
    ASSERT_NE(trace, nullptr) << record.request_id;
    EXPECT_EQ(trace->timestamp_micros, record.timestamp_micros);
    EXPECT_EQ(trace->fingerprint, record.fingerprint);
    EXPECT_EQ(trace->outcome, AuditOutcomeName(record.outcome));
    EXPECT_EQ(trace->total_seconds,
              static_cast<double>(record.total_micros) / 1e6);
    EXPECT_EQ(trace->cache_hit, record.cache_hit);
  }
  EXPECT_EQ(report->records[0].request_id, "admitted-1");
  EXPECT_EQ(report->records[0].outcome, AuditOutcome::kOk);
  EXPECT_GT(report->records[0].total_micros, 0u);
  EXPECT_EQ(report->records[1].request_id, "refused-2");
  EXPECT_EQ(report->records[1].outcome, AuditOutcome::kShedDrain);
}

TEST_F(ServiceAuditTest, NearDeadlineRequestRunsWithTightenedBudget) {
  // The near-deadline ladder. One worker, held by a request whose first
  // matcher call sleeps: the next request spends most of its deadline in
  // the queue, so it runs with a per-matcher budget of a quarter of the
  // deadline it has left. The request that did not wait runs unbudgeted.
  auto corpus = ServingCorpus::Create(SchemaRepository::OpenInMemory());
  ASSERT_TRUE(corpus.ok()) << corpus.status();
  ASSERT_TRUE((*corpus)
                  ->Ingest(SchemaBuilder("customer_orders")
                               .Entity("customer")
                               .Attribute("name")
                               .Entity("order")
                               .Attribute("customer_id")
                               .Build())
                  .ok());
  SchemrService service(corpus->get());
  ASSERT_TRUE(service.EnableAudit(dir_.string()).ok());
  ServingOptions serving;
  serving.executor.num_workers = 1;
  ASSERT_TRUE(service.StartServing(serving).ok());
  FaultSpec hold;
  hold.kind = FaultKind::kDelay;
  hold.arg = 600;  // milliseconds
  hold.count = 1;
  const uint64_t fired_before = FaultInjector::Global().faults_fired();
  FaultInjector::Global().Arm("match/name", hold);
  SearchRequest first;
  first.keywords = "customer order";
  std::thread holder([&] { (void)service.HandleSearchXml(first, 5.0); });
  while (FaultInjector::Global().faults_fired() == fired_before) {
    std::this_thread::yield();  // until the worker sleeps in the matcher
  }
  SearchRequest late;
  late.keywords = "customer name";
  (void)service.HandleSearchXml(late, 0.7);
  holder.join();
  FaultInjector::Global().Disarm("match/name");
  ASSERT_TRUE(service.Shutdown(5.0).ok());
  service.audit()->Close();

  auto report = ReadAuditLog(dir_.string());
  ASSERT_TRUE(report.ok());
  ASSERT_EQ(report->records.size(), 2u);
  const AuditRecord& unwaited = report->records[0];
  const AuditRecord& waited = report->records[1];
  EXPECT_EQ(unwaited.fingerprint,
            FingerprintQuery(*ParseQuery(first.keywords)));
  EXPECT_EQ(waited.fingerprint, FingerprintQuery(*ParseQuery(late.keywords)));
  EXPECT_EQ(unwaited.budget_micros, 0u);
  // Most of the 0.7 s went to the queue: less than half of it is left.
  EXPECT_LT(waited.deadline_micros, 350000u);
  EXPECT_GT(waited.budget_micros, 0u);
  EXPECT_NEAR(static_cast<double>(waited.budget_micros),
              0.25 * static_cast<double>(waited.deadline_micros), 1.0);
}

TEST(ShedReasonTest, NamesAreStable) {
  // These strings are wire format (shed <error> messages, `schemr
  // audit`): changing them breaks clients.
  EXPECT_STREQ(ShedReasonName(ShedReason::kNone), "");
  EXPECT_STREQ(ShedReasonName(ShedReason::kQueueFull), "queue_full");
  EXPECT_STREQ(ShedReasonName(ShedReason::kDeadline), "deadline");
  EXPECT_STREQ(ShedReasonName(ShedReason::kDrain), "shutting_down");
}

TEST(AuditOutcomeTest, NamesAreStable) {
  EXPECT_STREQ(AuditOutcomeName(AuditOutcome::kOk), "ok");
  EXPECT_STREQ(AuditOutcomeName(AuditOutcome::kDegraded), "degraded");
  EXPECT_STREQ(AuditOutcomeName(AuditOutcome::kError), "error");
  EXPECT_STREQ(AuditOutcomeName(AuditOutcome::kShedQueueFull),
               "shed_queue_full");
  EXPECT_STREQ(AuditOutcomeName(AuditOutcome::kShedDeadline),
               "shed_deadline");
  EXPECT_STREQ(AuditOutcomeName(AuditOutcome::kShedDrain), "shed_drain");
  EXPECT_STREQ(AuditOutcomeName(AuditOutcome::kCancelled), "cancelled");
  EXPECT_FALSE(IsShedOutcome(AuditOutcome::kOk));
  EXPECT_FALSE(IsShedOutcome(AuditOutcome::kCancelled));
  EXPECT_TRUE(IsShedOutcome(AuditOutcome::kShedQueueFull));
  EXPECT_TRUE(IsShedOutcome(AuditOutcome::kShedDeadline));
  EXPECT_TRUE(IsShedOutcome(AuditOutcome::kShedDrain));
}

// --- incremental reads (`schemr audit tail --follow`) -----------------------

class AuditCursorTest : public AuditLogTest {};

TEST_F(AuditCursorTest, SeesOnlyNewRecordsAcrossPolls) {
  auto log = OpenLog();
  for (uint64_t i = 0; i < 5; ++i) log->Record(SampleRecord(i));

  AuditCursor cursor;
  auto first = ReadAuditLogFrom(dir_.string(), &cursor);
  ASSERT_TRUE(first.ok()) << first.status();
  EXPECT_EQ(first->records.size(), 5u);

  // Nothing new: the next poll is empty, not a whole-segment re-read.
  auto idle = ReadAuditLogFrom(dir_.string(), &cursor);
  ASSERT_TRUE(idle.ok());
  EXPECT_TRUE(idle->records.empty());

  for (uint64_t i = 5; i < 8; ++i) log->Record(SampleRecord(i));
  auto next = ReadAuditLogFrom(dir_.string(), &cursor);
  ASSERT_TRUE(next.ok());
  ASSERT_EQ(next->records.size(), 3u);
  EXPECT_EQ(next->records[0].fingerprint, SampleRecord(5).fingerprint);
  EXPECT_EQ(next->records[2].fingerprint, SampleRecord(7).fingerprint);
}

TEST_F(AuditCursorTest, FollowsAcrossSegmentRotation) {
  AuditLogOptions options;
  options.max_segment_bytes = 256;
  options.max_segments = 100;  // rotate but never delete
  auto log = OpenLog(options);
  log->Record(SampleRecord(0));

  AuditCursor cursor;
  ASSERT_TRUE(ReadAuditLogFrom(dir_.string(), &cursor).ok());

  // Enough appends to rotate several times.
  for (uint64_t i = 1; i <= 40; ++i) log->Record(SampleRecord(i));
  ASSERT_GT(SegmentFiles().size(), 1u);
  auto report = ReadAuditLogFrom(dir_.string(), &cursor);
  ASSERT_TRUE(report.ok());
  ASSERT_EQ(report->records.size(), 40u);
  for (uint64_t i = 0; i < 40; ++i) {
    EXPECT_EQ(report->records[i].fingerprint, SampleRecord(i + 1).fingerprint);
  }
  // And the cursor is parked at the live tail again.
  auto idle = ReadAuditLogFrom(dir_.string(), &cursor);
  ASSERT_TRUE(idle.ok());
  EXPECT_TRUE(idle->records.empty());
}

TEST_F(AuditCursorTest, TornTailIsNotConsumedUntilHealed) {
  {
    auto log = OpenLog();
    for (uint64_t i = 0; i < 3; ++i) log->Record(SampleRecord(i));
  }
  AuditCursor cursor;
  ASSERT_TRUE(ReadAuditLogFrom(dir_.string(), &cursor).ok());

  // A crash leaves a half-record at the tail.
  std::vector<fs::path> files = SegmentFiles();
  ASSERT_EQ(files.size(), 1u);
  {
    std::ofstream out(files[0], std::ios::binary | std::ios::app);
    out << "\x12\x34\x56\x78\x0c\x00\x00\x00torn";
  }
  auto torn = ReadAuditLogFrom(dir_.string(), &cursor);
  ASSERT_TRUE(torn.ok());
  EXPECT_TRUE(torn->records.empty());
  EXPECT_TRUE(torn->torn_tail);

  // The writer reopens (truncating the tail) and appends; the parked
  // cursor picks the new record up — the damage was never skipped past.
  {
    auto log = OpenLog();
    log->Record(SampleRecord(3));
  }
  auto healed = ReadAuditLogFrom(dir_.string(), &cursor);
  ASSERT_TRUE(healed.ok());
  ASSERT_EQ(healed->records.size(), 1u);
  EXPECT_EQ(healed->records[0].fingerprint, SampleRecord(3).fingerprint);
  EXPECT_FALSE(healed->torn_tail);
}

TEST_F(AuditCursorTest, RetentionDeletedSegmentJumpsToOldestSurvivor) {
  AuditLogOptions options;
  options.max_segment_bytes = 256;
  options.max_segments = 2;
  auto log = OpenLog(options);
  log->Record(SampleRecord(0));

  AuditCursor cursor;
  ASSERT_TRUE(ReadAuditLogFrom(dir_.string(), &cursor).ok());
  const uint64_t parked_segment = cursor.segment_id;

  // Rotate far enough that the parked segment is retention-deleted.
  for (uint64_t i = 1; i <= 100; ++i) log->Record(SampleRecord(i));
  auto report = ReadAuditLogFrom(dir_.string(), &cursor);
  ASSERT_TRUE(report.ok());
  EXPECT_GT(cursor.segment_id, parked_segment);
  // What it read is a contiguous run ending at the newest record.
  ASSERT_GT(report->records.size(), 0u);
  EXPECT_EQ(report->records.back().fingerprint, SampleRecord(100).fingerprint);
  for (size_t i = 1; i < report->records.size(); ++i) {
    EXPECT_EQ(report->records[i].fingerprint,
              SampleRecord(100 - (report->records.size() - 1) + i)
                  .fingerprint);
  }
}

TEST_F(AuditCursorTest, SegmentReaderReportsNextOffset) {
  {
    auto log = OpenLog();
    for (uint64_t i = 0; i < 4; ++i) log->Record(SampleRecord(i));
  }
  std::vector<fs::path> files = SegmentFiles();
  ASSERT_EQ(files.size(), 1u);

  uint64_t offset = 0;
  auto all = ReadAuditSegmentFrom(files[0].string(), 0, &offset);
  ASSERT_TRUE(all.ok()) << all.status();
  EXPECT_EQ(all->records.size(), 4u);
  EXPECT_EQ(offset, fs::file_size(files[0]));

  // Resuming from the reported offset reads nothing and stays parked.
  uint64_t again = 0;
  auto rest = ReadAuditSegmentFrom(files[0].string(), offset, &again);
  ASSERT_TRUE(rest.ok());
  EXPECT_TRUE(rest->records.empty());
  EXPECT_EQ(again, offset);
}

}  // namespace
}  // namespace schemr
