// Replay-engine coverage (DESIGN.md §10): workload (de)serialization,
// digest-stable re-execution against a pinned snapshot at any thread
// count, mismatch detection against a doctored recording, loading a
// workload straight from an audit log, and the bench-report gate that
// backs tools/bench_gate.

#include "obs/replay.h"

#include <gtest/gtest.h>

#include <filesystem>

#include "core/fingerprint.h"
#include "core/serving_corpus.h"
#include "corpus/schema_generator.h"
#include "index/indexer.h"
#include "obs/audit_log.h"
#include "repo/schema_repository.h"
#include "schema/schema_builder.h"
#include "service/schemr_service.h"

namespace schemr {
namespace {

namespace fs = std::filesystem;

std::vector<WorkloadEntry> SampleWorkload() {
  std::vector<WorkloadEntry> workload;
  WorkloadEntry keywords_only;
  keywords_only.keywords = "customer order";
  workload.push_back(keywords_only);
  WorkloadEntry with_fragment;
  with_fragment.keywords = "invoice";
  with_fragment.fragment = "CREATE TABLE invoice (id INT, total DOUBLE);";
  with_fragment.top_k = 5;
  with_fragment.candidate_pool = 25;
  workload.push_back(with_fragment);
  WorkloadEntry fragment_only;
  fragment_only.fragment = "CREATE TABLE customer (id INT, name VARCHAR);";
  workload.push_back(fragment_only);
  return workload;
}

TEST(WorkloadXmlTest, RoundTrips) {
  std::vector<WorkloadEntry> workload = SampleWorkload();
  workload[0].fingerprint = 0x1234;
  workload[0].expected_digest = 0x5678;
  auto parsed = WorkloadFromXml(WorkloadToXml(workload));
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  ASSERT_EQ(parsed->size(), workload.size());
  for (size_t i = 0; i < workload.size(); ++i) {
    EXPECT_EQ((*parsed)[i].keywords, workload[i].keywords) << i;
    EXPECT_EQ((*parsed)[i].fragment, workload[i].fragment) << i;
    EXPECT_EQ((*parsed)[i].top_k, workload[i].top_k) << i;
    EXPECT_EQ((*parsed)[i].candidate_pool, workload[i].candidate_pool) << i;
    EXPECT_EQ((*parsed)[i].fingerprint, workload[i].fingerprint) << i;
    EXPECT_EQ((*parsed)[i].expected_digest, workload[i].expected_digest) << i;
  }
}

TEST(WorkloadXmlTest, RejectsNonWorkloadDocuments) {
  EXPECT_FALSE(WorkloadFromXml("").ok());
  EXPECT_FALSE(WorkloadFromXml("not xml at all").ok());
  EXPECT_FALSE(WorkloadFromXml("<results></results>").ok());
}

TEST(WorkloadXmlTest, SaveAndLoadThroughAFile) {
  fs::path path =
      fs::temp_directory_path() /
      ("schemr_replay_workload_" +
       std::to_string(::testing::UnitTest::GetInstance()->random_seed()) +
       ".xml");
  fs::remove(path);
  ASSERT_TRUE(SaveWorkload(path.string(), SampleWorkload()).ok());
  size_t skipped = 99;
  auto loaded = LoadWorkload(path.string(), &skipped);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded->size(), SampleWorkload().size());
  EXPECT_EQ(skipped, 0u);
  fs::remove(path);
}

class ReplayTest : public ::testing::Test {
 protected:
  void SetUp() override {
    repo_ = SchemaRepository::OpenInMemory();
    ASSERT_TRUE(repo_
                    ->Insert(SchemaBuilder("sales")
                                 .Entity("customer")
                                 .Attribute("id")
                                 .Attribute("name")
                                 .Entity("order")
                                 .Attribute("id")
                                 .Attribute("customer_id")
                                 .Attribute("total")
                                 .Build())
                    .ok());
    ASSERT_TRUE(repo_
                    ->Insert(SchemaBuilder("billing")
                                 .Entity("invoice")
                                 .Attribute("id")
                                 .Attribute("total")
                                 .Entity("payment")
                                 .Attribute("id")
                                 .Attribute("invoice_id")
                                 .Build())
                    .ok());
    ASSERT_TRUE(repo_
                    ->Insert(SchemaBuilder("crm")
                                 .Entity("customer")
                                 .Attribute("id")
                                 .Attribute("email")
                                 .Build())
                    .ok());
    ASSERT_TRUE(indexer_.RebuildFromRepository(*repo_).ok());
    // Non-owning alias: indexer_ outlives the snapshot here.
    auto pinned = PinSnapshot(*repo_, std::shared_ptr<const InvertedIndex>(
                                          std::shared_ptr<void>(),
                                          &indexer_.index()));
    ASSERT_TRUE(pinned.ok()) << pinned.status();
    snapshot_ = *std::move(pinned);
  }

  std::unique_ptr<SchemaRepository> repo_;
  Indexer indexer_;
  std::shared_ptr<const CorpusSnapshot> snapshot_;
};

TEST_F(ReplayTest, TwoRunsProduceIdenticalDigests) {
  std::vector<WorkloadEntry> workload = SampleWorkload();
  auto first = ReplayWorkload(snapshot_, workload);
  ASSERT_TRUE(first.ok()) << first.status();
  EXPECT_EQ(first->entries, workload.size());
  EXPECT_EQ(first->executed, workload.size());
  EXPECT_EQ(first->errors, 0u);
  EXPECT_EQ(first->degraded, 0u);
  EXPECT_EQ(first->digest_mismatches, 0u);
  ASSERT_EQ(first->digests.size(), workload.size());
  for (uint64_t digest : first->digests) EXPECT_NE(digest, 0u);

  auto second = ReplayWorkload(snapshot_, workload);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->digests, first->digests);
}

TEST_F(ReplayTest, RecordedDigestsVerifyAndDoctoredOnesAreCaught) {
  std::vector<WorkloadEntry> workload = SampleWorkload();
  auto recording = ReplayWorkload(snapshot_, workload);
  ASSERT_TRUE(recording.ok());
  for (size_t i = 0; i < workload.size(); ++i) {
    workload[i].expected_digest = recording->digests[i];
  }
  auto verified = ReplayWorkload(snapshot_, workload);
  ASSERT_TRUE(verified.ok());
  EXPECT_EQ(verified->digest_mismatches, 0u);

  workload[1].expected_digest ^= 1;  // the recording lies about one entry
  auto doctored = ReplayWorkload(snapshot_, workload);
  ASSERT_TRUE(doctored.ok());
  EXPECT_EQ(doctored->digest_mismatches, 1u);
}

TEST_F(ReplayTest, ThreadedRepeatsStayDeterministic) {
  std::vector<WorkloadEntry> workload = SampleWorkload();
  auto single = ReplayWorkload(snapshot_, workload);
  ASSERT_TRUE(single.ok());

  ReplayOptions options;
  options.threads = 4;
  options.repeat = 3;
  auto threaded = ReplayWorkload(snapshot_, workload, options);
  ASSERT_TRUE(threaded.ok()) << threaded.status();
  EXPECT_EQ(threaded->executed, workload.size() * 3);
  // Repeats cross-check against the first execution; any thread-order
  // dependence in the pipeline would show up here.
  EXPECT_EQ(threaded->digest_mismatches, 0u);
  EXPECT_EQ(threaded->errors, 0u);
  EXPECT_EQ(threaded->digests, single->digests);
}

TEST_F(ReplayTest, EngineThreadsPreserveDigests) {
  std::vector<WorkloadEntry> workload = SampleWorkload();
  auto serial = ReplayWorkload(snapshot_, workload);
  ASSERT_TRUE(serial.ok()) << serial.status();

  // Parallel candidate scoring inside every search, on top of parallel
  // workload execution and repeat cross-checks: the digests must not move.
  ReplayOptions options;
  options.threads = 2;
  options.repeat = 2;
  options.engine_threads = 8;
  auto parallel = ReplayWorkload(snapshot_, workload, options);
  ASSERT_TRUE(parallel.ok()) << parallel.status();
  EXPECT_EQ(parallel->engine_threads, 8u);
  EXPECT_EQ(parallel->errors, 0u);
  EXPECT_EQ(parallel->digest_mismatches, 0u);
  EXPECT_EQ(parallel->digests, serial->digests);
}

TEST_F(ReplayTest, CommittedSampleWorkloadIsThreadCountIndependent) {
  // The exact pairing the CI perf gate runs: the committed workload
  // against the reference corpus recipe (120 schemas, seed 42), replayed
  // serially and with 4 scoring threads. Digest divergence here means the
  // parallel pipeline went nondeterministic.
  size_t skipped = 0;
  auto workload = LoadWorkload(
      std::string(SCHEMR_SOURCE_DIR) + "/examples/sample_workload.xml",
      &skipped);
  ASSERT_TRUE(workload.ok()) << workload.status();
  ASSERT_EQ(skipped, 0u);
  ASSERT_FALSE(workload->empty());

  auto repo = SchemaRepository::OpenInMemory();
  CorpusOptions corpus_options;
  corpus_options.num_schemas = 120;
  corpus_options.seed = 42;
  for (GeneratedSchema& generated : GenerateCorpus(corpus_options)) {
    ASSERT_TRUE(repo->Insert(std::move(generated.schema)).ok());
  }
  Indexer indexer;
  ASSERT_TRUE(indexer.RebuildFromRepository(*repo).ok());
  auto pinned = PinSnapshot(*repo, std::shared_ptr<const InvertedIndex>(
                                       std::shared_ptr<void>(),
                                       &indexer.index()));
  ASSERT_TRUE(pinned.ok()) << pinned.status();
  const std::shared_ptr<const CorpusSnapshot> snapshot = *std::move(pinned);

  auto serial = ReplayWorkload(snapshot, *workload);
  ASSERT_TRUE(serial.ok()) << serial.status();
  EXPECT_EQ(serial->errors, 0u);

  ReplayOptions options;
  options.engine_threads = 4;
  auto threaded = ReplayWorkload(snapshot, *workload, options);
  ASSERT_TRUE(threaded.ok()) << threaded.status();
  EXPECT_EQ(threaded->errors, 0u);
  EXPECT_EQ(threaded->digest_mismatches, 0u);
  EXPECT_EQ(threaded->digests, serial->digests);
}

TEST_F(ReplayTest, PipelineErrorsAreCountedNotFatal) {
  std::vector<WorkloadEntry> workload(1);  // empty query: parse error
  auto report = ReplayWorkload(snapshot_, workload);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->errors, 1u);
  EXPECT_EQ(report->digests[0], 0u);
}

TEST_F(ReplayTest, EmptyWorkloadIsInvalid) {
  EXPECT_FALSE(ReplayWorkload(snapshot_, {}).ok());
}

TEST_F(ReplayTest, LoadsWorkloadFromAnAuditLog) {
  fs::path dir =
      fs::temp_directory_path() /
      ("schemr_replay_audit_" +
       std::to_string(::testing::UnitTest::GetInstance()->random_seed()) +
       "_" +
       ::testing::UnitTest::GetInstance()->current_test_info()->name());
  fs::remove_all(dir);

  // A service with a sub-microsecond slow threshold retains query text on
  // every record, so every request becomes replayable.
  SchemrService service(repo_.get(), &indexer_.index());
  AuditLogOptions slow_everything;
  slow_everything.slow_threshold_seconds = 0.0;
  ASSERT_TRUE(service.EnableAudit(dir.string(), slow_everything).ok());
  SearchRequest request;
  request.keywords = "customer order";
  (void)service.HandleSearchXml(request);
  request.keywords = "invoice total";
  (void)service.HandleSearchXml(request);
  service.audit()->Close();

  size_t skipped = 0;
  auto workload = LoadWorkload(dir.string(), &skipped);
  ASSERT_TRUE(workload.ok()) << workload.status();
  ASSERT_EQ(workload->size(), 2u);
  EXPECT_EQ(skipped, 0u);
  EXPECT_EQ((*workload)[0].keywords, "customer order");
  EXPECT_NE((*workload)[0].expected_digest, 0u);

  // The recorded digests must verify against a snapshot of the same
  // corpus — the live-service digest and the replay digest are the same
  // function of the same pipeline.
  auto report = ReplayWorkload(snapshot_, *workload);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->digest_mismatches, 0u);

  // Fast records without text are skipped, not errors.
  fs::remove_all(dir);
  SchemrService fast_service(repo_.get(), &indexer_.index());
  ASSERT_TRUE(fast_service.EnableAudit(dir.string()).ok());  // 250ms bar
  request.keywords = "customer";
  (void)fast_service.HandleSearchXml(request);
  fast_service.audit()->Close();
  skipped = 0;
  auto textless = LoadWorkload(dir.string(), &skipped);
  EXPECT_FALSE(textless.ok());  // nothing replayable survives
  EXPECT_EQ(skipped, 1u);

  fs::remove_all(dir);
}

// --- bench report + gate ----------------------------------------------------

ReplayReport MakeReport(double scale) {
  ReplayReport report;
  report.entries = 3;
  report.executed = 6;
  report.threads = 2;
  report.repeat = 2;
  report.engine_threads = 4;
  report.wall_seconds = 0.5 * scale;
  report.qps = 12.0 / scale;
  report.total = {0.010 * scale, 0.020 * scale, 0.030 * scale};
  report.phase1 = {0.002 * scale, 0.004 * scale, 0.005 * scale};
  report.phase2 = {0.006 * scale, 0.012 * scale, 0.020 * scale};
  report.phase3 = {0.002 * scale, 0.004 * scale, 0.005 * scale};
  report.digests = {1, 2, 3};
  return report;
}

TEST(BenchJsonTest, JsonRoundTripsThroughTheFlatParser) {
  auto flat = ParseBenchJson(ReplayReportToJson(MakeReport(1.0)));
  ASSERT_TRUE(flat.ok()) << flat.status();
  EXPECT_DOUBLE_EQ(flat->at("entries"), 3.0);
  EXPECT_DOUBLE_EQ(flat->at("executed"), 6.0);
  EXPECT_DOUBLE_EQ(flat->at("digest_mismatches"), 0.0);
  EXPECT_NEAR(flat->at("latency_seconds.total.p95"), 0.020, 1e-12);
  EXPECT_NEAR(flat->at("latency_seconds.phase2.p99"), 0.020, 1e-12);
  EXPECT_NEAR(flat->at("qps"), 12.0, 1e-9);
  EXPECT_DOUBLE_EQ(flat->at("engine_threads"), 4.0);
}

TEST(BenchJsonTest, ParserRejectsMalformedInput) {
  EXPECT_FALSE(ParseBenchJson("").ok());
  EXPECT_FALSE(ParseBenchJson("{").ok());
  EXPECT_FALSE(ParseBenchJson("{\"a\": }").ok());
  EXPECT_FALSE(ParseBenchJson("[1, 2]").ok());
}

TEST(BenchGateTest, SameReportPasses) {
  std::string json = ReplayReportToJson(MakeReport(1.0));
  auto gate = CompareBenchReports(json, json);
  ASSERT_TRUE(gate.ok()) << gate.status();
  EXPECT_TRUE(gate->pass)
      << (gate->violations.empty() ? "" : gate->violations[0]);
  EXPECT_TRUE(gate->violations.empty());
}

TEST(BenchGateTest, RegressionBeyondToleranceFails) {
  std::string baseline = ReplayReportToJson(MakeReport(1.0));
  // 5% slower: inside the +10% tolerance.
  auto small = CompareBenchReports(baseline, ReplayReportToJson(MakeReport(1.05)));
  ASSERT_TRUE(small.ok());
  EXPECT_TRUE(small->pass);
  // 50% slower: out.
  auto big = CompareBenchReports(baseline, ReplayReportToJson(MakeReport(1.5)));
  ASSERT_TRUE(big.ok());
  EXPECT_FALSE(big->pass);
  EXPECT_FALSE(big->violations.empty());
}

TEST(BenchGateTest, ScaledBaselineIsTheNegativeTest) {
  // Identical runs, baseline artificially halved: the gate MUST fail —
  // this is exactly the CI job that proves the gate can fail.
  std::string json = ReplayReportToJson(MakeReport(1.0));
  GateOptions options;
  options.baseline_scale = 0.5;
  auto gate = CompareBenchReports(json, json, options);
  ASSERT_TRUE(gate.ok());
  EXPECT_FALSE(gate->pass);
}

TEST(BenchGateTest, DigestMismatchesFailRegardlessOfLatency) {
  ReplayReport bad = MakeReport(0.5);  // twice as FAST, but...
  bad.digest_mismatches = 1;
  auto gate = CompareBenchReports(ReplayReportToJson(MakeReport(1.0)),
                                  ReplayReportToJson(bad));
  ASSERT_TRUE(gate.ok());
  EXPECT_FALSE(gate->pass);

  GateOptions lenient;
  lenient.max_digest_mismatches = 2;
  auto tolerated = CompareBenchReports(ReplayReportToJson(MakeReport(1.0)),
                                       ReplayReportToJson(bad), lenient);
  ASSERT_TRUE(tolerated.ok());
  EXPECT_TRUE(tolerated->pass);
}

TEST(BenchGateTest, ThroughputCollapseFails) {
  // Latency percentiles can look fine while throughput craters (lock
  // convoys, pool starvation). Baseline qps 12 with the default 75%
  // tolerance requires >= 3.
  ReplayReport bad = MakeReport(1.0);
  bad.qps = 1.0;
  auto gate = CompareBenchReports(ReplayReportToJson(MakeReport(1.0)),
                                  ReplayReportToJson(bad));
  ASSERT_TRUE(gate.ok());
  EXPECT_FALSE(gate->pass);
  ASSERT_FALSE(gate->violations.empty());
  EXPECT_NE(gate->violations[0].find("qps"), std::string::npos);

  // A looser operator-chosen tolerance admits the same report.
  GateOptions lenient;
  lenient.qps_tolerance = 0.95;  // requires >= 0.6
  auto tolerated = CompareBenchReports(ReplayReportToJson(MakeReport(1.0)),
                                       ReplayReportToJson(bad), lenient);
  ASSERT_TRUE(tolerated.ok());
  EXPECT_TRUE(tolerated->pass);
}

TEST(BenchGateTest, NewErrorsFail) {
  ReplayReport bad = MakeReport(1.0);
  bad.errors = 2;
  auto gate = CompareBenchReports(ReplayReportToJson(MakeReport(1.0)),
                                  ReplayReportToJson(bad));
  ASSERT_TRUE(gate.ok());
  EXPECT_FALSE(gate->pass);
}

}  // namespace
}  // namespace schemr
