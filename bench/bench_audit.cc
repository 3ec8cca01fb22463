// Audit-log overhead experiment (E15, DESIGN.md §10): the same
// HandleSearchXml workload with auditing off, auditing on (the always-on
// default), and auditing on with fsync-per-record, plus the raw cost of
// one Record() call and of the fingerprint/digest computation.
//
// Expected shape: the audit path adds one fingerprint + digest (a few
// microseconds) and one buffered append under a mutex, so end-to-end
// request latency should move by well under 2% -- the acceptance bar the
// always-on default rests on. sync_on_write pays an fsync per request and
// exists to show why it is off by default.

#include <benchmark/benchmark.h>

#include <filesystem>
#include <memory>

#include "bench_common.h"
#include "core/fingerprint.h"
#include "core/query_parser.h"
#include "obs/audit_log.h"
#include "service/schemr_service.h"

namespace schemr {
namespace {

namespace fs = std::filesystem;

constexpr size_t kSchemas = 2000;

fs::path AuditDir(const char* tag) {
  fs::path dir = fs::temp_directory_path() /
                 (std::string("schemr_bench_audit_") + tag);
  fs::remove_all(dir);
  return dir;
}

SearchRequest RequestFor(const WorkloadQuery& query) {
  SearchRequest request;
  request.keywords = query.keywords;
  request.fragment = query.ddl_fragment;
  request.top_k = 10;
  request.candidate_pool = 25;
  return request;
}

void RunWorkload(benchmark::State& state, const SchemrService& service) {
  const auto& workload = bench::SharedWorkload(0.0);
  size_t qi = 0;
  size_t handled = 0;
  for (auto _ : state) {
    const std::string xml =
        service.HandleSearchXml(RequestFor(workload[qi++ % workload.size()]));
    benchmark::DoNotOptimize(xml.data());
    ++handled;
  }
  state.SetItemsProcessed(static_cast<int64_t>(handled));
}

/// Baseline: the serving path with no audit log attached.
void BM_SearchXml_AuditOff(benchmark::State& state) {
  const auto& fixture = bench::SharedFixture(kSchemas);
  SchemrService service(fixture.serving.get());
  RunWorkload(state, service);
}
BENCHMARK(BM_SearchXml_AuditOff)->Unit(benchmark::kMicrosecond);

/// The always-on configuration: buffered appends, default thresholds.
void BM_SearchXml_AuditOn(benchmark::State& state) {
  const auto& fixture = bench::SharedFixture(kSchemas);
  SchemrService service(fixture.serving.get());
  fs::path dir = AuditDir("on");
  if (Status s = service.EnableAudit(dir.string()); !s.ok()) {
    state.SkipWithError(s.ToString().c_str());
    return;
  }
  RunWorkload(state, service);
  service.audit()->Close();
  fs::remove_all(dir);
}
BENCHMARK(BM_SearchXml_AuditOn)->Unit(benchmark::kMicrosecond);

/// Worst case: fsync after every record (off by default; quantifies why).
void BM_SearchXml_AuditSync(benchmark::State& state) {
  const auto& fixture = bench::SharedFixture(kSchemas);
  SchemrService service(fixture.serving.get());
  fs::path dir = AuditDir("sync");
  AuditLogOptions options;
  options.sync_on_write = true;
  if (Status s = service.EnableAudit(dir.string(), options); !s.ok()) {
    state.SkipWithError(s.ToString().c_str());
    return;
  }
  RunWorkload(state, service);
  service.audit()->Close();
  fs::remove_all(dir);
}
BENCHMARK(BM_SearchXml_AuditSync)->Unit(benchmark::kMicrosecond);

/// One Record() call in isolation (frame + CRC + buffered append).
void BM_AuditRecordAppend(benchmark::State& state) {
  fs::path dir = AuditDir("append");
  auto log = AuditLog::Open(dir.string());
  if (!log.ok()) {
    state.SkipWithError(log.status().ToString().c_str());
    return;
  }
  AuditRecord record;
  record.timestamp_micros = 1700000000000000ull;
  record.fingerprint = 0xabcdef;
  record.total_micros = 1500;
  record.phase1_micros = 200;
  record.phase2_micros = 1100;
  record.phase3_micros = 200;
  record.result_digest = 0x12345678;
  record.result_count = 10;
  record.keywords = "customer order invoice";
  for (auto _ : state) {
    (*log)->Record(record);
  }
  (*log)->Close();
  fs::remove_all(dir);
}
BENCHMARK(BM_AuditRecordAppend)->Unit(benchmark::kNanosecond);

/// Fingerprint + digest cost per request (the CPU the audit path adds to
/// the pipeline before the append).
void BM_FingerprintAndDigest(benchmark::State& state) {
  auto query = ParseQuery("customer order invoice payment history");
  if (!query.ok()) {
    state.SkipWithError("parse failed");
    return;
  }
  std::vector<SearchResult> results(10);
  for (size_t i = 0; i < results.size(); ++i) {
    results[i].schema_id = static_cast<SchemaId>(i + 1);
    results[i].score = 1.0 / static_cast<double>(i + 1);
  }
  for (auto _ : state) {
    uint64_t fp = FingerprintQuery(*query);
    uint64_t digest = DigestResults(results);
    benchmark::DoNotOptimize(fp);
    benchmark::DoNotOptimize(digest);
  }
}
BENCHMARK(BM_FingerprintAndDigest)->Unit(benchmark::kNanosecond);

}  // namespace
}  // namespace schemr

BENCHMARK_MAIN();
