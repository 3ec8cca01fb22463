// Cross-process chaos tests for the replica fleet (DESIGN.md §14): a
// Fleet of real `schemr serve` child processes behind the failover
// Coordinator. Covered: the byte-identical serving contract THROUGH the
// coordinator (a /search answered via the coordinator equals the same
// request answered by a backend directly), kill -9 of a replica under
// client load without a single fabricated non-shed 5xx, circuit-breaker
// open → half-open probe readmission, the rolling-drain invariant
// (ready count never below N−1, asserted by polling every replica's
// /readyz), and a torture loop racing kills, stalls, injected
// coordinator faults, and rolling restarts against live client traffic.
// SCHEMR_TORTURE_CYCLES scales the torture loop. The schemr binary the
// replicas exec is baked in at compile time (SCHEMR_BINARY_PATH).

#include "service/fleet.h"

#include <unistd.h>

#include <gtest/gtest.h>

#include <atomic>
#include <cerrno>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include <sys/wait.h>

#include <cstdio>
#include <sstream>

#include "core/serving_corpus.h"
#include "corpus/schema_generator.h"
#include "obs/audit_log.h"
#include "obs/exposition.h"
#include "obs/federation.h"
#include "repo/schema_repository.h"
#include "service/coordinator.h"
#include "service/http_server.h"
#include "service/request_id.h"
#include "service/schemr_service.h"
#include "util/fault_injection.h"
#include "util/rng.h"

#ifndef SCHEMR_BINARY_PATH
#error "SCHEMR_BINARY_PATH must point at the schemr CLI binary"
#endif

namespace schemr {
namespace {

namespace fs = std::filesystem;

int TortureCycles() {
  const char* env = std::getenv("SCHEMR_TORTURE_CYCLES");
  if (env != nullptr) {
    const int cycles = std::atoi(env);
    if (cycles > 0) return cycles;
  }
  return 4;
}

/// Seeds an on-disk repository and writes its segment.idx and
/// signatures.sig through ServingCorpus::Open, the way `schemr seed`
/// does, so real `schemr serve` children adopt both.
std::string SeedRepo(const std::string& name, size_t schemas) {
  const fs::path dir =
      fs::temp_directory_path() /
      (name + "_" + std::to_string(static_cast<long>(::getpid())));
  fs::remove_all(dir);
  fs::create_directories(dir);
  auto repo = SchemaRepository::Open(dir.string());
  EXPECT_TRUE(repo.ok()) << repo.status();
  CorpusOptions options;
  options.num_schemas = schemas;
  options.seed = 2026;
  for (const GeneratedSchema& g : GenerateCorpus(options)) {
    EXPECT_TRUE((*repo)->Insert(g.schema).ok());
  }
  OpenReport report;
  EXPECT_TRUE(
      ServingCorpus::Open(std::move(*repo), dir.string(), &report).ok());
  EXPECT_TRUE(report.persisted.ok()) << report.persisted;
  return dir.string();
}

FleetOptions MakeFleetOptions(const std::string& repo_dir, int replicas) {
  FleetOptions options;
  options.binary_path = SCHEMR_BINARY_PATH;
  options.repo_dir = repo_dir;
  options.replicas = replicas;
  options.serve_workers = 2;
  return options;
}

std::string QueryXml() {
  SearchRequest request;
  request.keywords = "patient height gender diagnosis";
  request.top_k = 5;
  request.candidate_pool = 20;
  return SearchRequestToXml(request);
}

Result<HttpReply> PostSearch(int port, const std::string& body,
                             double timeout_seconds = 10.0) {
  HttpCallOptions options;
  options.method = "POST";
  options.body = body;
  options.attempt_timeout_seconds = timeout_seconds;
  options.max_attempts = 1;  // the coordinator owns failover, not the client
  return HttpCall("127.0.0.1", port, "/search", options);
}

/// True when `port`'s /readyz answers 200 within `timeout_seconds`.
bool Readyz(int port, double timeout_seconds = 1.0) {
  HttpCallOptions options;
  options.attempt_timeout_seconds = timeout_seconds;
  options.max_attempts = 1;
  auto reply = HttpCall("127.0.0.1", port, "/readyz", options);
  return reply.ok() && reply->status == 200;
}

// --- the serving contract through the coordinator ---------------------------

TEST(FleetTest, SearchThroughCoordinatorIsByteIdenticalToDirectBackend) {
  const std::string repo_dir = SeedRepo("schemr_fleet_ident", 40);
  CoordinatorOptions coordinator;
  Fleet fleet(MakeFleetOptions(repo_dir, 2), coordinator);
  ASSERT_TRUE(fleet.Start().ok());

  const std::string body = QueryXml();
  auto direct = PostSearch(fleet.ReplicaConfig(0).search_port, body);
  ASSERT_TRUE(direct.ok()) << direct.status();
  ASSERT_EQ(direct->status, 200);
  ASSERT_FALSE(direct->body.empty());

  // Replicas serve identical corpora, so whichever backend the
  // coordinator routes to must produce these exact bytes.
  auto via = PostSearch(fleet.coordinator().port(), body);
  ASSERT_TRUE(via.ok()) << via.status();
  EXPECT_EQ(via->status, 200);
  EXPECT_EQ(via->body, direct->body);
  EXPECT_EQ(via->headers.at("content-type"), direct->headers.at("content-type"));

  // Request identity rides only on a new response header — the body
  // bytes above already proved the payload contract is untouched. Both
  // entry points echo a well-formed id; the coordinator's is the base
  // id, never the hop-suffixed variant it forwarded.
  ASSERT_EQ(via->headers.count("x-schemr-request-id"), 1u);
  EXPECT_TRUE(IsValidRequestId(via->headers.at("x-schemr-request-id")));
  ASSERT_EQ(direct->headers.count("x-schemr-request-id"), 1u);
  EXPECT_TRUE(IsValidRequestId(direct->headers.at("x-schemr-request-id")));

  // The coordinator's own readiness follows the pool.
  EXPECT_TRUE(Readyz(fleet.coordinator().port()));
  EXPECT_EQ(fleet.coordinator().pool().RoutableCount(), 2u);
  fleet.Shutdown();
  fs::remove_all(repo_dir);
}

// --- kill -9 under load -----------------------------------------------------

TEST(FleetTest, KillNineUnderLoadNeverFabricatesNonShed5xx) {
  const std::string repo_dir = SeedRepo("schemr_fleet_kill", 40);
  Fleet fleet(MakeFleetOptions(repo_dir, 3), {});
  ASSERT_TRUE(fleet.Start().ok());
  const int port = fleet.coordinator().port();
  const std::string body = QueryXml();

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> ok{0};
  std::atomic<uint64_t> shed{0};         // 503 carrying the shed vocabulary
  std::atomic<uint64_t> bad_5xx{0};      // anything else in 5xx: forbidden
  std::atomic<uint64_t> net_errors{0};   // incomplete client exchanges
  std::vector<std::thread> clients;
  for (int c = 0; c < 4; ++c) {
    clients.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        auto reply = PostSearch(port, body);
        if (!reply.ok()) {
          net_errors.fetch_add(1, std::memory_order_relaxed);
        } else if (reply->status == 200) {
          ok.fetch_add(1, std::memory_order_relaxed);
        } else if (reply->status == 503 &&
                   reply->headers.count("x-schemr-shed") > 0) {
          shed.fetch_add(1, std::memory_order_relaxed);
        } else if (reply->status >= 500) {
          bad_5xx.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }

  // Let load establish, then kill -9 one replica mid-flight and let the
  // supervisor respawn it while clients keep hammering.
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  ASSERT_TRUE(fleet.KillReplica(1).ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(500));
  EXPECT_EQ(fleet.SupervisePass(), 1);
  ASSERT_TRUE(fleet.WaitRoutable(1, 20.0).ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& t : clients) t.join();

  // The contract: every client saw either a real backend answer or an
  // honest shed. A kill -9 mid-exchange must surface as a failover, not
  // as a fabricated 502/504 or a torn response.
  EXPECT_GT(ok.load(), 0u);
  EXPECT_EQ(bad_5xx.load(), 0u);
  EXPECT_EQ(net_errors.load(), 0u);
  // The killed replica is routable again (probe readmission).
  EXPECT_EQ(fleet.coordinator().pool().RoutableCount(), 3u);
  fleet.Shutdown();
  fs::remove_all(repo_dir);
}

// --- circuit breaker --------------------------------------------------------

TEST(FleetTest, BreakerOpensOnInjectedFailuresAndHalfOpenProbeReadmits) {
  const std::string repo_dir = SeedRepo("schemr_fleet_breaker", 30);
  CoordinatorOptions coordinator;
  coordinator.pool.failure_threshold = 3;
  coordinator.pool.open_cooldown_seconds = 0.3;
  Fleet fleet(MakeFleetOptions(repo_dir, 2), coordinator);
  ASSERT_TRUE(fleet.Start().ok());
  const std::string body = QueryXml();

  // Blackhole every coordinator→backend attempt for exactly enough hits
  // to trip both breakers (threshold per backend, two backends), then go
  // dormant. Each request fails over across both, so three requests feed
  // three consecutive failures to each backend.
  FaultSpec spec;
  spec.kind = FaultKind::kError;
  spec.count = 2 * coordinator.pool.failure_threshold;
  FaultInjector::Global().Arm("coord/backend/blackhole", spec);
  int sheds = 0;
  for (int i = 0; i < 6 && sheds < 3; ++i) {
    auto reply = PostSearch(fleet.coordinator().port(), body);
    ASSERT_TRUE(reply.ok()) << reply.status();
    if (reply->status == 503) ++sheds;
  }
  FaultInjector::Global().Disarm("coord/backend/blackhole");

  // At least one breaker tripped open on consecutive failures.
  bool saw_open = false;
  for (const BackendSnapshot& s : fleet.coordinator().pool().Snapshot()) {
    saw_open = saw_open || s.breaker == BreakerState::kOpen ||
               s.failures >= 3;
  }
  EXPECT_TRUE(saw_open);

  // The backends themselves were healthy all along, so after the
  // cooldown the probe thread walks each open breaker through half-open
  // and a successful /readyz probe re-closes it — no live traffic needed.
  ASSERT_TRUE(fleet.WaitRoutable(0, 10.0).ok());
  ASSERT_TRUE(fleet.WaitRoutable(1, 10.0).ok());
  auto reply = PostSearch(fleet.coordinator().port(), body);
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(reply->status, 200);
  fleet.Shutdown();
  fs::remove_all(repo_dir);
}

// --- rolling drain ----------------------------------------------------------

TEST(FleetTest, RollingRestartKeepsReadyCountAtNMinusOne) {
  const std::string repo_dir = SeedRepo("schemr_fleet_roll", 30);
  Fleet fleet(MakeFleetOptions(repo_dir, 3), {});
  ASSERT_TRUE(fleet.Start().ok());

  std::atomic<bool> done{false};
  Status rolled;
  std::thread restarter([&] {
    rolled = fleet.RollingRestart();
    done.store(true, std::memory_order_release);
  });

  // Poll every replica's own /readyz while the drain walks the fleet:
  // at most one replica may be out (draining, stopped, or not yet
  // re-ready) at any sample.
  int samples = 0;
  while (!done.load(std::memory_order_acquire)) {
    int ready = 0;
    for (int id = 0; id < fleet.replicas(); ++id) {
      if (Readyz(fleet.ReplicaConfig(id).introspection_port, 0.5)) ++ready;
    }
    ++samples;
    ASSERT_GE(ready, fleet.replicas() - 1) << "sample " << samples;
    std::this_thread::sleep_for(std::chrono::milliseconds(40));
  }
  restarter.join();
  ASSERT_TRUE(rolled.ok()) << rolled;
  EXPECT_GT(samples, 0);

  // Drain complete: the whole fleet is ready and serving again.
  for (int id = 0; id < fleet.replicas(); ++id) {
    EXPECT_TRUE(Readyz(fleet.ReplicaConfig(id).introspection_port, 2.0))
        << "replica " << id;
  }
  EXPECT_EQ(fleet.coordinator().pool().RoutableCount(), 3u);
  auto reply = PostSearch(fleet.coordinator().port(), QueryXml());
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(reply->status, 200);
  fleet.Shutdown();
  fs::remove_all(repo_dir);
}

// --- cross-process request identity -----------------------------------------

/// Pulls the value of `"request_id": "..."` out of one /tracez line, or
/// "" when the line carries none. Ids are `[A-Za-z0-9-]`, so no JSON
/// unescaping is needed here.
std::string TraceLineRequestId(const std::string& line) {
  static const std::string kKey = "\"request_id\": \"";
  const size_t at = line.find(kKey);
  if (at == std::string::npos) return "";
  const size_t begin = at + kKey.size();
  const size_t end = line.find('"', begin);
  if (end == std::string::npos) return "";
  return line.substr(begin, end - begin);
}

TEST(FleetTest, FailedOverRequestLeavesOneJoinableIdAcrossProcesses) {
  const std::string repo_dir = SeedRepo("schemr_fleet_join", 30);
  CoordinatorOptions coordinator;
  FleetOptions fleet_options = MakeFleetOptions(repo_dir, 2);
  fleet_options.serve_sample_every = 1;  // every replica request traced
  Fleet fleet(fleet_options, coordinator);
  ASSERT_TRUE(fleet.Start().ok());
  const int port = fleet.coordinator().port();

  // Blackhole exactly the first coordinator→backend attempt: hop 0 dies
  // without ever reaching a replica, hop 1 fails over and serves.
  FaultSpec spec;
  spec.kind = FaultKind::kError;
  spec.count = 1;
  FaultInjector::Global().Arm("coord/backend/blackhole", spec);
  const std::string id = "test-join-0001";
  HttpCallOptions call;
  call.method = "POST";
  call.body = QueryXml();
  call.headers.emplace_back(kRequestIdHeader, id);
  call.attempt_timeout_seconds = 10.0;
  auto reply = HttpCall("127.0.0.1", port, "/search", call);
  FaultInjector::Global().Disarm("coord/backend/blackhole");
  ASSERT_TRUE(reply.ok()) << reply.status();
  ASSERT_EQ(reply->status, 200);
  // The client gets its own id back in base form.
  ASSERT_EQ(reply->headers.count("x-schemr-request-id"), 1u);
  EXPECT_EQ(reply->headers.at("x-schemr-request-id"), id);

  // Fragment one: the coordinator's hop journal, keyed by the base id,
  // recording both the broken primary attempt and the failover.
  auto coord_trace = HttpGet("127.0.0.1", port, "/tracez", 2.0);
  ASSERT_TRUE(coord_trace.ok()) << coord_trace.status();
  bool journaled = false;
  {
    std::stringstream lines(*coord_trace);
    std::string line;
    while (std::getline(lines, line)) {
      if (TraceLineRequestId(line) != id) continue;
      journaled = true;
      EXPECT_NE(line.find("h0"), std::string::npos) << line;
      EXPECT_NE(line.find("broken"), std::string::npos) << line;
      EXPECT_NE(line.find("h1"), std::string::npos) << line;
      EXPECT_NE(line.find("failover"), std::string::npos) << line;
    }
  }
  EXPECT_TRUE(journaled) << *coord_trace;

  // Fragment two: exactly one replica traced the request, under the
  // hop-suffixed variant of the same id.
  int traced_replicas = 0;
  int serving = -1;
  std::string hop_id;
  for (int r = 0; r < fleet.replicas(); ++r) {
    auto body = HttpGet("127.0.0.1",
                        fleet.ReplicaConfig(r).introspection_port, "/tracez",
                        2.0);
    ASSERT_TRUE(body.ok()) << body.status();
    std::stringstream lines(*body);
    std::string line;
    bool hit = false;
    while (std::getline(lines, line)) {
      const std::string recorded = TraceLineRequestId(line);
      if (recorded.empty() || !RequestIdMatches(id, recorded)) continue;
      hit = true;
      hop_id = recorded;
    }
    if (hit) {
      ++traced_replicas;
      serving = r;
    }
  }
  EXPECT_EQ(traced_replicas, 1);
  EXPECT_EQ(hop_id, id + "-h1") << "the failover attempt is hop 1";

  // Fragment three: the serving replica's on-disk audit record carries
  // the same hop id — durable evidence that outlives the process.
  int audited = 0;
  for (int r = 0; r < fleet.replicas(); ++r) {
    auto report =
        ReadAuditLog(repo_dir + ".replica" + std::to_string(r) + "/audit");
    if (!report.ok()) continue;
    for (const AuditRecord& record : report->records) {
      if (!RequestIdMatches(id, record.request_id)) continue;
      ++audited;
      EXPECT_EQ(record.request_id, hop_id);
      EXPECT_EQ(record.outcome, AuditOutcome::kOk);
    }
  }
  EXPECT_EQ(audited, 1);

  // `schemr trace` — the real CLI against the live fleet — assembles the
  // whole story from the base id alone.
  const std::string cmd = std::string(SCHEMR_BINARY_PATH) +
                          " trace 127.0.0.1:" + std::to_string(port) + " " +
                          id + " 2>&1";
  const auto run_trace = [&cmd](std::string* output) {
    output->clear();
    FILE* pipe = ::popen(cmd.c_str(), "r");
    if (pipe == nullptr) return -1;
    char buf[512];
    while (std::fgets(buf, sizeof(buf), pipe) != nullptr) *output += buf;
    const int status = ::pclose(pipe);
    return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  };
  std::string output;
  ASSERT_EQ(run_trace(&output), 0) << output;
  EXPECT_NE(output.find("coordinator"), std::string::npos) << output;
  EXPECT_NE(output.find("id=" + id), std::string::npos) << output;
  EXPECT_NE(output.find("id=" + hop_id), std::string::npos) << output;
  EXPECT_NE(output.find("failover"), std::string::npos) << output;

  // Kill the serving replica: its /tracez is gone, but the timeline
  // degrades to the coordinator journal instead of failing.
  ASSERT_GE(serving, 0);
  ASSERT_TRUE(fleet.KillReplica(serving).ok());
  ASSERT_EQ(run_trace(&output), 0) << output;
  EXPECT_NE(output.find("id=" + id), std::string::npos) << output;
  EXPECT_NE(output.find("unreachable"), std::string::npos) << output;

  fleet.Shutdown();
  fs::remove_all(repo_dir);
}

// --- metrics federation -----------------------------------------------------

TEST(FleetTest, FederatedMetricsMergeBucketwiseAndSkipDeadReplicas) {
  const std::string repo_dir = SeedRepo("schemr_fleet_fed", 30);
  CoordinatorOptions coordinator;
  Fleet fleet(MakeFleetOptions(repo_dir, 3), coordinator);
  ASSERT_TRUE(fleet.Start().ok());
  const int port = fleet.coordinator().port();
  const std::string body = QueryXml();
  const std::string kFamily = "schemr_fleet_service_search_xml_seconds";

  // Scrape the merged exposition repeatedly WHILE clients hammer the
  // fleet: every scrape must stay conformant, and the fleet-wide search
  // count must be non-decreasing (each replica's counter is monotonic
  // and each merge scrapes strictly later).
  std::atomic<bool> stop{false};
  std::vector<std::thread> clients;
  for (int c = 0; c < 2; ++c) {
    clients.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        (void)PostSearch(port, body, 5.0);
      }
    });
  }
  uint64_t last_count = 0;
  for (int scrape = 0; scrape < 4; ++scrape) {
    auto merged = HttpGet("127.0.0.1", port, "/metrics?merge=fleet", 5.0);
    ASSERT_TRUE(merged.ok()) << merged.status();
    const Status conformant = CheckPrometheusText(*merged);
    ASSERT_TRUE(conformant.ok()) << conformant.ToString();
    auto parsed = ParsePrometheusSnapshots(*merged);
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    for (const auto& m : *parsed) {
      if (m.name != kFamily) continue;
      EXPECT_GE(m.histogram.count, last_count) << "scrape " << scrape;
      last_count = m.histogram.count;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& t : clients) t.join();
  EXPECT_GT(last_count, 0u) << "load never reached the replicas";

  // Kill one replica and leave it dead: federation must degrade to the
  // survivors, not fail or fabricate.
  ASSERT_TRUE(fleet.KillReplica(2).ok());

  // Quiesced, the merge is exact: the coordinator's fleet search family
  // equals the bucket-wise merge of the survivors' own /metrics. (Only
  // the search family is compared — readiness probes keep the replicas'
  // HTTP counters moving even with client load stopped.)
  auto merged = HttpGet("127.0.0.1", port, "/metrics?merge=fleet", 5.0);
  ASSERT_TRUE(merged.ok()) << merged.status();
  auto fleet_parsed = ParsePrometheusSnapshots(*merged);
  ASSERT_TRUE(fleet_parsed.ok()) << fleet_parsed.status().ToString();

  std::vector<std::vector<MetricsRegistry::MetricSnapshot>> scrapes;
  for (int r = 0; r < 2; ++r) {
    auto direct = HttpGet("127.0.0.1",
                          fleet.ReplicaConfig(r).introspection_port,
                          "/metrics", 2.0);
    ASSERT_TRUE(direct.ok()) << direct.status();
    auto parsed = ParsePrometheusSnapshots(*direct);
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    scrapes.push_back(std::move(*parsed));
  }
  const std::vector<MetricsRegistry::MetricSnapshot> want =
      RenameForFleet(MergeMetricSnapshots(scrapes));

  const MetricsRegistry::MetricSnapshot* got = nullptr;
  const MetricsRegistry::MetricSnapshot* reference = nullptr;
  for (const auto& m : *fleet_parsed) {
    if (m.name == kFamily) got = &m;
    if (m.name == "schemr_fleet_replicas_scraped") {
      EXPECT_DOUBLE_EQ(m.gauge_value, 2.0) << "dead replica must be skipped";
    }
  }
  for (const auto& m : want) {
    if (m.name == kFamily) reference = &m;
  }
  ASSERT_NE(got, nullptr);
  ASSERT_NE(reference, nullptr);
  EXPECT_EQ(got->histogram.bounds, reference->histogram.bounds);
  EXPECT_EQ(got->histogram.buckets, reference->histogram.buckets);
  EXPECT_EQ(got->histogram.count, reference->histogram.count);

  fleet.Shutdown();
  fs::remove_all(repo_dir);
}

// --- chaos torture ----------------------------------------------------------

TEST(FleetChaosTest, TortureKillsStallsAndRestartsUnderLoad) {
  const int cycles = TortureCycles();
  const std::string repo_dir = SeedRepo("schemr_fleet_torture", 30);
  Fleet fleet(MakeFleetOptions(repo_dir, 3), {});
  ASSERT_TRUE(fleet.Start().ok());
  const int port = fleet.coordinator().port();
  const std::string body = QueryXml();
  Rng rng(20260807);

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> ok{0};
  std::atomic<uint64_t> bad_5xx{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < 2; ++c) {
    clients.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        auto reply = PostSearch(port, body, 5.0);
        if (!reply.ok()) continue;  // liveness is asserted after the joins
        if (reply->status == 200) {
          ok.fetch_add(1, std::memory_order_relaxed);
        } else if (reply->status >= 500 && reply->status != 503) {
          bad_5xx.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }

  for (int cycle = 0; cycle < cycles; ++cycle) {
    const int victim = static_cast<int>(rng.NextBelow(3));
    switch (rng.NextBelow(4)) {
      case 0: {  // kill -9, then let the supervisor respawn
        ASSERT_TRUE(fleet.KillReplica(victim).ok());
        std::this_thread::sleep_for(std::chrono::milliseconds(
            static_cast<int>(rng.NextBelow(300))));
        fleet.SupervisePass();
        ASSERT_TRUE(fleet.WaitRoutable(victim, 20.0).ok());
        break;
      }
      case 1: {  // stall (SIGSTOP) long enough for probes to notice
        ASSERT_TRUE(fleet.StallReplica(victim, true).ok());
        std::this_thread::sleep_for(std::chrono::milliseconds(
            400 + static_cast<int>(rng.NextBelow(400))));
        ASSERT_TRUE(fleet.StallReplica(victim, false).ok());
        ASSERT_TRUE(fleet.WaitRoutable(victim, 20.0).ok());
        break;
      }
      case 2: {  // count-limited coordinator faults racing live traffic
        FaultSpec probe;
        probe.kind = FaultKind::kError;
        probe.error_code = ECONNREFUSED;
        probe.count = 1 + static_cast<int>(rng.NextBelow(3));
        FaultInjector::Global().Arm("coord/probe/fail", probe);
        FaultSpec blackhole;
        blackhole.kind = FaultKind::kError;
        blackhole.count = 1 + static_cast<int>(rng.NextBelow(3));
        FaultInjector::Global().Arm("coord/backend/blackhole", blackhole);
        std::this_thread::sleep_for(std::chrono::milliseconds(
            static_cast<int>(rng.NextBelow(300))));
        break;
      }
      case 3: {  // rolling restart of the whole fleet under load
        ASSERT_TRUE(fleet.RollingRestart().ok());
        break;
      }
    }
  }
  FaultInjector::Global().Disarm("coord/probe/fail");
  FaultInjector::Global().Disarm("coord/backend/blackhole");

  // Settle: every replica routable, then the fleet must still serve.
  for (int id = 0; id < fleet.replicas(); ++id) {
    ASSERT_TRUE(fleet.WaitRoutable(id, 30.0).ok()) << "replica " << id;
  }
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& t : clients) t.join();
  EXPECT_GT(ok.load(), 0u);
  EXPECT_EQ(bad_5xx.load(), 0u);
  auto reply = PostSearch(port, body);
  ASSERT_TRUE(reply.ok()) << reply.status();
  EXPECT_EQ(reply->status, 200);
  fleet.Shutdown();
  fs::remove_all(repo_dir);
}

}  // namespace
}  // namespace schemr
