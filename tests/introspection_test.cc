// Introspection-plane tests (DESIGN.md §12): the embedded HTTP listener
// (routing, error statuses, load shedding, lifecycle), the five service
// endpoints served against a live corpus, exposition conformance of the
// scraped /metrics body, ParseBenchJson-compatibility of /statusz, and
// the wire-format guarantee that tail sampling never changes a response
// byte.

#include "service/http_server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "core/serving_corpus.h"
#include "obs/exposition.h"
#include "obs/replay.h"
#include "repo/schema_repository.h"
#include "schema/schema_builder.h"
#include "service/backend_pool.h"
#include "service/schemr_service.h"

namespace schemr {
namespace {

namespace fs = std::filesystem;

// Sends `raw` to the server verbatim and returns everything it answers.
// HttpGet only speaks well-formed GETs; the error-path tests need to
// speak badly.
std::string RawRequest(int port, const std::string& raw) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return "";
  sockaddr_in addr = {};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return "";
  }
  size_t sent = 0;
  while (sent < raw.size()) {
    ssize_t n = ::send(fd, raw.data() + sent, raw.size() - sent, 0);
    if (n <= 0) break;
    sent += static_cast<size_t>(n);
  }
  std::string response;
  char buf[4096];
  ssize_t n;
  while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0) {
    response.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  return response;
}

// --- the listener itself ----------------------------------------------------

TEST(IntrospectionServerTest, RoutesAndRoundTrips) {
  HttpServer server;
  server.Route("GET", "/hello", [](const HttpRequest& request) {
    HttpResponse response;
    response.body = "hi from " + request.path + "\n";
    return response;
  });
  ASSERT_TRUE(server.Start().ok());
  ASSERT_GT(server.port(), 0);
  EXPECT_TRUE(server.running());

  auto body = HttpGet("127.0.0.1", server.port(), "/hello");
  ASSERT_TRUE(body.ok()) << body.status();
  EXPECT_EQ(*body, "hi from /hello\n");
  server.Stop();
  EXPECT_FALSE(server.running());
}

TEST(IntrospectionServerTest, HandlerSeesQueryString) {
  HttpServer server;
  server.Route("GET", "/echo", [](const HttpRequest& request) {
    HttpResponse response;
    response.body = request.query;
    return response;
  });
  ASSERT_TRUE(server.Start().ok());
  auto body = HttpGet("127.0.0.1", server.port(), "/echo?window=60&x=1");
  ASSERT_TRUE(body.ok()) << body.status();
  EXPECT_EQ(*body, "window=60&x=1");
  server.Stop();
}

TEST(IntrospectionServerTest, UnknownPathIs404ListingEndpoints) {
  HttpServer server;
  server.Route("GET", "/metrics",
               [](const HttpRequest&) { return HttpResponse{}; });
  ASSERT_TRUE(server.Start().ok());
  auto result = HttpGet("127.0.0.1", server.port(), "/nope");
  ASSERT_FALSE(result.ok());
  // The 404 body names the routes that do exist.
  EXPECT_NE(result.status().message().find("404"), std::string::npos);
  EXPECT_NE(result.status().message().find("/metrics"), std::string::npos);
  server.Stop();
}

TEST(IntrospectionServerTest, NonGetIs405) {
  HttpServer server;
  server.Route("GET", "/metrics",
               [](const HttpRequest&) { return HttpResponse{}; });
  ASSERT_TRUE(server.Start().ok());
  std::string response =
      RawRequest(server.port(), "POST /metrics HTTP/1.1\r\n\r\n");
  EXPECT_NE(response.find("405"), std::string::npos) << response;
  server.Stop();
}

TEST(IntrospectionServerTest, MalformedRequestLineIs400) {
  HttpServer server;
  ASSERT_TRUE(server.Start().ok());
  std::string response = RawRequest(server.port(), "nonsense\r\n\r\n");
  EXPECT_NE(response.find("400"), std::string::npos) << response;
  server.Stop();
}

TEST(IntrospectionServerTest, OversizedHeadIs431) {
  HttpServerOptions options;
  options.max_request_bytes = 256;
  HttpServer server(options);
  ASSERT_TRUE(server.Start().ok());
  std::string request = "GET /" + std::string(1024, 'x') + " HTTP/1.1\r\n\r\n";
  std::string response = RawRequest(server.port(), request);
  EXPECT_NE(response.find("431"), std::string::npos) << response;
  server.Stop();
}

TEST(IntrospectionServerTest, DoubleStartFailsStopIsIdempotent) {
  HttpServer server;
  ASSERT_TRUE(server.Start().ok());
  EXPECT_FALSE(server.Start().ok());
  int port = server.port();
  server.Stop();
  server.Stop();  // no-op
  // The socket is actually released: a fresh server can bind that port.
  HttpServerOptions options;
  options.port = port;
  HttpServer second(options);
  EXPECT_TRUE(second.Start().ok());
  second.Stop();
}

TEST(IntrospectionServerTest, ConcurrentClientsAllGetAnswers) {
  HttpServer server;
  std::atomic<int> calls{0};
  server.Route("GET", "/busy", [&calls](const HttpRequest&) {
    calls.fetch_add(1);
    HttpResponse response;
    response.body = "ok\n";
    return response;
  });
  ASSERT_TRUE(server.Start().ok());
  constexpr int kClients = 8;
  std::atomic<int> ok{0};
  std::atomic<int> shed{0};
  std::vector<std::thread> threads;
  threads.reserve(kClients);
  for (int i = 0; i < kClients; ++i) {
    threads.emplace_back([&] {
      auto body = HttpGet("127.0.0.1", server.port(), "/busy");
      if (body.ok()) {
        ok.fetch_add(1);
      } else {
        shed.fetch_add(1);  // a saturated pool answers 503, never hangs
      }
    });
  }
  for (auto& t : threads) t.join();
  // Every client got an HTTP answer; at least one got through.
  EXPECT_EQ(ok.load() + shed.load(), kClients);
  EXPECT_GT(ok.load(), 0);
  server.Stop();
}

// --- the coordinator's /statusz ---------------------------------------------

TEST(CoordinatorStatuszTest, PoolCountersStayExactPastAMillion) {
  // A busy coordinator passes a million requests within minutes; its
  // counters must still read back digit for digit.
  BackendPool pool({BackendConfig{}});
  for (int i = 0; i < 1234567; ++i) pool.ReportOutcome(0, true);
  std::string json = "{";
  pool.AppendStatsJson(&json);
  json += "}";
  auto fields = ParseBenchJson(json);
  ASSERT_TRUE(fields.ok()) << fields.status() << "\n" << json;
  EXPECT_EQ(fields->at("replica0.requests"), 1234567.0) << json;
}

// --- service endpoints against a live corpus --------------------------------

Schema ClinicSchema(const std::string& name) {
  return SchemaBuilder(name)
      .Description("rural clinic data")
      .Entity("patient")
      .Attribute("height", DataType::kDouble)
      .Attribute("gender")
      .Entity("case")
      .Attribute("patient_id", DataType::kInt64)
      .References("patient")
      .Attribute("diagnosis")
      .Build();
}

Result<std::unique_ptr<ServingCorpus>> MakeCorpus(size_t seed_schemas) {
  auto corpus = ServingCorpus::Create(SchemaRepository::OpenInMemory());
  if (!corpus.ok()) return corpus.status();
  for (size_t i = 0; i < seed_schemas; ++i) {
    auto id = (*corpus)->Ingest(ClinicSchema("seed_" + std::to_string(i)));
    if (!id.ok()) return id.status();
  }
  return corpus;
}

class IntrospectionServiceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    audit_dir_ = fs::temp_directory_path() /
                 ("schemr_introspection_" +
                  std::string(::testing::UnitTest::GetInstance()
                                  ->current_test_info()
                                  ->name()));
    fs::remove_all(audit_dir_);
  }
  void TearDown() override { fs::remove_all(audit_dir_); }

  fs::path audit_dir_;
};

TEST_F(IntrospectionServiceTest, PinnedStatuszReportsItsSnapshot) {
  // A pinned service reports the snapshot it searches -- its version,
  // index size and catalog size -- and keeps reporting it after the
  // corpus it came from moves on.
  auto corpus_or = MakeCorpus(5);
  ASSERT_TRUE(corpus_or.ok());
  const std::shared_ptr<const CorpusSnapshot> snapshot =
      (*corpus_or)->Snapshot();
  ASSERT_GT(snapshot->version, 0u);
  SchemrService service((*corpus_or)->repository(), snapshot);
  ASSERT_TRUE((*corpus_or)->Ingest(ClinicSchema("late")).ok());

  auto fields = ParseBenchJson(service.StatuszJson());
  ASSERT_TRUE(fields.ok()) << fields.status();
  EXPECT_EQ(fields->at("corpus.snapshot_version"),
            static_cast<double>(snapshot->version));
  EXPECT_EQ(fields->at("corpus.index_docs"), 5.0);
  EXPECT_GT(fields->at("corpus.index_terms"), 0.0);
  EXPECT_EQ(fields->at("signatures.catalog_schemas"), 5.0);
  EXPECT_EQ(fields->at("signatures.dictionary_terms"),
            static_cast<double>(snapshot->match_features->terms().size()));
}

TEST_F(IntrospectionServiceTest, FiveEndpointsServeLiveData) {
  auto corpus_or = MakeCorpus(8);
  ASSERT_TRUE(corpus_or.ok());
  SchemrService service(corpus_or->get());
  ASSERT_TRUE(service.EnableAudit(audit_dir_.string()).ok());

  ServingOptions serving;
  serving.introspection_port = 0;
  serving.result_cache_capacity = 16;
  serving.trace_retention.sample_every_n = 1;  // trace everything
  ASSERT_TRUE(service.StartServing(serving).ok());
  ASSERT_NE(service.introspection(), nullptr);
  const int port = service.introspection()->port();
  ASSERT_GT(port, 0);

  SearchRequest request;
  request.keywords = "patient height diagnosis";
  for (int i = 0; i < 4; ++i) {
    EXPECT_NE(service.HandleSearchXml(request, 5.0).find("<results"),
              std::string::npos);
  }
  service.telemetry()->SampleNow();  // make the windows current

  // /metrics: a conformant Prometheus body with live series.
  auto metrics = HttpGet("127.0.0.1", port, "/metrics");
  ASSERT_TRUE(metrics.ok()) << metrics.status();
  Status conforms = CheckPrometheusText(*metrics);
  EXPECT_TRUE(conforms.ok()) << conforms;
  EXPECT_NE(metrics->find("schemr_service_search_xml_requests_total"),
            std::string::npos);
  EXPECT_NE(metrics->find("schemr_result_cache_hit_ratio"),
            std::string::npos);

  // /healthz: serving and not overloaded.
  auto healthz = HttpGet("127.0.0.1", port, "/healthz");
  ASSERT_TRUE(healthz.ok()) << healthz.status();
  EXPECT_NE(healthz->find("\"status\":\"ok\""), std::string::npos)
      << *healthz;

  // /statusz: flat JSON ParseBenchJson understands, with the fields the
  // dashboard reads.
  auto statusz = HttpGet("127.0.0.1", port, "/statusz");
  ASSERT_TRUE(statusz.ok()) << statusz.status();
  auto fields = ParseBenchJson(*statusz);
  ASSERT_TRUE(fields.ok()) << fields.status();
  EXPECT_EQ(fields->at("serving"), 1.0);
  EXPECT_EQ(fields->at("corpus.index_docs"), 8.0);
  EXPECT_GT(fields->at("corpus.snapshot_version"), 0.0);
  EXPECT_GE(fields->at("uptime_seconds"), 0.0);
  EXPECT_GT(fields->at("result_cache.capacity"), 0.0);
  EXPECT_TRUE(fields->count("window_1m.qps")) << *statusz;
  EXPECT_TRUE(fields->count("window_15m.p99_ms")) << *statusz;
  // The match-feature dictionary and the per-query pair memo at work.
  EXPECT_GT(fields->at("signatures.dictionary_terms"), 0.0) << *statusz;
  EXPECT_GT(fields->at("signatures.pair_memo_lookups_total"), 0.0)
      << *statusz;
  EXPECT_GT(fields->at("signatures.pair_memo_fills_total"), 0.0) << *statusz;
  EXPECT_NE(metrics->find("schemr_match_term_dictionary_terms"),
            std::string::npos);

  // /tracez: every request above was sampled, so traces were retained.
  auto tracez = HttpGet("127.0.0.1", port, "/tracez");
  ASSERT_TRUE(tracez.ok()) << tracez.status();
  EXPECT_NE(tracez->find("\"stats\""), std::string::npos);
  EXPECT_NE(tracez->find("\"recent\""), std::string::npos) << *tracez;

  // /slowz: present and well-formed (the ring may or may not have
  // entries at these latencies).
  auto slowz = HttpGet("127.0.0.1", port, "/slowz");
  ASSERT_TRUE(slowz.ok()) << slowz.status();
  EXPECT_NE(slowz->find("\"count\""), std::string::npos);

  // The listener serves GET only and refuses request bodies.
  const std::string post =
      RawRequest(port, "POST /statusz HTTP/1.1\r\n\r\n");
  EXPECT_EQ(post.rfind("HTTP/1.1 405", 0), 0u) << post;
  const std::string with_body = RawRequest(
      port, "GET /statusz HTTP/1.1\r\nContent-Length: 16\r\n\r\n" +
                std::string(16, 'x'));
  EXPECT_EQ(with_body.rfind("HTTP/1.1 413", 0), 0u) << with_body;

  EXPECT_TRUE(service.Shutdown(5.0).ok());
  // Shutdown stops the listener with the rest of the serving plane.
  EXPECT_FALSE(HttpGet("127.0.0.1", port, "/healthz", 1.0).ok());
}

TEST_F(IntrospectionServiceTest, HealthzTracksServingLifecycle) {
  auto corpus_or = MakeCorpus(2);
  ASSERT_TRUE(corpus_or.ok());
  SchemrService service(corpus_or->get());

  int status = 0;
  service.HealthzJson(&status);
  EXPECT_EQ(status, 503);  // never started serving

  ASSERT_TRUE(service.StartServing().ok());
  std::string body = service.HealthzJson(&status);
  EXPECT_EQ(status, 200);
  EXPECT_NE(body.find("\"status\":\"ok\""), std::string::npos) << body;

  EXPECT_TRUE(service.Shutdown(5.0).ok());
  body = service.HealthzJson(&status);
  EXPECT_EQ(status, 503);
  // A clean drain is a planned exit, distinct from a wedged executor;
  // either way the process stays out of rotation.
  EXPECT_NE(body.find("\"status\":\"shut_down\""), std::string::npos) << body;
}

TEST_F(IntrospectionServiceTest, HealthzPollDuringShutdownDoesNotDeadlock) {
  // Regression: Shutdown used to hold serving_mutex_ while stopping the
  // listener, whose Stop() joins in-flight handlers — and /healthz
  // handlers take serving_mutex_ themselves, so a poll racing a drain
  // deadlocked permanently. A balancer polling /healthz through a
  // graceful drain is the documented workload, so hammer the endpoint
  // while Shutdown runs; under the old locking this test never returns
  // (the ctest timeout is the failure mode).
  auto corpus_or = MakeCorpus(2);
  ASSERT_TRUE(corpus_or.ok());
  SchemrService service(corpus_or->get());
  ServingOptions serving;
  serving.introspection_port = 0;
  ASSERT_TRUE(service.StartServing(serving).ok());
  const int port = service.introspection()->port();
  ASSERT_GT(port, 0);

  std::atomic<bool> stop{false};
  std::thread poller([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      (void)HttpGet("127.0.0.1", port, "/healthz", 1.0);
    }
  });
  // Give the poller time to have requests in flight, then drain.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_TRUE(service.Shutdown(5.0).ok());
  stop.store(true, std::memory_order_relaxed);
  poller.join();
  EXPECT_FALSE(service.serving());
}

TEST_F(IntrospectionServiceTest, EndpointsWorkWithoutAuditOrTraffic) {
  auto corpus_or = MakeCorpus(1);
  ASSERT_TRUE(corpus_or.ok());
  SchemrService service(corpus_or->get());
  ServingOptions serving;
  serving.introspection_port = 0;
  ASSERT_TRUE(service.StartServing(serving).ok());
  const int port = service.introspection()->port();

  auto slowz = HttpGet("127.0.0.1", port, "/slowz");
  ASSERT_TRUE(slowz.ok()) << slowz.status();
  EXPECT_NE(slowz->find("\"count\":0"), std::string::npos) << *slowz;
  auto tracez = HttpGet("127.0.0.1", port, "/tracez");
  ASSERT_TRUE(tracez.ok()) << tracez.status();
  auto statusz = HttpGet("127.0.0.1", port, "/statusz");
  ASSERT_TRUE(statusz.ok()) << statusz.status();
  EXPECT_TRUE(ParseBenchJson(*statusz).ok());
  EXPECT_TRUE(service.Shutdown(5.0).ok());
}

TEST_F(IntrospectionServiceTest, ListenerBindFailureUnwindsStartServing) {
  // Occupy a port, then ask StartServing for exactly it.
  HttpServer squatter;
  ASSERT_TRUE(squatter.Start().ok());

  auto corpus_or = MakeCorpus(1);
  ASSERT_TRUE(corpus_or.ok());
  SchemrService service(corpus_or->get());
  ServingOptions serving;
  serving.introspection_port = squatter.port();
  EXPECT_FALSE(service.StartServing(serving).ok());
  EXPECT_FALSE(service.serving());
  EXPECT_EQ(service.introspection(), nullptr);
  EXPECT_EQ(service.search_server(), nullptr);

  // The search front end binds second: its failure also unwinds the
  // introspection listener that did bind.
  serving.introspection_port = 0;
  serving.search_port = squatter.port();
  EXPECT_FALSE(service.StartServing(serving).ok());
  EXPECT_FALSE(service.serving());
  EXPECT_EQ(service.introspection(), nullptr);
  EXPECT_EQ(service.search_server(), nullptr);
  squatter.Stop();

  // The unwind left the service restartable.
  serving.search_port = 0;
  EXPECT_TRUE(service.StartServing(serving).ok());
  EXPECT_TRUE(service.serving());
  EXPECT_NE(service.introspection(), nullptr);
  EXPECT_NE(service.search_server(), nullptr);
  EXPECT_TRUE(service.Shutdown(5.0).ok());
}

TEST_F(IntrospectionServiceTest, TailSamplingNeverChangesTheWire) {
  auto corpus_or = MakeCorpus(6);
  ASSERT_TRUE(corpus_or.ok());

  SearchRequest request;
  request.keywords = "patient height diagnosis";

  // Same corpus, one service tracing every request, one tracing none.
  std::vector<std::string> responses[2];
  const uint32_t sample_every[2] = {1, 0};
  for (int s = 0; s < 2; ++s) {
    SchemrService service(corpus_or->get());
    ServingOptions serving;
    serving.trace_retention.sample_every_n = sample_every[s];
    ASSERT_TRUE(service.StartServing(serving).ok());
    for (int i = 0; i < 3; ++i) {
      responses[s].push_back(service.HandleSearchXml(request, 5.0));
    }
    EXPECT_TRUE(service.Shutdown(5.0).ok());
  }
  ASSERT_EQ(responses[0].size(), responses[1].size());
  for (size_t i = 0; i < responses[0].size(); ++i) {
    EXPECT_EQ(responses[0][i], responses[1][i]) << "response " << i;
  }
  // The traced service actually retained something: the guarantee is
  // "sampling is invisible", not "sampling is off".
}

TEST_F(IntrospectionServiceTest, EndpointsConcurrentWithSearchAndIngest) {
  auto corpus_or = MakeCorpus(4);
  ASSERT_TRUE(corpus_or.ok());
  ServingCorpus* corpus = corpus_or->get();
  SchemrService service(corpus);
  ASSERT_TRUE(service.EnableAudit(audit_dir_.string()).ok());
  ServingOptions serving;
  serving.introspection_port = 0;
  serving.result_cache_capacity = 32;
  ASSERT_TRUE(service.StartServing(serving).ok());
  const int port = service.introspection()->port();

  std::atomic<bool> stop{false};
  std::atomic<int> scrapes_ok{0};
  std::thread ingester([&] {
    for (int i = 0; i < 20 && !stop.load(); ++i) {
      ASSERT_TRUE(
          corpus->Ingest(ClinicSchema("live_" + std::to_string(i))).ok());
    }
  });
  std::thread searcher([&] {
    SearchRequest request;
    request.keywords = "patient height";
    while (!stop.load()) {
      std::string xml = service.HandleSearchXml(request, 5.0);
      ASSERT_NE(xml.find("<"), std::string::npos);
    }
  });
  const char* endpoints[] = {"/metrics", "/healthz", "/statusz", "/tracez",
                             "/slowz"};
  for (int round = 0; round < 10; ++round) {
    for (const char* path : endpoints) {
      auto body = HttpGet("127.0.0.1", port, path);
      if (body.ok()) scrapes_ok.fetch_add(1);
    }
  }
  stop.store(true);
  ingester.join();
  searcher.join();
  EXPECT_GT(scrapes_ok.load(), 0);
  EXPECT_TRUE(service.Shutdown(5.0).ok());
}

}  // namespace
}  // namespace schemr
