// Concurrency hardening tests (DESIGN.md §9): snapshot isolation of the
// index / repository / corpus, the bounded executor, admission control
// with load shedding, graceful drain, and a multithreaded
// search-while-ingest torture loop.
//
// The torture tests scale with SCHEMR_TORTURE_CYCLES (the TSan CI job
// raises it) and run with schedule perturbation enabled so snapshot-swap
// and queue hand-off windows are widened. Assertions about timing-derived
// outcomes (shedding, degradation) are deliberately loose: they check
// invariants ("every response is well-formed", "every rejection is
// counted"), not exact schedules.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "core/fingerprint.h"
#include "core/result_cache.h"
#include "core/search_engine.h"
#include "core/serving_corpus.h"
#include "index/indexer.h"
#include "index/versioned_index.h"
#include "match/features.h"
#include "obs/metrics.h"
#include "repo/schema_repository.h"
#include "schema/schema_builder.h"
#include "service/admission.h"
#include "service/http_server.h"
#include "service/schemr_service.h"
#include "util/executor.h"
#include "util/fault_injection.h"

namespace schemr {
namespace {

size_t CyclesOrDefault(size_t default_cycles) {
  const char* env = std::getenv("SCHEMR_TORTURE_CYCLES");
  if (env == nullptr || *env == '\0') return default_cycles;
  size_t cycles = static_cast<size_t>(std::strtoull(env, nullptr, 10));
  return cycles > 0 ? cycles : default_cycles;
}

Schema ClinicSchema(const std::string& name, SchemaId id = 0) {
  Schema schema =
      SchemaBuilder(name)
          .Description("rural clinic data")
          .Entity("patient")
          .Attribute("height", DataType::kDouble)
          .Attribute("gender")
          .Entity("case")
          .Attribute("patient_id", DataType::kInt64)
          .References("patient")
          .Attribute("diagnosis")
          .Build();
  schema.set_id(id);
  return schema;
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

class ConcurrencyTest : public ::testing::Test {
 protected:
  void SetUp() override {
    FaultInjector::Global().DisarmAll();
    FaultInjector::Global().EnablePerturbation(false);
  }
  void TearDown() override {
    FaultInjector::Global().DisarmAll();
    FaultInjector::Global().EnablePerturbation(false);
  }
};

// --- snapshot isolation primitives -----------------------------------------

TEST_F(ConcurrencyTest, VersionedIndexSnapshotsAreImmutable) {
  VersionedIndex index;
  ASSERT_TRUE(index.AddDocument(FlattenSchema(ClinicSchema("one", 1))).ok());
  std::shared_ptr<const InvertedIndex> before = index.Snapshot();
  const uint64_t version_before = index.version();
  ASSERT_TRUE(index.AddDocument(FlattenSchema(ClinicSchema("two", 2))).ok());
  // The held snapshot is untouched; the new one sees the commit.
  EXPECT_EQ(before->NumDocs(), 1u);
  EXPECT_EQ(index.Snapshot()->NumDocs(), 2u);
  EXPECT_EQ(index.version(), version_before + 1);
}

TEST_F(ConcurrencyTest, VersionedIndexFailedMutationPublishesNothing) {
  VersionedIndex index;
  ASSERT_TRUE(index.AddDocument(FlattenSchema(ClinicSchema("one", 1))).ok());
  const uint64_t version_before = index.version();
  Status st = index.Apply([](InvertedIndex* idx) {
    (void)idx;
    return Status::InvalidArgument("injected");
  });
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(index.version(), version_before);
  EXPECT_EQ(index.Snapshot()->NumDocs(), 1u);
}

TEST_F(ConcurrencyTest, ReadScopeTracksActiveReaders) {
  InvertedIndex index{AnalyzerOptions{}};
  EXPECT_EQ(index.active_readers(), 0);
  {
    InvertedIndex::ReadScope outer(&index);
    EXPECT_EQ(index.active_readers(), 1);
    {
      InvertedIndex::ReadScope inner(&index);
      EXPECT_EQ(index.active_readers(), 2);
    }
    EXPECT_EQ(index.active_readers(), 1);
  }
  EXPECT_EQ(index.active_readers(), 0);
}

TEST_F(ConcurrencyTest, RepositoryViewIsPointInTime) {
  auto repo = SchemaRepository::OpenInMemory();
  SchemaId first = *repo->Insert(ClinicSchema("first"));
  std::shared_ptr<const RepositoryView> view = repo->View();
  const uint64_t version_before = view->version();
  SchemaId second = *repo->Insert(ClinicSchema("second"));
  ASSERT_TRUE(repo->Remove(first).ok());
  // The held view still resolves the removed schema and not the new one.
  EXPECT_TRUE(view->Contains(first));
  EXPECT_FALSE(view->Contains(second));
  EXPECT_TRUE(view->Get(first).ok());
  EXPECT_EQ(view->Size(), 1u);
  // The live repository reflects both mutations, with a later version.
  EXPECT_FALSE(repo->Contains(first));
  EXPECT_TRUE(repo->Contains(second));
  EXPECT_GT(repo->version(), version_before);
}

TEST_F(ConcurrencyTest, CorpusSnapshotPairsIndexAndSchemas) {
  auto corpus = MakeCorpus(3);
  ASSERT_TRUE(corpus.ok()) << corpus.status();
  std::shared_ptr<const CorpusSnapshot> before = (*corpus)->Snapshot();
  EXPECT_EQ(before->index->NumDocs(), before->schemas->Size());

  SchemaId added = *(*corpus)->Ingest(ClinicSchema("added"));
  // Old snapshot: neither side sees the commit.
  EXPECT_FALSE(before->index->ContainsDocument(added));
  EXPECT_FALSE(before->schemas->Contains(added));
  // New snapshot: both sides see it.
  std::shared_ptr<const CorpusSnapshot> after = (*corpus)->Snapshot();
  EXPECT_TRUE(after->index->ContainsDocument(added));
  EXPECT_TRUE(after->schemas->Contains(added));
  EXPECT_EQ(after->index->NumDocs(), after->schemas->Size());
  EXPECT_GT(after->version, before->version);

  ASSERT_TRUE((*corpus)->Remove(added).ok());
  // A search against the pre-remove snapshot can still resolve the id.
  EXPECT_TRUE(after->schemas->Get(added).ok());
  EXPECT_EQ((*corpus)->Snapshot()->index->NumDocs(),
            (*corpus)->Snapshot()->schemas->Size());
}

TEST_F(ConcurrencyTest, WriterFreesRetiredSnapshots) {
  auto corpus = MakeCorpus(3);
  ASSERT_TRUE(corpus.ok()) << corpus.status();

  // A snapshot no reader holds is freed by the write that replaces it.
  std::weak_ptr<const CorpusSnapshot> unheld = (*corpus)->Snapshot();
  ASSERT_TRUE((*corpus)->Ingest(ClinicSchema("first")).ok());
  EXPECT_TRUE(unheld.expired());

  // A snapshot a reader holds across a write stays intact for it, and the
  // reader's release is not the last one: the next write frees it.
  std::shared_ptr<const CorpusSnapshot> held = (*corpus)->Snapshot();
  std::weak_ptr<const CorpusSnapshot> watched = held;
  const size_t docs = held->index->NumDocs();
  SchemaId second = *(*corpus)->Ingest(ClinicSchema("second"));
  EXPECT_EQ(held->index->NumDocs(), docs);
  EXPECT_FALSE(held->schemas->Contains(second));
  held.reset();
  EXPECT_FALSE(watched.expired());
  ASSERT_TRUE((*corpus)->Remove(second).ok());
  EXPECT_TRUE(watched.expired());
}

// --- the bounded executor ----------------------------------------------------

TEST_F(ConcurrencyTest, ExecutorRunsEverySubmittedTask) {
  BoundedExecutor::Options options;
  options.num_workers = 2;
  options.queue_capacity = 64;
  BoundedExecutor executor(options);
  std::atomic<int> ran{0};
  for (int i = 0; i < 32; ++i) {
    ASSERT_TRUE(executor
                    .TrySubmit([&ran](bool cancelled) {
                      if (!cancelled) ran.fetch_add(1);
                    })
                    .ok());
  }
  EXPECT_TRUE(executor.Shutdown(10.0).ok());
  EXPECT_EQ(ran.load(), 32);
}

TEST_F(ConcurrencyTest, ExecutorShedsBeyondQueueBound) {
  BoundedExecutor::Options options;
  options.num_workers = 1;
  options.queue_capacity = 2;
  BoundedExecutor executor(options);

  // Wedge the single worker so submissions pile into the queue.
  std::atomic<bool> release{false};
  ASSERT_TRUE(executor
                  .TrySubmit([&release](bool cancelled) {
                    while (!cancelled && !release.load()) {
                      std::this_thread::sleep_for(std::chrono::milliseconds(1));
                    }
                  })
                  .ok());
  // Wait until the worker picked the blocker up.
  while (executor.NumRunning() == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  auto noop = [](bool) {};
  ASSERT_TRUE(executor.TrySubmit(noop).ok());
  ASSERT_TRUE(executor.TrySubmit(noop).ok());
  Status shed = executor.TrySubmit(noop);
  EXPECT_TRUE(shed.IsUnavailable()) << shed;
  release.store(true);
  EXPECT_TRUE(executor.Shutdown(10.0).ok());
}

TEST_F(ConcurrencyTest, ExecutorDrainDeadlineCancelsPendingTasks) {
  BoundedExecutor::Options options;
  options.num_workers = 1;
  options.queue_capacity = 8;
  BoundedExecutor executor(options);

  std::atomic<bool> release{false};
  ASSERT_TRUE(executor
                  .TrySubmit([&release](bool cancelled) {
                    while (!cancelled && !release.load()) {
                      std::this_thread::sleep_for(std::chrono::milliseconds(1));
                    }
                  })
                  .ok());
  while (executor.NumRunning() == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  std::atomic<int> cancelled_count{0};
  std::atomic<int> ran_count{0};
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(executor
                    .TrySubmit([&](bool cancelled) {
                      if (cancelled) {
                        cancelled_count.fetch_add(1);
                      } else {
                        ran_count.fetch_add(1);
                      }
                    })
                    .ok());
  }
  // Zero drain budget: pending tasks must be flushed as cancellations,
  // and the in-flight blocker is released so the join can finish.
  release.store(true);
  Status drained = executor.Shutdown(0.0);
  EXPECT_EQ(cancelled_count.load() + ran_count.load(), 3);
  if (cancelled_count.load() > 0) {
    EXPECT_TRUE(drained.IsUnavailable()) << drained;
  }
  // Wedged afterwards, and Shutdown is idempotent.
  EXPECT_TRUE(executor.wedged());
  EXPECT_TRUE(executor.TrySubmit([](bool) {}).IsUnavailable());
  EXPECT_EQ(executor.Shutdown(1.0).code(), drained.code());
}

// --- admission control -------------------------------------------------------

TEST_F(ConcurrencyTest, AdmissionShedsOnQueueBoundAndDeadline) {
  AdmissionOptions options;
  options.max_queue_depth = 4;
  options.num_workers = 1;
  options.initial_service_seconds = 0.1;
  AdmissionController admission(options);

  AdmissionDecision ok = admission.Admit(0, 5.0);
  EXPECT_TRUE(ok.admit);
  EXPECT_EQ(ok.deadline_seconds, 5.0);

  AdmissionDecision full = admission.Admit(4, 5.0);
  EXPECT_FALSE(full.admit);
  EXPECT_EQ(full.reason, "queue_full");
  EXPECT_GE(full.retry_after_ms, options.retry_after_base_ms);

  // Predicted wait for depth 3 at 0.1 s/request on one worker is ~0.4 s,
  // far beyond a 1 ms deadline: infeasible, shed.
  AdmissionDecision late = admission.Admit(3, 0.001);
  EXPECT_FALSE(late.admit);
  EXPECT_EQ(late.reason, "deadline");

  admission.BeginDrain();
  AdmissionDecision drained = admission.Admit(0, 5.0);
  EXPECT_FALSE(drained.admit);
  EXPECT_EQ(drained.reason, "shutting_down");
}

TEST_F(ConcurrencyTest, AdmissionEwmaTracksServiceTime) {
  AdmissionOptions options;
  options.initial_service_seconds = 0.1;
  options.ewma_alpha = 0.5;
  AdmissionController admission(options);
  EXPECT_DOUBLE_EQ(admission.PredictedServiceSeconds(), 0.1);
  admission.RecordServiceTime(0.3);
  EXPECT_NEAR(admission.PredictedServiceSeconds(), 0.2, 1e-9);
  admission.RecordServiceTime(0.2);
  EXPECT_NEAR(admission.PredictedServiceSeconds(), 0.2, 1e-9);
}

// --- the serving service -----------------------------------------------------

TEST_F(ConcurrencyTest, ServiceRequiresCorpusModeForServing) {
  auto corpus = MakeCorpus(1);
  ASSERT_TRUE(corpus.ok()) << corpus.status();
  SchemrService service((*corpus)->repository(), (*corpus)->Snapshot());
  EXPECT_FALSE(service.StartServing().ok());
  EXPECT_FALSE(service.serving());
}

TEST_F(ConcurrencyTest, ServiceHandlesInlineWithoutServingSetup) {
  auto corpus = MakeCorpus(2);
  ASSERT_TRUE(corpus.ok()) << corpus.status();
  SchemrService service(corpus->get());
  SearchRequest request;
  request.keywords = "patient height";
  std::string xml = service.HandleSearchXml(request);
  EXPECT_NE(xml.find("<results"), std::string::npos) << xml;
}

TEST_F(ConcurrencyTest, ServiceShedsWhenSaturated) {
  auto corpus = MakeCorpus(3);
  ASSERT_TRUE(corpus.ok()) << corpus.status();
  SchemrService service(corpus->get());

  ServingOptions serving;
  serving.executor.num_workers = 1;
  serving.executor.queue_capacity = 1;
  serving.admission.max_queue_depth = 1;
  serving.admission.default_deadline_seconds = 10.0;
  ASSERT_TRUE(service.StartServing(serving).ok());
  EXPECT_TRUE(service.serving());

  // Each search holds its worker for >= 100 ms at the matcher fault site.
  FaultSpec slow;
  slow.kind = FaultKind::kDelay;
  slow.arg = 100;
  FaultInjector::Global().Arm("match/name", slow);

  Counter* shed_total = MetricsRegistry::Global().GetCounter(
      "schemr_requests_shed_total");
  const uint64_t shed_before = shed_total->Value();

  constexpr int kClients = 6;
  std::vector<std::string> responses(kClients);
  {
    std::vector<std::thread> clients;
    clients.reserve(kClients);
    for (int i = 0; i < kClients; ++i) {
      clients.emplace_back([&service, &responses, i] {
        SearchRequest request;
        request.keywords = "patient height diagnosis";
        responses[i] = service.HandleSearchXml(request, 10.0);
      });
    }
    for (std::thread& t : clients) t.join();
  }

  size_t served = 0;
  size_t shed = 0;
  for (const std::string& xml : responses) {
    // Every response is well-formed: ranked results or an explicit
    // overload refusal with a retry hint.
    if (xml.find("<results") != std::string::npos) {
      ++served;
    } else {
      ASSERT_NE(xml.find("<error code=\"overloaded\""), std::string::npos)
          << xml;
      EXPECT_NE(xml.find("retry_after_ms="), std::string::npos) << xml;
      ++shed;
    }
  }
  EXPECT_EQ(served + shed, static_cast<size_t>(kClients));
  // One worker + one queue slot: at most 2 requests can be in the system
  // when all 6 arrive together, so at least some were refused...
  EXPECT_GT(shed, 0u);
  // ...and every refusal was counted.
  EXPECT_GE(shed_total->Value() - shed_before, shed);

  FaultInjector::Global().DisarmAll();
  EXPECT_TRUE(service.Shutdown(10.0).ok());
}

TEST_F(ConcurrencyTest, ServiceDrainsAndWedges) {
  auto corpus = MakeCorpus(2);
  ASSERT_TRUE(corpus.ok()) << corpus.status();
  SchemrService service(corpus->get());
  ASSERT_TRUE(service.StartServing().ok());

  SearchRequest request;
  request.keywords = "patient height";
  EXPECT_NE(service.HandleSearchXml(request).find("<results"),
            std::string::npos);

  EXPECT_TRUE(service.Shutdown(10.0).ok());
  EXPECT_FALSE(service.serving());
  // Post-drain requests get the explicit shutdown refusal, not a hang.
  std::string refused = service.HandleSearchXml(request);
  EXPECT_NE(refused.find("<error code=\"shutting_down\""), std::string::npos)
      << refused;
  // Idempotent.
  EXPECT_TRUE(service.Shutdown(10.0).ok());
  // Serving cannot be restarted on a wedged service.
  EXPECT_FALSE(service.StartServing().ok());
}

TEST_F(ConcurrencyTest, ServiceDeadlineDegradesInsteadOfFailing) {
  auto corpus = MakeCorpus(4);
  ASSERT_TRUE(corpus.ok()) << corpus.status();
  SchemrService service(corpus->get());

  // 20 ms at the matcher site against a 5 ms deadline: the engine must
  // hit its wall-clock budget and fall back to coarse-only ranking for
  // the tail, flagged degraded -- never an error.
  FaultSpec slow;
  slow.kind = FaultKind::kDelay;
  slow.arg = 20;
  FaultInjector::Global().Arm("match/name", slow);

  SearchRequest request;
  request.keywords = "patient height diagnosis";
  std::string xml = service.HandleSearchXml(request, 0.005);
  FaultInjector::Global().DisarmAll();

  ASSERT_NE(xml.find("<results"), std::string::npos) << xml;
  EXPECT_NE(xml.find("degraded=\"true\""), std::string::npos) << xml;
}

// --- search-while-ingest torture --------------------------------------------

TEST_F(ConcurrencyTest, SearchWhileIngestTorture) {
  FaultInjector::Global().EnablePerturbation(true);
  const size_t cycles = CyclesOrDefault(40);

  auto corpus_or = MakeCorpus(4);
  ASSERT_TRUE(corpus_or.ok()) << corpus_or.status();
  ServingCorpus* corpus = corpus_or->get();
  SearchEngine engine(corpus);
  const size_t initial_terms =
      corpus->Snapshot()->match_features->terms().size();

  std::atomic<bool> writer_done{false};
  std::atomic<size_t> searches_run{0};
  std::atomic<size_t> search_errors{0};
  std::atomic<size_t> pairing_violations{0};

  // Every ingested schema carries an attribute named by a word no earlier
  // schema has, so each commit extends the match-feature dictionary
  // (copy-on-write) while the readers score against older snapshots.
  auto torture_schema = [](size_t i) {
    Schema schema = ClinicSchema("torture_" + std::to_string(i));
    std::string word = "qx";
    for (size_t n = i; ; n /= 26) {
      word += static_cast<char>('a' + n % 26);
      if (n < 26) break;
    }
    schema.AddAttribute(word, /*parent=*/0, DataType::kString);
    return schema;
  };
  std::thread writer([corpus, cycles, &writer_done, &torture_schema] {
    for (size_t i = 0; i < cycles; ++i) {
      auto id = corpus->Ingest(torture_schema(i));
      ASSERT_TRUE(id.ok()) << id.status();
      if (i % 5 == 4) {
        // Exercise the other mutators too.
        Schema updated = torture_schema(i);
        updated.set_id(*id);
        ASSERT_TRUE(corpus->Update(updated).ok());
      }
    }
    writer_done.store(true, std::memory_order_release);
  });

  auto reader = [corpus, &engine, &writer_done, &searches_run,
                 &search_errors, &pairing_violations] {
    SearchEngineOptions options;
    options.top_k = 5;
    // Both readers score their pools on the shared engine-owned worker
    // pool while the writer swaps snapshots under them.
    options.scoring_threads = 4;
    do {
      // Pairing invariant: in any one snapshot, index and schema view
      // describe the same corpus (every ingest adds exactly one of each).
      std::shared_ptr<const CorpusSnapshot> snap = corpus->Snapshot();
      if (snap->index->NumDocs() != snap->schemas->Size()) {
        pairing_violations.fetch_add(1);
      }
      // Snapshot isolation: a search never observes a half-published
      // corpus, so it can never fail to resolve a candidate.
      auto results = engine.SearchKeywords("patient height", options);
      if (!results.ok()) search_errors.fetch_add(1);
      searches_run.fetch_add(1);
    } while (!writer_done.load(std::memory_order_acquire));
  };
  std::thread reader_a(reader);
  std::thread reader_b(reader);

  writer.join();
  reader_a.join();
  reader_b.join();
  FaultInjector::Global().EnablePerturbation(false);

  EXPECT_EQ(search_errors.load(), 0u);
  EXPECT_EQ(pairing_violations.load(), 0u);
  EXPECT_GT(searches_run.load(), 0u);
  // Post-quiescence: everything ingested is searchable.
  std::shared_ptr<const CorpusSnapshot> final_snap = corpus->Snapshot();
  EXPECT_EQ(final_snap->index->NumDocs(), 4 + cycles);
  EXPECT_EQ(final_snap->schemas->Size(), 4 + cycles);
  EXPECT_GE(final_snap->match_features->terms().size(),
            initial_terms + cycles);
}

TEST_F(ConcurrencyTest, ServiceTortureUnderPerturbation) {
  FaultInjector::Global().EnablePerturbation(true);
  const size_t cycles = CyclesOrDefault(20);

  auto corpus_or = MakeCorpus(3);
  ASSERT_TRUE(corpus_or.ok()) << corpus_or.status();
  ServingCorpus* corpus = corpus_or->get();
  SchemrService service(corpus);
  ServingOptions serving;
  serving.executor.num_workers = 2;
  serving.executor.queue_capacity = 16;
  serving.admission.max_queue_depth = 16;
  // Exercise the full new surface under perturbation: parallel candidate
  // scoring inside each admitted request, plus the result cache racing
  // version bumps from the writer.
  serving.scoring_threads = 2;
  serving.result_cache_capacity = 32;
  ASSERT_TRUE(service.StartServing(serving).ok());

  std::atomic<bool> writer_done{false};
  std::atomic<size_t> malformed{0};
  std::thread writer([corpus, cycles, &writer_done] {
    for (size_t i = 0; i < cycles; ++i) {
      auto id = corpus->Ingest(ClinicSchema("svc_" + std::to_string(i)));
      ASSERT_TRUE(id.ok()) << id.status();
    }
    writer_done.store(true, std::memory_order_release);
  });
  auto client = [&service, &writer_done, &malformed] {
    do {
      SearchRequest request;
      request.keywords = "patient height";
      std::string xml = service.HandleSearchXml(request, 5.0);
      // Overloads are acceptable under perturbation; malformed output
      // never is.
      if (xml.find("<results") == std::string::npos &&
          xml.find("<error") == std::string::npos) {
        malformed.fetch_add(1);
      }
    } while (!writer_done.load(std::memory_order_acquire));
  };
  std::thread client_a(client);
  std::thread client_b(client);
  writer.join();
  client_a.join();
  client_b.join();

  EXPECT_EQ(malformed.load(), 0u);
  // Drain while perturbation still widens the hand-off windows.
  EXPECT_TRUE(service.Shutdown(30.0).ok());
  FaultInjector::Global().EnablePerturbation(false);
}

// --- parallel scoring, score-bound pruning, result cache ---------------------

// Schemas whose attribute sets vary with `i` so the coarse TF/IDF scores
// (and with them the pruning bounds) spread out instead of collapsing to
// one value for the whole pool.
Schema VariedSchema(size_t i) {
  SchemaBuilder builder("varied_" + std::to_string(i));
  builder.Description(i % 2 == 0 ? "rural clinic records"
                                 : "hospital billing records");
  builder.Entity("patient").Attribute("height", DataType::kDouble);
  if (i % 2 == 0) builder.Attribute("gender");
  if (i % 3 == 0) builder.Attribute("diagnosis");
  builder.Entity("case")
      .Attribute("patient_id", DataType::kInt64)
      .References("patient");
  if (i % 5 == 0) builder.Attribute("treatment");
  if (i % 7 == 0) builder.Attribute("billing_code");
  return builder.Build();
}

Result<std::unique_ptr<ServingCorpus>> MakeVariedCorpus(size_t n) {
  auto corpus = ServingCorpus::Create(SchemaRepository::OpenInMemory());
  if (!corpus.ok()) return corpus.status();
  for (size_t i = 0; i < n; ++i) {
    auto id = (*corpus)->Ingest(VariedSchema(i));
    if (!id.ok()) return id.status();
  }
  return corpus;
}

void ExpectSameResults(const std::vector<SearchResult>& a,
                       const std::vector<SearchResult>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].schema_id, b[i].schema_id) << "rank " << i;
    EXPECT_EQ(a[i].score, b[i].score) << "rank " << i;
    EXPECT_EQ(a[i].coarse_score, b[i].coarse_score) << "rank " << i;
    EXPECT_EQ(a[i].tightness, b[i].tightness) << "rank " << i;
    EXPECT_EQ(a[i].num_matches, b[i].num_matches) << "rank " << i;
  }
  EXPECT_EQ(DigestResults(a), DigestResults(b));
}

TEST_F(ConcurrencyTest, ParallelScoringMatchesSerial) {
  auto corpus = MakeVariedCorpus(40);
  ASSERT_TRUE(corpus.ok()) << corpus.status();
  SearchEngine engine(corpus->get());

  const std::string query = "patient height diagnosis treatment billing";
  SearchEngineOptions options;
  options.top_k = 10;
  options.extraction.pool_size = 200;

  options.scoring_threads = 1;
  auto serial = engine.SearchKeywords(query, options);
  ASSERT_TRUE(serial.ok()) << serial.status();
  ASSERT_FALSE(serial->empty());

  for (size_t threads : {2u, 8u}) {
    SearchEngineOptions parallel_options = options;
    parallel_options.scoring_threads = threads;
    SearchStats stats;
    parallel_options.stats = &stats;
    auto parallel = engine.SearchKeywords(query, parallel_options);
    ASSERT_TRUE(parallel.ok()) << parallel.status();
    EXPECT_FALSE(stats.degraded);
    // Bit-identical ranked output at any thread count: every candidate is
    // scored into a pre-sized slot, so the merge order never depends on
    // the schedule.
    ExpectSameResults(*serial, *parallel);
  }
}

TEST_F(ConcurrencyTest, PruningNeverChangesTopK) {
  auto corpus = MakeVariedCorpus(60);
  ASSERT_TRUE(corpus.ok()) << corpus.status();
  SearchEngine engine(corpus->get());
  const std::string query = "patient height diagnosis treatment billing";

  for (size_t threads : {1u, 4u}) {
    SearchEngineOptions unpruned;
    unpruned.top_k = 5;
    unpruned.extraction.pool_size = 200;
    unpruned.scoring_threads = threads;
    unpruned.enable_pruning = false;
    auto baseline = engine.SearchKeywords(query, unpruned);
    ASSERT_TRUE(baseline.ok()) << baseline.status();

    SearchEngineOptions pruned = unpruned;
    pruned.enable_pruning = true;
    SearchStats stats;
    pruned.stats = &stats;
    auto got = engine.SearchKeywords(query, pruned);
    ASSERT_TRUE(got.ok()) << got.status();
    // Pruning is exact: a skipped candidate provably could not enter the
    // returned window, so the ranked list (and digest) never moves.
    ExpectSameResults(*baseline, *got);
    EXPECT_FALSE(stats.degraded);
  }
}

TEST_F(ConcurrencyTest, PruningSkipsCandidatesAtHighBlend) {
  // At the default blend (0.25) the bound floor is 0.75, so pruning only
  // fires when the running top-k is nearly perfect. A coarse-heavy blend
  // makes the bound track the (spread-out) coarse scores, which is where
  // the optimization pays off -- and where this test pins it down.
  auto corpus = MakeVariedCorpus(80);
  ASSERT_TRUE(corpus.ok()) << corpus.status();
  SearchEngine engine(corpus->get());
  const std::string query = "patient height diagnosis treatment billing";

  SearchEngineOptions unpruned;
  unpruned.top_k = 3;
  unpruned.extraction.pool_size = 200;
  unpruned.coarse_blend = 0.9;
  unpruned.enable_pruning = false;
  auto baseline = engine.SearchKeywords(query, unpruned);
  ASSERT_TRUE(baseline.ok()) << baseline.status();

  SearchEngineOptions pruned = unpruned;
  pruned.enable_pruning = true;
  SearchStats stats;
  pruned.stats = &stats;
  auto got = engine.SearchKeywords(query, pruned);
  ASSERT_TRUE(got.ok()) << got.status();
  ExpectSameResults(*baseline, *got);
  EXPECT_GT(stats.candidates_skipped, 0u);
  // Skipping is an optimization, never degradation.
  EXPECT_FALSE(stats.degraded);
}

TEST_F(ConcurrencyTest, MatcherFaultUnderParallelScoringBenchesOnce) {
  auto corpus = MakeVariedCorpus(24);
  ASSERT_TRUE(corpus.ok()) << corpus.status();
  SearchEngine engine(corpus->get());
  const std::string query = "patient height diagnosis";

  auto run = [&engine, &query](size_t threads, SearchStats* stats) {
    FaultSpec fail;
    fail.kind = FaultKind::kError;
    FaultInjector::Global().Arm("match/name", fail);
    SearchEngineOptions options;
    options.top_k = 10;
    options.extraction.pool_size = 100;
    options.scoring_threads = threads;
    options.stats = stats;
    auto results = engine.SearchKeywords(query, options);
    FaultInjector::Global().DisarmAll();
    return results;
  };

  SearchStats serial_stats;
  auto serial = run(1, &serial_stats);
  ASSERT_TRUE(serial.ok()) << serial.status();

  SearchStats parallel_stats;
  auto parallel = run(4, &parallel_stats);
  ASSERT_TRUE(parallel.ok()) << parallel.status();
  ASSERT_FALSE(parallel->empty());

  // Even with several workers hitting the failing matcher concurrently,
  // the shared degradation state benches it exactly once...
  ASSERT_EQ(parallel_stats.dropped_matchers.size(), 1u)
      << parallel_stats.dropped_matchers.size() << " matchers dropped";
  EXPECT_NE(parallel_stats.dropped_matchers[0].find("name"),
            std::string::npos);
  EXPECT_TRUE(parallel_stats.degraded);
  EXPECT_EQ(serial_stats.dropped_matchers, parallel_stats.dropped_matchers);
  // ...and a failed matcher scores exactly like a benched one (zero
  // matrix, weight renormalized away), so the fault does not break
  // thread-count independence either.
  ExpectSameResults(*serial, *parallel);
}

TEST_F(ConcurrencyTest, ResultCacheHitsAndImplicitInvalidation) {
  auto corpus = MakeVariedCorpus(12);
  ASSERT_TRUE(corpus.ok()) << corpus.status();
  SearchEngine engine(corpus->get());
  engine.EnableResultCache(8);
  const std::string query = "patient height diagnosis";
  SearchEngineOptions options;
  options.top_k = 5;

  SearchStats first_stats;
  options.stats = &first_stats;
  auto first = engine.SearchKeywords(query, options);
  ASSERT_TRUE(first.ok()) << first.status();
  EXPECT_FALSE(first_stats.cache_hit);

  SearchStats second_stats;
  options.stats = &second_stats;
  auto second = engine.SearchKeywords(query, options);
  ASSERT_TRUE(second.ok()) << second.status();
  EXPECT_TRUE(second_stats.cache_hit);
  ExpectSameResults(*first, *second);

  // An ingest bumps the corpus version; the key changes and the stale
  // entry is simply never hit again -- no explicit invalidation path.
  ASSERT_TRUE((*corpus)->Ingest(VariedSchema(100)).ok());
  SearchStats third_stats;
  options.stats = &third_stats;
  auto third = engine.SearchKeywords(query, options);
  ASSERT_TRUE(third.ok()) << third.status();
  EXPECT_FALSE(third_stats.cache_hit);

  ResultCacheStats cache_stats = engine.result_cache()->Stats();
  EXPECT_EQ(cache_stats.hits, 1u);
  EXPECT_EQ(cache_stats.misses, 2u);
  EXPECT_EQ(cache_stats.insertions, 2u);
}

TEST_F(ConcurrencyTest, ResultCacheBypassAndDegradedNeverStored) {
  auto corpus = MakeVariedCorpus(12);
  ASSERT_TRUE(corpus.ok()) << corpus.status();
  SearchEngine engine(corpus->get());
  engine.EnableResultCache(8);
  const std::string query = "patient height diagnosis";

  // cache_bypass skips both the lookup and the store.
  SearchEngineOptions bypass;
  bypass.top_k = 5;
  bypass.cache_bypass = true;
  for (int i = 0; i < 2; ++i) {
    SearchStats stats;
    bypass.stats = &stats;
    auto results = engine.SearchKeywords(query, bypass);
    ASSERT_TRUE(results.ok()) << results.status();
    EXPECT_FALSE(stats.cache_hit);
  }
  EXPECT_EQ(engine.result_cache()->Stats().hits, 0u);
  EXPECT_EQ(engine.result_cache()->Stats().insertions, 0u);

  // A degraded result (benched matcher here) is best-effort, not the
  // answer: it must not be stored...
  FaultSpec fail;
  fail.kind = FaultKind::kError;
  FaultInjector::Global().Arm("match/name", fail);
  SearchEngineOptions options;
  options.top_k = 5;
  SearchStats degraded_stats;
  options.stats = &degraded_stats;
  auto degraded = engine.SearchKeywords(query, options);
  FaultInjector::Global().DisarmAll();
  ASSERT_TRUE(degraded.ok()) << degraded.status();
  EXPECT_TRUE(degraded_stats.degraded);
  EXPECT_EQ(engine.result_cache()->Stats().insertions, 0u);

  // ...so the next healthy search misses, runs the pipeline, stores, and
  // only then do hits begin.
  SearchStats healthy_stats;
  options.stats = &healthy_stats;
  auto healthy = engine.SearchKeywords(query, options);
  ASSERT_TRUE(healthy.ok()) << healthy.status();
  EXPECT_FALSE(healthy_stats.cache_hit);
  EXPECT_FALSE(healthy_stats.degraded);

  SearchStats hit_stats;
  options.stats = &hit_stats;
  auto hit = engine.SearchKeywords(query, options);
  ASSERT_TRUE(hit.ok()) << hit.status();
  EXPECT_TRUE(hit_stats.cache_hit);
  ExpectSameResults(*healthy, *hit);
}

TEST_F(ConcurrencyTest, ResultCacheEvictsLeastRecentlyUsed) {
  ResultCache cache(2);
  auto make_key = [](uint64_t fp) {
    ResultCacheKey key;
    key.fingerprint = fp;
    key.corpus_version = 7;
    key.options_hash = 11;
    return key;
  };
  auto make_results = [](SchemaId id) {
    std::vector<SearchResult> results(1);
    results[0].schema_id = id;
    return results;
  };

  cache.Put(make_key(1), make_results(1));
  cache.Put(make_key(2), make_results(2));
  // Touch key 1 so key 2 becomes least recently used.
  ASSERT_NE(cache.Get(make_key(1)), nullptr);
  cache.Put(make_key(3), make_results(3));

  EXPECT_NE(cache.Get(make_key(1)), nullptr);
  EXPECT_EQ(cache.Get(make_key(2)), nullptr);
  auto third = cache.Get(make_key(3));
  ASSERT_NE(third, nullptr);
  EXPECT_EQ((*third)[0].schema_id, 3u);

  ResultCacheStats stats = cache.Stats();
  EXPECT_EQ(stats.entries, 2u);
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.insertions, 3u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 3u);
}

// --- visualization request validation (service limits) ----------------------

TEST_F(ConcurrencyTest, VisualizationRequestsAreValidated) {
  auto corpus = MakeCorpus(1);
  ASSERT_TRUE(corpus.ok()) << corpus.status();
  SchemaId id = (*corpus)->Snapshot()->schemas->Ids().front();
  SchemrService service(corpus->get());

  VisualizationRequest over_depth;
  over_depth.schema_id = id;
  over_depth.max_depth = 65;  // default cap is 64
  auto rejected = service.GetSchemaGraphMl(over_depth);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kInvalidArgument);

  VisualizationRequest bad_layout;
  bad_layout.schema_id = id;
  bad_layout.layout = "spiral";
  auto rejected_layout = service.GetSchemaGraphMl(bad_layout);
  ASSERT_FALSE(rejected_layout.ok());
  EXPECT_EQ(rejected_layout.status().code(), StatusCode::kInvalidArgument);

  VisualizationRequest good;
  good.schema_id = id;
  good.max_depth = 64;
  good.layout = "radial";
  EXPECT_TRUE(service.GetSchemaGraphMl(good).ok());
}

// --- introspection plane under churn (DESIGN.md §12) -------------------------

// The listener's handlers read every serving-plane structure (registry,
// telemetry ring, trace rings, slow-query ring, executor/admission
// gauges) while searches, ingests, and the sampler thread mutate them.
// The TSan CI job runs this at raised cycles: the endpoints must be
// data-race-free against live traffic, and every scrape must parse.
TEST_F(ConcurrencyTest, IntrospectionEndpointsUnderServingTorture) {
  FaultInjector::Global().EnablePerturbation(true);
  const size_t cycles = CyclesOrDefault(20);

  auto corpus_or = MakeCorpus(3);
  ASSERT_TRUE(corpus_or.ok()) << corpus_or.status();
  ServingCorpus* corpus = corpus_or->get();
  SchemrService service(corpus);
  ServingOptions serving;
  serving.executor.num_workers = 2;
  serving.executor.queue_capacity = 16;
  serving.admission.max_queue_depth = 16;
  serving.result_cache_capacity = 32;
  serving.introspection_port = 0;
  serving.telemetry.sample_interval_seconds = 0.01;  // sampler churns too
  serving.trace_retention.sample_every_n = 2;
  ASSERT_TRUE(service.StartServing(serving).ok());
  const int port = service.introspection()->port();
  ASSERT_GT(port, 0);

  std::atomic<bool> writer_done{false};
  std::atomic<size_t> malformed{0};
  std::atomic<size_t> bad_scrapes{0};
  std::thread writer([corpus, cycles, &writer_done] {
    for (size_t i = 0; i < cycles; ++i) {
      auto id = corpus->Ingest(ClinicSchema("intro_" + std::to_string(i)));
      ASSERT_TRUE(id.ok()) << id.status();
    }
    writer_done.store(true, std::memory_order_release);
  });
  std::thread client([&service, &writer_done, &malformed] {
    do {
      SearchRequest request;
      request.keywords = "patient height";
      std::string xml = service.HandleSearchXml(request, 5.0);
      if (xml.find("<results") == std::string::npos &&
          xml.find("<error") == std::string::npos) {
        malformed.fetch_add(1);
      }
    } while (!writer_done.load(std::memory_order_acquire));
  });
  std::thread scraper([port, &writer_done, &bad_scrapes] {
    const char* endpoints[] = {"/metrics", "/healthz", "/statusz", "/tracez",
                               "/slowz"};
    size_t i = 0;
    do {
      auto body = HttpGet("127.0.0.1", port, endpoints[i++ % 5]);
      // A saturated handler pool answering 503 is load shedding, not a
      // bug; an empty 200 body would be.
      if (body.ok() && body->empty()) bad_scrapes.fetch_add(1);
    } while (!writer_done.load(std::memory_order_acquire));
  });
  writer.join();
  client.join();
  scraper.join();

  EXPECT_EQ(malformed.load(), 0u);
  EXPECT_EQ(bad_scrapes.load(), 0u);
  // Shutdown stops the listener; the port stops answering.
  EXPECT_TRUE(service.Shutdown(30.0).ok());
  EXPECT_FALSE(HttpGet("127.0.0.1", port, "/healthz", 1.0).ok());
  FaultInjector::Global().EnablePerturbation(false);
}

}  // namespace
}  // namespace schemr
