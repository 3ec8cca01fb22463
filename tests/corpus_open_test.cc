// Tests for ServingCorpus::Open (DESIGN.md §16, "Persistence"): a corpus
// stood up from its persisted segment.idx and signatures.sig answers
// byte-for-byte as a fresh ServingCorpus::Create over the same
// repository does; a stale, key-less, old-format, torn or corrupt
// segment is rebuilt and never served; and an unwritable state directory
// costs only the write-back.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "core/serving_corpus.h"
#include "corpus/schema_generator.h"
#include "index/indexer.h"
#include "obs/replay.h"
#include "repo/schema_repository.h"
#include "schema/schema_builder.h"
#include "service/schemr_service.h"
#include "util/crc32.h"
#include "util/varint.h"

namespace schemr {
namespace {

namespace fs = std::filesystem;

/// The distinct requests of the committed sample workload, plus keyword
/// requests for the words the stale-segment test writes into the corpus
/// (so a stale index would answer them differently).
std::vector<SearchRequest> Requests() {
  auto workload = LoadWorkload(std::string(SCHEMR_SOURCE_DIR) +
                               "/examples/sample_workload.xml");
  EXPECT_TRUE(workload.ok()) << workload.status();
  std::set<std::tuple<std::string, std::string, size_t, size_t>> seen;
  std::vector<SearchRequest> requests;
  for (const WorkloadEntry& entry : workload.value()) {
    SearchRequest request;
    request.keywords = entry.keywords;
    request.fragment = entry.fragment;
    request.top_k = entry.top_k;
    request.candidate_pool = entry.candidate_pool;
    if (seen.emplace(request.keywords, request.fragment, request.top_k,
                     request.candidate_pool)
            .second) {
      requests.push_back(std::move(request));
    }
  }
  for (const char* keywords : {"zeugma", "quagga stripe"}) {
    SearchRequest request;
    request.keywords = keywords;
    requests.push_back(std::move(request));
  }
  return requests;
}

/// The SearchXml body of every request against `corpus`.
std::vector<std::string> Bodies(const ServingCorpus* corpus) {
  static const std::vector<SearchRequest> requests = Requests();
  SchemrService service(corpus);
  std::vector<std::string> bodies;
  for (const SearchRequest& request : requests) {
    auto body = service.SearchXml(request);
    EXPECT_TRUE(body.ok()) << body.status();
    bodies.push_back(body.ok() ? *body : body.status().ToString());
  }
  return bodies;
}

class CorpusOpenTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("schemr_corpus_open_test_" +
            std::to_string(
                ::testing::UnitTest::GetInstance()->random_seed()) +
            "_" + ::testing::UnitTest::GetInstance()
                      ->current_test_info()
                      ->name());
    fs::remove_all(dir_);
    // The CI perf gate's reference corpus: 120 schemas, seed 42.
    auto repo = SchemaRepository::Open(RepoDir());
    ASSERT_TRUE(repo.ok()) << repo.status();
    CorpusOptions options;
    options.num_schemas = 120;
    options.seed = 42;
    for (GeneratedSchema& generated : GenerateCorpus(options)) {
      ASSERT_TRUE((*repo)->Insert(std::move(generated.schema)).ok());
    }
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::string RepoDir() const { return (dir_ / "repo").string(); }
  std::string SegmentPath() const { return RepoDir() + "/segment.idx"; }

  std::unique_ptr<SchemaRepository> OpenRepository() const {
    auto repo = SchemaRepository::Open(RepoDir());
    EXPECT_TRUE(repo.ok()) << repo.status();
    return repo.ok() ? *std::move(repo) : SchemaRepository::OpenInMemory();
  }

  /// ServingCorpus::Open over the repository, its state kept beside it
  /// unless `state_dir` says otherwise.
  std::unique_ptr<ServingCorpus> Open(OpenReport* report,
                                      std::string state_dir = "") const {
    auto corpus = ServingCorpus::Open(
        OpenRepository(), state_dir.empty() ? RepoDir() : state_dir, report);
    EXPECT_TRUE(corpus.ok()) << corpus.status();
    return corpus.ok() ? *std::move(corpus) : nullptr;
  }

  /// The bodies a fresh Create over the repository's content answers.
  std::vector<std::string> CreateBodies() const {
    auto corpus = ServingCorpus::Create(OpenRepository());
    EXPECT_TRUE(corpus.ok()) << corpus.status();
    return corpus.ok() ? Bodies(corpus->get()) : std::vector<std::string>{};
  }

  /// Asserts the next Open rebuilds the index, answers as a fresh
  /// Create, and writes back a segment the Open after it adopts. The
  /// rebuilding Open's report lands in `rebuilt` when non-null.
  void ExpectRebuiltAndRepaired(OpenReport* rebuilt = nullptr) const {
    const std::vector<std::string> expected = CreateBodies();
    OpenReport report;
    {
      auto corpus = Open(&report);
      ASSERT_NE(corpus, nullptr);
      EXPECT_FALSE(report.index_adopted);
      EXPECT_GT(report.index_rebuild_seconds, 0.0);
      EXPECT_TRUE(report.persisted.ok()) << report.persisted;
      EXPECT_EQ(Bodies(corpus.get()), expected);
    }
    if (rebuilt != nullptr) *rebuilt = report;
    auto corpus = Open(&report);
    ASSERT_NE(corpus, nullptr);
    EXPECT_TRUE(report.index_adopted);
    EXPECT_EQ(Bodies(corpus.get()), expected);
  }

  fs::path dir_;
};

TEST_F(CorpusOpenTest, SecondOpenAdoptsBothFilesAndAnswersAsCreate) {
  const std::vector<std::string> expected = CreateBodies();
  ASSERT_FALSE(expected.empty());
  // Create reads and writes no file.
  EXPECT_FALSE(fs::exists(SegmentPath()));
  EXPECT_FALSE(fs::exists(RepoDir() + "/signatures.sig"));

  OpenReport first;
  {
    auto corpus = Open(&first);
    ASSERT_NE(corpus, nullptr);
    EXPECT_EQ(Bodies(corpus.get()), expected);
  }
  EXPECT_FALSE(first.index_adopted);
  EXPECT_EQ(first.catalog.signatures_built, 120u);
  EXPECT_TRUE(first.persisted.ok()) << first.persisted;
  EXPECT_TRUE(fs::exists(SegmentPath()));
  EXPECT_TRUE(fs::exists(RepoDir() + "/signatures.sig"));

  OpenReport second;
  auto corpus = Open(&second);
  ASSERT_NE(corpus, nullptr);
  EXPECT_TRUE(second.index_adopted);
  EXPECT_EQ(second.index_rebuild_seconds, 0.0);
  EXPECT_EQ(second.catalog.signatures_loaded, 120u);
  EXPECT_EQ(second.catalog.signatures_built, 0u);
  EXPECT_EQ(second.catalog.corrupt_records, 0u);
  EXPECT_EQ(corpus->Snapshot()->index->NumDocs(), 120u);
  EXPECT_EQ(Bodies(corpus.get()), expected);
}

TEST_F(CorpusOpenTest, StaleSegmentIsRebuilt) {
  OpenReport report;
  ASSERT_NE(Open(&report), nullptr);  // writes both files
  const Schema quagga = SchemaBuilder("quagga_registry")
                            .Entity("quagga")
                            .Attribute("stripe")
                            .Attribute("herd")
                            .Build();
  struct Write {
    std::string name;
    std::function<void(ServingCorpus*)> apply;
    /// Signatures read only matcher-visible content, which a
    /// description is not; the index reads descriptions too.
    bool signatures_adopted;
  };
  // Each write goes through another corpus, which touches no file.
  const std::vector<Write> writes = {
      {"insert",
       [&quagga](ServingCorpus* corpus) {
         ASSERT_TRUE(corpus->Ingest(quagga).ok());
       },
       false},
      {"description-only update",
       [](ServingCorpus* corpus) {
         auto schema = corpus->repository()->Get(7);
         ASSERT_TRUE(schema.ok()) << schema.status();
         schema->set_description("zeugma");
         ASSERT_TRUE(corpus->Update(*std::move(schema)).ok());
       },
       true},
      {"remove",
       [](ServingCorpus* corpus) { ASSERT_TRUE(corpus->Remove(1).ok()); },
       false},
  };
  for (const Write& write : writes) {
    SCOPED_TRACE(write.name);
    {
      auto writer = ServingCorpus::Create(OpenRepository());
      ASSERT_TRUE(writer.ok()) << writer.status();
      write.apply(writer->get());
    }
    OpenReport rebuilt;
    ExpectRebuiltAndRepaired(&rebuilt);
    EXPECT_EQ(rebuilt.catalog.signatures_built == 0,
              write.signatures_adopted);
  }
}

TEST_F(CorpusOpenTest, BadSegmentIsRebuiltNeverServed) {
  OpenReport report;
  ASSERT_NE(Open(&report), nullptr);
  std::string good;
  {
    std::ifstream in(SegmentPath(), std::ios::binary);
    good.assign(std::istreambuf_iterator<char>(in),
                std::istreambuf_iterator<char>());
  }
  ASSERT_GT(good.size(), 16u);
  auto write = [this](const std::string& bytes) {
    std::ofstream out(SegmentPath(), std::ios::binary | std::ios::trunc);
    out << bytes;
  };
  const uint64_t key = OpenRepository()->View()->ContentKey();

  {
    SCOPED_TRACE("flipped byte");
    std::string flipped = good;
    flipped[flipped.size() / 2] ^= 0x40;
    write(flipped);
    ExpectRebuiltAndRepaired();
  }
  {
    SCOPED_TRACE("truncated");
    write(good.substr(0, good.size() / 2));
    ExpectRebuiltAndRepaired();
  }
  {
    SCOPED_TRACE("old SIX1 format");
    // The same index in the format before segments carried a key: no
    // key field after the magic, CRC over the rest.
    std::string body = good.substr(12, good.size() - 16);
    std::string old = "SIX1" + body;
    PutFixed32(&old, Crc32Mask(Crc32(body)));
    write(old);
    ExpectRebuiltAndRepaired();
  }
  {
    SCOPED_TRACE("no key");
    // A loadable segment saved without a key, over other content.
    InvertedIndex other;
    ASSERT_TRUE(other.AddDocument(FlattenSchema(SchemaBuilder("zeugma")
                                                    .Entity("zeugma")
                                                    .Attribute("stripe")
                                                    .Build()))
                    .ok());
    ASSERT_TRUE(other.Save(SegmentPath()).ok());
    ExpectRebuiltAndRepaired();
  }
  {
    SCOPED_TRACE("other analyzer under the right key");
    AnalyzerOptions unstemmed;
    unstemmed.stem = false;
    InvertedIndex other(unstemmed);
    ASSERT_TRUE(OpenRepository()
                    ->ForEach([&other](const Schema& schema) {
                      return other.AddDocument(FlattenSchema(schema));
                    })
                    .ok());
    ASSERT_TRUE(other.Save(SegmentPath(), key).ok());
    ExpectRebuiltAndRepaired();
  }
}

TEST_F(CorpusOpenTest, UnwritableStateDirectoryStillServes) {
  const std::vector<std::string> expected = CreateBodies();
  // A state directory under a regular file can never be created.
  const fs::path blocker = dir_ / "blocker";
  { std::ofstream(blocker) << "not a directory"; }
  OpenReport report;
  auto corpus = Open(&report, (blocker / "state").string());
  ASSERT_NE(corpus, nullptr);
  EXPECT_FALSE(report.index_adopted);
  EXPECT_EQ(report.catalog.signatures_built, 120u);
  EXPECT_FALSE(report.persisted.ok());
  EXPECT_EQ(Bodies(corpus.get()), expected);
}

}  // namespace
}  // namespace schemr
