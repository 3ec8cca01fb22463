// Integration tests across modules: the full architecture round trip
// (repository on disk → ServingCorpus::Open builds and saves the index
// segment → search service → reopen adopts the segment → XML/GraphML),
// pipeline quality ordering (the paper's central claim that matching +
// tightness improve on text search alone), and meta-learned weights vs
// uniform.

#include <gtest/gtest.h>

#include <filesystem>

#include "corpus/search_history.h"
#include "eval/harness.h"
#include "parse/xml_parser.h"
#include "service/schemr_service.h"

namespace schemr {
namespace {

namespace fs = std::filesystem;

TEST(IntegrationTest, FullArchitectureRoundTripOnDisk) {
  fs::path dir = fs::temp_directory_path() / "schemr_integration_repo";
  fs::remove_all(dir);

  CorpusOptions corpus_options;
  corpus_options.num_schemas = 80;
  corpus_options.seed = 2011;
  std::vector<GeneratedSchema> corpus = GenerateCorpus(corpus_options);

  fs::path index_path = dir / "segment.idx";
  std::vector<SearchResult> before;

  {
    // Session 1: populate the repository, index it, run a search, persist
    // the index segment.
    auto repo = SchemaRepository::Open((dir / "store").string());
    ASSERT_TRUE(repo.ok()) << repo.status();
    for (const GeneratedSchema& g : corpus) {
      ASSERT_TRUE((*repo)->Insert(g.schema).ok());
    }
    OpenReport opened;
    auto served = ServingCorpus::Open(*std::move(repo), dir.string(), &opened);
    ASSERT_TRUE(served.ok()) << served.status();
    ASSERT_TRUE(opened.persisted.ok()) << opened.persisted;
    ASSERT_TRUE(fs::exists(index_path));

    SchemrService service(served->get());
    SearchRequest request;
    request.keywords = "patient height gender diagnosis";
    auto results = service.Search(request);
    ASSERT_TRUE(results.ok()) << results.status();
    ASSERT_FALSE(results->empty());
    before = *results;
  }

  {
    // Session 2: everything reloaded from disk must behave identically.
    auto repo = SchemaRepository::Open((dir / "store").string());
    ASSERT_TRUE(repo.ok());
    EXPECT_EQ((*repo)->Size(), corpus.size());
    OpenReport opened;
    auto served = ServingCorpus::Open(*std::move(repo), dir.string(), &opened);
    ASSERT_TRUE(served.ok()) << served.status();
    ASSERT_TRUE(opened.index_adopted);
    EXPECT_EQ((*served)->Snapshot()->index->NumDocs(), corpus.size());

    SchemrService service(served->get());
    SearchRequest request;
    request.keywords = "patient height gender diagnosis";
    auto results = service.Search(request);
    ASSERT_TRUE(results.ok());
    ASSERT_EQ(results->size(), before.size());
    for (size_t i = 0; i < before.size(); ++i) {
      EXPECT_EQ((*results)[i].schema_id, before[i].schema_id);
      EXPECT_NEAR((*results)[i].score, before[i].score, 1e-9);
    }

    // Visualization endpoint on the top hit (Fig. 5's second request).
    VisualizationRequest viz;
    viz.schema_id = (*results)[0].schema_id;
    viz.scores = (*results)[0].matched_elements;
    auto graphml = service.GetSchemaGraphMl(viz);
    ASSERT_TRUE(graphml.ok()) << graphml.status();
    EXPECT_TRUE(ParseXml(*graphml).ok());
  }
  fs::remove_all(dir);
}

struct PipelineQuality {
  QualitySummary coarse_only;
  QualitySummary with_matching;
  QualitySummary full;
};

PipelineQuality MeasurePipelineStages() {
  CorpusOptions corpus_options;
  corpus_options.num_schemas = 250;
  corpus_options.seed = 424;
  // Noisy names: this is where matching should help.
  corpus_options.name_noise.abbreviation_prob = 0.35;
  corpus_options.name_noise.synonym_prob = 0.15;
  auto fixture = CorpusFixture::Build(corpus_options);
  EXPECT_TRUE(fixture.ok());

  QueryWorkloadOptions workload_options;
  workload_options.num_queries = 30;
  workload_options.seed = 9;
  workload_options.keyword_noise.abbreviation_prob = 0.3;
  std::vector<WorkloadQuery> workload =
      GenerateQueryWorkload(workload_options);

  SearchEngine engine(fixture->serving.get());

  PipelineQuality q;
  SearchEngineOptions coarse;
  coarse.enable_matching = false;
  q.coarse_only = *EvaluateEngine(engine, *fixture, workload, coarse);

  SearchEngineOptions matching;
  matching.enable_tightness = false;
  q.with_matching = *EvaluateEngine(engine, *fixture, workload, matching);

  SearchEngineOptions full;
  q.full = *EvaluateEngine(engine, *fixture, workload, full);
  return q;
}

TEST(IntegrationTest, PipelineStagesImproveQuality) {
  PipelineQuality q = MeasurePipelineStages();
  // The full pipeline must not lose to TF/IDF alone on noisy corpora --
  // the paper's core claim. (Loose margins: this is a direction check,
  // not a golden number.)
  EXPECT_GE(q.full.ndcg_at_10 + 0.02, q.coarse_only.ndcg_at_10)
      << "full=" << FormatQuality(q.full)
      << " coarse=" << FormatQuality(q.coarse_only);
  EXPECT_GE(q.with_matching.mrr + 0.05, q.coarse_only.mrr);
  EXPECT_GT(q.full.mrr, 0.4);
}

TEST(IntegrationTest, MetaLearnedWeightsDoNotHurt) {
  CorpusOptions corpus_options;
  corpus_options.num_schemas = 150;
  corpus_options.seed = 31;
  auto fixture = CorpusFixture::Build(corpus_options);
  ASSERT_TRUE(fixture.ok());

  QueryWorkloadOptions workload_options;
  workload_options.num_queries = 20;
  std::vector<WorkloadQuery> workload =
      GenerateQueryWorkload(workload_options);

  // Uniform ensemble.
  SearchEngine uniform(fixture->serving.get());
  QualitySummary uniform_quality =
      *EvaluateEngine(uniform, *fixture, workload);

  // Meta-learned ensemble (trained on simulated search histories).
  MatcherEnsemble trained_ensemble = MatcherEnsemble::Default();
  SearchHistoryOptions history_options;
  history_options.num_records = 400;
  auto records = SimulateSearchHistory(trained_ensemble, history_options);
  auto model = TrainLogisticModel(records);
  ASSERT_TRUE(model.ok());
  trained_ensemble.SetWeights(model->NormalizedWeights());
  SearchEngine trained(fixture->serving.get(), std::move(trained_ensemble));
  QualitySummary trained_quality =
      *EvaluateEngine(trained, *fixture, workload);

  EXPECT_GE(trained_quality.mrr + 0.1, uniform_quality.mrr)
      << "trained=" << FormatQuality(trained_quality)
      << " uniform=" << FormatQuality(uniform_quality);
}

TEST(IntegrationTest, XsdAndDdlFragmentsAgreeOnIntent) {
  // The same logical fragment expressed as DDL and as XSD should retrieve
  // overlapping top results.
  CorpusOptions corpus_options;
  corpus_options.num_schemas = 200;
  corpus_options.seed = 60;
  auto fixture = CorpusFixture::Build(corpus_options);
  ASSERT_TRUE(fixture.ok());
  SchemrService service(fixture->serving.get());

  SearchRequest ddl_request;
  ddl_request.keywords = "";
  ddl_request.fragment =
      "CREATE TABLE patient (height DOUBLE, gender VARCHAR(8), "
      "date_of_birth DATE);";
  SearchRequest xsd_request;
  xsd_request.fragment = R"xml(
<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">
  <xs:element name="patient">
    <xs:complexType><xs:sequence>
      <xs:element name="height" type="xs:double"/>
      <xs:element name="gender" type="xs:string"/>
      <xs:element name="date_of_birth" type="xs:date"/>
    </xs:sequence></xs:complexType>
  </xs:element>
</xs:schema>)xml";

  auto ddl_results = service.Search(ddl_request);
  auto xsd_results = service.Search(xsd_request);
  ASSERT_TRUE(ddl_results.ok()) << ddl_results.status();
  ASSERT_TRUE(xsd_results.ok()) << xsd_results.status();
  ASSERT_GE(ddl_results->size(), 5u);
  ASSERT_GE(xsd_results->size(), 5u);
  // Top-5 overlap of at least 3.
  std::set<SchemaId> ddl_top, xsd_top;
  for (size_t i = 0; i < 5; ++i) {
    ddl_top.insert((*ddl_results)[i].schema_id);
    xsd_top.insert((*xsd_results)[i].schema_id);
  }
  size_t overlap = 0;
  for (SchemaId id : ddl_top) overlap += xsd_top.count(id);
  EXPECT_GE(overlap, 3u);
}

}  // namespace
}  // namespace schemr
