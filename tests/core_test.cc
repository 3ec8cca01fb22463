// Tests for the core search pipeline: query graph, query parser,
// candidate extraction, tightness-of-fit (including the paper's Fig. 4
// worked example), and the search engine facade with its ablations.

#include <gtest/gtest.h>

#include <chrono>
#include <stdexcept>
#include <thread>

#include "core/candidate_extractor.h"
#include "core/query_graph.h"
#include "core/query_parser.h"
#include "core/search_engine.h"
#include "core/tightness_of_fit.h"
#include "index/indexer.h"
#include "repo/schema_repository.h"
#include "schema/entity_graph.h"
#include "schema/schema_builder.h"

namespace schemr {
namespace {

// --- query graph ----------------------------------------------------------------

TEST(QueryGraphTest, KeywordsAreOneElementTrees) {
  QueryGraph query;
  query.AddKeyword("patient");
  query.AddKeyword("height gender");  // splits into two
  EXPECT_EQ(query.keywords().size(), 3u);
  EXPECT_EQ(query.NumElements(), 3u);

  const Schema& merged = query.AsSchema();
  EXPECT_EQ(merged.size(), 3u);
  for (ElementId id = 0; id < merged.size(); ++id) {
    EXPECT_EQ(merged.element(id).parent, kNoElement);
    EXPECT_TRUE(query.IsKeywordElement(id));
  }
}

TEST(QueryGraphTest, FragmentsMergeWithRebasedIds) {
  QueryGraph query;
  query.AddFragment(SchemaBuilder("f1")
                        .Entity("patient")
                        .Attribute("height")
                        .Build());
  query.AddFragment(SchemaBuilder("f2")
                        .Entity("visit")
                        .Attribute("patient_id", DataType::kInt64)
                        .References("visit")  // self-ref keeps fk in-fragment
                        .Build());
  query.AddKeyword("diagnosis");

  const Schema& merged = query.AsSchema();
  ASSERT_EQ(merged.size(), 5u);
  // Fragment 2's parent links were rebased past fragment 1's elements.
  auto visit = merged.FindByName("visit", ElementKind::kEntity);
  auto patient_id = merged.FindByName("patient_id");
  ASSERT_TRUE(visit && patient_id);
  EXPECT_EQ(merged.element(*patient_id).parent, *visit);
  // FKs rebased too.
  ASSERT_EQ(merged.foreign_keys().size(), 1u);
  EXPECT_EQ(merged.foreign_keys()[0].target_entity, *visit);
  // Keyword is last and flagged.
  EXPECT_TRUE(query.IsKeywordElement(4));
  EXPECT_FALSE(query.IsKeywordElement(0));
  EXPECT_TRUE(merged.Validate().ok());
}

TEST(QueryGraphTest, FlattenTermsUsesAnalyzer) {
  QueryGraph query;
  query.AddKeyword("Patients");
  query.AddFragment(SchemaBuilder("f")
                        .Entity("visit")
                        .Attribute("dateOfBirth")
                        .Build());
  Analyzer analyzer;
  std::vector<std::string> terms = query.FlattenTerms(analyzer);
  // patient (stemmed), visit, date, birth ("of" is a stopword).
  EXPECT_EQ(terms, (std::vector<std::string>{"patient", "visit", "date",
                                             "birth"}));
}

// --- query parser ----------------------------------------------------------------

TEST(QueryParserTest, KeywordsOnly) {
  auto query = ParseQuery("patient, height;gender\tdiagnosis");
  ASSERT_TRUE(query.ok());
  EXPECT_EQ(query->keywords().size(), 4u);
  EXPECT_TRUE(query->fragments().empty());
}

TEST(QueryParserTest, DetectsDdlAndXsd) {
  EXPECT_EQ(DetectFragmentFormat("CREATE TABLE t (x INT)"),
            FragmentFormat::kDdl);
  EXPECT_EQ(DetectFragmentFormat("  <xs:schema/>"), FragmentFormat::kXsd);
  EXPECT_EQ(DetectFragmentFormat(""), FragmentFormat::kAuto);

  auto ddl_query = ParseQuery("", "CREATE TABLE t (x INT);");
  ASSERT_TRUE(ddl_query.ok()) << ddl_query.status();
  EXPECT_EQ(ddl_query->fragments().size(), 1u);

  auto xsd_query = ParseQuery(
      "", "<xs:schema><xs:element name=\"t\" type=\"xs:string\"/>"
          "</xs:schema>");
  ASSERT_TRUE(xsd_query.ok()) << xsd_query.status();
  EXPECT_EQ(xsd_query->fragments().size(), 1u);
}

TEST(QueryParserTest, RejectsEmptyAndBadFragments) {
  EXPECT_FALSE(ParseQuery("").ok());
  EXPECT_FALSE(ParseQuery("", "   ").ok());
  EXPECT_FALSE(ParseQuery("kw", "CREATE TABLE broken (").ok());
  EXPECT_FALSE(ParseQuery("kw", "<unclosed").ok());
}

// --- tightness-of-fit ---------------------------------------------------------------

/// Builds the paper's Fig. 4 example: entities case, patient, doctor with
/// matched elements case.doctor, case.patient, patient.height,
/// patient.gender, doctor.gender. FKs: case.patient → patient,
/// case.doctor → doctor (patient and doctor are in each other's
/// transitive-closure neighborhood via case, but not directly related).
struct Fig4 {
  Schema schema;
  ElementId e_case, e_patient, e_doctor;
  ElementId a_case_doctor, a_case_patient;
  ElementId a_patient_height, a_patient_gender, a_doctor_gender;
};

Fig4 MakeFig4() {
  Fig4 f;
  Schema& s = f.schema;
  s.set_name("fig4");
  f.e_patient = s.AddEntity("patient");
  f.a_patient_height = s.AddAttribute("height", f.e_patient,
                                      DataType::kDouble);
  f.a_patient_gender = s.AddAttribute("gender", f.e_patient);
  f.e_doctor = s.AddEntity("doctor");
  f.a_doctor_gender = s.AddAttribute("gender", f.e_doctor);
  f.e_case = s.AddEntity("case");
  f.a_case_patient = s.AddAttribute("patient", f.e_case, DataType::kInt64);
  f.a_case_doctor = s.AddAttribute("doctor", f.e_case, DataType::kInt64);
  s.AddForeignKey(f.a_case_patient, f.e_patient);
  s.AddForeignKey(f.a_case_doctor, f.e_doctor);
  EXPECT_TRUE(s.Validate().ok());
  return f;
}

/// Similarity matrix marking exactly the figure's matched elements with
/// score `s` from a single query row.
SimilarityMatrix Fig4Similarity(const Fig4& f, double s) {
  SimilarityMatrix m(1, f.schema.size());
  m.set(0, f.a_case_doctor, s);
  m.set(0, f.a_case_patient, s);
  m.set(0, f.a_patient_height, s);
  m.set(0, f.a_patient_gender, s);
  m.set(0, f.a_doctor_gender, s);
  return m;
}

TEST(TightnessOfFitTest, Fig4WorkedExample) {
  Fig4 f = MakeFig4();
  const double s = 1.0;
  SimilarityMatrix m = Fig4Similarity(f, s);
  TightnessOptions options;
  options.neighborhood_penalty = 0.2;  // "small penalty"
  options.unrelated_penalty = 0.5;     // "larger penalty"
  options.match_threshold = 0.5;

  TightnessResult result = ComputeTightnessOfFit(f.schema, m, options);

  // With the FK transitive closure, all three entities are in one
  // neighborhood, so for every anchor the penalties are: same entity → 0,
  // other entities → small. Anchor "case": case.doctor and case.patient
  // unpenalized, the other three at 0.8 → t = (2·1 + 3·0.8)/5 = 0.88.
  // Anchor "patient": 2 unpenalized (height, gender), 3 at 0.8 → same
  // 0.88. Anchor "doctor": 1 unpenalized, 4 at 0.8 → 0.84. Max = 0.88.
  EXPECT_NEAR(result.score, 0.88, 1e-9);
  EXPECT_TRUE(result.best_anchor == f.e_case ||
              result.best_anchor == f.e_patient);
  EXPECT_EQ(result.matched.size(), 5u);
}

TEST(TightnessOfFitTest, UnrelatedEntityGetsLargerPenalty) {
  // Remove the case→doctor FK: doctor becomes its own component, so under
  // anchor "patient", doctor.gender is unrelated (larger penalty).
  Fig4 f = MakeFig4();
  Schema disconnected = f.schema;
  // Rebuild without the doctor FK.
  Schema s2;
  s2.set_name("fig4_disconnected");
  Fig4 g;
  g.e_patient = s2.AddEntity("patient");
  g.a_patient_height = s2.AddAttribute("height", g.e_patient);
  g.a_patient_gender = s2.AddAttribute("gender", g.e_patient);
  g.e_doctor = s2.AddEntity("doctor");
  g.a_doctor_gender = s2.AddAttribute("gender", g.e_doctor);
  g.e_case = s2.AddEntity("case");
  g.a_case_patient = s2.AddAttribute("patient", g.e_case);
  g.a_case_doctor = s2.AddAttribute("doctor", g.e_case);
  s2.AddForeignKey(g.a_case_patient, g.e_patient);
  g.schema = s2;

  SimilarityMatrix m = Fig4Similarity(g, 1.0);
  TightnessOptions options;
  options.match_threshold = 0.5;
  TightnessResult result = ComputeTightnessOfFit(g.schema, m, options);
  // Anchor case: patient-side elements small (0.8), doctor.gender
  // unrelated (0.5): t = (2 + 2·0.8 + 0.5)/5 = 0.82.
  // Anchor patient: height+gender 1.0, case elements 0.8, doctor 0.5 →
  // same 0.82. Anchor doctor: 1 + 4·0.5 = 0.6. Max = 0.82 < 0.88.
  EXPECT_NEAR(result.score, 0.82, 1e-9);

  // The engine's overload reads the neighborhoods from a component
  // vector: the schema's own gives the same answer, one that puts every
  // entity in one component gives Fig. 4's, and one of another size is
  // ignored for the schema's own graph.
  const std::vector<uint32_t> own =
      ComponentsByElement(EntityGraph(g.schema), g.schema.size());
  EXPECT_EQ(ComputeTightnessOfFit(g.schema, own, m, options).score,
            result.score);
  const std::vector<uint32_t> joined(g.schema.size(), 0);
  EXPECT_NEAR(ComputeTightnessOfFit(g.schema, joined, m, options).score, 0.88,
              1e-9);
  EXPECT_EQ(ComputeTightnessOfFit(g.schema, std::vector<uint32_t>{}, m,
                                  options)
                .score,
            result.score);
}

TEST(TightnessOfFitTest, TighterSchemasScoreHigher) {
  // Same matched scores: all in one entity vs scattered across unrelated
  // entities. Tightness must prefer co-location.
  Schema tight = SchemaBuilder("tight")
                     .Entity("patient")
                     .Attribute("height")
                     .Attribute("gender")
                     .Attribute("diagnosis")
                     .Build();
  Schema scattered = SchemaBuilder("scattered")
                         .Entity("a")
                         .Attribute("height")
                         .Entity("b")
                         .Attribute("gender")
                         .Entity("c")
                         .Attribute("diagnosis")
                         .Build();
  auto mark = [](const Schema& schema) {
    SimilarityMatrix m(1, schema.size());
    for (ElementId e = 0; e < schema.size(); ++e) {
      if (schema.element(e).kind == ElementKind::kAttribute) m.set(0, e, 0.9);
    }
    return m;
  };
  double tight_score =
      ComputeTightnessOfFit(tight, mark(tight)).score;
  double scattered_score =
      ComputeTightnessOfFit(scattered, mark(scattered)).score;
  EXPECT_GT(tight_score, scattered_score);
  EXPECT_NEAR(tight_score, 0.9, 1e-9);  // no penalties at all
}

TEST(TightnessOfFitTest, ThresholdExcludesWeakMatches) {
  Schema schema = SchemaBuilder("s")
                      .Entity("e")
                      .Attribute("strong")
                      .Attribute("weak")
                      .Build();
  SimilarityMatrix m(1, schema.size());
  m.set(0, 1, 0.9);   // strong
  m.set(0, 2, 0.05);  // below threshold
  TightnessResult result = ComputeTightnessOfFit(schema, m);
  ASSERT_EQ(result.matched.size(), 1u);
  EXPECT_EQ(result.matched[0].element, 1u);
  EXPECT_NEAR(result.score, 0.9, 1e-9);
}

TEST(TightnessOfFitTest, EmptyAndMismatchedInputs) {
  Schema schema = SchemaBuilder("s").Entity("e").Attribute("a").Build();
  // No matches at all.
  SimilarityMatrix zero(1, schema.size());
  TightnessResult none = ComputeTightnessOfFit(schema, zero);
  EXPECT_DOUBLE_EQ(none.score, 0.0);
  EXPECT_EQ(none.best_anchor, kNoElement);
  EXPECT_TRUE(none.matched.empty());
  // Shape mismatch is rejected gracefully.
  SimilarityMatrix wrong(1, 99);
  EXPECT_DOUBLE_EQ(ComputeTightnessOfFit(schema, wrong).score, 0.0);
}

TEST(TightnessOfFitTest, ScoreNeverExceedsUnpenalizedMean) {
  // Property: penalties only subtract, so t_max ≤ mean(S) always, and
  // t_max ≥ mean(S)·(1 − unrelated_penalty).
  Fig4 f = MakeFig4();
  for (double s : {0.4, 0.6, 0.8, 1.0}) {
    SimilarityMatrix m = Fig4Similarity(f, s);
    TightnessOptions options;
    options.match_threshold = 0.3;
    TightnessResult result = ComputeTightnessOfFit(f.schema, m, options);
    EXPECT_LE(result.score, s + 1e-12);
    EXPECT_GE(result.score, s * (1.0 - options.unrelated_penalty) - 1e-12);
  }
}

// --- candidate extractor + search engine ------------------------------------------------

struct EngineFixture {
  std::unique_ptr<SchemaRepository> repo;
  std::unique_ptr<Indexer> indexer;
  SchemaId clinic_id = 0, shop_id = 0, scattered_id = 0;
};

EngineFixture MakeEngineFixture() {
  EngineFixture f;
  f.repo = SchemaRepository::OpenInMemory();
  f.clinic_id = *f.repo->Insert(SchemaBuilder("clinic")
                                    .Entity("patient")
                                    .Attribute("height", DataType::kDouble)
                                    .Attribute("gender")
                                    .Attribute("diagnosis")
                                    .Build());
  f.shop_id = *f.repo->Insert(SchemaBuilder("shop")
                                  .Entity("customer")
                                  .Attribute("name")
                                  .Attribute("email")
                                  .Build());
  // Same terms as clinic but scattered over unrelated entities.
  f.scattered_id = *f.repo->Insert(SchemaBuilder("scattered")
                                       .Entity("a")
                                       .Attribute("height")
                                       .Entity("b")
                                       .Attribute("gender")
                                       .Entity("c")
                                       .Attribute("diagnosis")
                                       .Entity("d")
                                       .Attribute("patient")
                                       .Build());
  f.indexer = std::make_unique<Indexer>();
  EXPECT_TRUE(f.indexer->RebuildFromRepository(*f.repo).ok());
  return f;
}

TEST(CandidateExtractorTest, PoolSizeAndScores) {
  EngineFixture f = MakeEngineFixture();
  CandidateExtractor extractor(&f.indexer->index());
  QueryGraph query;
  query.AddKeyword("patient height gender diagnosis");

  std::vector<Candidate> candidates = extractor.Extract(query);
  ASSERT_EQ(candidates.size(), 2u);  // shop matches nothing
  EXPECT_GT(candidates[0].coarse_score, 0.0);

  CandidateExtractorOptions options;
  options.pool_size = 1;
  EXPECT_EQ(extractor.Extract(query, options).size(), 1u);
}

TEST(SearchEngineTest, EndToEndRanksTightSchemaFirst) {
  EngineFixture f = MakeEngineFixture();
  SearchEngine engine(f.repo.get(), &f.indexer->index());
  auto results = engine.SearchKeywords("patient height gender diagnosis");
  ASSERT_TRUE(results.ok()) << results.status();
  ASSERT_EQ(results->size(), 2u);
  EXPECT_EQ((*results)[0].schema_id, f.clinic_id)
      << "co-located matches must outrank scattered ones";
  EXPECT_EQ((*results)[1].schema_id, f.scattered_id);
  EXPECT_GT((*results)[0].tightness, (*results)[1].tightness);

  const SearchResult& top = (*results)[0];
  EXPECT_EQ(top.name, "clinic");
  EXPECT_EQ(top.num_entities, 1u);
  EXPECT_EQ(top.num_attributes, 3u);
  EXPECT_GT(top.num_matches, 0u);
  EXPECT_NE(top.best_anchor, kNoElement);
  // Matched elements reported with scores for drill-in coloring.
  for (const MatchedElement& m : top.matched_elements) {
    EXPECT_LT(m.element, 4u);
    EXPECT_GT(m.score, 0.0);
    EXPECT_LE(m.score, 1.0);
  }
}

TEST(SearchEngineTest, FragmentQueryFindsStructuralMatch) {
  EngineFixture f = MakeEngineFixture();
  SearchEngine engine(f.repo.get(), &f.indexer->index());
  auto query = ParseQuery(
      "", "CREATE TABLE patient (height DOUBLE, gender VARCHAR(8));");
  ASSERT_TRUE(query.ok());
  auto results = engine.Search(*query);
  ASSERT_TRUE(results.ok());
  ASSERT_FALSE(results->empty());
  EXPECT_EQ((*results)[0].schema_id, f.clinic_id);
}

TEST(SearchEngineTest, AblationsChangeBehavior) {
  EngineFixture f = MakeEngineFixture();
  SearchEngine engine(f.repo.get(), &f.indexer->index());

  SearchEngineOptions phase1_only;
  phase1_only.enable_matching = false;
  auto coarse = engine.SearchKeywords("patient height", phase1_only);
  ASSERT_TRUE(coarse.ok());
  ASSERT_FALSE(coarse->empty());
  // Phase-1-only scores are normalized coarse scores; no match data.
  EXPECT_EQ((*coarse)[0].num_matches, 0u);
  EXPECT_DOUBLE_EQ((*coarse)[0].tightness, 0.0);

  SearchEngineOptions no_tightness;
  no_tightness.enable_tightness = false;
  auto flat = engine.SearchKeywords("patient height", no_tightness);
  ASSERT_TRUE(flat.ok());
  ASSERT_FALSE(flat->empty());
  EXPECT_GT((*flat)[0].num_matches, 0u);
  EXPECT_EQ((*flat)[0].best_anchor, kNoElement);  // tightness skipped
}

TEST(SearchEngineTest, TopKBoundsResults) {
  EngineFixture f = MakeEngineFixture();
  SearchEngine engine(f.repo.get(), &f.indexer->index());
  SearchEngineOptions options;
  options.top_k = 1;
  auto results = engine.SearchKeywords("patient height gender", options);
  ASSERT_TRUE(results.ok());
  EXPECT_EQ(results->size(), 1u);
}

TEST(SearchEngineTest, RepositoryIndexEngineCaches) {
  // The (repository, index) constructor pins a versioned snapshot, so its
  // engine caches like any other: the second identical search is a hit
  // with the same answer.
  EngineFixture f = MakeEngineFixture();
  SearchEngine engine(f.repo.get(), &f.indexer->index());
  engine.EnableResultCache(4);
  SearchStats first_stats;
  SearchEngineOptions options;
  options.stats = &first_stats;
  auto first = engine.SearchKeywords("patient height gender", options);
  ASSERT_TRUE(first.ok()) << first.status();
  EXPECT_FALSE(first_stats.cache_hit);
  SearchStats second_stats;
  options.stats = &second_stats;
  auto second = engine.SearchKeywords("patient height gender", options);
  ASSERT_TRUE(second.ok()) << second.status();
  EXPECT_TRUE(second_stats.cache_hit);
  ASSERT_EQ(first->size(), second->size());
  for (size_t i = 0; i < first->size(); ++i) {
    EXPECT_EQ((*first)[i].schema_id, (*second)[i].schema_id);
    EXPECT_EQ((*first)[i].score, (*second)[i].score);
  }
}

TEST(SearchEngineTest, EmptyQueryRejected) {
  EngineFixture f = MakeEngineFixture();
  SearchEngine engine(f.repo.get(), &f.indexer->index());
  QueryGraph empty;
  EXPECT_FALSE(engine.Search(empty).ok());
}

TEST(SearchEngineTest, NoHitsYieldsEmptyNotError) {
  EngineFixture f = MakeEngineFixture();
  SearchEngine engine(f.repo.get(), &f.indexer->index());
  auto results = engine.SearchKeywords("zzz qqq www");
  ASSERT_TRUE(results.ok());
  EXPECT_TRUE(results->empty());
}

// --- graceful degradation ---------------------------------------------------

/// A matcher that always throws, to exercise isolation.
class ThrowingMatcher : public Matcher {
 public:
  std::string Name() const override { return "throwing"; }
  SimilarityMatrix Match(const Schema&, const Schema&) const override {
    throw std::runtime_error("matcher exploded");
  }
};

/// A matcher that burns wall time, to exercise the per-matcher budget.
class SlowMatcher : public Matcher {
 public:
  std::string Name() const override { return "slow"; }
  SimilarityMatrix Match(const Schema& query,
                         const Schema& candidate) const override {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    return SimilarityMatrix(query.size(), candidate.size());
  }
};

TEST(SearchDegradationTest, ThrowingMatcherIsIsolatedNotFatal) {
  EngineFixture f = MakeEngineFixture();
  MatcherEnsemble ensemble = MatcherEnsemble::PaperMinimal();
  ensemble.AddMatcher(std::make_unique<ThrowingMatcher>(), 1.0);
  SearchEngine engine(f.repo.get(), &f.indexer->index(), std::move(ensemble));

  SearchStats stats;
  SearchEngineOptions options;
  options.stats = &stats;
  auto results =
      engine.SearchKeywords("patient height gender diagnosis", options);
  ASSERT_TRUE(results.ok()) << results.status();
  ASSERT_EQ(results->size(), 2u);
  EXPECT_EQ((*results)[0].schema_id, f.clinic_id)
      << "the surviving matchers must still rank the tight schema first";
  EXPECT_TRUE(stats.degraded);
  ASSERT_EQ(stats.dropped_matchers.size(), 1u);
  EXPECT_EQ(stats.dropped_matchers[0], "throwing");
  for (const SearchResult& r : *results) EXPECT_TRUE(r.degraded);
}

TEST(SearchDegradationTest, HealthySearchIsNotFlaggedDegraded) {
  EngineFixture f = MakeEngineFixture();
  SearchEngine engine(f.repo.get(), &f.indexer->index());
  SearchStats stats;
  SearchEngineOptions options;
  options.stats = &stats;
  options.deadline_seconds = 60.0;
  options.matcher_budget_seconds = 60.0;
  auto results =
      engine.SearchKeywords("patient height gender diagnosis", options);
  ASSERT_TRUE(results.ok());
  EXPECT_FALSE(stats.degraded);
  EXPECT_TRUE(stats.dropped_matchers.empty());
  for (const SearchResult& r : *results) EXPECT_FALSE(r.degraded);
}

TEST(SearchDegradationTest, DeadlineFallsBackToCoarseRanking) {
  EngineFixture f = MakeEngineFixture();
  SearchEngine engine(f.repo.get(), &f.indexer->index());
  SearchStats stats;
  SearchEngineOptions options;
  options.stats = &stats;
  options.deadline_seconds = 1e-9;  // expires before the first candidate
  auto results =
      engine.SearchKeywords("patient height gender diagnosis", options);
  ASSERT_TRUE(results.ok()) << "a blown deadline must not become an error: "
                            << results.status();
  ASSERT_EQ(results->size(), 2u);
  EXPECT_TRUE(stats.degraded);
  EXPECT_TRUE(stats.deadline_hit);
  EXPECT_EQ(stats.coarse_only_candidates, 2u);
  // Coarse-only ranking: scores are the normalized phase-1 scores.
  EXPECT_GT((*results)[0].score, 0.0);
  EXPECT_EQ((*results)[0].tightness, 0.0);
  for (const SearchResult& r : *results) EXPECT_TRUE(r.degraded);
}

TEST(SearchDegradationTest, MatcherBudgetBenchesSlowMatcher) {
  EngineFixture f = MakeEngineFixture();
  MatcherEnsemble ensemble = MatcherEnsemble::PaperMinimal();
  ensemble.AddMatcher(std::make_unique<SlowMatcher>(), 1.0);
  SearchEngine engine(f.repo.get(), &f.indexer->index(), std::move(ensemble));

  SearchStats stats;
  SearchEngineOptions options;
  options.stats = &stats;
  options.matcher_budget_seconds = 2.5e-3;  // the 5ms matcher blows this
  auto results =
      engine.SearchKeywords("patient height gender diagnosis", options);
  ASSERT_TRUE(results.ok()) << results.status();
  ASSERT_FALSE(results->empty());
  EXPECT_TRUE(stats.degraded);
  // The fast matchers may squeak under the budget or not depending on
  // machine load; the slow one must always be benched.
  EXPECT_NE(std::find(stats.dropped_matchers.begin(),
                      stats.dropped_matchers.end(), "slow (budget)"),
            stats.dropped_matchers.end())
      << "the 5ms matcher must be dropped for blowing its budget";
}

TEST(SearchDegradationTest, AllMatchersFailingStillReturnsRankedResults) {
  EngineFixture f = MakeEngineFixture();
  MatcherEnsemble ensemble;
  ensemble.AddMatcher(std::make_unique<ThrowingMatcher>(), 1.0);
  SearchEngine engine(f.repo.get(), &f.indexer->index(), std::move(ensemble));

  SearchStats stats;
  SearchEngineOptions options;
  options.stats = &stats;
  auto results =
      engine.SearchKeywords("patient height gender diagnosis", options);
  ASSERT_TRUE(results.ok()) << results.status();
  ASSERT_EQ(results->size(), 2u);
  EXPECT_TRUE(stats.degraded);
  EXPECT_EQ(stats.dropped_matchers.size(), 1u);
  EXPECT_GE(stats.coarse_only_candidates, 1u)
      << "with every matcher benched the pool falls back to coarse scores";
  // The coarse ranking still orders results deterministically.
  EXPECT_GE((*results)[0].score, (*results)[1].score);
}

}  // namespace
}  // namespace schemr
