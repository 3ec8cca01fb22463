// Tests for the Applications-section extensions: element-mapping capture,
// collaboration annotations (comments/ratings/usage) with their ranking
// boost, the design-suggestion composer, and XSD export.

#include <gtest/gtest.h>

#include <filesystem>

#include "core/composer.h"
#include "core/search_engine.h"
#include "core/serving_corpus.h"
#include "match/ensemble.h"
#include "match/mapping.h"
#include "parse/xsd_importer.h"
#include "parse/xsd_writer.h"
#include "repo/schema_repository.h"
#include "schema/schema_builder.h"
#include "service/schemr_service.h"

namespace schemr {
namespace {

namespace fs = std::filesystem;

// --- mapping extraction ----------------------------------------------------------

TEST(MappingTest, MutualBestIsOneToOne) {
  SimilarityMatrix m(2, 3);
  m.set(0, 0, 0.9);
  m.set(0, 1, 0.6);
  m.set(1, 1, 0.8);
  m.set(1, 2, 0.4);
  std::vector<ElementCorrespondence> mapping = ExtractMapping(m);
  ASSERT_EQ(mapping.size(), 2u);
  EXPECT_EQ(mapping[0].query_element, 0u);
  EXPECT_EQ(mapping[0].candidate_element, 0u);
  EXPECT_EQ(mapping[1].query_element, 1u);
  EXPECT_EQ(mapping[1].candidate_element, 1u);
}

TEST(MappingTest, ContestedColumnKeepsOnlyMutualBest) {
  // Both query elements prefer candidate 0; only the stronger pair is
  // mutual-best, the weaker row maps nowhere.
  SimilarityMatrix m(2, 2);
  m.set(0, 0, 0.9);
  m.set(1, 0, 0.8);
  m.set(1, 1, 0.1);
  std::vector<ElementCorrespondence> mapping = ExtractMapping(m);
  ASSERT_EQ(mapping.size(), 1u);
  EXPECT_EQ(mapping[0].query_element, 0u);

  // Greedy extraction instead assigns the second-best pair too when it
  // clears the threshold.
  MappingOptions greedy;
  greedy.require_mutual_best = false;
  greedy.min_score = 0.05;
  mapping = ExtractMapping(m, greedy);
  ASSERT_EQ(mapping.size(), 2u);
  EXPECT_EQ(mapping[1].candidate_element, 1u);
}

TEST(MappingTest, ThresholdAndEmptyInputs) {
  SimilarityMatrix m(1, 1);
  m.set(0, 0, 0.3);
  EXPECT_TRUE(ExtractMapping(m).empty());  // below default 0.5
  MappingOptions loose;
  loose.min_score = 0.2;
  EXPECT_EQ(ExtractMapping(m, loose).size(), 1u);
  EXPECT_TRUE(ExtractMapping(SimilarityMatrix()).empty());
}

TEST(MappingTest, EndToEndWithEnsembleAndFormat) {
  Schema query = SchemaBuilder("q")
                     .Entity("patient")
                     .Attribute("height", DataType::kDouble)
                     .Attribute("gender")
                     .Build();
  Schema candidate = SchemaBuilder("c")
                         .Entity("pat")
                         .Attribute("ht", DataType::kDouble)
                         .Attribute("sex")
                         .Attribute("unrelated_thing")
                         .Build();
  MatcherEnsemble ensemble = MatcherEnsemble::Default();
  SimilarityMatrix m = ensemble.MatchCombined(query, candidate);
  MappingOptions options;
  options.min_score = 0.3;
  std::vector<ElementCorrespondence> mapping = ExtractMapping(m, options);
  ASSERT_GE(mapping.size(), 2u);  // patient↔pat and height↔ht at least
  std::string rendered = FormatMapping(mapping, query, candidate);
  EXPECT_NE(rendered.find("->"), std::string::npos);
  EXPECT_NE(rendered.find("patient"), std::string::npos);
}

// --- annotations --------------------------------------------------------------------

Schema SimpleSchema(const std::string& name) {
  return SchemaBuilder(name).Entity("e").Attribute("a").Build();
}

void RunAnnotationContract(SchemaRepository* repo) {
  SchemaId id = *repo->Insert(SimpleSchema("annotated"));

  // Comments append in order.
  EXPECT_TRUE(repo->GetComments(id)->empty());
  ASSERT_TRUE(repo->AddComment(id, {"ada", "great schema", 100}).ok());
  ASSERT_TRUE(repo->AddComment(id, {"bob", "needs a date column", 200}).ok());
  auto comments = repo->GetComments(id);
  ASSERT_TRUE(comments.ok());
  ASSERT_EQ(comments->size(), 2u);
  EXPECT_EQ((*comments)[0].author, "ada");
  EXPECT_EQ((*comments)[1].text, "needs a date column");
  EXPECT_EQ((*comments)[1].timestamp, 200u);

  // Ratings: average, and re-rating replaces.
  EXPECT_EQ(repo->GetRatingSummary(id)->num_ratings, 0u);
  ASSERT_TRUE(repo->AddRating(id, {"ada", 5}).ok());
  ASSERT_TRUE(repo->AddRating(id, {"bob", 3}).ok());
  auto summary = repo->GetRatingSummary(id);
  EXPECT_EQ(summary->num_ratings, 2u);
  EXPECT_DOUBLE_EQ(summary->average, 4.0);
  ASSERT_TRUE(repo->AddRating(id, {"bob", 5}).ok());
  EXPECT_DOUBLE_EQ(repo->GetRatingSummary(id)->average, 5.0);
  EXPECT_FALSE(repo->AddRating(id, {"eve", 0}).ok());
  EXPECT_FALSE(repo->AddRating(id, {"eve", 6}).ok());

  // Usage counter.
  EXPECT_EQ(*repo->GetUsageCount(id), 0u);
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(repo->RecordUsage(id).ok());
  EXPECT_EQ(*repo->GetUsageCount(id), 3u);

  // Annotations on unknown schemas are rejected.
  EXPECT_TRUE(repo->AddComment(999, {"x", "y", 1}).IsNotFound());
  EXPECT_TRUE(repo->AddRating(999, {"x", 3}).IsNotFound());
  EXPECT_TRUE(repo->RecordUsage(999).IsNotFound());
}

TEST(AnnotationsTest, InMemoryContract) {
  auto repo = SchemaRepository::OpenInMemory();
  RunAnnotationContract(repo.get());
}

TEST(AnnotationsTest, PersistentContractAndDurability) {
  fs::path dir = fs::temp_directory_path() / "schemr_annotations_test";
  fs::remove_all(dir);
  SchemaId id = kNoSchema;
  {
    auto repo = *SchemaRepository::Open(dir.string());
    RunAnnotationContract(repo.get());
    id = *repo->Insert(SimpleSchema("durable"));
    ASSERT_TRUE(repo->AddComment(id, {"ada", "persisted", 42}).ok());
    ASSERT_TRUE(repo->AddRating(id, {"ada", 4}).ok());
    ASSERT_TRUE(repo->RecordUsage(id).ok());
  }
  {
    auto repo = *SchemaRepository::Open(dir.string());
    EXPECT_EQ((*repo->GetComments(id))[0].text, "persisted");
    EXPECT_DOUBLE_EQ(repo->GetRatingSummary(id)->average, 4.0);
    EXPECT_EQ(*repo->GetUsageCount(id), 1u);
  }
  fs::remove_all(dir);
}

TEST(AnnotationsTest, CodecRoundTripAndCorruption) {
  std::vector<SchemaComment> comments = {{"a", "text one", 1},
                                         {"b", "", 1234567890}};
  auto decoded = DecodeComments(EncodeComments(comments));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(*decoded, comments);
  EXPECT_FALSE(DecodeComments("garbage!").ok());

  std::vector<SchemaRating> ratings = {{"a", 5}, {"b", 1}};
  auto decoded_ratings = DecodeRatings(EncodeRatings(ratings));
  ASSERT_TRUE(decoded_ratings.ok());
  EXPECT_EQ(*decoded_ratings, ratings);
  std::string bad = EncodeRatings(ratings);
  bad.back() = 9;  // stars out of range
  EXPECT_TRUE(DecodeRatings(bad).status().IsCorruption());
}

TEST(AnnotationsTest, BoostLiftsEndorsedSchemas) {
  auto repo = SchemaRepository::OpenInMemory();
  // Two near-identical schemas; one is highly rated and heavily used.
  SchemaId plain = *repo->Insert(SchemaBuilder("patient_data_a")
                                     .Entity("patient")
                                     .Attribute("height")
                                     .Attribute("gender")
                                     .Build());
  SchemaId endorsed = *repo->Insert(SchemaBuilder("patient_data_b")
                                        .Entity("patient")
                                        .Attribute("height")
                                        .Attribute("gender")
                                        .Build());
  ASSERT_TRUE(repo->AddRating(endorsed, {"ada", 5}).ok());
  ASSERT_TRUE(repo->AddRating(endorsed, {"bob", 5}).ok());
  for (int i = 0; i < 50; ++i) ASSERT_TRUE(repo->RecordUsage(endorsed).ok());

  auto corpus = ServingCorpus::Create(std::move(repo));
  ASSERT_TRUE(corpus.ok()) << corpus.status();
  SearchEngine engine(corpus->get());

  SearchEngineOptions boosted;
  boosted.annotation_boost = 0.5;
  auto results = engine.SearchKeywords("patient height gender", boosted);
  ASSERT_TRUE(results.ok());
  ASSERT_EQ(results->size(), 2u);
  EXPECT_EQ((*results)[0].schema_id, endorsed);
  EXPECT_GT((*results)[0].score, (*results)[1].score);

  // Without the boost the tie falls back to id order (plain first).
  auto plain_results = engine.SearchKeywords("patient height gender");
  ASSERT_TRUE(plain_results.ok());
  EXPECT_EQ((*plain_results)[0].schema_id, plain);

  // The same through a pinned service: the service's repository answers
  // the annotation reads.
  SchemrService pinned((*corpus)->repository(), (*corpus)->Snapshot());
  SearchRequest request;
  request.keywords = "patient height gender";
  auto served = pinned.Search(request, boosted);
  ASSERT_TRUE(served.ok()) << served.status();
  ASSERT_EQ(served->size(), 2u);
  EXPECT_EQ((*served)[0].schema_id, endorsed);
  EXPECT_EQ((*served)[0].score, (*results)[0].score);
}

TEST(AnnotationsTest, BoostWithoutAnnotationRepositoryIsInvalidArgument) {
  auto repo = SchemaRepository::OpenInMemory();
  ASSERT_TRUE(repo->Insert(SchemaBuilder("patient_data")
                               .Entity("patient")
                               .Attribute("height")
                               .Build())
                  .ok());
  auto corpus = ServingCorpus::Create(std::move(repo));
  ASSERT_TRUE(corpus.ok()) << corpus.status();
  const SearchEngine engine((*corpus)->Snapshot());  // no annotation repository

  SearchEngineOptions boosted;
  boosted.annotation_boost = 0.5;
  auto refused = engine.SearchKeywords("patient height", boosted);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(engine.SearchKeywords("patient height").ok());
}

// --- composer --------------------------------------------------------------------------

TEST(ComposerTest, SuggestsUncoveredAnchorAttributesFirst) {
  // Draft covers height+gender of patient; result schema has more patient
  // attributes and an unrelated billing entity.
  Schema draft = SchemaBuilder("draft")
                     .Entity("patient")
                     .Attribute("height", DataType::kDouble)
                     .Attribute("gender")
                     .Build();
  Schema result = SchemaBuilder("result")
                      .Entity("patient")
                      .Attribute("height", DataType::kDouble)
                      .Attribute("gender")
                      .Attribute("date_of_birth", DataType::kDate)
                      .Attribute("blood_type")
                      .Entity("billing")
                      .Attribute("invoice_number")
                      .Build();
  MatcherEnsemble ensemble = MatcherEnsemble::Default();
  ElementId anchor = *result.FindByName("patient", ElementKind::kEntity);
  std::vector<ExtensionSuggestion> suggestions =
      SuggestExtensionsForResult(draft, result, ensemble, anchor);

  ASSERT_GE(suggestions.size(), 3u);
  // Covered attributes are not suggested.
  for (const ExtensionSuggestion& s : suggestions) {
    EXPECT_NE(s.name, "height");
    EXPECT_NE(s.name, "gender");
  }
  // Anchor-entity attributes outrank the unrelated billing attribute.
  std::vector<std::string> names;
  for (const ExtensionSuggestion& s : suggestions) names.push_back(s.name);
  auto pos = [&names](const std::string& n) {
    return std::find(names.begin(), names.end(), n) - names.begin();
  };
  EXPECT_LT(pos("date_of_birth"), pos("invoice_number"));
  EXPECT_LT(pos("blood_type"), pos("invoice_number"));
  // Provenance paths point into the result schema.
  EXPECT_EQ(suggestions[0].source_path.rfind("patient.", 0), 0u);
}

TEST(ComposerTest, ApplySuggestionGrowsDraft) {
  Schema draft = SchemaBuilder("draft")
                     .Entity("patient")
                     .Attribute("height", DataType::kDouble)
                     .Build();
  ElementId entity = *draft.FindByName("patient", ElementKind::kEntity);
  ExtensionSuggestion suggestion;
  suggestion.name = "date_of_birth";
  suggestion.type = DataType::kDate;
  auto added = ApplySuggestion(&draft, entity, suggestion);
  ASSERT_TRUE(added.ok());
  EXPECT_EQ(draft.element(*added).name, "date_of_birth");
  EXPECT_EQ(draft.element(*added).type, DataType::kDate);
  EXPECT_TRUE(draft.Validate().ok());
  // Duplicate applications are rejected.
  EXPECT_EQ(ApplySuggestion(&draft, entity, suggestion).status().code(),
            StatusCode::kAlreadyExists);
  // Non-entity target rejected.
  EXPECT_FALSE(ApplySuggestion(&draft, *added, suggestion).ok());
}

TEST(ComposerTest, MismatchedMatrixYieldsNothing) {
  Schema result = SimpleSchema("r");
  SimilarityMatrix wrong(1, 99);
  EXPECT_TRUE(SuggestExtensions(result, wrong, kNoElement).empty());
}

// --- XSD export -----------------------------------------------------------------------

TEST(XsdWriterTest, RoundTripsThroughImporter) {
  Schema original = SchemaBuilder("export")
                        .Entity("observation")
                        .Doc("a field sighting")
                        .Attribute("site")
                        .Attribute("count", DataType::kInt32)
                        .NotNull()
                        .Attribute("observed_at", DataType::kDateTime)
                        .NestedEntity("detail")
                        .Attribute("weather")
                        .End()
                        .Build();
  std::string xsd = WriteXsd(original);
  auto round = ParseXsd(xsd, "export");
  ASSERT_TRUE(round.ok()) << round.status() << "\n" << xsd;
  EXPECT_EQ(round->NumEntities(), original.NumEntities());
  EXPECT_EQ(round->NumAttributes(), original.NumAttributes());
  for (ElementId i = 0; i < original.size(); ++i) {
    EXPECT_EQ(round->element(i).name, original.element(i).name);
    EXPECT_EQ(round->element(i).kind, original.element(i).kind);
    EXPECT_EQ(round->element(i).nullable, original.element(i).nullable)
        << original.element(i).name;
  }
  // Documentation survives.
  auto obs = round->FindByName("observation", ElementKind::kEntity);
  ASSERT_TRUE(obs.has_value());
  EXPECT_EQ(round->element(*obs).documentation, "a field sighting");
}

TEST(XsdWriterTest, TypeMappingRoundTrips) {
  for (int t = 0; t <= static_cast<int>(DataType::kBinary); ++t) {
    DataType type = static_cast<DataType>(t);
    DataType round = XsdTypeToDataType(DataTypeToXsdType(type));
    if (type == DataType::kNone || type == DataType::kText) {
      EXPECT_EQ(round, DataType::kString);
    } else {
      EXPECT_EQ(round, type) << DataTypeName(type);
    }
  }
}

}  // namespace
}  // namespace schemr
