// Tests for the inverted index, TF/IDF searcher (incl. coordination
// factor and proximity boost), segment persistence, and the offline
// indexer.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "index/indexer.h"
#include "index/inverted_index.h"
#include "index/searcher.h"
#include "schema/schema_builder.h"

namespace schemr {
namespace {

namespace fs = std::filesystem;

Document MakeDoc(uint64_t id, std::string title,
                 std::vector<std::string> body, std::string summary = "") {
  Document doc;
  doc.external_id = id;
  doc.title = std::move(title);
  doc.summary = std::move(summary);
  doc.body = std::move(body);
  return doc;
}

// --- inverted index ------------------------------------------------------------

TEST(InvertedIndexTest, AddAndLookup) {
  InvertedIndex index;
  ASSERT_TRUE(index.AddDocument(
      MakeDoc(1, "clinic", {"patient height", "patient gender"})).ok());
  EXPECT_EQ(index.NumDocs(), 1u);

  const std::vector<Posting>* postings =
      index.GetPostings(Field::kBody, "patient");
  ASSERT_NE(postings, nullptr);
  ASSERT_EQ(postings->size(), 1u);
  EXPECT_EQ((*postings)[0].tf, 2u);
  EXPECT_EQ((*postings)[0].positions.size(), 2u);

  // Title indexed separately.
  EXPECT_NE(index.GetPostings(Field::kTitle, "clinic"), nullptr);
  EXPECT_EQ(index.GetPostings(Field::kBody, "clinic"), nullptr);
  EXPECT_EQ(index.GetPostings(Field::kBody, "absent"), nullptr);
}

TEST(InvertedIndexTest, AnalyzerAppliedToFields) {
  InvertedIndex index;  // default analyzer: lowercase, stopwords, stem
  ASSERT_TRUE(index.AddDocument(
      MakeDoc(1, "The Patients", {"dateOfBirth"})).ok());
  EXPECT_NE(index.GetPostings(Field::kTitle, "patient"), nullptr);
  EXPECT_EQ(index.GetPostings(Field::kTitle, "the"), nullptr);  // stopword
  EXPECT_NE(index.GetPostings(Field::kBody, "date"), nullptr);
  EXPECT_NE(index.GetPostings(Field::kBody, "birth"), nullptr);
}

TEST(InvertedIndexTest, DuplicateExternalIdRejected) {
  InvertedIndex index;
  ASSERT_TRUE(index.AddDocument(MakeDoc(5, "a", {"x"})).ok());
  EXPECT_EQ(index.AddDocument(MakeDoc(5, "b", {"y"})).code(),
            StatusCode::kAlreadyExists);
}

TEST(InvertedIndexTest, RemoveTombstonesAndVacuum) {
  InvertedIndex index;
  ASSERT_TRUE(index.AddDocument(MakeDoc(1, "a", {"shared term"})).ok());
  ASSERT_TRUE(index.AddDocument(MakeDoc(2, "b", {"shared term"})).ok());
  ASSERT_TRUE(index.RemoveDocument(1).ok());
  EXPECT_TRUE(index.RemoveDocument(1).IsNotFound());  // already gone
  EXPECT_TRUE(index.RemoveDocument(99).IsNotFound());
  EXPECT_EQ(index.NumDocs(), 1u);
  EXPECT_FALSE(index.ContainsDocument(1));
  EXPECT_TRUE(index.ContainsDocument(2));

  // Searches skip the tombstone.
  Searcher searcher(&index);
  std::vector<ScoredDoc> hits = searcher.Search("shared");
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].external_id, 2u);

  // Vacuum drops the slot and reassigns ordinals.
  index.Vacuum();
  EXPECT_EQ(index.TotalDocSlots(), 1u);
  hits = searcher.Search("shared");
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].external_id, 2u);
}

TEST(InvertedIndexTest, FieldLengthsTracked) {
  InvertedIndex index;
  ASSERT_TRUE(index.AddDocument(MakeDoc(1, "two words", {"aa bb cc", "dd ee"},
                                        "summary text here")).ok());
  const DocInfo& info = index.doc_info(0);
  EXPECT_EQ(info.field_lengths[static_cast<size_t>(Field::kTitle)], 2u);
  EXPECT_EQ(info.field_lengths[static_cast<size_t>(Field::kSummary)], 3u);
  EXPECT_EQ(info.field_lengths[static_cast<size_t>(Field::kBody)], 5u);
}

// --- searcher -------------------------------------------------------------------

InvertedIndex MakeClinicCorpus() {
  InvertedIndex index;
  EXPECT_TRUE(index.AddDocument(MakeDoc(
      1, "clinic", {"patient height", "patient gender", "case diagnosis"},
      "rural clinic visits")).ok());
  EXPECT_TRUE(index.AddDocument(MakeDoc(
      2, "shop", {"customer name", "order total", "product price"})).ok());
  EXPECT_TRUE(index.AddDocument(MakeDoc(
      3, "hospital", {"patient name", "ward number"})).ok());
  return index;
}

TEST(SearcherTest, RanksByRelevance) {
  InvertedIndex index = MakeClinicCorpus();
  Searcher searcher(&index);
  std::vector<ScoredDoc> hits =
      searcher.Search("patient height gender diagnosis");
  ASSERT_EQ(hits.size(), 2u);  // shop matches nothing
  EXPECT_EQ(hits[0].external_id, 1u);
  EXPECT_EQ(hits[1].external_id, 3u);
  EXPECT_GT(hits[0].score, hits[1].score);
  EXPECT_EQ(hits[0].matched_terms, 4u);
  EXPECT_EQ(hits[1].matched_terms, 1u);
}

TEST(SearcherTest, NoConjunctiveRequirement) {
  // "the candidate extraction algorithm need not match all search terms"
  InvertedIndex index = MakeClinicCorpus();
  Searcher searcher(&index);
  std::vector<ScoredDoc> hits = searcher.Search("patient zzzunknown");
  EXPECT_EQ(hits.size(), 2u);  // docs 1 and 3 despite missing term
}

TEST(SearcherTest, CoordinationFactorScalesByMatchedFraction) {
  InvertedIndex index;
  // doc 1 matches one of two query terms; doc 2 matches both.
  ASSERT_TRUE(index.AddDocument(MakeDoc(1, "", {"alpha gamma"})).ok());
  ASSERT_TRUE(index.AddDocument(MakeDoc(2, "", {"alpha beta"})).ok());
  Searcher searcher(&index);

  auto score_of = [&searcher](uint64_t id, bool coord) {
    SearchOptions options;
    options.use_coordination_factor = coord;
    for (const ScoredDoc& hit : searcher.Search("alpha beta", options)) {
      if (hit.external_id == id) return hit.score;
    }
    return -1.0;
  };

  // coord = matched/query terms: halves doc 1's score, leaves doc 2's.
  EXPECT_NEAR(score_of(1, true), 0.5 * score_of(1, false), 1e-12);
  EXPECT_NEAR(score_of(2, true), score_of(2, false), 1e-12);

  // And the full-match doc ranks first with coordination on.
  SearchOptions with_coord;
  std::vector<ScoredDoc> hits = searcher.Search("alpha beta", with_coord);
  ASSERT_EQ(hits.size(), 2u);
  EXPECT_EQ(hits[0].external_id, 2u);
}

TEST(SearcherTest, IdfFavorsRareTerms) {
  InvertedIndex index;
  // "common" in all docs; "rare" only in doc 3.
  for (uint64_t id = 1; id <= 3; ++id) {
    std::vector<std::string> body = {"common token"};
    if (id == 3) body.push_back("rare token");
    ASSERT_TRUE(index.AddDocument(MakeDoc(id, "", body)).ok());
  }
  Searcher searcher(&index);
  std::vector<ScoredDoc> hits = searcher.Search("rare common");
  ASSERT_GE(hits.size(), 3u);
  EXPECT_EQ(hits[0].external_id, 3u);
}

TEST(SearcherTest, TitleBoostOutweighsBody) {
  InvertedIndex index;
  ASSERT_TRUE(index.AddDocument(MakeDoc(1, "patient", {"other stuff"})).ok());
  ASSERT_TRUE(index.AddDocument(MakeDoc(2, "other", {"patient stuff"})).ok());
  Searcher searcher(&index);
  std::vector<ScoredDoc> hits = searcher.Search("patient");
  ASSERT_EQ(hits.size(), 2u);
  EXPECT_EQ(hits[0].external_id, 1u);
}

TEST(SearcherTest, LengthNormalizationFavorsConciseDocs) {
  InvertedIndex index;
  ASSERT_TRUE(index.AddDocument(MakeDoc(1, "", {"patient data"})).ok());
  std::vector<std::string> long_body = {"patient data"};
  for (int i = 0; i < 30; ++i) long_body.push_back("filler term number");
  ASSERT_TRUE(index.AddDocument(MakeDoc(2, "", long_body)).ok());
  Searcher searcher(&index);
  std::vector<ScoredDoc> hits = searcher.Search("patient");
  ASSERT_EQ(hits.size(), 2u);
  EXPECT_EQ(hits[0].external_id, 1u);
}

TEST(SearcherTest, TopNTruncatesDeterministically) {
  InvertedIndex index;
  for (uint64_t id = 1; id <= 20; ++id) {
    ASSERT_TRUE(index.AddDocument(MakeDoc(id, "", {"same text"})).ok());
  }
  Searcher searcher(&index);
  SearchOptions options;
  options.top_n = 5;
  std::vector<ScoredDoc> hits = searcher.Search("same", options);
  ASSERT_EQ(hits.size(), 5u);
  // Equal scores tie-break by ascending external id.
  for (size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].external_id, i + 1);
  }
}

TEST(SearcherTest, EmptyQueryAndEmptyIndex) {
  InvertedIndex empty_index;
  Searcher empty_searcher(&empty_index);
  EXPECT_TRUE(empty_searcher.Search("anything").empty());

  InvertedIndex index = MakeClinicCorpus();
  Searcher searcher(&index);
  EXPECT_TRUE(searcher.Search("").empty());
  EXPECT_TRUE(searcher.SearchTerms({}).empty());
}

TEST(SearcherTest, ProximityBoostPrefersAdjacentTerms) {
  InvertedIndex index;
  // Both docs contain both terms in equal-length bodies; in doc 1 they are
  // adjacent, in doc 2 they are far apart.
  std::vector<std::string> near_body = {"patient height", "aa bb cc dd ee"};
  std::vector<std::string> far_body = {"patient aa", "bb cc dd ee height"};
  ASSERT_TRUE(index.AddDocument(MakeDoc(1, "", near_body)).ok());
  ASSERT_TRUE(index.AddDocument(MakeDoc(2, "", far_body)).ok());
  Searcher searcher(&index);
  SearchOptions options;
  options.proximity_boost = 1.0;
  std::vector<ScoredDoc> hits = searcher.Search("patient height", options);
  ASSERT_EQ(hits.size(), 2u);
  EXPECT_EQ(hits[0].external_id, 1u);
  EXPECT_GT(hits[0].score, hits[1].score);
}

// --- persistence ----------------------------------------------------------------

TEST(IndexPersistenceTest, SaveLoadRoundTrip) {
  fs::path path = fs::temp_directory_path() / "schemr_index_test.idx";
  InvertedIndex index = MakeClinicCorpus();
  ASSERT_TRUE(index.RemoveDocument(2).ok());  // include a tombstone
  ASSERT_TRUE(index.Save(path.string()).ok());

  auto loaded = InvertedIndex::Load(path.string());
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded->NumDocs(), index.NumDocs());
  EXPECT_EQ(loaded->NumTerms(), index.NumTerms());
  EXPECT_EQ(loaded->analyzer().options(), index.analyzer().options());

  // Identical search results.
  Searcher original(&index), restored(&*loaded);
  auto a = original.Search("patient height gender diagnosis");
  auto b = restored.Search("patient height gender diagnosis");
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].external_id, b[i].external_id);
    EXPECT_DOUBLE_EQ(a[i].score, b[i].score);
  }
  fs::remove(path);
}

TEST(IndexPersistenceTest, PositionsSurviveCopyAndSaveLoad) {
  // One posting with a single position and one with five: a posting
  // stores up to three positions itself and longer lists on the heap.
  InvertedIndex index;
  ASSERT_TRUE(index.AddDocument(MakeDoc(1, "one", {"patient"})).ok());
  ASSERT_TRUE(index.AddDocument(
      MakeDoc(2, "five", {"patient patient patient patient patient"})).ok());
  auto positions_of = [](const InvertedIndex& in) {
    std::vector<std::vector<uint32_t>> out;
    for (const Posting& p : *in.GetPostings(Field::kBody, "patient")) {
      EXPECT_EQ(p.positions.size(), p.tf);
      out.emplace_back(p.positions.begin(), p.positions.end());
    }
    return out;
  };
  const std::vector<std::vector<uint32_t>> original = positions_of(index);
  ASSERT_EQ(original.size(), 2u);
  EXPECT_EQ(original[0].size(), 1u);
  ASSERT_EQ(original[1].size(), 5u);
  for (size_t i = 1; i < original[1].size(); ++i) {
    EXPECT_LT(original[1][i - 1], original[1][i]);
  }

  const InvertedIndex copy(index);
  EXPECT_EQ(positions_of(copy), original);

  fs::path path = fs::temp_directory_path() / "schemr_index_positions.idx";
  ASSERT_TRUE(index.Save(path.string()).ok());
  auto loaded = InvertedIndex::Load(path.string());
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(positions_of(*loaded), original);
  fs::remove(path);
}

TEST(IndexPersistenceTest, CorruptionDetected) {
  fs::path path = fs::temp_directory_path() / "schemr_index_corrupt.idx";
  InvertedIndex index = MakeClinicCorpus();
  ASSERT_TRUE(index.Save(path.string()).ok());

  // Flip a middle byte: the CRC footer must catch it.
  {
    std::fstream file(path, std::ios::in | std::ios::out | std::ios::binary);
    file.seekp(30);
    int c = file.get();
    file.seekp(30);
    file.put(static_cast<char>(c ^ 0x40));
  }
  EXPECT_TRUE(InvertedIndex::Load(path.string()).status().IsCorruption());

  // Truncations caught too.
  ASSERT_TRUE(index.Save(path.string()).ok());
  fs::resize_file(path, fs::file_size(path) / 2);
  EXPECT_FALSE(InvertedIndex::Load(path.string()).ok());
  fs::remove(path);
  EXPECT_FALSE(InvertedIndex::Load(path.string()).ok());  // missing file
}

// --- offline indexer -----------------------------------------------------------------

TEST(IndexerTest, FlattenSchemaCarriesEntityContext) {
  Schema schema = SchemaBuilder("clinic")
                      .Description("visit tracking")
                      .Entity("patient")
                      .Doc("a person under care")
                      .Attribute("height", DataType::kDouble)
                      .Build();
  schema.set_id(42);
  Document doc = FlattenSchema(schema);
  EXPECT_EQ(doc.external_id, 42u);
  EXPECT_EQ(doc.title, "clinic");
  // Element documentation folded into the summary.
  EXPECT_NE(doc.summary.find("visit tracking"), std::string::npos);
  EXPECT_NE(doc.summary.find("a person under care"), std::string::npos);
  // Attributes carry their entity name for proximity.
  ASSERT_EQ(doc.body.size(), 2u);
  EXPECT_EQ(doc.body[0], "patient");
  EXPECT_EQ(doc.body[1], "patient height");
}

TEST(IndexerTest, RebuildAndRefresh) {
  auto repo = SchemaRepository::OpenInMemory();
  SchemaId id1 = *repo->Insert(SchemaBuilder("one")
                                   .Entity("alpha")
                                   .Attribute("x")
                                   .Build());
  Indexer indexer;
  auto stats = indexer.RebuildFromRepository(*repo);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->schemas_indexed, 1u);
  EXPECT_TRUE(indexer.index().ContainsDocument(id1));

  // Refresh picks up inserts and removals.
  SchemaId id2 = *repo->Insert(SchemaBuilder("two")
                                   .Entity("beta")
                                   .Attribute("y")
                                   .Build());
  ASSERT_TRUE(repo->Remove(id1).ok());
  auto refresh = indexer.Refresh(*repo);
  ASSERT_TRUE(refresh.ok());
  EXPECT_EQ(refresh->schemas_indexed, 1u);
  EXPECT_EQ(refresh->schemas_removed, 1u);
  EXPECT_FALSE(indexer.index().ContainsDocument(id1));
  EXPECT_TRUE(indexer.index().ContainsDocument(id2));
  // Refresh vacuums: no tombstone slots remain.
  EXPECT_EQ(indexer.index().TotalDocSlots(), indexer.index().NumDocs());
}

TEST(IndexerTest, IndexSchemaReplacesPrevious) {
  auto repo = SchemaRepository::OpenInMemory();
  Schema schema = SchemaBuilder("replace_me")
                      .Entity("old_entity")
                      .Attribute("old_attr")
                      .Build();
  SchemaId id = *repo->Insert(schema);
  Indexer indexer;
  ASSERT_TRUE(indexer.RebuildFromRepository(*repo).ok());

  Schema updated = *repo->Get(id);
  updated.mutable_element(0)->name = "brand_new_entity";
  updated.mutable_element(1)->name = "fresh_attr";
  ASSERT_TRUE(indexer.IndexSchema(updated).ok());

  Searcher searcher(&indexer.index());
  // "old" only occurred in the replaced version ("entity" is shared by
  // both versions, so probe the distinguishing term).
  EXPECT_TRUE(searcher.Search("old").empty());
  ASSERT_EQ(searcher.Search("brand").size(), 1u);
  EXPECT_EQ(searcher.Search("brand")[0].external_id, id);
}

}  // namespace
}  // namespace schemr
