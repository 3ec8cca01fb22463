// Tests for the signature pre-filter and columnar match features
// (DESIGN.md §16): packed-profile bit-identity with the legacy n-gram
// path, prepared-matcher bit-identity with the per-candidate path, the
// engine's exact-mode equivalence at any thread count, the approximate
// pre-filter's accounting, signature persistence (round-trip, corruption
// detection, rebuild), and the serving corpus's catalog publication.

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "core/query_parser.h"
#include "core/result_cache.h"
#include "core/search_engine.h"
#include "core/serving_corpus.h"
#include "corpus/schema_generator.h"
#include "index/indexer.h"
#include "match/context_matcher.h"
#include "match/ensemble.h"
#include "match/features.h"
#include "match/signature.h"
#include "obs/replay.h"
#include "parse/ddl_writer.h"
#include "repo/schema_repository.h"
#include "schema/schema_builder.h"
#include "text/ngram.h"
#include "util/timer.h"

namespace schemr {
namespace {

namespace fs = std::filesystem;

Schema Clinic() {
  return SchemaBuilder("clinic")
      .Entity("patient")
      .Attribute("height", DataType::kDouble)
      .Attribute("gender", DataType::kString)
      .Attribute("date_of_birth", DataType::kDate)
      .Entity("visit")
      .Attribute("diagnosis")
      .Attribute("patient_id", DataType::kInt64)
      .Build();
}

Schema Shop() {
  return SchemaBuilder("shop")
      .Entity("customer")
      .Attribute("name")
      .Attribute("email")
      .Entity("order")
      .Attribute("total", DataType::kDecimal)
      .Build();
}

/// A small but diverse generated corpus: abbreviation noise, dropped
/// attributes, shared concepts — exactly the shapes the matchers were
/// built for.
std::vector<Schema> SmallCorpus(size_t n, uint64_t seed = 11) {
  CorpusOptions options;
  options.num_schemas = n;
  options.seed = seed;
  std::vector<Schema> schemas;
  for (GeneratedSchema& g : GenerateCorpus(options)) {
    schemas.push_back(std::move(g.schema));
  }
  return schemas;
}

// --- packed profiles --------------------------------------------------------------

TEST(PackedProfileTest, PackedDiceBitIdenticalToLegacyDice) {
  // Mix of short words (pack fully), long words (overflow strings), and
  // repeated grams (multiset counts matter).
  const std::vector<std::string> words = {
      "pat",      "patient",   "patientrecord", "dateofbirth",
      "aaaabbbb", "banana",    "bananabanana",  "x",
      "height",   "heightcm",  "customerorder", "ht"};
  for (const std::string& a : words) {
    for (const std::string& b : words) {
      NgramProfile pa = BuildNgramProfile(a, 2, 4);
      NgramProfile pb = BuildNgramProfile(b, 2, 4);
      PackedProfile qa = PackProfile(pa);
      PackedProfile qb = PackProfile(pb);
      // Bit-identical, not approximately equal: the packing is bijective,
      // so the Dice expression evaluates on the same integers.
      EXPECT_EQ(PackedDice(qa, qb), DiceSimilarity(pa, pb))
          << "words: " << a << " vs " << b;
    }
  }
}

// --- signatures -------------------------------------------------------------------

TEST(SignatureTest, DeterministicAndSelfSimilar) {
  FeatureBuildOptions options;
  auto a1 = BuildSchemaFeatures(Clinic(), options);
  auto a2 = BuildSchemaFeatures(Clinic(), options);
  ComputeSignature(a1.get(), nullptr);
  ComputeSignature(a2.get(), nullptr);
  EXPECT_TRUE(a1->signature == a2->signature);
  EXPECT_EQ(a1->content_hash, a2->content_hash);
  EXPECT_DOUBLE_EQ(EstimatedSimilarity(a1->signature, a2->signature), 1.0);

  auto b = BuildSchemaFeatures(Shop(), options);
  ComputeSignature(b.get(), nullptr);
  EXPECT_NE(a1->content_hash, b->content_hash);
  EXPECT_LT(EstimatedSimilarity(a1->signature, b->signature), 1.0);
}

TEST(SignatureTest, RelatedSchemasScoreAboveUnrelated) {
  FeatureBuildOptions options;
  // clinic vs a near-duplicate clinic must beat clinic vs shop.
  Schema near = SchemaBuilder("clinic2")
                    .Entity("patient")
                    .Attribute("height", DataType::kDouble)
                    .Attribute("gender", DataType::kString)
                    .Entity("visit")
                    .Attribute("diagnosis")
                    .Build();
  auto fa = BuildSchemaFeatures(Clinic(), options);
  auto fb = BuildSchemaFeatures(near, options);
  auto fc = BuildSchemaFeatures(Shop(), options);
  ComputeSignature(fa.get(), nullptr);
  ComputeSignature(fb.get(), nullptr);
  ComputeSignature(fc.get(), nullptr);
  EXPECT_GT(EstimatedSimilarity(fa->signature, fb->signature),
            EstimatedSimilarity(fa->signature, fc->signature));
}

/// Digest of every signature byte of a fixed generated corpus, in id
/// order: IDF-weighted through a full catalog build, and unweighted
/// through standalone feature builds.
uint64_t SignatureDigest(const std::vector<Schema>& schemas,
                         const MatchFeatureCatalog& catalog) {
  uint64_t digest = 0;
  auto fold = [&digest](const SchemaSignature& s) {
    digest = MixHash64(digest ^ HashBytes(s.simhash, sizeof(s.simhash)));
    digest = MixHash64(digest ^ HashBytes(s.minhash, sizeof(s.minhash)));
  };
  for (const Schema& schema : schemas) {
    fold(catalog.Find(schema.id())->signature);
    auto standalone = BuildSchemaFeatures(schema, catalog.options());
    ComputeSignature(standalone.get(), nullptr);
    fold(standalone->signature);
  }
  return digest;
}

TEST(SignatureTest, GoldenSignatureBytes) {
  // Persisted signatures.sig files are keyed by corpus content, not by
  // the signature algorithm: a change to how signatures are computed
  // would silently mix stale persisted signatures with fresh ones. So the
  // exact bytes are pinned here, and any algorithm change must fail.
  std::vector<Schema> schemas = SmallCorpus(200, /*seed=*/2009);
  CatalogBuilder builder;
  for (size_t i = 0; i < schemas.size(); ++i) {
    schemas[i].set_id(static_cast<SchemaId>(i + 1));
    builder.Add(schemas[i]);
  }
  auto catalog = builder.Build();
  ASSERT_EQ(catalog->size(), schemas.size());
  EXPECT_EQ(SignatureDigest(schemas, *catalog), 0xd12192666885f9c9ull);
}

TEST(SignatureTest, SealedCrcDetectsBitFlip) {
  FeatureBuildOptions options;
  auto f = BuildSchemaFeatures(Clinic(), options);
  ComputeSignature(f.get(), nullptr);
  EXPECT_TRUE(VerifySignature(f->signature));
  SchemaSignature tampered = f->signature;
  tampered.simhash[3] ^= 0x10;
  EXPECT_FALSE(VerifySignature(tampered));
}

// --- prepared matchers ------------------------------------------------------------

/// Asserts every per-matcher and combined cell of `prepared` equals the
/// legacy computation of the same pair, to the bit: the fast path must be
/// an optimization, never a behavior change.
void ExpectCellsIdentical(const EnsembleResult& legacy,
                          const EnsembleResult& prepared,
                          const std::string& where) {
  ASSERT_EQ(legacy.per_matcher.size(), prepared.per_matcher.size());
  for (size_t m = 0; m < legacy.per_matcher.size(); ++m) {
    const SimilarityMatrix& lm = legacy.per_matcher[m];
    const SimilarityMatrix& pm = prepared.per_matcher[m];
    ASSERT_EQ(lm.rows(), pm.rows());
    ASSERT_EQ(lm.cols(), pm.cols());
    for (size_t i = 0; i < lm.rows(); ++i) {
      for (size_t j = 0; j < lm.cols(); ++j) {
        ASSERT_EQ(lm.at(i, j), pm.at(i, j))
            << where << " matcher " << m << " cell (" << i << "," << j
            << ")";
      }
    }
  }
  for (size_t i = 0; i < legacy.combined.rows(); ++i) {
    for (size_t j = 0; j < legacy.combined.cols(); ++j) {
      ASSERT_EQ(legacy.combined.at(i, j), prepared.combined.at(i, j))
          << where;
    }
  }
}

/// A context over `query` and `candidate` with their own dictionaries.
MatchContext StandaloneContext(const SchemaFeatures& query,
                               const SchemaFeatures& candidate,
                               MatchScratch* scratch) {
  MatchContext context;
  context.query_features = &query;
  context.query_terms = query.dictionary.get();
  context.candidate_features = &candidate;
  context.candidate_terms = candidate.dictionary.get();
  context.scratch = scratch;
  return context;
}

/// `schemas` numbered 1..n and built into one catalog.
std::shared_ptr<const MatchFeatureCatalog> NumberedCatalog(
    std::vector<Schema>* schemas) {
  CatalogBuilder builder;
  for (size_t i = 0; i < schemas->size(); ++i) {
    (*schemas)[i].set_id(static_cast<SchemaId>(i + 1));
    builder.Add((*schemas)[i]);
  }
  return builder.Build();
}

TEST(PreparedMatchTest, EnsembleBitIdenticalWithAndWithoutContext) {
  // The engine's configuration: a standalone query against candidates
  // whose ids resolve in the catalog's corpus-wide dictionary, with one
  // memo kept across every candidate.
  std::vector<Schema> schemas = SmallCorpus(12);
  auto catalog = NumberedCatalog(&schemas);
  auto query_features = BuildSchemaFeatures(schemas[0], catalog->options());
  ComputeSignature(query_features.get(), &catalog->df());

  MatcherEnsemble ensemble = MatcherEnsemble::Default();
  MatchScratch scratch;
  const Schema& query = schemas[0];
  for (size_t c = 1; c < schemas.size(); ++c) {
    EnsembleResult legacy = ensemble.Match(query, schemas[c]);
    MatchContext context;
    context.query_features = query_features.get();
    context.query_terms = query_features->dictionary.get();
    context.candidate_features = catalog->Find(schemas[c].id());
    context.candidate_terms = &catalog->terms();
    context.scratch = &scratch;
    EnsembleResult prepared =
        ensemble.Match(query, schemas[c], nullptr, nullptr, &context);
    ExpectCellsIdentical(legacy, prepared, "candidate " + std::to_string(c));
  }
  // Later candidates reused pairs the earlier ones filled.
  EXPECT_LT(scratch.fills(), scratch.lookups());
}

TEST(PreparedMatchTest, ScratchReuseAcrossQueriesAndPrivateDictionaries) {
  // One scratch, two different queries, and candidates that each own a
  // private dictionary (so their term ids collide): the memo must start
  // over whenever the query or the candidate's id space changes, and
  // every cell must still equal the legacy value.
  std::vector<Schema> schemas = SmallCorpus(8, /*seed=*/23);
  std::vector<std::shared_ptr<SchemaFeatures>> features;
  for (const Schema& s : schemas) {
    features.push_back(BuildSchemaFeatures(s, FeatureBuildOptions{}));
  }
  std::vector<Schema> numbered = schemas;
  auto catalog = NumberedCatalog(&numbered);

  MatcherEnsemble ensemble = MatcherEnsemble::Default();
  MatchScratch scratch;
  for (size_t q : {size_t{0}, size_t{1}, size_t{0}}) {
    for (size_t c = 0; c < schemas.size(); ++c) {
      const std::string where =
          "query " + std::to_string(q) + " candidate " + std::to_string(c);
      EnsembleResult legacy = ensemble.Match(schemas[q], schemas[c]);
      MatchContext own = StandaloneContext(*features[q], *features[c],
                                           &scratch);
      ExpectCellsIdentical(
          legacy,
          ensemble.Match(schemas[q], schemas[c], nullptr, nullptr, &own),
          where + " (private dictionary)");
      // The same candidate through the catalog dictionary, interleaved.
      MatchContext shared = own;
      shared.candidate_features = catalog->Find(c + 1);
      shared.candidate_terms = &catalog->terms();
      ExpectCellsIdentical(
          legacy,
          ensemble.Match(schemas[q], schemas[c], nullptr, nullptr, &shared),
          where + " (catalog dictionary)");
    }
  }
}

TEST(PreparedMatchTest, ContextClassesBitIdenticalUnderEveryOption) {
  // Neighborhood classes are built per context option set: exact Jaccard
  // (merged by text across two dictionaries) and neighborhoods without
  // FK neighbors must match the legacy matcher cell for cell too.
  std::vector<Schema> schemas = SmallCorpus(10, /*seed=*/41);
  for (bool soft : {true, false}) {
    for (bool fk : {true, false}) {
      FeatureBuildOptions options;
      options.context.soft_alignment = soft;
      options.context.include_fk_neighbors = fk;
      const ContextMatcher matcher(options.context);
      std::vector<std::shared_ptr<SchemaFeatures>> features;
      for (const Schema& s : schemas) {
        features.push_back(BuildSchemaFeatures(s, options));
      }
      MatchScratch scratch;
      for (size_t c = 1; c < schemas.size(); ++c) {
        MatchContext context =
            StandaloneContext(*features[0], *features[c], &scratch);
        const SimilarityMatrix legacy = matcher.Match(schemas[0], schemas[c]);
        const SimilarityMatrix prepared =
            matcher.MatchPrepared(schemas[0], schemas[c], context);
        for (size_t i = 0; i < legacy.rows(); ++i) {
          for (size_t j = 0; j < legacy.cols(); ++j) {
            ASSERT_EQ(legacy.at(i, j), prepared.at(i, j))
                << "soft=" << soft << " fk=" << fk << " candidate " << c
                << " cell (" << i << "," << j << ")";
          }
        }
      }
    }
  }
}

TEST(PreparedMatchTest, MismatchedOptionsFallBackToLegacy) {
  // A catalog built under non-default matcher options must not be used by
  // default-option matchers; the guard forces the legacy path, so results
  // still match the legacy computation exactly.
  FeatureBuildOptions altered;
  altered.name.use_synonyms = false;
  auto qf = BuildSchemaFeatures(Clinic(), altered);
  auto cf = BuildSchemaFeatures(Shop(), altered);
  ComputeSignature(qf.get(), nullptr);
  ComputeSignature(cf.get(), nullptr);

  MatcherEnsemble ensemble = MatcherEnsemble::Default();  // default options
  MatchScratch scratch;
  MatchContext context = StandaloneContext(*qf, *cf, &scratch);
  EnsembleResult legacy = ensemble.Match(Clinic(), Shop());
  EnsembleResult guarded =
      ensemble.Match(Clinic(), Shop(), nullptr, nullptr, &context);
  ExpectCellsIdentical(legacy, guarded, "altered options");
  EXPECT_EQ(scratch.lookups(), 0u);
}

// --- term dictionary ----------------------------------------------------------

TEST(TermDictionaryTest, CatalogStoresEachTermOnce) {
  std::vector<Schema> schemas = SmallCorpus(60);
  auto catalog = NumberedCatalog(&schemas);
  const TermDictionary& terms = catalog->terms();
  size_t vocabulary_total = 0;
  for (const Schema& schema : schemas) {
    const SchemaFeatures* f = catalog->Find(schema.id());
    ASSERT_NE(f, nullptr);
    EXPECT_EQ(f->dictionary, nullptr);
    vocabulary_total += f->terms.size();
    // The vocabulary is sorted by text and every index resolves.
    for (size_t k = 1; k < f->terms.size(); ++k) {
      EXPECT_LT(terms.term(f->terms[k - 1]).text, terms.term(f->terms[k]).text);
    }
    // df counts each schema once per distinct term.
    for (uint32_t id : f->terms) EXPECT_GE(catalog->df().Df(id), 1u);
    // Every element's neighborhood class is a valid, sorted term list.
    ASSERT_EQ(f->neighborhood.size(), schema.size());
    for (uint32_t k : f->neighborhood) ASSERT_LT(k, f->num_classes());
    EXPECT_LE(f->num_classes(), schema.size());
  }
  // Shared terms are stored once: far fewer than the per-schema copies.
  EXPECT_LT(terms.size() * 2, vocabulary_total);
  EXPECT_EQ(catalog->df().documents(), schemas.size());
}

TEST(TermDictionaryTest, CopyOnWriteExtensionKeepsIdsAndLineage) {
  auto base = std::make_shared<const TermDictionary>();
  std::shared_ptr<const TermDictionary> terms = base;
  auto clinic = BuildSchemaFeatures(Clinic(), FeatureBuildOptions{}, &terms);
  // The first build had to extend: a new object, same id space.
  ASSERT_NE(terms, base);
  EXPECT_EQ(base->size(), 0u);
  EXPECT_EQ(terms->lineage(), base->lineage());
  const std::shared_ptr<const TermDictionary> published = terms;
  const size_t published_size = published->size();

  // A build needing no new term shares the dictionary as is.
  auto again = BuildSchemaFeatures(Clinic(), FeatureBuildOptions{}, &terms);
  EXPECT_EQ(terms, published);
  EXPECT_EQ(again->terms, clinic->terms);

  // New terms extend a copy; the published one never changes, and every
  // id it had keeps its meaning.
  auto shop = BuildSchemaFeatures(Shop(), FeatureBuildOptions{}, &terms);
  ASSERT_NE(terms, published);
  EXPECT_EQ(published->size(), published_size);
  EXPECT_GT(terms->size(), published_size);
  for (uint32_t id = 0; id < published_size; ++id) {
    EXPECT_EQ(terms->term(id).text, published->term(id).text);
  }
  // Two standalone builds never share an id space.
  EXPECT_NE(BuildSchemaFeatures(Clinic(), FeatureBuildOptions{})
                ->dictionary->lineage(),
            BuildSchemaFeatures(Clinic(), FeatureBuildOptions{})
                ->dictionary->lineage());
}

TEST(TermDictionaryTest, SignatureIdfSameThroughIdsAndText) {
  // A standalone build weighs its terms by text against the catalog's
  // df table; the catalog's own features weigh by id. Same counts, same
  // signature.
  std::vector<Schema> schemas = SmallCorpus(30);
  auto catalog = NumberedCatalog(&schemas);
  for (const Schema& schema : schemas) {
    auto standalone = BuildSchemaFeatures(schema, catalog->options());
    ComputeSignature(standalone.get(), &catalog->df());
    EXPECT_TRUE(standalone->signature == catalog->Find(schema.id())->signature)
        << schema.name();
  }
}

TEST(CatalogBuilderTest, BuildSecondsCoverAddAndBuild) {
  // CatalogBuildStats::seconds is the wall time of the whole build: the
  // feature pass in Add() as well as the signature pass in Build().
  std::vector<Schema> schemas = SmallCorpus(200, /*seed=*/5);
  CatalogBuilder builder;
  Timer wall;
  Timer add;
  for (size_t i = 0; i < schemas.size(); ++i) {
    schemas[i].set_id(static_cast<SchemaId>(i + 1));
    builder.Add(schemas[i]);
  }
  const double add_seconds = add.ElapsedSeconds();
  Timer build;
  CatalogBuildStats stats;
  auto catalog = builder.Build(nullptr, &stats);
  const double build_seconds = build.ElapsedSeconds();
  const double wall_seconds = wall.ElapsedSeconds();
  EXPECT_LE(stats.seconds, wall_seconds);
  // The untimed remainder is loop overhead; Build() alone is well under
  // what Add() costs, so a Build-only timer fails this.
  EXPECT_GT(stats.seconds, build_seconds);
  EXPECT_GT(stats.seconds, 0.5 * (add_seconds + build_seconds));
  EXPECT_EQ(stats.schemas, schemas.size());
}

// --- engine equivalence -----------------------------------------------------------

struct EngineFixture {
  std::unique_ptr<SchemaRepository> repo;
  std::shared_ptr<Indexer> indexer;
  std::shared_ptr<const CorpusSnapshot> snapshot;  ///< with catalog
};

EngineFixture MakeEngineFixture(size_t n = 24) {
  EngineFixture f;
  f.repo = SchemaRepository::OpenInMemory();
  CatalogBuilder builder;
  for (Schema& s : SmallCorpus(n)) {
    auto id = f.repo->Insert(std::move(s));
    EXPECT_TRUE(id.ok());
  }
  f.indexer = std::make_shared<Indexer>();
  EXPECT_TRUE(f.indexer->RebuildFromRepository(*f.repo).ok());
  std::shared_ptr<const RepositoryView> view = f.repo->View();
  EXPECT_TRUE(view->ForEach([&](const Schema& s) {
                    builder.Add(s);
                    return Status::OK();
                  }).ok());
  auto snapshot = std::make_shared<CorpusSnapshot>();
  snapshot->version = f.repo->version();
  snapshot->index =
      std::shared_ptr<const InvertedIndex>(f.indexer, &f.indexer->index());
  snapshot->schemas = view;
  snapshot->match_features = builder.Build();
  f.snapshot = snapshot;
  return f;
}

const char* kQueries[] = {
    "patient height gender",
    "customer order total",
    "movie title director",
    "flight departure arrival airport",
    "inventory stock warehouse",
};

/// Multi-table DDL fragments carrying foreign keys, cut from schemas
/// outside the engine fixture's corpus.
std::vector<std::string> FkFragments(size_t count) {
  std::vector<std::string> fragments;
  for (const Schema& s : SmallCorpus(300, /*seed=*/77)) {
    if (s.NumEntities() >= 2 && s.NumEntities() <= 3 &&
        !s.foreign_keys().empty()) {
      fragments.push_back(WriteDdl(s));
      if (fragments.size() == count) break;
    }
  }
  return fragments;
}

/// Asserts two ranked lists agree to the bit.
void ExpectSameRanking(const std::vector<SearchResult>& a,
                       const std::vector<SearchResult>& b,
                       const std::string& where) {
  ASSERT_EQ(a.size(), b.size()) << where;
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].schema_id, b[i].schema_id) << where << " rank " << i;
    // Scores must agree to the bit: exact mode may not change the
    // ranking function, only its cost.
    EXPECT_EQ(a[i].score, b[i].score) << where << " rank " << i;
    EXPECT_EQ(a[i].tightness, b[i].tightness) << where << " rank " << i;
    EXPECT_EQ(a[i].coarse_score, b[i].coarse_score) << where << " rank " << i;
  }
}

TEST(EnginePrefilterTest, CatalogPathBitIdenticalToLegacyAtAnyThreadCount) {
  EngineFixture f = MakeEngineFixture(200);
  SearchEngine legacy(f.repo.get(), &f.indexer->index());
  SearchEngine columnar(f.snapshot);

  std::vector<QueryGraph> queries;
  for (const char* q : kQueries) queries.push_back(*ParseQuery(q));
  const std::vector<std::string> fragments = FkFragments(4);
  ASSERT_EQ(fragments.size(), 4u);
  for (const std::string& fragment : fragments) {
    auto parsed = ParseQuery("", fragment);
    ASSERT_TRUE(parsed.ok()) << parsed.status();
    ASSERT_GE(parsed->AsSchema().NumEntities(), 2u);
    queries.push_back(std::move(*parsed));
  }
  for (size_t q = 0; q < queries.size(); ++q) {
    for (bool pruning : {true, false}) {
      for (size_t threads : {size_t{1}, size_t{4}}) {
        SearchEngineOptions options;
        options.scoring_threads = threads;
        options.enable_pruning = pruning;
        auto a = legacy.Search(queries[q], options);
        auto b = columnar.Search(queries[q], options);
        ASSERT_TRUE(a.ok()) << a.status();
        ASSERT_TRUE(b.ok()) << b.status();
        ExpectSameRanking(*a, *b,
                          "query " + std::to_string(q) + " pruning=" +
                              std::to_string(pruning) +
                              " threads=" + std::to_string(threads));
      }
    }
  }
}

TEST(EnginePrefilterTest, IncrementalCorpusAnswersEqualFreshCreate) {
  // A mixed run of Ingest/Update/Remove extends the dictionary in a
  // different order than a fresh Create over the same repository assigns
  // ids (and keeps the terms of removed schemas); every answer must still
  // be the same.
  const fs::path dir =
      fs::temp_directory_path() /
      ("schemr_incremental_catalog_" +
       std::to_string(::testing::UnitTest::GetInstance()->random_seed()));
  fs::remove_all(dir);
  std::vector<QueryGraph> queries;
  for (const char* q : kQueries) queries.push_back(*ParseQuery(q));
  for (const std::string& fragment : FkFragments(3)) {
    queries.push_back(*ParseQuery("", fragment));
  }

  std::vector<std::vector<SearchResult>> live_answers;
  {
    auto repo = SchemaRepository::Open(dir.string());
    ASSERT_TRUE(repo.ok()) << repo.status();
    for (Schema& s : SmallCorpus(40, /*seed=*/31)) {
      ASSERT_TRUE((*repo)->Insert(std::move(s)).ok());
    }
    auto live = ServingCorpus::Create(std::move(*repo));
    ASSERT_TRUE(live.ok()) << live.status();
    std::vector<Schema> arrivals = SmallCorpus(30, /*seed=*/32);
    std::vector<SchemaId> ingested;
    for (size_t i = 0; i < arrivals.size(); ++i) {
      auto id = (*live)->Ingest(arrivals[i]);
      ASSERT_TRUE(id.ok()) << id.status();
      ingested.push_back(*id);
      if (i % 4 == 1) {
        // An earlier arrival (an even one) gets another schema's content.
        Schema replacement = arrivals[(i + 7) % arrivals.size()];
        replacement.set_id(ingested[i / 2]);
        ASSERT_TRUE((*live)->Update(replacement).ok());
      }
      if (i % 6 == 5) {
        // An odd arrival leaves again; its terms stay in the dictionary.
        ASSERT_TRUE((*live)->Remove(ingested[i - 2]).ok());
      }
    }
    SearchEngine engine(live->get());
    for (const QueryGraph& query : queries) {
      auto results = engine.Search(query);
      ASSERT_TRUE(results.ok()) << results.status();
      live_answers.push_back(std::move(*results));
    }
  }

  auto reopened = SchemaRepository::Open(dir.string());
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  auto fresh = ServingCorpus::Create(std::move(*reopened));
  ASSERT_TRUE(fresh.ok()) << fresh.status();
  SearchEngine engine(fresh->get());
  for (size_t q = 0; q < queries.size(); ++q) {
    auto results = engine.Search(queries[q]);
    ASSERT_TRUE(results.ok()) << results.status();
    ExpectSameRanking(live_answers[q], *results, "query " + std::to_string(q));
  }
  fresh->reset();
  fs::remove_all(dir);
}

TEST(EnginePrefilterTest, PrefilterRejectsAndCounts) {
  EngineFixture f = MakeEngineFixture();
  SearchEngine engine(f.snapshot);

  SearchStats exact_stats;
  SearchEngineOptions exact;
  exact.stats = &exact_stats;
  auto full = engine.SearchKeywords(kQueries[0], exact);
  ASSERT_TRUE(full.ok());
  EXPECT_EQ(exact_stats.prefilter_rejected, 0u);

  SearchStats stats;
  SearchEngineOptions screened;
  screened.prefilter = 0.999;  // rejects everything but near-duplicates
  screened.stats = &stats;
  auto filtered = engine.SearchKeywords(kQueries[0], screened);
  ASSERT_TRUE(filtered.ok());
  EXPECT_GT(stats.prefilter_rejected, 0u);
  EXPECT_LE(filtered->size(), full->size());
  // Rejection is an explicit opt-in, not degradation.
  EXPECT_FALSE(stats.ComputeDegraded());
  // Whatever survives the screen is a subset of the exact candidates.
  for (const SearchResult& r : *filtered) {
    bool found = false;
    for (const SearchResult& e : *full) found |= e.schema_id == r.schema_id;
    EXPECT_TRUE(found) << "schema " << r.schema_id
                       << " appeared only under the screen";
  }
}

TEST(EnginePrefilterTest, MissingCatalogEntryIsNeverRejected) {
  // A snapshot whose catalog is missing one schema: that schema must
  // survive any threshold (unknown ≠ dissimilar).
  EngineFixture f = MakeEngineFixture(8);
  auto snapshot = std::make_shared<CorpusSnapshot>(*f.snapshot);
  auto& catalog = snapshot->match_features;
  std::unordered_map<SchemaId, std::shared_ptr<const SchemaFeatures>> pruned =
      catalog->features();
  ASSERT_FALSE(pruned.empty());
  const SchemaId dropped = pruned.begin()->first;
  pruned.erase(pruned.begin());
  snapshot->match_features = std::make_shared<const MatchFeatureCatalog>(
      catalog->options(), pruned,
      std::shared_ptr<const DfTable>(catalog, &catalog->df()));

  SearchEngine engine(snapshot);
  SearchEngineOptions screened;
  screened.prefilter = 0.9999;
  auto schema = f.repo->Get(dropped);
  ASSERT_TRUE(schema.ok());
  // Query with the dropped schema's own name: it must be reachable even
  // though everything with a signature is screened out at this threshold.
  auto results = engine.SearchKeywords(schema->name(), screened);
  ASSERT_TRUE(results.ok());
  bool present = false;
  for (const SearchResult& r : *results) present |= r.schema_id == dropped;
  EXPECT_TRUE(present);
}

TEST(EnginePrefilterTest, PrefilterJoinsOptionsHash) {
  SearchEngineOptions exact;
  SearchEngineOptions screened;
  screened.prefilter = 0.2;
  SearchEngineOptions other;
  other.prefilter = 0.3;
  EXPECT_NE(HashSearchOptions(exact), HashSearchOptions(screened));
  EXPECT_NE(HashSearchOptions(screened), HashSearchOptions(other));
}

// --- workload opt-in --------------------------------------------------------------

TEST(WorkloadPrefilterTest, XmlRoundTripPreservesThreshold) {
  std::vector<WorkloadEntry> entries(2);
  entries[0].keywords = "patient height";
  entries[0].prefilter = 0.15;
  entries[0].expected_digest = 0x1234;
  entries[1].keywords = "customer order";  // exact entry: no attribute
  auto parsed = WorkloadFromXml(WorkloadToXml(entries));
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  ASSERT_EQ(parsed->size(), 2u);
  EXPECT_DOUBLE_EQ((*parsed)[0].prefilter, 0.15);
  EXPECT_EQ((*parsed)[0].expected_digest, 0x1234u);
  EXPECT_DOUBLE_EQ((*parsed)[1].prefilter, 0.0);
}

// --- persistence ------------------------------------------------------------------

class SignatureFileTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("schemr_signature_test_" +
            std::to_string(
                ::testing::UnitTest::GetInstance()->random_seed()) +
            "_" + ::testing::UnitTest::GetInstance()
                      ->current_test_info()
                      ->name());
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::string SigPath() const { return (dir_ / "signatures.sig").string(); }

  std::shared_ptr<const MatchFeatureCatalog> BuildCatalog(
      CatalogBuildStats* stats = nullptr,
      const StoredSignatures* stored = nullptr) {
    CatalogBuilder builder;
    for (const Schema& s : SmallCorpus(10)) builder.Add(s);
    return builder.Build(stored, stats);
  }

  fs::path dir_;
};

TEST_F(SignatureFileTest, SaveLoadRoundTrip) {
  auto catalog = BuildCatalog();
  ASSERT_TRUE(SaveSignatures(SigPath(), *catalog).ok());

  auto loaded = LoadSignatures(SigPath());
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded->corpus_hash, catalog->CorpusHash());
  EXPECT_EQ(loaded->signatures.size(), catalog->size());
  EXPECT_EQ(loaded->corrupt_records, 0u);
  for (const auto& [id, features] : catalog->features()) {
    auto it = loaded->signatures.find(id);
    ASSERT_NE(it, loaded->signatures.end());
    EXPECT_TRUE(it->second == features->signature);
    EXPECT_TRUE(VerifySignature(it->second));
  }

  // A rebuild against the stored file adopts every record.
  CatalogBuildStats stats;
  StoredSignatures stored = std::move(*loaded);
  auto adopted = BuildCatalog(&stats, &stored);
  EXPECT_EQ(stats.signatures_loaded, catalog->size());
  EXPECT_EQ(stats.signatures_built, 0u);
}

TEST_F(SignatureFileTest, ByteFlipDetectedAndRebuilt) {
  auto catalog = BuildCatalog();
  ASSERT_TRUE(SaveSignatures(SigPath(), *catalog).ok());

  // Flip one byte inside the first record's payload (past the header:
  // magic 4 + version 4 + corpus hash 8 + count 8 = 24 bytes).
  std::fstream file(SigPath(),
                    std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(file.good());
  file.seekg(40);
  char byte = 0;
  file.read(&byte, 1);
  byte ^= 0x40;
  file.seekp(40);
  file.write(&byte, 1);
  file.close();

  auto loaded = LoadSignatures(SigPath());
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded->corrupt_records, 1u);
  EXPECT_EQ(loaded->signatures.size(), catalog->size() - 1);
  // Every surviving record still proves itself.
  for (const auto& [id, signature] : loaded->signatures) {
    EXPECT_TRUE(VerifySignature(signature));
  }

  // The rebuild recomputes exactly the dropped signature, and the result
  // equals a fresh build bit-for-bit: corruption is detected and repaired,
  // never served.
  CatalogBuildStats stats;
  auto repaired = BuildCatalog(&stats, &*loaded);
  EXPECT_EQ(stats.corrupt_records, 1u);
  EXPECT_EQ(stats.signatures_loaded, catalog->size() - 1);
  EXPECT_EQ(stats.signatures_built, 1u);
  for (const auto& [id, features] : catalog->features()) {
    const SchemaFeatures* r = repaired->Find(id);
    ASSERT_NE(r, nullptr);
    EXPECT_TRUE(r->signature == features->signature);
  }
}

TEST_F(SignatureFileTest, StaleCorpusHashIgnoresWholeFile) {
  auto catalog = BuildCatalog();
  ASSERT_TRUE(SaveSignatures(SigPath(), *catalog).ok());
  auto loaded = LoadSignatures(SigPath());
  ASSERT_TRUE(loaded.ok());

  // Build over a DIFFERENT corpus: the stored hash cannot match, so
  // nothing is adopted.
  CatalogBuilder builder;
  for (const Schema& s : SmallCorpus(10, /*seed=*/99)) builder.Add(s);
  CatalogBuildStats stats;
  auto other = builder.Build(&*loaded, &stats);
  EXPECT_EQ(stats.signatures_loaded, 0u);
  EXPECT_EQ(stats.signatures_built, other->size());
}

TEST_F(SignatureFileTest, TruncatedHeaderIsParseError) {
  std::ofstream out(SigPath(), std::ios::binary);
  out << "SSIG";  // magic only
  out.close();
  auto loaded = LoadSignatures(SigPath());
  EXPECT_FALSE(loaded.ok());
}

// --- serving corpus ---------------------------------------------------------------

TEST_F(SignatureFileTest, ServingCorpusPublishesAndPersistsCatalog) {
  auto repo = SchemaRepository::OpenInMemory();
  for (Schema& s : SmallCorpus(6)) {
    ASSERT_TRUE(repo->Insert(std::move(s)).ok());
  }
  auto corpus = ServingCorpus::Create(std::move(repo));
  ASSERT_TRUE(corpus.ok()) << corpus.status();

  auto snapshot = (*corpus)->Snapshot();
  ASSERT_NE(snapshot->match_features, nullptr);
  EXPECT_EQ(snapshot->match_features->size(), 6u);

  // Incremental ingest extends the catalog in the next snapshot.
  ASSERT_TRUE((*corpus)->Ingest(Clinic()).ok());
  auto after = (*corpus)->Snapshot();
  EXPECT_EQ(after->match_features->size(), 7u);
  EXPECT_GT(after->version, snapshot->version);

  // Reindex with persistence: first run builds and writes the file,
  // second run adopts every signature from it.
  CatalogBuildStats first;
  ASSERT_TRUE(
      (*corpus)->ReindexWithStoredSignatures(SigPath(), &first).ok());
  EXPECT_EQ(first.signatures_built, 7u);
  CatalogBuildStats second;
  ASSERT_TRUE(
      (*corpus)->ReindexWithStoredSignatures(SigPath(), &second).ok());
  EXPECT_EQ(second.signatures_loaded, 7u);
  EXPECT_EQ(second.signatures_built, 0u);
}

}  // namespace
}  // namespace schemr
