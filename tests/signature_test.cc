// Tests for the signature pre-filter and columnar match features
// (DESIGN.md §16): packed-profile bit-identity with NgramProfile Dice,
// the matcher kernel's bit-identity with the reference matchers
// (reference_matchers.h) under every option, the engine's exact-mode
// equivalence at any thread count, the approximate pre-filter's
// accounting, signature persistence (round-trip, corruption detection,
// rebuild), and the serving corpus's catalog publication.

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "core/fingerprint.h"
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
#include "parse/xsd_importer.h"
#include "reference_matchers.h"
#include "repo/schema_repository.h"
#include "schema/entity_graph.h"
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
  // The seal is util/crc32's CRC-32 over simhash+minhash, pinned so that
  // signatures.sig files already on disk keep verifying.
  EXPECT_EQ(f->signature.crc, 0xbb95ddaeu);
  SchemaSignature tampered = f->signature;
  tampered.simhash[3] ^= 0x10;
  EXPECT_FALSE(VerifySignature(tampered));
}

// --- prepared matchers ------------------------------------------------------------

/// Asserts every cell of `actual` equals `expected`, to the bit.
void ExpectMatrixIdentical(const SimilarityMatrix& expected,
                           const SimilarityMatrix& actual,
                           const std::string& where) {
  ASSERT_EQ(expected.rows(), actual.rows()) << where;
  ASSERT_EQ(expected.cols(), actual.cols()) << where;
  for (size_t i = 0; i < expected.rows(); ++i) {
    for (size_t j = 0; j < expected.cols(); ++j) {
      ASSERT_EQ(expected.at(i, j), actual.at(i, j))
          << where << " cell (" << i << "," << j << ")";
    }
  }
}

/// Asserts every per-matcher and combined cell of `prepared` equals the
/// reference computation of the same pair, to the bit: the kernel must be
/// an optimization, never a behavior change.
void ExpectCellsIdentical(const EnsembleResult& reference,
                          const EnsembleResult& prepared,
                          const std::string& where) {
  ASSERT_EQ(reference.per_matcher.size(), prepared.per_matcher.size());
  for (size_t m = 0; m < reference.per_matcher.size(); ++m) {
    ExpectMatrixIdentical(reference.per_matcher[m], prepared.per_matcher[m],
                          where + " matcher " + std::to_string(m));
  }
  ExpectMatrixIdentical(reference.combined, prepared.combined,
                        where + " combined");
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

  const MatcherEnsemble reference = ReferenceEnsemble();
  MatcherEnsemble ensemble = MatcherEnsemble::Default();
  MatchScratch scratch;
  const Schema& query = schemas[0];
  for (size_t c = 1; c < schemas.size(); ++c) {
    EnsembleResult expected = reference.Match(query, schemas[c]);
    MatchContext context;
    context.query_features = query_features.get();
    context.query_terms = query_features->dictionary.get();
    context.candidate_features = catalog->Find(schemas[c].id());
    context.candidate_terms = &catalog->terms();
    context.scratch = &scratch;
    EnsembleResult prepared =
        ensemble.Match(query, schemas[c], nullptr, nullptr, &context);
    ExpectCellsIdentical(expected, prepared, "candidate " + std::to_string(c));
  }
  // Later candidates reused pairs the earlier ones filled.
  EXPECT_LT(scratch.fills(), scratch.lookups());
}

TEST(PreparedMatchTest, EnsembleWithoutContextMatchesReference) {
  // The composer and search-history training call the ensemble with no
  // context: each matcher builds features for the pair itself.
  std::vector<Schema> schemas = SmallCorpus(10, /*seed=*/53);
  const MatcherEnsemble reference = ReferenceEnsemble();
  const MatcherEnsemble ensemble = MatcherEnsemble::Default();
  ASSERT_EQ(reference.MatcherNames(), ensemble.MatcherNames());
  ASSERT_EQ(reference.weights(), ensemble.weights());
  for (size_t q : {size_t{0}, size_t{3}}) {
    for (size_t c = 0; c < schemas.size(); ++c) {
      ExpectCellsIdentical(reference.Match(schemas[q], schemas[c]),
                           ensemble.Match(schemas[q], schemas[c]),
                           "query " + std::to_string(q) + " candidate " +
                               std::to_string(c));
    }
  }
}

TEST(PreparedMatchTest, NameKernelMatchesReferenceUnderEveryOption) {
  // Non-default name options reach the kernel through Match() (features
  // built under the matcher's own options) and through a context whose
  // features were built under them: the paper's exhaustive n-grams,
  // stemming off, synonyms off, and a 3-5 band.
  std::vector<NameMatcherOptions> variants(4);
  variants[0].exhaustive_ngrams = true;
  variants[1].stem = false;
  variants[2].use_synonyms = false;
  variants[3].min_n = 3;
  variants[3].max_n = 5;
  std::vector<Schema> schemas = SmallCorpus(10, /*seed=*/61);
  schemas.push_back(Clinic());
  schemas.push_back(SchemaBuilder("abbreviated")
                        .Entity("pat")
                        .Attribute("ht")
                        .Attribute("sex")
                        .Attribute("dob")
                        .Attribute("qty")
                        .Build());
  for (size_t v = 0; v < variants.size(); ++v) {
    const NameMatcher matcher(variants[v]);
    const ReferenceNameMatcher reference(variants[v]);
    FeatureBuildOptions options;
    options.name = variants[v];
    std::vector<std::shared_ptr<SchemaFeatures>> features;
    for (const Schema& s : schemas) {
      features.push_back(BuildSchemaFeatures(s, options));
    }
    MatchScratch scratch;  // one memo across every candidate of a query
    for (size_t q : {schemas.size() - 1, size_t{0}}) {
      for (size_t c = 0; c < schemas.size(); ++c) {
        const std::string where = "variant " + std::to_string(v) +
                                  " query " + std::to_string(q) +
                                  " candidate " + std::to_string(c);
        const SimilarityMatrix expected =
            reference.Match(schemas[q], schemas[c]);
        ExpectMatrixIdentical(expected, matcher.Match(schemas[q], schemas[c]),
                              where + " (Match)");
        ExpectMatrixIdentical(
            expected,
            matcher.MatchPrepared(
                schemas[q], schemas[c],
                StandaloneContext(*features[q], *features[c], &scratch)),
            where + " (context)");
      }
    }
    for (const auto& [a, b] :
         std::vector<std::pair<std::string, std::string>>{
             {"patient", "pat"},
             {"date_of_birth", "dob"},
             {"gender", "sex"},
             {"quantity", "qty"},
             {"", "patient"}}) {
      EXPECT_EQ(matcher.NameSimilarity(a, b), reference.NameSimilarity(a, b))
          << "variant " << v << ": " << a << " vs " << b;
    }
  }
}

TEST(PreparedMatchTest, ScratchReuseAcrossQueriesAndPrivateDictionaries) {
  // One scratch, two different queries, and candidates that each own a
  // private dictionary (so their term ids collide): the memo must start
  // over whenever the query or the candidate's id space changes, and
  // every cell must still equal the reference value.
  std::vector<Schema> schemas = SmallCorpus(8, /*seed=*/23);
  std::vector<std::shared_ptr<SchemaFeatures>> features;
  for (const Schema& s : schemas) {
    features.push_back(BuildSchemaFeatures(s, FeatureBuildOptions{}));
  }
  std::vector<Schema> numbered = schemas;
  auto catalog = NumberedCatalog(&numbered);

  const MatcherEnsemble reference = ReferenceEnsemble();
  MatcherEnsemble ensemble = MatcherEnsemble::Default();
  MatchScratch scratch;
  for (size_t q : {size_t{0}, size_t{1}, size_t{0}}) {
    for (size_t c = 0; c < schemas.size(); ++c) {
      const std::string where =
          "query " + std::to_string(q) + " candidate " + std::to_string(c);
      EnsembleResult expected = reference.Match(schemas[q], schemas[c]);
      MatchContext own = StandaloneContext(*features[q], *features[c],
                                           &scratch);
      ExpectCellsIdentical(
          expected,
          ensemble.Match(schemas[q], schemas[c], nullptr, nullptr, &own),
          where + " (private dictionary)");
      // The same candidate through the catalog dictionary, interleaved.
      MatchContext shared = own;
      shared.candidate_features = catalog->Find(c + 1);
      shared.candidate_terms = &catalog->terms();
      ExpectCellsIdentical(
          expected,
          ensemble.Match(schemas[q], schemas[c], nullptr, nullptr, &shared),
          where + " (catalog dictionary)");
    }
  }
}

TEST(PreparedMatchTest, ContextClassesBitIdenticalUnderEveryOption) {
  // Neighborhood classes are built per context option set: exact Jaccard
  // (merged by text across two dictionaries) and neighborhoods without
  // FK neighbors must match the reference matcher cell for cell too.
  std::vector<Schema> schemas = SmallCorpus(10, /*seed=*/41);
  for (bool soft : {true, false}) {
    for (bool fk : {true, false}) {
      FeatureBuildOptions options;
      options.context.soft_alignment = soft;
      options.context.include_fk_neighbors = fk;
      const ContextMatcher matcher(options.context);
      const ReferenceContextMatcher reference(options.context);
      std::vector<std::shared_ptr<SchemaFeatures>> features;
      for (const Schema& s : schemas) {
        features.push_back(BuildSchemaFeatures(s, options));
      }
      MatchScratch scratch;
      for (size_t c = 1; c < schemas.size(); ++c) {
        const std::string where = "soft=" + std::to_string(soft) +
                                  " fk=" + std::to_string(fk) +
                                  " candidate " + std::to_string(c);
        MatchContext context =
            StandaloneContext(*features[0], *features[c], &scratch);
        const SimilarityMatrix expected =
            reference.Match(schemas[0], schemas[c]);
        ExpectMatrixIdentical(
            expected, matcher.MatchPrepared(schemas[0], schemas[c], context),
            where + " (context)");
        ExpectMatrixIdentical(expected, matcher.Match(schemas[0], schemas[c]),
                              where + " (Match)");
        for (ElementId e = 0; e < schemas[c].size(); ++e) {
          EXPECT_EQ(matcher.NeighborhoodTerms(schemas[c], e),
                    reference.NeighborhoodTerms(schemas[c], e))
              << where << " element " << e;
        }
      }
    }
  }
}

TEST(PreparedMatchTest, MismatchedOptionsFallBackToLegacy) {
  // Features built under non-default matcher options must not be scored
  // by default-option matchers; they build their own under their options
  // instead, so results still match the reference exactly and the
  // caller's memo is never touched.
  FeatureBuildOptions altered;
  altered.name.use_synonyms = false;
  auto qf = BuildSchemaFeatures(Clinic(), altered);
  auto cf = BuildSchemaFeatures(Shop(), altered);
  ComputeSignature(qf.get(), nullptr);
  ComputeSignature(cf.get(), nullptr);

  MatcherEnsemble ensemble = MatcherEnsemble::Default();  // default options
  MatchScratch scratch;
  MatchContext context = StandaloneContext(*qf, *cf, &scratch);
  EnsembleResult expected = ReferenceEnsemble().Match(Clinic(), Shop());
  EnsembleResult guarded =
      ensemble.Match(Clinic(), Shop(), nullptr, nullptr, &context);
  ExpectCellsIdentical(expected, guarded, "altered options");
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
  for (Schema& s : SmallCorpus(n)) {
    auto id = f.repo->Insert(std::move(s));
    EXPECT_TRUE(id.ok());
  }
  f.indexer = std::make_shared<Indexer>();
  EXPECT_TRUE(f.indexer->RebuildFromRepository(*f.repo).ok());
  auto snapshot = PinSnapshot(*f.repo, std::shared_ptr<const InvertedIndex>(
                                           f.indexer, &f.indexer->index()));
  EXPECT_TRUE(snapshot.ok()) << snapshot.status();
  f.snapshot = *std::move(snapshot);
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

/// Asserts two ranked lists agree to the bit, phase 3's anchor and
/// per-element penalties included.
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
    EXPECT_EQ(a[i].best_anchor, b[i].best_anchor) << where << " rank " << i;
    EXPECT_EQ(a[i].num_matches, b[i].num_matches) << where << " rank " << i;
    ASSERT_EQ(a[i].matched_elements.size(), b[i].matched_elements.size())
        << where << " rank " << i;
    for (size_t m = 0; m < a[i].matched_elements.size(); ++m) {
      const MatchedElement& x = a[i].matched_elements[m];
      const MatchedElement& y = b[i].matched_elements[m];
      EXPECT_EQ(x.element, y.element) << where << " rank " << i;
      EXPECT_EQ(x.score, y.score) << where << " rank " << i;
      EXPECT_EQ(x.penalized_score, y.penalized_score)
          << where << " rank " << i << " element " << x.element;
    }
  }
}

TEST(EnginePrefilterTest, CatalogPathBitIdenticalToLegacyAtAnyThreadCount) {
  // The same snapshot scored by the reference matchers (which ignore the
  // catalog) and by the kernel over the catalog.
  EngineFixture f = MakeEngineFixture(200);
  SearchEngine reference(f.snapshot, ReferenceEnsemble());
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
        auto a = reference.Search(queries[q], options);
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

TEST(EngineGoldenTest, AnswerDigestOfCorpusAndStaticEngines) {
  // Every answer a corpus engine and a static (repository, index) engine
  // give over one 200-schema corpus, folded into one digest and pinned:
  // keyword and FK-fragment queries, pruning on and off, one and four
  // scoring threads. DigestResults rounds scores to float, so one-ulp
  // libm drift cannot move it; any change to an answer must fail here.
  auto repo = SchemaRepository::OpenInMemory();
  for (Schema& s : SmallCorpus(200)) {
    ASSERT_TRUE(repo->Insert(std::move(s)).ok());
  }
  auto corpus = ServingCorpus::Create(std::move(repo));
  ASSERT_TRUE(corpus.ok()) << corpus.status();
  Indexer indexer;
  ASSERT_TRUE(indexer.RebuildFromRepository(*(*corpus)->repository()).ok());
  const SearchEngine served(corpus->get());
  const SearchEngine standalone((*corpus)->repository(), &indexer.index());

  std::vector<QueryGraph> queries;
  for (const char* q : kQueries) queries.push_back(*ParseQuery(q));
  for (const std::string& fragment : FkFragments(4)) {
    queries.push_back(*ParseQuery("", fragment));
  }
  ASSERT_EQ(queries.size(), 9u);
  uint64_t digest = 0;
  for (const SearchEngine* engine : {&served, &standalone}) {
    for (const QueryGraph& query : queries) {
      for (bool pruning : {true, false}) {
        for (size_t threads : {size_t{1}, size_t{4}}) {
          SearchEngineOptions options;
          options.enable_pruning = pruning;
          options.scoring_threads = threads;
          auto results = engine->Search(query, options);
          ASSERT_TRUE(results.ok()) << results.status();
          digest = MixHash64(digest ^ DigestResults(*results));
        }
      }
    }
  }
  EXPECT_EQ(digest, 0xe335288367d86f45ull);
}

TEST(EnginePrefilterTest, IncrementalCorpusAnswersEqualFreshCreate) {
  // A mixed run of Ingest/Update/Remove extends the dictionary in a
  // different order than a fresh Create over the same repository assigns
  // ids (and keeps the terms of removed schemas); every answer must still
  // be the same, over several corpora.
  const fs::path dir =
      fs::temp_directory_path() /
      ("schemr_incremental_catalog_" +
       std::to_string(::testing::UnitTest::GetInstance()->random_seed()));
  std::vector<QueryGraph> queries;
  for (const char* q : kQueries) queries.push_back(*ParseQuery(q));
  for (const std::string& fragment : FkFragments(3)) {
    queries.push_back(*ParseQuery("", fragment));
  }

  for (uint64_t seed : {31, 41, 51, 61, 71}) {
    SCOPED_TRACE("corpus seed " + std::to_string(seed));
    fs::remove_all(dir);
    std::vector<std::vector<SearchResult>> live_answers;
    {
      auto repo = SchemaRepository::Open(dir.string());
      ASSERT_TRUE(repo.ok()) << repo.status();
      for (Schema& s : SmallCorpus(40, seed)) {
        ASSERT_TRUE((*repo)->Insert(std::move(s)).ok());
      }
      auto live = ServingCorpus::Create(std::move(*repo));
      ASSERT_TRUE(live.ok()) << live.status();
      std::vector<Schema> arrivals = SmallCorpus(30, seed + 1);
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

    {
      auto reopened = SchemaRepository::Open(dir.string());
      ASSERT_TRUE(reopened.ok()) << reopened.status();
      auto fresh = ServingCorpus::Create(std::move(*reopened));
      ASSERT_TRUE(fresh.ok()) << fresh.status();
      SearchEngine engine(fresh->get());
      for (size_t q = 0; q < queries.size(); ++q) {
        auto results = engine.Search(queries[q]);
        ASSERT_TRUE(results.ok()) << results.status();
        ExpectSameRanking(live_answers[q], *results,
                          "query " + std::to_string(q));
      }
    }

    // Reopening from persisted state answers as the in-memory corpus did:
    // the first Open rebuilds and writes the segment and the signatures,
    // the second adopts both.
    for (bool adopts : {false, true}) {
      SCOPED_TRACE(adopts ? "adopting open" : "rebuilding open");
      auto reopened = SchemaRepository::Open(dir.string());
      ASSERT_TRUE(reopened.ok()) << reopened.status();
      OpenReport report;
      auto opened =
          ServingCorpus::Open(std::move(*reopened), dir.string(), &report);
      ASSERT_TRUE(opened.ok()) << opened.status();
      EXPECT_EQ(report.index_adopted, adopts);
      EXPECT_EQ(report.catalog.signatures_built == 0, adopts);
      SearchEngine engine(opened->get());
      for (size_t q = 0; q < queries.size(); ++q) {
        auto results = engine.Search(queries[q]);
        ASSERT_TRUE(results.ok()) << results.status();
        ExpectSameRanking(live_answers[q], *results,
                          "query " + std::to_string(q));
      }
    }
  }
  fs::remove_all(dir);
}

/// An XSD schema whose nested complex elements are nested entities, tied
/// to their parents by containment edges only.
Schema NestedXsd() {
  auto schema = ParseXsd(R"xml(
<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">
  <xs:element name="visit">
    <xs:complexType>
      <xs:sequence>
        <xs:element name="diagnosis" type="xs:string"/>
        <xs:element name="patient">
          <xs:complexType>
            <xs:sequence>
              <xs:element name="height" type="xs:double"/>
            </xs:sequence>
          </xs:complexType>
        </xs:element>
      </xs:sequence>
    </xs:complexType>
  </xs:element>
  <xs:element name="warehouse">
    <xs:complexType>
      <xs:sequence>
        <xs:element name="city" type="xs:string"/>
      </xs:sequence>
    </xs:complexType>
  </xs:element>
</xs:schema>)xml",
                         "nested_visit");
  EXPECT_TRUE(schema.ok()) << schema.status();
  return *std::move(schema);
}

/// Two groups of FK-linked entities with no key between the groups.
Schema TwoFkGroups() {
  return SchemaBuilder("two_fk_groups")
      .Entity("patient")
      .Attribute("height", DataType::kDouble)
      .Entity("visit")
      .Attribute("patient_id", DataType::kInt64)
      .References("patient")
      .Entity("warehouse")
      .Attribute("city")
      .Entity("stock")
      .Attribute("warehouse_id", DataType::kInt64)
      .References("warehouse")
      .Build();
}

/// Asserts every catalog entry of `snapshot` carries its schema's
/// EntityGraph components, entity by entity.
void ExpectCatalogComponents(const CorpusSnapshot& snapshot,
                             const std::string& where) {
  const MatchFeatureCatalog& catalog = *snapshot.match_features;
  EXPECT_EQ(catalog.size(), snapshot.schemas->Size()) << where;
  Status walked = snapshot.schemas->ForEach([&](const Schema& schema) {
    const SchemaFeatures* features = catalog.Find(schema.id());
    if (features == nullptr || features->component.size() != schema.size()) {
      ADD_FAILURE() << where << ": schema " << schema.id()
                    << " has no components of its size";
      return Status::OK();
    }
    const EntityGraph graph(schema);
    for (ElementId e : graph.entities()) {
      EXPECT_EQ(features->component[e], graph.ComponentOf(e))
          << where << ": schema " << schema.name() << " entity " << e;
    }
    return Status::OK();
  });
  EXPECT_TRUE(walked.ok()) << walked;
}

TEST(CatalogComponentTest, EveryBuildPathFillsEntityComponents) {
  // The shapes the components must tell apart: containment-only
  // neighbors (XSD nesting) and FK groups with no path between them.
  const Schema nested = NestedXsd();
  const EntityGraph nested_graph(nested);
  const ElementId visit = *nested.FindByName("visit", ElementKind::kEntity);
  const ElementId patient =
      *nested.FindByName("patient", ElementKind::kEntity);
  const ElementId warehouse =
      *nested.FindByName("warehouse", ElementKind::kEntity);
  ASSERT_EQ(nested.element(patient).parent, visit);
  ASSERT_TRUE(nested_graph.InSameNeighborhood(visit, patient));
  ASSERT_FALSE(nested_graph.InSameNeighborhood(visit, warehouse));
  ASSERT_EQ(EntityGraph(TwoFkGroups()).NumComponents(), 2u);

  auto repo = SchemaRepository::OpenInMemory();
  for (Schema& s : SmallCorpus(12, /*seed=*/19)) {
    ASSERT_TRUE(repo->Insert(std::move(s)).ok());
  }
  auto nested_id = repo->Insert(nested);
  ASSERT_TRUE(nested_id.ok()) << nested_id.status();
  auto corpus = ServingCorpus::Create(std::move(repo));
  ASSERT_TRUE(corpus.ok()) << corpus.status();
  ExpectCatalogComponents(*(*corpus)->Snapshot(), "after Create");

  auto groups_id = (*corpus)->Ingest(TwoFkGroups());
  ASSERT_TRUE(groups_id.ok()) << groups_id.status();
  for (Schema& s : SmallCorpus(3, /*seed=*/23)) {
    ASSERT_TRUE((*corpus)->Ingest(std::move(s)).ok());
  }
  ExpectCatalogComponents(*(*corpus)->Snapshot(), "after Ingest");

  // Swap the two shapes' contents: each id's components must follow.
  Schema swapped_groups = TwoFkGroups();
  swapped_groups.set_id(*nested_id);
  ASSERT_TRUE((*corpus)->Update(swapped_groups).ok());
  Schema swapped_nested = nested;
  swapped_nested.set_id(*groups_id);
  ASSERT_TRUE((*corpus)->Update(swapped_nested).ok());
  std::shared_ptr<const CorpusSnapshot> updated = (*corpus)->Snapshot();
  ExpectCatalogComponents(*updated, "after Update");
  const SchemaFeatures* moved = updated->match_features->Find(*groups_id);
  ASSERT_NE(moved, nullptr);
  EXPECT_EQ(moved->component[visit], moved->component[patient]);
  EXPECT_NE(moved->component[visit], moved->component[warehouse]);
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

  // Exact search scores it on features built on the spot, through the
  // same kernel: the answers equal the full catalog's.
  for (const char* q : kQueries) {
    auto with_entry = SearchEngine(f.snapshot).SearchKeywords(q);
    auto without_entry = engine.SearchKeywords(q);
    ASSERT_TRUE(with_entry.ok() && without_entry.ok());
    ExpectSameRanking(*with_entry, *without_entry, q);
  }
  auto own = engine.SearchKeywords(schema->name());
  ASSERT_TRUE(own.ok());
  ExpectSameRanking(*SearchEngine(f.snapshot).SearchKeywords(schema->name()),
                    *own, schema->name());
}

TEST(EnginePrefilterTest, SnapshotWithoutCatalogIsRefused) {
  // A pinned snapshot must be complete: one without a catalog is never
  // scored another way, and every search says why.
  EngineFixture f = MakeEngineFixture(4);
  auto incomplete = std::make_shared<CorpusSnapshot>(*f.snapshot);
  incomplete->match_features = nullptr;
  const SearchEngine engine(incomplete);
  auto results = engine.SearchKeywords(kQueries[0]);
  ASSERT_FALSE(results.ok());
  EXPECT_EQ(results.status().code(), StatusCode::kInvalidArgument);
  EXPECT_FALSE(engine.Snapshot().ok());
  EXPECT_FALSE(SearchEngine(std::shared_ptr<const CorpusSnapshot>())
                   .SearchKeywords(kQueries[0])
                   .ok());
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
  const std::string repo_dir = (dir_ / "repo").string();
  {
    auto repo = SchemaRepository::Open(repo_dir);
    ASSERT_TRUE(repo.ok()) << repo.status();
    for (Schema& s : SmallCorpus(6)) {
      ASSERT_TRUE((*repo)->Insert(std::move(s)).ok());
    }
    auto corpus = ServingCorpus::Open(std::move(*repo), dir_.string());
    ASSERT_TRUE(corpus.ok()) << corpus.status();

    auto snapshot = (*corpus)->Snapshot();
    ASSERT_NE(snapshot->match_features, nullptr);
    EXPECT_EQ(snapshot->match_features->size(), 6u);

    // Incremental ingest extends the catalog in the next snapshot.
    ASSERT_TRUE((*corpus)->Ingest(Clinic()).ok());
    auto after = (*corpus)->Snapshot();
    EXPECT_EQ(after->match_features->size(), 7u);
    EXPECT_GT(after->version, snapshot->version);
  }

  // The ingest wrote no file, so the first reopen builds all seven
  // signatures and writes the file; the second adopts every one of them.
  CatalogBuildStats first;
  CatalogBuildStats second;
  for (CatalogBuildStats* stats : {&first, &second}) {
    auto repo = SchemaRepository::Open(repo_dir);
    ASSERT_TRUE(repo.ok()) << repo.status();
    OpenReport report;
    auto corpus = ServingCorpus::Open(std::move(*repo), dir_.string(), &report);
    ASSERT_TRUE(corpus.ok()) << corpus.status();
    *stats = report.catalog;
  }
  EXPECT_EQ(first.signatures_built, 7u);
  EXPECT_EQ(second.signatures_loaded, 7u);
  EXPECT_EQ(second.signatures_built, 0u);
}

}  // namespace
}  // namespace schemr
