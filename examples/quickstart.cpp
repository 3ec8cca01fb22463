// Quickstart: the full Schemr pipeline in one file.
//
// Builds a small persistent schema repository, opens it as a serving
// corpus (ServingCorpus::Open runs the offline text indexer and saves the
// index segment the service reads; a later run adopts that segment),
// executes a keyword search through the three-phase engine, and prints
// the ranked results table. Finally fetches the GraphML rendering of the
// best hit -- exactly the request flow of the paper's architecture
// diagram (Fig. 5).
//
// Usage: quickstart [repository_dir]   (default: ./quickstart_repo)

#include <cstdio>
#include <string>

#include "core/serving_corpus.h"
#include "parse/ddl_parser.h"
#include "repo/schema_repository.h"
#include "service/schemr_service.h"

namespace {

constexpr const char* kClinicDdl = R"sql(
CREATE TABLE patient (
  patient_id BIGINT PRIMARY KEY,
  first_name VARCHAR(80) NOT NULL,
  last_name VARCHAR(80) NOT NULL,
  gender VARCHAR(10),
  date_of_birth DATE,
  height DOUBLE,
  weight DOUBLE
);
CREATE TABLE doctor (
  doctor_id BIGINT PRIMARY KEY,
  full_name VARCHAR(120),
  specialty VARCHAR(60)
);
CREATE TABLE "case" (
  case_id BIGINT PRIMARY KEY,
  patient_id BIGINT REFERENCES patient (patient_id),
  doctor_id BIGINT REFERENCES doctor (doctor_id),
  diagnosis VARCHAR(200),
  visit_date DATE
);
)sql";

constexpr const char* kShopDdl = R"sql(
CREATE TABLE customer (
  customer_id BIGINT PRIMARY KEY,
  first_name VARCHAR(80),
  last_name VARCHAR(80),
  email VARCHAR(120)
);
CREATE TABLE orders (
  order_id BIGINT PRIMARY KEY,
  customer_id BIGINT REFERENCES customer,
  order_date TIMESTAMP,
  total_amount DECIMAL
);
)sql";

constexpr const char* kSurveyDdl = R"sql(
CREATE TABLE site (
  site_id BIGINT PRIMARY KEY,
  site_name VARCHAR(100),
  latitude DOUBLE,
  longitude DOUBLE
);
CREATE TABLE observation (
  observation_id BIGINT PRIMARY KEY,
  site_id BIGINT REFERENCES site,
  species VARCHAR(120),
  observed_at TIMESTAMP,
  head_count INTEGER
);
)sql";

bool Check(const schemr::Status& status, const char* what) {
  if (!status.ok()) {
    std::fprintf(stderr, "%s failed: %s\n", what, status.ToString().c_str());
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::string repo_dir = argc > 1 ? argv[1] : "./quickstart_repo";

  // 1. Open (or create) the schema repository.
  auto repo_result = schemr::SchemaRepository::Open(repo_dir);
  if (!Check(repo_result.status(), "opening repository")) return 1;
  auto& repo = *repo_result.value();

  // 2. Import a few DDL schemas (idempotent-ish: skip if non-empty).
  if (repo.Size() == 0) {
    struct Import {
      const char* name;
      const char* ddl;
      const char* description;
    };
    const Import imports[] = {
        {"rural_clinic", kClinicDdl, "patient visit tracking for a clinic"},
        {"web_shop", kShopDdl, "customers and orders of a small shop"},
        {"wildlife_survey", kSurveyDdl, "species observations at field sites"},
    };
    for (const Import& import : imports) {
      auto parsed = schemr::ParseDdl(import.ddl, import.name);
      if (!Check(parsed.status(), "parsing DDL")) return 1;
      parsed.value().set_description(import.description);
      auto inserted = repo.Insert(std::move(parsed).value());
      if (!Check(inserted.status(), "inserting schema")) return 1;
      std::printf("imported '%s' as schema %llu\n", import.name,
                  static_cast<unsigned long long>(*inserted));
    }
  }

  // 3. Offline text indexer (Fig. 5): flatten the repository into the
  //    document index, saved next to the repository for the next run.
  schemr::OpenReport opened;
  auto corpus = schemr::ServingCorpus::Open(std::move(repo_result).value(),
                                            repo_dir, &opened);
  if (!Check(corpus.status(), "indexing")) return 1;
  const size_t indexed = (*corpus)->Snapshot()->index->NumDocs();
  if (opened.index_adopted) {
    std::printf("adopted the saved index of %zu schemas\n", indexed);
  } else {
    std::printf("indexed %zu schemas in %.1f ms\n", indexed,
                opened.index_rebuild_seconds * 1e3);
  }

  // 4. Search: keywords as the paper's running example.
  schemr::SchemrService service(corpus->get());
  schemr::SearchRequest request;
  request.keywords = "patient height gender diagnosis";
  auto results = service.Search(request);
  if (!Check(results.status(), "search")) return 1;

  std::printf("\nquery: %s\n", request.keywords.c_str());
  std::printf("%-4s %-18s %-7s %-8s %-9s %-10s %s\n", "#", "name", "score",
              "matches", "entities", "attributes", "description");
  int rank = 1;
  for (const schemr::SearchResult& r : *results) {
    std::printf("%-4d %-18s %-7.3f %-8zu %-9zu %-10zu %s\n", rank++,
                r.name.c_str(), r.score, r.num_matches, r.num_entities,
                r.num_attributes, r.description.c_str());
  }
  if (results->empty()) {
    std::fprintf(stderr, "no results -- unexpected for the demo corpus\n");
    return 1;
  }

  // 5. Visualization request for the top hit (GraphML wire format).
  schemr::VisualizationRequest viz;
  viz.schema_id = results->front().schema_id;
  viz.scores = results->front().matched_elements;
  auto graphml = service.GetSchemaGraphMl(viz);
  if (!Check(graphml.status(), "visualization")) return 1;
  std::printf("\nGraphML for top result (%zu bytes):\n%.400s...\n",
              graphml->size(), graphml->c_str());
  return 0;
}
