// The paper's example scenario (Sec. 1, Figs. 1, 2 and 4).
//
// "A database administrator begins by designing a new table ... she
// performs a search for existing data models by using the keywords
// patient, height, gender, diagnosis. Additionally, she specifies a
// partially designed schema."
//
// This example generates a mixed-domain corpus (so health schemas compete
// against retail/education/etc.), runs that exact query -- keywords plus a
// DDL fragment -- and writes the two-panel GUI as a static HTML page with
// tree and radial visualizations of the top hits, node colors encoding
// element kind and match strength.
//
// Usage: health_clinic [output.html]   (default: health_clinic_results.html)

#include <cstdio>
#include <fstream>

#include "eval/harness.h"
#include "service/schemr_service.h"

int main(int argc, char** argv) {
  std::string output_path =
      argc > 1 ? argv[1] : "health_clinic_results.html";

  // A corpus of 800 schemas across all domains; dozens will derive from
  // the health concepts.
  schemr::CorpusOptions corpus_options;
  corpus_options.num_schemas = 800;
  corpus_options.seed = 2009;  // SIGMOD 2009
  auto fixture = schemr::CorpusFixture::Build(corpus_options);
  if (!fixture.ok()) {
    std::fprintf(stderr, "corpus build failed: %s\n",
                 fixture.status().ToString().c_str());
    return 1;
  }
  std::printf("corpus: %zu schemas indexed (%zu terms)\n",
              fixture->index().NumDocs(), fixture->index().NumTerms());

  schemr::SchemrService service(fixture->serving.get());

  // The query of the paper: keywords + a partially designed schema (the
  // query graph of Fig. 1 -- a fragment tree plus keyword one-node trees).
  schemr::SearchRequest request;
  request.keywords = "patient height gender diagnosis";
  request.fragment = R"sql(
CREATE TABLE patient (
  patient_id BIGINT PRIMARY KEY,
  height DOUBLE,
  gender VARCHAR(10)
);
)sql";
  request.top_k = 8;

  auto results = service.Search(request);
  if (!results.ok()) {
    std::fprintf(stderr, "search failed: %s\n",
                 results.status().ToString().c_str());
    return 1;
  }

  std::printf("\nquery: \"%s\" + patient(height, gender) fragment\n",
              request.keywords.c_str());
  std::printf("%-4s %-24s %-7s %-9s %-8s %-9s %-10s\n", "#", "name", "score",
              "tightness", "matches", "entities", "attributes");
  int rank = 1;
  for (const schemr::SearchResult& r : *results) {
    std::printf("%-4d %-24s %-7.3f %-9.3f %-8zu %-9zu %-10zu\n", rank++,
                r.name.c_str(), r.score, r.tightness, r.num_matches,
                r.num_entities, r.num_attributes);
  }

  // Render the GUI substitute: results table + side-by-side tree/radial
  // panels with similarity-colored nodes (Fig. 2).
  auto html = service.RenderHtmlReport(request, /*max_panels=*/4);
  if (!html.ok()) {
    std::fprintf(stderr, "report failed: %s\n",
                 html.status().ToString().c_str());
    return 1;
  }
  std::ofstream out(output_path);
  out << *html;
  out.close();
  std::printf("\nwrote %s (%zu bytes)\n", output_path.c_str(), html->size());

  // Drill-in (double-click in the GUI): re-root the top schema's view at
  // its best anchor entity and fetch the GraphML the client would parse.
  if (!results->empty() &&
      results->front().best_anchor != schemr::kNoElement) {
    schemr::VisualizationRequest viz;
    viz.schema_id = results->front().schema_id;
    viz.root = results->front().best_anchor;
    viz.scores = results->front().matched_elements;
    auto graphml = service.GetSchemaGraphMl(viz);
    if (graphml.ok()) {
      std::printf("drill-in GraphML on anchor entity: %zu bytes\n",
                  graphml->size());
    }
  }
  return 0;
}
