// Tests for the service layer: search XML responses, GraphML/SVG
// visualization responses, and the HTML report -- the wire formats of the
// paper's architecture diagram.

#include <gtest/gtest.h>

#include <cerrno>

#include "core/serving_corpus.h"
#include "parse/xml_parser.h"
#include "repo/schema_repository.h"
#include "schema/schema_builder.h"
#include "service/schemr_service.h"
#include "util/fault_injection.h"

namespace schemr {
namespace {

struct ServiceFixture {
  std::unique_ptr<ServingCorpus> corpus;
  std::unique_ptr<SchemrService> service;
  SchemaId clinic_id = 0;
};

ServiceFixture MakeFixture() {
  ServiceFixture f;
  auto repo = SchemaRepository::OpenInMemory();
  Schema clinic = SchemaBuilder("clinic")
                      .Description("rural clinic data")
                      .Entity("patient")
                      .Attribute("height", DataType::kDouble)
                      .Attribute("gender")
                      .Entity("case")
                      .Attribute("patient_id", DataType::kInt64)
                      .References("patient")
                      .Attribute("diagnosis")
                      .Build();
  f.clinic_id = *repo->Insert(std::move(clinic));
  (void)*repo->Insert(SchemaBuilder("shop")
                          .Entity("customer")
                          .Attribute("email")
                          .Build());
  auto corpus = ServingCorpus::Create(std::move(repo));
  EXPECT_TRUE(corpus.ok()) << corpus.status();
  f.corpus = *std::move(corpus);
  f.service = std::make_unique<SchemrService>(f.corpus.get());
  return f;
}

TEST(SchemrServiceTest, SearchReturnsStructuredResults) {
  ServiceFixture f = MakeFixture();
  SearchRequest request;
  request.keywords = "patient height diagnosis";
  auto results = f.service->Search(request);
  ASSERT_TRUE(results.ok()) << results.status();
  ASSERT_FALSE(results->empty());
  EXPECT_EQ((*results)[0].schema_id, f.clinic_id);
  EXPECT_EQ((*results)[0].description, "rural clinic data");
}

TEST(SchemrServiceTest, SearchRespectsRequestKnobs) {
  ServiceFixture f = MakeFixture();
  SearchRequest request;
  request.keywords = "patient customer email height";
  request.top_k = 1;
  auto results = f.service->Search(request);
  ASSERT_TRUE(results.ok());
  EXPECT_EQ(results->size(), 1u);
}

TEST(SchemrServiceTest, SearchXmlIsWellFormedAndComplete) {
  ServiceFixture f = MakeFixture();
  SearchRequest request;
  request.keywords = "patient height";
  request.fragment = "CREATE TABLE patient (gender VARCHAR(8));";
  auto xml = f.service->SearchXml(request);
  ASSERT_TRUE(xml.ok()) << xml.status();

  auto doc = ParseXml(*xml);
  ASSERT_TRUE(doc.ok()) << doc.status();
  EXPECT_EQ(doc->root->name, "results");
  ASSERT_NE(doc->root->FindAttribute("count"), nullptr);
  auto results = doc->root->ChildrenNamed("result");
  ASSERT_FALSE(results.empty());
  const XmlNode* first = results[0];
  for (const char* attr :
       {"id", "name", "score", "matches", "entities", "attributes"}) {
    EXPECT_NE(first->FindAttribute(attr), nullptr) << attr;
  }
  // Matched elements listed for client-side coloring.
  EXPECT_FALSE(first->ChildrenNamed("element").empty());
}

TEST(SchemrServiceTest, ExplainEmbedsOneSpanPerEnabledPhase) {
  ServiceFixture f = MakeFixture();
  SearchRequest request;
  request.keywords = "patient height";
  request.explain = true;
  auto xml = f.service->SearchXml(request);
  ASSERT_TRUE(xml.ok()) << xml.status();
  auto doc = ParseXml(*xml);
  ASSERT_TRUE(doc.ok()) << doc.status();

  const XmlNode* explain = doc->root->FirstChild("explain");
  ASSERT_NE(explain, nullptr);
  auto roots = explain->ChildrenNamed("span");
  ASSERT_EQ(roots.size(), 1u);
  EXPECT_EQ(*roots[0]->FindAttribute("name"), "search");

  // Collect the phase spans nested under the root search span.
  auto count_phase = [&](const XmlNode* node, const std::string& name) {
    size_t n = 0;
    for (const XmlNode* span : node->ChildrenNamed("span")) {
      if (span->FindAttribute("name") != nullptr &&
          *span->FindAttribute("name") == name) {
        ++n;
      }
    }
    return n;
  };
  EXPECT_EQ(count_phase(roots[0], "phase1_extract"), 1u);
  EXPECT_EQ(count_phase(roots[0], "phase2_match"), 1u);
  EXPECT_EQ(count_phase(roots[0], "phase3_tightness"), 1u);

  // The match span carries per-matcher child spans.
  for (const XmlNode* span : roots[0]->ChildrenNamed("span")) {
    if (*span->FindAttribute("name") == "phase2_match") {
      EXPECT_FALSE(span->ChildrenNamed("span").empty());
    }
  }

  // Ablated phases leave no span behind.
  SearchEngineOptions ablated;
  ablated.enable_tightness = false;
  auto xml2 = f.service->SearchXml(request, ablated);
  ASSERT_TRUE(xml2.ok());
  auto doc2 = ParseXml(*xml2);
  ASSERT_TRUE(doc2.ok());
  const XmlNode* explain2 = doc2->root->FirstChild("explain");
  ASSERT_NE(explain2, nullptr);
  const XmlNode* root2 = explain2->ChildrenNamed("span")[0];
  EXPECT_EQ(count_phase(root2, "phase2_match"), 1u);
  EXPECT_EQ(count_phase(root2, "phase3_tightness"), 0u);

  ablated.enable_matching = false;
  auto xml3 = f.service->SearchXml(request, ablated);
  ASSERT_TRUE(xml3.ok());
  auto doc3 = ParseXml(*xml3);
  ASSERT_TRUE(doc3.ok());
  const XmlNode* root3 =
      doc3->root->FirstChild("explain")->ChildrenNamed("span")[0];
  EXPECT_EQ(count_phase(root3, "phase1_extract"), 1u);
  EXPECT_EQ(count_phase(root3, "phase2_match"), 0u);
  EXPECT_EQ(count_phase(root3, "phase3_tightness"), 0u);
}

TEST(SchemrServiceTest, DefaultRequestsOmitExplain) {
  ServiceFixture f = MakeFixture();
  SearchRequest request;
  request.keywords = "patient height";
  auto xml = f.service->SearchXml(request);
  ASSERT_TRUE(xml.ok());
  EXPECT_EQ(xml->find("<explain"), std::string::npos);
  EXPECT_EQ(xml->find("<span"), std::string::npos);
}

TEST(SchemrServiceTest, MetricsTextExposesServiceSeries) {
  ServiceFixture f = MakeFixture();
  SearchRequest request;
  request.keywords = "patient height";
  ASSERT_TRUE(f.service->Search(request).ok());
  std::string text = f.service->MetricsText();
  EXPECT_NE(text.find("# TYPE schemr_service_search_requests_total counter"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE schemr_search_seconds histogram"),
            std::string::npos);
  EXPECT_NE(text.find("schemr_search_seconds_bucket{le=\"+Inf\"}"),
            std::string::npos);
  std::string json = f.service->MetricsJson();
  EXPECT_NE(json.find("\"schemr_search_requests_total\""), std::string::npos);
}

TEST(SchemrServiceTest, GraphMlVisualizationRoundTrip) {
  ServiceFixture f = MakeFixture();
  VisualizationRequest viz;
  viz.schema_id = f.clinic_id;
  viz.scores.push_back(MatchedElement{1, 0.9, 0.9});
  auto graphml = f.service->GetSchemaGraphMl(viz);
  ASSERT_TRUE(graphml.ok()) << graphml.status();
  auto doc = ParseXml(*graphml);
  ASSERT_TRUE(doc.ok());
  const XmlNode* graph = doc->root->FirstChild("graph");
  ASSERT_NE(graph, nullptr);
  // 6 schema elements → 6 nodes (cap not hit at depth ≤ 1).
  EXPECT_EQ(graph->ChildrenNamed("node").size(), 6u);

  // Unknown schema id → NotFound.
  viz.schema_id = 424242;
  EXPECT_TRUE(f.service->GetSchemaGraphMl(viz).status().IsNotFound());
}

TEST(SchemrServiceTest, LayoutSelection) {
  ServiceFixture f = MakeFixture();
  VisualizationRequest viz;
  viz.schema_id = f.clinic_id;
  viz.layout = "radial";
  EXPECT_TRUE(f.service->GetSchemaSvg(viz).ok());
  viz.layout = "tree";
  EXPECT_TRUE(f.service->GetSchemaSvg(viz).ok());
  viz.layout = "hyperbolic";
  auto bad = f.service->GetSchemaSvg(viz);
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
}

TEST(SchemrServiceTest, VisualizationDepthIsCapped) {
  ServiceFixture f = MakeFixture();
  VisualizationRequest viz;
  viz.schema_id = f.clinic_id;
  viz.max_depth = ServiceLimits{}.max_viz_depth + 1;
  auto rejected = f.service->GetSchemaGraphMl(viz);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kInvalidArgument);
  // At the cap is still fine.
  viz.max_depth = ServiceLimits{}.max_viz_depth;
  EXPECT_TRUE(f.service->GetSchemaGraphMl(viz).ok());
}

TEST(SchemrServiceTest, VisualizationRejectedBeforeRepositoryAccess) {
  ServiceFixture f = MakeFixture();
  // Both fields invalid AND the schema id unknown: validation must win,
  // proving it runs before the repository lookup.
  VisualizationRequest viz;
  viz.schema_id = 999999;
  viz.layout = "spiral";
  auto rejected = f.service->GetSchemaGraphMl(viz);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kInvalidArgument);
}

TEST(SchemrServiceTest, DrillInRestrictsToSubtree) {
  ServiceFixture f = MakeFixture();
  Schema clinic = *f.corpus->repository()->Get(f.clinic_id);
  ElementId case_entity = *clinic.FindByName("case", ElementKind::kEntity);
  VisualizationRequest viz;
  viz.schema_id = f.clinic_id;
  viz.root = case_entity;
  auto graphml = f.service->GetSchemaGraphMl(viz);
  ASSERT_TRUE(graphml.ok());
  auto doc = ParseXml(*graphml);
  ASSERT_TRUE(doc.ok());
  // case + its two attributes.
  EXPECT_EQ(doc->root->FirstChild("graph")->ChildrenNamed("node").size(), 3u);
}

TEST(SchemrServiceTest, GraphMlCarriesCodebookAnnotations) {
  ServiceFixture f = MakeFixture();
  // The clinic schema has patient_id (identifier) and more.
  VisualizationRequest viz;
  viz.schema_id = f.clinic_id;
  auto graphml = f.service->GetSchemaGraphMl(viz);
  ASSERT_TRUE(graphml.ok());
  EXPECT_NE(graphml->find("d_semantic"), std::string::npos);
  EXPECT_NE(graphml->find("identifier"), std::string::npos);
}

TEST(SchemrServiceTest, HtmlReportContainsTableAndPanels) {
  ServiceFixture f = MakeFixture();
  SearchRequest request;
  request.keywords = "patient height gender diagnosis";
  auto html = f.service->RenderHtmlReport(request, 2);
  ASSERT_TRUE(html.ok()) << html.status();
  EXPECT_NE(html->find("clinic"), std::string::npos);
  EXPECT_NE(html->find("<svg"), std::string::npos);
  EXPECT_NE(html->find("tree view"), std::string::npos);
}

TEST(SchemrServiceTest, BadRequestsSurfaceErrors) {
  ServiceFixture f = MakeFixture();
  SearchRequest empty;
  EXPECT_FALSE(f.service->Search(empty).ok());
  SearchRequest bad_fragment;
  bad_fragment.keywords = "x";
  bad_fragment.fragment = "CREATE TABLE oops (";
  EXPECT_TRUE(f.service->Search(bad_fragment).status().IsParseError());
}

TEST(SchemrServiceTest, ValidationRejectsDegenerateKnobs) {
  ServiceFixture f = MakeFixture();

  SearchRequest zero_k;
  zero_k.keywords = "patient";
  zero_k.top_k = 0;
  auto status = f.service->Search(zero_k).status();
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("top_k"), std::string::npos);
  EXPECT_EQ(f.service->SearchXml(zero_k).status().code(),
            StatusCode::kInvalidArgument);

  SearchRequest small_pool;
  small_pool.keywords = "patient";
  small_pool.top_k = 20;
  small_pool.candidate_pool = 5;
  status = f.service->Search(small_pool).status();
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("candidate_pool"), std::string::npos);
}

TEST(SchemrServiceTest, ValidationEnforcesByteCaps) {
  ServiceFixture f = MakeFixture();
  ServiceLimits limits;
  limits.max_keywords_bytes = 16;
  limits.max_fragment_bytes = 32;
  SchemrService capped(f.corpus.get(), MatcherEnsemble::Default(), limits);

  SearchRequest big_keywords;
  big_keywords.keywords = std::string(17, 'k');
  auto status = capped.Search(big_keywords).status();
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("keywords"), std::string::npos);
  EXPECT_EQ(capped.SearchXml(big_keywords).status().code(),
            StatusCode::kInvalidArgument);

  SearchRequest big_fragment;
  big_fragment.keywords = "patient";
  big_fragment.fragment = std::string(33, 'f');
  status = capped.Search(big_fragment).status();
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("fragment"), std::string::npos);

  // Requests at the caps still pass validation.
  SearchRequest at_cap;
  at_cap.keywords = std::string(16, 'k');
  EXPECT_TRUE(capped.Search(at_cap).ok());
}

TEST(SchemrServiceTest, DegradedSearchIsFlaggedInXml) {
  ServiceFixture f = MakeFixture();
  FaultInjector::Global().DisarmAll();
  FaultInjector::Global().Arm("match/name", {FaultKind::kError, EIO});

  SearchRequest request;
  request.keywords = "patient height diagnosis";
  auto xml = f.service->SearchXml(request);
  FaultInjector::Global().DisarmAll();
  ASSERT_TRUE(xml.ok()) << xml.status();
  EXPECT_NE(xml->find("degraded=\"true\""), std::string::npos);

  // Explain mode surfaces which matcher was dropped.
  FaultInjector::Global().Arm("match/name", {FaultKind::kError, EIO});
  request.explain = true;
  xml = f.service->SearchXml(request);
  FaultInjector::Global().DisarmAll();
  ASSERT_TRUE(xml.ok()) << xml.status();
  EXPECT_NE(xml->find("<degradation"), std::string::npos);
  EXPECT_NE(xml->find("<dropped_matcher name=\"name\""), std::string::npos);

  // Healthy responses carry no degraded markers at all.
  request.explain = false;
  xml = f.service->SearchXml(request);
  ASSERT_TRUE(xml.ok());
  EXPECT_EQ(xml->find("degraded"), std::string::npos);
}

TEST(SchemrServiceTest, MetricsTextExposesRobustnessSeries) {
  ServiceFixture f = MakeFixture();
  FaultInjector::Global().DisarmAll();
  FaultInjector::Global().Arm("match/name", {FaultKind::kError, EIO});
  SearchRequest request;
  request.keywords = "patient height";
  ASSERT_TRUE(f.service->Search(request).ok());
  FaultInjector::Global().DisarmAll();

  std::string text = f.service->MetricsText();
  EXPECT_NE(text.find("schemr_faults_injected"), std::string::npos);
  EXPECT_NE(text.find("schemr_matcher_failures_total"), std::string::npos);
  EXPECT_NE(text.find("schemr_searches_degraded_total"), std::string::npos);
}

}  // namespace
}  // namespace schemr
