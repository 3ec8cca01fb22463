// Unit tests for src/schema: the model, builder, entity graph, validation.

#include <gtest/gtest.h>

#include "schema/entity_graph.h"
#include "schema/schema.h"
#include "schema/schema_builder.h"

namespace schemr {
namespace {

/// The paper's Fig. 4 schema: case(doctor, patient) with FKs to
/// patient(height, gender) and doctor(gender) -- wait, Fig. 4 has case
/// linked to patient and doctor *not* linked (doctor unrelated to patient).
/// We build: case references patient; doctor stands alone except case also
/// references doctor? In the figure, case links to both patient and doctor
/// via FK, while patient and doctor are mutually reachable only through
/// case. The tightness test (core_test) relies on the exact topology:
/// entities case, patient, doctor; case.patient→patient, case.doctor→doctor.
Schema MakeClinicSchema() {
  return SchemaBuilder("clinic")
      .Entity("patient")
      .Attribute("patient_id", DataType::kInt64)
      .PrimaryKey()
      .Attribute("height", DataType::kDouble)
      .Attribute("gender", DataType::kString)
      .Entity("doctor")
      .Attribute("doctor_id", DataType::kInt64)
      .PrimaryKey()
      .Attribute("gender", DataType::kString)
      .Entity("case")
      .Attribute("case_id", DataType::kInt64)
      .PrimaryKey()
      .Attribute("patient", DataType::kInt64)
      .References("patient")
      .Attribute("doctor", DataType::kInt64)
      .References("doctor")
      .Build();
}

TEST(SchemaTest, BasicCountsAndAccess) {
  Schema schema = MakeClinicSchema();
  EXPECT_EQ(schema.name(), "clinic");
  EXPECT_EQ(schema.NumEntities(), 3u);
  EXPECT_EQ(schema.NumAttributes(), 8u);
  EXPECT_EQ(schema.size(), 11u);
  EXPECT_EQ(schema.foreign_keys().size(), 2u);
  EXPECT_TRUE(schema.Validate().ok());
}

TEST(SchemaTest, RootsAndChildren) {
  Schema schema = MakeClinicSchema();
  std::vector<ElementId> roots = schema.Roots();
  ASSERT_EQ(roots.size(), 3u);
  for (ElementId root : roots) {
    EXPECT_EQ(schema.element(root).kind, ElementKind::kEntity);
  }
  auto patient = schema.FindByName("patient", ElementKind::kEntity);
  ASSERT_TRUE(patient.has_value());
  EXPECT_EQ(schema.Children(*patient).size(), 3u);
}

TEST(SchemaTest, EntityOfWalksToNearestEntity) {
  Schema schema = MakeClinicSchema();
  auto patient = schema.FindByName("patient", ElementKind::kEntity);
  auto height = schema.FindByName("height");
  ASSERT_TRUE(patient && height);
  EXPECT_EQ(schema.EntityOf(*height), *patient);
  EXPECT_EQ(schema.EntityOf(*patient), *patient);  // entity is its own
}

TEST(SchemaTest, DepthAndPath) {
  Schema schema;
  ElementId a = schema.AddEntity("a");
  ElementId b = schema.AddEntity("b", a);
  ElementId c = schema.AddAttribute("c", b);
  EXPECT_EQ(schema.Depth(a), 0u);
  EXPECT_EQ(schema.Depth(b), 1u);
  EXPECT_EQ(schema.Depth(c), 2u);
  EXPECT_EQ(schema.Path(c), "a.b.c");
}

TEST(SchemaTest, FindByNameIsCaseInsensitive) {
  Schema schema = MakeClinicSchema();
  EXPECT_TRUE(schema.FindByName("PATIENT").has_value());
  EXPECT_TRUE(schema.FindByName("Height").has_value());
  EXPECT_FALSE(schema.FindByName("nonexistent").has_value());
  // Kind filter excludes attributes.
  EXPECT_FALSE(schema.FindByName("height", ElementKind::kEntity).has_value());
}

TEST(SchemaTest, ValidateRejectsEmptyName) {
  Schema schema;
  schema.AddEntity("");
  EXPECT_FALSE(schema.Validate().ok());
}

TEST(SchemaTest, ValidateRejectsOutOfRangeParent) {
  Schema schema;
  Element e;
  e.name = "orphan";
  e.parent = 99;
  schema.AddElement(std::move(e));
  EXPECT_FALSE(schema.Validate().ok());
}

TEST(SchemaTest, ValidateRejectsAttributeWithChildren) {
  Schema schema;
  ElementId attr = schema.AddAttribute("a", kNoElement);
  schema.AddAttribute("child", attr);
  EXPECT_FALSE(schema.Validate().ok());
}

TEST(SchemaTest, ValidateRejectsContainmentCycle) {
  Schema schema;
  ElementId a = schema.AddEntity("a");
  ElementId b = schema.AddEntity("b", a);
  schema.mutable_element(a)->parent = b;  // cycle a <-> b
  EXPECT_FALSE(schema.Validate().ok());
}

TEST(SchemaTest, ValidateRejectsBadForeignKeys) {
  {
    Schema schema;
    ElementId e = schema.AddEntity("e");
    schema.AddForeignKey(e, e);  // source must be an attribute
    EXPECT_FALSE(schema.Validate().ok());
  }
  {
    Schema schema;
    ElementId e = schema.AddEntity("e");
    ElementId a = schema.AddAttribute("a", e);
    schema.AddForeignKey(a, a);  // target must be an entity
    EXPECT_FALSE(schema.Validate().ok());
  }
  {
    Schema schema;
    ElementId e = schema.AddEntity("e");
    ElementId a = schema.AddAttribute("a", e);
    schema.AddForeignKey(a, e, e);  // target attribute must be an attribute
    EXPECT_FALSE(schema.Validate().ok());
  }
}

TEST(SchemaTest, EqualityAndToString) {
  Schema a = MakeClinicSchema();
  Schema b = MakeClinicSchema();
  EXPECT_EQ(a, b);
  b.mutable_element(0)->name = "different";
  EXPECT_FALSE(a == b);
  std::string rendered = a.ToString();
  EXPECT_NE(rendered.find("patient"), std::string::npos);
  EXPECT_NE(rendered.find("fk:"), std::string::npos);
}

// --- builder ------------------------------------------------------------------

TEST(SchemaBuilderTest, NestedEntities) {
  Schema schema = SchemaBuilder("xml_like")
                      .Entity("library")
                      .Attribute("name")
                      .NestedEntity("book")
                      .Attribute("title")
                      .Attribute("isbn")
                      .End()
                      .Build();
  auto book = schema.FindByName("book", ElementKind::kEntity);
  auto library = schema.FindByName("library", ElementKind::kEntity);
  ASSERT_TRUE(book && library);
  EXPECT_EQ(schema.element(*book).parent, *library);
  EXPECT_EQ(schema.Depth(*schema.FindByName("title")), 2u);
}

TEST(SchemaBuilderTest, ForwardReferencesResolve) {
  Schema schema = SchemaBuilder("fwd")
                      .Entity("child")
                      .Attribute("parent_id", DataType::kInt64)
                      .References("parent")  // defined later
                      .Entity("parent")
                      .Attribute("id", DataType::kInt64)
                      .PrimaryKey()
                      .Build();
  ASSERT_EQ(schema.foreign_keys().size(), 1u);
  EXPECT_EQ(schema.element(schema.foreign_keys()[0].target_entity).name,
            "parent");
}

TEST(SchemaBuilderTest, DottedReferenceResolvesAttribute) {
  Schema schema = SchemaBuilder("dotted")
                      .Entity("a")
                      .Attribute("b_key", DataType::kInt64)
                      .References("b.key")
                      .Entity("b")
                      .Attribute("key", DataType::kInt64)
                      .Build();
  ASSERT_EQ(schema.foreign_keys().size(), 1u);
  const ForeignKey& fk = schema.foreign_keys()[0];
  EXPECT_EQ(schema.element(fk.target_attribute).name, "key");
}

TEST(SchemaBuilderTest, UnresolvedReferenceFailsTryBuild) {
  auto result = SchemaBuilder("bad")
                    .Entity("a")
                    .Attribute("x", DataType::kInt64)
                    .References("missing")
                    .TryBuild();
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(SchemaBuilderTest, PrimaryKeyImpliesNotNull) {
  Schema schema = SchemaBuilder("pk")
                      .Entity("t")
                      .Attribute("id", DataType::kInt64)
                      .PrimaryKey()
                      .Build();
  const Element& id = schema.element(*schema.FindByName("id"));
  EXPECT_TRUE(id.primary_key);
  EXPECT_FALSE(id.nullable);
}

TEST(SchemaBuilderTest, DocAttachesToLastElement) {
  Schema schema = SchemaBuilder("doc")
                      .Entity("t")
                      .Doc("the table")
                      .Attribute("c")
                      .Doc("the column")
                      .Build();
  EXPECT_EQ(schema.element(0).documentation, "the table");
  EXPECT_EQ(schema.element(1).documentation, "the column");
}

// --- entity graph ------------------------------------------------------------------

TEST(EntityGraphTest, FkNeighborhood) {
  Schema schema = MakeClinicSchema();
  EntityGraph graph(schema);
  auto patient = *schema.FindByName("patient", ElementKind::kEntity);
  auto doctor = *schema.FindByName("doctor", ElementKind::kEntity);
  auto clinic_case = *schema.FindByName("case", ElementKind::kEntity);

  // case connects to both; patient and doctor connect transitively.
  EXPECT_TRUE(graph.InSameNeighborhood(clinic_case, patient));
  EXPECT_TRUE(graph.InSameNeighborhood(clinic_case, doctor));
  EXPECT_TRUE(graph.InSameNeighborhood(patient, doctor));
  EXPECT_EQ(graph.NumComponents(), 1u);
}

TEST(EntityGraphTest, DisconnectedComponents) {
  Schema schema = SchemaBuilder("two_islands")
                      .Entity("a")
                      .Attribute("x")
                      .Entity("b")
                      .Attribute("y")
                      .Build();
  EntityGraph graph(schema);
  auto a = *schema.FindByName("a", ElementKind::kEntity);
  auto b = *schema.FindByName("b", ElementKind::kEntity);
  EXPECT_FALSE(graph.InSameNeighborhood(a, b));
  EXPECT_EQ(graph.NumComponents(), 2u);
}

TEST(EntityGraphTest, NestedEntitiesAreNeighbors) {
  Schema schema = SchemaBuilder("nested")
                      .Entity("outer")
                      .NestedEntity("inner")
                      .Attribute("x")
                      .End()
                      .Build();
  EntityGraph graph(schema);
  auto outer = *schema.FindByName("outer", ElementKind::kEntity);
  auto inner = *schema.FindByName("inner", ElementKind::kEntity);
  EXPECT_TRUE(graph.InSameNeighborhood(outer, inner));
}

TEST(EntityGraphTest, NeighborsHaveNoDuplicates) {
  // Two FKs between the same pair of entities must yield one edge.
  Schema schema = SchemaBuilder("dup")
                      .Entity("a")
                      .Attribute("b1", DataType::kInt64)
                      .References("b")
                      .Attribute("b2", DataType::kInt64)
                      .References("b")
                      .Entity("b")
                      .Attribute("id", DataType::kInt64)
                      .Build();
  EntityGraph graph(schema);
  auto a = *schema.FindByName("a", ElementKind::kEntity);
  EXPECT_EQ(graph.Neighbors(a).size(), 1u);
}

TEST(EntityGraphTest, SubtreeElementsRespectsDepthCap) {
  Schema schema;
  ElementId root = schema.AddEntity("root");
  ElementId l1 = schema.AddEntity("l1", root);
  ElementId l2 = schema.AddEntity("l2", l1);
  schema.AddEntity("l3", l2);
  EXPECT_EQ(SubtreeElements(schema, root, 0).size(), 1u);
  EXPECT_EQ(SubtreeElements(schema, root, 1).size(), 2u);
  EXPECT_EQ(SubtreeElements(schema, root, 3).size(), 4u);
  EXPECT_EQ(SubtreeElements(schema, root, 99).size(), 4u);
}

}  // namespace
}  // namespace schemr
