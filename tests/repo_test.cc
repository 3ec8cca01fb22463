// Tests for the schema repository, both backends.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <vector>

#include "repo/schema_repository.h"
#include "schema/schema_builder.h"

namespace schemr {
namespace {

namespace fs = std::filesystem;

Schema MakeSchema(const std::string& name) {
  return SchemaBuilder(name)
      .Entity("thing")
      .Attribute("id", DataType::kInt64)
      .PrimaryKey()
      .Attribute("label")
      .Build();
}

/// Shared contract test run against both backends.
void RunCrudContract(SchemaRepository* repo) {
  auto id1 = repo->Insert(MakeSchema("first"));
  ASSERT_TRUE(id1.ok()) << id1.status();
  auto id2 = repo->Insert(MakeSchema("second"));
  ASSERT_TRUE(id2.ok());
  EXPECT_NE(*id1, *id2);
  EXPECT_EQ(repo->Size(), 2u);
  EXPECT_TRUE(repo->Contains(*id1));

  auto fetched = repo->Get(*id1);
  ASSERT_TRUE(fetched.ok());
  EXPECT_EQ(fetched->name(), "first");
  EXPECT_EQ(fetched->id(), *id1);

  // Update.
  Schema updated = *fetched;
  updated.set_description("updated description");
  ASSERT_TRUE(repo->Update(updated).ok());
  EXPECT_EQ(repo->Get(*id1)->description(), "updated description");

  // Update of unknown id fails.
  Schema ghost = MakeSchema("ghost");
  ghost.set_id(9999);
  EXPECT_TRUE(repo->Update(ghost).IsNotFound());
  // Update without id fails.
  EXPECT_FALSE(repo->Update(MakeSchema("no_id")).ok());

  // Listing.
  auto summaries = repo->ListAll();
  ASSERT_TRUE(summaries.ok());
  ASSERT_EQ(summaries->size(), 2u);
  EXPECT_EQ((*summaries)[0].name, "first");
  EXPECT_EQ((*summaries)[0].num_entities, 1u);
  EXPECT_EQ((*summaries)[0].num_attributes, 2u);

  // Remove.
  ASSERT_TRUE(repo->Remove(*id2).ok());
  EXPECT_TRUE(repo->Remove(*id2).IsNotFound());
  EXPECT_TRUE(repo->Get(*id2).status().IsNotFound());
  EXPECT_EQ(repo->Size(), 1u);

  // Ids are never reused after removal.
  auto id3 = repo->Insert(MakeSchema("third"));
  ASSERT_TRUE(id3.ok());
  EXPECT_GT(*id3, *id2);
}

TEST(SchemaRepositoryTest, InMemoryCrud) {
  auto repo = SchemaRepository::OpenInMemory();
  RunCrudContract(repo.get());
}

TEST(SchemaRepositoryTest, PersistentCrud) {
  fs::path dir = fs::temp_directory_path() / "schemr_repo_test_crud";
  fs::remove_all(dir);
  auto repo = SchemaRepository::Open(dir.string());
  ASSERT_TRUE(repo.ok()) << repo.status();
  RunCrudContract(repo->get());
  fs::remove_all(dir);
}

TEST(SchemaRepositoryTest, InsertRejectsInvalidSchema) {
  auto repo = SchemaRepository::OpenInMemory();
  Schema bad;
  bad.AddEntity("");  // empty name fails validation
  EXPECT_FALSE(repo->Insert(std::move(bad)).ok());
  EXPECT_EQ(repo->Size(), 0u);
}

TEST(SchemaRepositoryTest, PersistsAcrossReopenWithIdContinuity) {
  fs::path dir = fs::temp_directory_path() / "schemr_repo_test_reopen";
  fs::remove_all(dir);
  SchemaId first_id = kNoSchema;
  {
    auto repo = SchemaRepository::Open(dir.string());
    ASSERT_TRUE(repo.ok());
    first_id = *(*repo)->Insert(MakeSchema("persisted"));
    ASSERT_TRUE((*repo)->Remove(
        *(*repo)->Insert(MakeSchema("removed"))).ok());
  }
  {
    auto repo = SchemaRepository::Open(dir.string());
    ASSERT_TRUE(repo.ok());
    EXPECT_EQ((*repo)->Size(), 1u);
    EXPECT_EQ((*repo)->Get(first_id)->name(), "persisted");
    // The id counter survived: new ids continue past removed ones.
    auto next = (*repo)->Insert(MakeSchema("later"));
    ASSERT_TRUE(next.ok());
    EXPECT_GT(*next, first_id + 1);
  }
  fs::remove_all(dir);
}

TEST(SchemaRepositoryTest, ByteFlipInNewestSegmentCostsOneSchema) {
  // The repository always opens its store in salvage mode, so damage in
  // the newest segment that later records follow costs the damaged
  // schema only -- not every schema written after it -- and the repair
  // report names it.
  fs::path dir = fs::temp_directory_path() / "schemr_repo_test_byte_flip";
  fs::remove_all(dir);
  std::vector<SchemaId> ids;
  {
    auto repo = SchemaRepository::Open(dir.string());
    ASSERT_TRUE(repo.ok()) << repo.status();
    for (int i = 0; i < 10; ++i) {
      auto id = (*repo)->Insert(MakeSchema("schema" + std::to_string(i)));
      ASSERT_TRUE(id.ok()) << id.status();
      ids.push_back(*id);
    }
  }
  std::vector<fs::path> segments;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.path().extension() == ".seg") segments.push_back(entry.path());
  }
  ASSERT_EQ(segments.size(), 1u);
  const uint64_t size = fs::file_size(segments[0]);
  {
    // A third of the way in: inside a schema record in the middle.
    std::fstream file(segments[0],
                      std::ios::in | std::ios::out | std::ios::binary);
    const auto at = static_cast<std::streamoff>(size / 3);
    file.seekg(at);
    char byte = 0;
    file.get(byte);
    file.seekp(at);
    file.put(static_cast<char>(byte ^ 0x40));
  }

  auto repo = SchemaRepository::Open(dir.string());
  ASSERT_TRUE(repo.ok()) << repo.status();
  EXPECT_EQ((*repo)->Size(), 9u);
  EXPECT_TRUE((*repo)->Contains(ids.back()));
  auto report = (*repo)->GetRepairReport();
  ASSERT_TRUE(report.has_value());
  EXPECT_EQ(report->corrupt_regions, 1u);
  EXPECT_GT(report->salvaged_records, 0u);
  EXPECT_EQ(fs::file_size(segments[0]), size);
  fs::remove_all(dir);
}

TEST(SchemaRepositoryTest, ForEachAscendingAndEarlyExit) {
  auto repo = SchemaRepository::OpenInMemory();
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(repo->Insert(MakeSchema("s" + std::to_string(i))).ok());
  }
  std::vector<SchemaId> visited;
  ASSERT_TRUE(repo->ForEach([&visited](const Schema& schema) {
                    visited.push_back(schema.id());
                    return Status::OK();
                  })
                  .ok());
  ASSERT_EQ(visited.size(), 5u);
  EXPECT_TRUE(std::is_sorted(visited.begin(), visited.end()));

  // Errors propagate and stop iteration.
  int count = 0;
  Status st = repo->ForEach([&count](const Schema&) {
    if (++count == 2) return Status::Internal("stop");
    return Status::OK();
  });
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(count, 2);
}

TEST(SchemaRepositoryTest, CompactPreservesContent) {
  fs::path dir = fs::temp_directory_path() / "schemr_repo_test_compact";
  fs::remove_all(dir);
  auto repo_result = SchemaRepository::Open(dir.string());
  ASSERT_TRUE(repo_result.ok());
  auto& repo = *repo_result.value();
  std::vector<SchemaId> ids;
  for (int i = 0; i < 10; ++i) {
    ids.push_back(*repo.Insert(MakeSchema("s" + std::to_string(i))));
  }
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(repo.Remove(ids[i]).ok());
  }
  ASSERT_TRUE(repo.Compact().ok());
  EXPECT_EQ(repo.Size(), 5u);
  for (int i = 5; i < 10; ++i) {
    EXPECT_EQ(repo.Get(ids[i])->name(), "s" + std::to_string(i));
  }
  fs::remove_all(dir);
}

TEST(SchemaRepositoryTest, RoundTripsComplexSchema) {
  auto repo = SchemaRepository::OpenInMemory();
  Schema original = SchemaBuilder("complex")
                        .Description("desc")
                        .Source("src://x")
                        .Entity("a")
                        .Attribute("a_id", DataType::kInt64)
                        .PrimaryKey()
                        .NestedEntity("nested")
                        .Attribute("deep", DataType::kText)
                        .End()
                        .Entity("b")
                        .Attribute("a_ref", DataType::kInt64)
                        .References("a.a_id")
                        .Build();
  SchemaId id = *repo->Insert(original);
  Schema fetched = *repo->Get(id);
  original.set_id(id);  // Insert assigns the id
  EXPECT_EQ(fetched, original);
}

}  // namespace
}  // namespace schemr
