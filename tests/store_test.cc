// Tests for the log-structured KV store: CRUD, persistence, torn-tail
// recovery, corruption detection, compaction, and a model-based property
// test against std::map.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <map>
#include <random>

#include "store/kv_store.h"
#include "util/rng.h"

namespace schemr {
namespace {

namespace fs = std::filesystem;

class KvStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("schemr_store_test_" +
            std::to_string(
                ::testing::UnitTest::GetInstance()->random_seed()) +
            "_" + ::testing::UnitTest::GetInstance()
                      ->current_test_info()
                      ->name());
    fs::remove_all(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::unique_ptr<KvStore> OpenStore(KvStoreOptions options = {}) {
    auto result = KvStore::Open(dir_.string(), options);
    EXPECT_TRUE(result.ok()) << result.status();
    return std::move(result).value();
  }

  /// Path of the first (and in small tests only) segment file.
  fs::path FirstSegment() {
    for (const auto& entry : fs::directory_iterator(dir_)) {
      return entry.path();
    }
    return {};
  }

  fs::path dir_;
};

TEST_F(KvStoreTest, PutGetDelete) {
  auto store = OpenStore();
  ASSERT_TRUE(store->Put("alpha", "1").ok());
  ASSERT_TRUE(store->Put("beta", "2").ok());
  EXPECT_EQ(store->Size(), 2u);
  EXPECT_EQ(*store->Get("alpha"), "1");
  EXPECT_EQ(*store->Get("beta"), "2");
  EXPECT_TRUE(store->Get("gamma").status().IsNotFound());
  EXPECT_TRUE(store->Contains("alpha"));

  ASSERT_TRUE(store->Delete("alpha").ok());
  EXPECT_TRUE(store->Get("alpha").status().IsNotFound());
  EXPECT_FALSE(store->Contains("alpha"));
  EXPECT_EQ(store->Size(), 1u);
  // Deleting a missing key is OK (idempotent).
  EXPECT_TRUE(store->Delete("alpha").ok());
}

TEST_F(KvStoreTest, OverwriteKeepsLatest) {
  auto store = OpenStore();
  ASSERT_TRUE(store->Put("k", "old").ok());
  ASSERT_TRUE(store->Put("k", "new").ok());
  EXPECT_EQ(*store->Get("k"), "new");
  EXPECT_EQ(store->Size(), 1u);
  EXPECT_GE(store->GetStats().dead_records, 1u);
}

TEST_F(KvStoreTest, EmptyKeysAndValues) {
  auto store = OpenStore();
  ASSERT_TRUE(store->Put("", "empty key").ok());
  ASSERT_TRUE(store->Put("empty value", "").ok());
  EXPECT_EQ(*store->Get(""), "empty key");
  EXPECT_EQ(*store->Get("empty value"), "");
}

TEST_F(KvStoreTest, BinarySafeKeysAndValues) {
  auto store = OpenStore();
  std::string key("k\0ey", 4);
  std::string value("v\0al\xFF\x80", 6);
  ASSERT_TRUE(store->Put(key, value).ok());
  EXPECT_EQ(*store->Get(key), value);
}

TEST_F(KvStoreTest, PersistsAcrossReopen) {
  {
    auto store = OpenStore();
    ASSERT_TRUE(store->Put("a", "1").ok());
    ASSERT_TRUE(store->Put("b", "2").ok());
    ASSERT_TRUE(store->Delete("a").ok());
    ASSERT_TRUE(store->Put("c", "3").ok());
  }
  auto store = OpenStore();
  EXPECT_EQ(store->Size(), 2u);
  EXPECT_TRUE(store->Get("a").status().IsNotFound());
  EXPECT_EQ(*store->Get("b"), "2");
  EXPECT_EQ(*store->Get("c"), "3");
}

TEST_F(KvStoreTest, KeysAreSorted) {
  auto store = OpenStore();
  for (const char* k : {"zeta", "alpha", "mid"}) {
    ASSERT_TRUE(store->Put(k, "v").ok());
  }
  EXPECT_EQ(store->Keys(),
            (std::vector<std::string>{"alpha", "mid", "zeta"}));
}

TEST_F(KvStoreTest, ForEachVisitsAllLivePairs) {
  auto store = OpenStore();
  ASSERT_TRUE(store->Put("a", "1").ok());
  ASSERT_TRUE(store->Put("b", "2").ok());
  ASSERT_TRUE(store->Delete("a").ok());
  std::map<std::string, std::string> seen;
  ASSERT_TRUE(store
                  ->ForEach([&seen](std::string_view k, std::string_view v) {
                    seen[std::string(k)] = std::string(v);
                    return Status::OK();
                  })
                  .ok());
  EXPECT_EQ(seen, (std::map<std::string, std::string>{{"b", "2"}}));
}

TEST_F(KvStoreTest, SegmentRollover) {
  KvStoreOptions options;
  options.max_segment_bytes = 256;  // force frequent rolls
  auto store = OpenStore(options);
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(store->Put("key" + std::to_string(i),
                           std::string(40, 'x')).ok());
  }
  EXPECT_GT(store->GetStats().segment_count, 3u);
  // Everything still readable.
  for (int i = 0; i < 100; ++i) {
    EXPECT_TRUE(store->Contains("key" + std::to_string(i)));
  }
  // And after reopen.
  store.reset();
  store = OpenStore(options);
  EXPECT_EQ(store->Size(), 100u);
}

TEST_F(KvStoreTest, TornTailIsTruncatedOnRecovery) {
  {
    auto store = OpenStore();
    ASSERT_TRUE(store->Put("good", "value").ok());
    ASSERT_TRUE(store->Put("torn", "this one will be cut").ok());
  }
  // Simulate a crash mid-write: chop bytes off the live segment.
  fs::path segment = FirstSegment();
  ASSERT_FALSE(segment.empty());
  fs::resize_file(segment, fs::file_size(segment) - 5);

  auto store = OpenStore();
  EXPECT_EQ(*store->Get("good"), "value");
  EXPECT_TRUE(store->Get("torn").status().IsNotFound());
  // The store is writable again and the tail stays consistent.
  ASSERT_TRUE(store->Put("after", "crash").ok());
  store.reset();
  store = OpenStore();
  EXPECT_EQ(*store->Get("after"), "crash");
}

TEST_F(KvStoreTest, CorruptPayloadDetectedOnRead) {
  auto store = OpenStore();
  ASSERT_TRUE(store->Put("key", "valuevaluevalue").ok());
  ASSERT_TRUE(store->Flush().ok());
  // Flip a payload byte in place (not a truncation: same size).
  fs::path segment = FirstSegment();
  {
    std::fstream file(segment, std::ios::in | std::ios::out |
                                   std::ios::binary);
    file.seekp(-3, std::ios::end);
    file.put('X');
  }
  auto result = store->Get("key");
  EXPECT_TRUE(result.status().IsCorruption()) << result.status();
}

TEST_F(KvStoreTest, CorruptMiddleSegmentFailsOpen) {
  KvStoreOptions options;
  options.max_segment_bytes = 128;
  {
    auto store = OpenStore(options);
    for (int i = 0; i < 30; ++i) {
      ASSERT_TRUE(store->Put("k" + std::to_string(i),
                             std::string(30, 'y')).ok());
    }
    ASSERT_GT(store->GetStats().segment_count, 2u);
  }
  // Corrupt the FIRST (immutable) segment: open must fail loudly, not
  // silently drop data.
  std::vector<fs::path> segments;
  for (const auto& entry : fs::directory_iterator(dir_)) {
    segments.push_back(entry.path());
  }
  std::sort(segments.begin(), segments.end());
  {
    std::fstream file(segments.front(), std::ios::in | std::ios::out |
                                            std::ios::binary);
    file.seekp(10);
    file.put('Z');
  }
  auto result = KvStore::Open(dir_.string(), options);
  EXPECT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsCorruption());
}

TEST_F(KvStoreTest, CompactionReclaimsSpaceAndPreservesData) {
  auto store = OpenStore();
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(store->Put("churn", "version" + std::to_string(i)).ok());
  }
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(store->Put("keep" + std::to_string(i), "v").ok());
  }
  ASSERT_TRUE(store->Delete("keep0").ok());
  uint64_t before = store->GetStats().total_bytes;
  ASSERT_TRUE(store->Compact().ok());
  KvStoreStats after = store->GetStats();
  EXPECT_LT(after.total_bytes, before);
  EXPECT_EQ(after.dead_records, 0u);
  EXPECT_EQ(store->Size(), 20u);  // churn + keep1..keep19
  EXPECT_EQ(*store->Get("churn"), "version49");
  EXPECT_TRUE(store->Get("keep0").status().IsNotFound());
  // Compacted store persists.
  store.reset();
  store = OpenStore();
  EXPECT_EQ(store->Size(), 20u);
  EXPECT_EQ(*store->Get("churn"), "version49");
}

TEST_F(KvStoreTest, CompactionOutputCanSpanSegments) {
  KvStoreOptions options;
  options.max_segment_bytes = 200;
  auto store = OpenStore(options);
  for (int i = 0; i < 40; ++i) {
    ASSERT_TRUE(
        store->Put("key" + std::to_string(i), std::string(50, 'p')).ok());
  }
  ASSERT_TRUE(store->Compact().ok());
  EXPECT_EQ(store->Size(), 40u);
  for (int i = 0; i < 40; ++i) {
    EXPECT_EQ(store->Get("key" + std::to_string(i))->size(), 50u);
  }
}

// Model-based property test: random operation sequences agree with a
// std::map reference model, across compaction and reopen boundaries.
TEST_F(KvStoreTest, ModelBasedRandomOperations) {
  for (uint64_t seed : {1ull, 7ull, 42ull, 1234ull}) {
    fs::remove_all(dir_);
    Rng rng(seed);
    std::map<std::string, std::string> model;
    KvStoreOptions options;
    options.max_segment_bytes = 512;
    auto store = OpenStore(options);
    for (int op = 0; op < 600; ++op) {
      double roll = rng.NextDouble();
      std::string key = "k" + std::to_string(rng.NextBelow(40));
      if (roll < 0.55) {
        std::string value = "v" + std::to_string(rng.Next() % 1000);
        ASSERT_TRUE(store->Put(key, value).ok());
        model[key] = value;
      } else if (roll < 0.75) {
        ASSERT_TRUE(store->Delete(key).ok());
        model.erase(key);
      } else if (roll < 0.80) {
        ASSERT_TRUE(store->Compact().ok());
      } else if (roll < 0.85) {
        store.reset();
        store = OpenStore(options);
      } else {
        auto result = store->Get(key);
        if (model.count(key)) {
          ASSERT_TRUE(result.ok()) << result.status();
          EXPECT_EQ(*result, model[key]);
        } else {
          EXPECT_TRUE(result.status().IsNotFound());
        }
      }
    }
    // Final full comparison.
    ASSERT_EQ(store->Size(), model.size()) << "seed " << seed;
    for (const auto& [key, value] : model) {
      EXPECT_EQ(*store->Get(key), value);
    }
  }
}

// --- salvage mode (byte-flip property test) ---------------------------------

/// Deterministic value so surviving records can be verified exactly.
std::string ValueFor(const std::string& key) {
  return key + ":" + std::string(20, 'v');
}

/// Flips one byte at a random offset of a random segment. Damage in the
/// newest segment must recover via torn-tail truncation; damage in an
/// older segment must fail the default open with Corruption and open in
/// salvage mode with every undamaged record intact.
TEST_F(KvStoreTest, ByteFlipRecoveryProperty) {
  for (uint64_t seed = 0; seed < 15; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    fs::remove_all(dir_);
    std::mt19937_64 rng(0xf11b + seed);

    KvStoreOptions options;
    options.max_segment_bytes = 200;
    std::map<std::string, uint64_t> segment_of_key;
    uint64_t max_segment = 0;
    {
      auto store = OpenStore(options);
      for (int i = 0; i < 40; ++i) {
        std::string key = "key" + std::to_string(i);  // unique: no overwrites
        ASSERT_TRUE(store->Put(key, ValueFor(key)).ok());
        // Segment ids start at 1 and rolls increment by 1, so the count
        // doubles as the active segment's id.
        segment_of_key[key] = store->GetStats().segment_count;
      }
      max_segment = store->GetStats().segment_count;
      ASSERT_GT(max_segment, 2u);
    }

    // Flip one byte somewhere in a random segment.
    std::uniform_int_distribution<uint64_t> seg_dist(1, max_segment);
    uint64_t damaged = seg_dist(rng);
    fs::path victim;
    for (const auto& entry : fs::directory_iterator(dir_)) {
      std::string name = entry.path().filename().string();
      if (name.find(".seg") == std::string::npos) continue;
      if (std::stoull(name) == damaged) victim = entry.path();
    }
    ASSERT_FALSE(victim.empty());
    uint64_t size = fs::file_size(victim);
    ASSERT_GT(size, 0u);
    std::uniform_int_distribution<uint64_t> off_dist(0, size - 1);
    uint64_t offset = off_dist(rng);
    {
      std::fstream file(victim,
                        std::ios::in | std::ios::out | std::ios::binary);
      file.seekg(static_cast<std::streamoff>(offset));
      char byte = 0;
      file.get(byte);
      file.seekp(static_cast<std::streamoff>(offset));
      file.put(static_cast<char>(byte ^ 0x40));
    }

    auto verify_surviving = [&](KvStore* store) {
      for (const auto& [key, seg] : segment_of_key) {
        auto value = store->Get(key);
        if (seg != damaged) {
          ASSERT_TRUE(value.ok())
              << "key '" << key << "' in undamaged segment " << seg
              << " lost (damage was in segment " << damaged << "): "
              << value.status();
          EXPECT_EQ(*value, ValueFor(key));
        } else if (value.ok()) {
          // Survivors of the damaged segment must still read back
          // exactly; a record can be lost but never silently altered.
          EXPECT_EQ(*value, ValueFor(key));
        } else {
          EXPECT_TRUE(value.status().IsNotFound()) << value.status();
        }
      }
    };

    if (damaged == max_segment) {
      // Newest segment: the torn-tail rule applies, default open succeeds.
      auto store = KvStore::Open(dir_.string(), options);
      ASSERT_TRUE(store.ok()) << store.status();
      verify_surviving(store->get());
    } else {
      // Older segment: default open refuses; salvage opens and counts.
      auto strict = KvStore::Open(dir_.string(), options);
      ASSERT_FALSE(strict.ok());
      EXPECT_TRUE(strict.status().IsCorruption()) << strict.status();

      KvStoreOptions salvage = options;
      salvage.salvage_corrupt_segments = true;
      auto store = KvStore::Open(dir_.string(), salvage);
      ASSERT_TRUE(store.ok()) << store.status();
      const KvRepairReport& report = (*store)->repair_report();
      EXPECT_TRUE(report.AnyDamage());
      EXPECT_EQ(report.corrupt_segments, 1u);
      EXPECT_GE(report.corrupt_regions, 1u);
      EXPECT_GT(report.skipped_bytes, 0u);
      EXPECT_NE(report.ToString().find("quarantined"), std::string::npos);
      verify_surviving(store->get());

      // A salvaged store stays writable, and compaction rewrites it into
      // clean segments that then pass a strict open.
      ASSERT_TRUE((*store)->Put("post_salvage", "ok").ok());
      ASSERT_TRUE((*store)->Compact().ok());
      store->reset();
      auto reopened = KvStore::Open(dir_.string(), options);
      ASSERT_TRUE(reopened.ok()) << reopened.status();
      EXPECT_EQ(*(*reopened)->Get("post_salvage"), "ok");
    }
  }
}

/// Salvage mode treats damage in the newest segment like damage in an
/// older one when a checksummed record follows it: only that record is
/// lost, and the report says so. (Only damage that nothing valid follows
/// is a crashed tail.)
TEST_F(KvStoreTest, SalvageQuarantinesNewestSegmentDamageBeforeValidRecords) {
  KvStoreOptions options;
  options.sync_on_write = true;
  {
    auto store = OpenStore(options);
    for (int i = 0; i < 10; ++i) {
      std::string key = "key" + std::to_string(i);
      ASSERT_TRUE(store->Put(key, ValueFor(key)).ok());
    }
    ASSERT_EQ(store->GetStats().segment_count, 1u);
  }
  // Ten records of one size in the one (newest) segment: flip a bit in
  // the middle of the third.
  const fs::path segment = FirstSegment();
  const uint64_t size = fs::file_size(segment);
  ASSERT_EQ(size % 10, 0u);
  const uint64_t record = size / 10;
  {
    std::fstream file(segment,
                      std::ios::in | std::ios::out | std::ios::binary);
    const auto at = static_cast<std::streamoff>(2 * record + record / 2);
    file.seekg(at);
    char byte = 0;
    file.get(byte);
    file.seekp(at);
    file.put(static_cast<char>(byte ^ 0x01));
  }

  KvStoreOptions salvage = options;
  salvage.salvage_corrupt_segments = true;
  auto store = OpenStore(salvage);
  EXPECT_EQ(store->Size(), 9u);
  EXPECT_TRUE(store->Get("key2").status().IsNotFound());
  for (int i = 0; i < 10; ++i) {
    if (i == 2) continue;
    std::string key = "key" + std::to_string(i);
    auto value = store->Get(key);
    ASSERT_TRUE(value.ok()) << key << ": " << value.status();
    EXPECT_EQ(*value, ValueFor(key));
  }
  const KvRepairReport& report = store->repair_report();
  EXPECT_EQ(report.corrupt_segments, 1u);
  EXPECT_EQ(report.corrupt_regions, 1u);
  EXPECT_EQ(report.skipped_bytes, record);
  EXPECT_EQ(report.salvaged_records, 7u);
  EXPECT_EQ(fs::file_size(segment), size) << "nothing may be truncated";

  // Appends continue after the salvaged records, and survive a reopen.
  ASSERT_TRUE(store->Put("after", "salvage").ok());
  store.reset();
  store = OpenStore(salvage);
  EXPECT_EQ(store->Size(), 10u);
  EXPECT_EQ(*store->Get("after"), "salvage");
  EXPECT_EQ(*store->Get("key9"), ValueFor("key9"));
}

}  // namespace
}  // namespace schemr
