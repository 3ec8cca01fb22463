// Crash-recovery torture harness and graceful-degradation acceptance
// tests (DESIGN.md §8).
//
// The torture tests run hundreds of randomized kill-point cycles: each
// cycle replays a seeded workload against a fresh store, kills it
// in-process at a random fault-shim hit (InjectedCrash), reopens the
// directory, and asserts that every fsync-acknowledged write survived
// exactly. SCHEMR_TORTURE_CYCLES overrides the per-test cycle count (the
// CI torture job raises it).

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <map>
#include <random>
#include <string>

#include "core/search_engine.h"
#include "core/serving_corpus.h"
#include "repo/schema_repository.h"
#include "schema/schema_builder.h"
#include "store/kv_store.h"
#include "util/fault_injection.h"

namespace schemr {
namespace {

namespace fs = std::filesystem;

size_t CyclesOrDefault(size_t default_cycles) {
  const char* env = std::getenv("SCHEMR_TORTURE_CYCLES");
  if (env == nullptr || *env == '\0') return default_cycles;
  size_t cycles = static_cast<size_t>(std::strtoull(env, nullptr, 10));
  return cycles > 0 ? cycles : default_cycles;
}

class CrashRecoveryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    FaultInjector::Global().DisarmAll();
    dir_ = fs::temp_directory_path() /
           ("schemr_crash_test_" +
            std::to_string(reinterpret_cast<uintptr_t>(this)));
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override {
    FaultInjector::Global().DisarmAll();
    fs::remove_all(dir_);
  }

  std::string SubDir(const std::string& name) {
    fs::path p = dir_ / name;
    fs::remove_all(p);
    return p.string();
  }

  fs::path dir_;
};

/// Options for all torture stores: every acked write is fsynced (so it
/// must survive any crash), and tiny segments force frequent rolls and
/// multi-segment recovery.
KvStoreOptions TortureOptions() {
  KvStoreOptions options;
  options.sync_on_write = true;
  options.max_segment_bytes = 256;
  return options;
}

struct Op {
  bool is_put = true;
  std::string key;
  std::string value;
};

std::vector<Op> MakeWorkload(std::mt19937_64* rng, size_t num_ops) {
  std::uniform_int_distribution<int> key_dist(0, 11);
  std::uniform_int_distribution<int> len_dist(0, 60);
  std::uniform_int_distribution<int> byte_dist('a', 'z');
  std::uniform_int_distribution<int> kind_dist(0, 9);
  std::vector<Op> ops;
  ops.reserve(num_ops);
  for (size_t i = 0; i < num_ops; ++i) {
    Op op;
    op.key = "key" + std::to_string(key_dist(*rng));
    op.is_put = kind_dist(*rng) < 7;  // 70% put, 30% delete
    if (op.is_put) {
      int len = len_dist(*rng);
      for (int b = 0; b < len; ++b) {
        op.value.push_back(static_cast<char>(byte_dist(*rng)));
      }
    }
    ops.push_back(std::move(op));
  }
  return ops;
}

Status Apply(KvStore* store, const Op& op) {
  return op.is_put ? store->Put(op.key, op.value) : store->Delete(op.key);
}

void ApplyToModel(std::map<std::string, std::string>* model, const Op& op) {
  if (op.is_put) {
    (*model)[op.key] = op.value;
  } else {
    model->erase(op.key);
  }
}

std::map<std::string, std::string> Dump(const KvStore& store) {
  std::map<std::string, std::string> contents;
  Status st = store.ForEach([&](std::string_view key, std::string_view value) {
    contents.emplace(std::string(key), std::string(value));
    return Status::OK();
  });
  EXPECT_TRUE(st.ok()) << st;
  return contents;
}

/// Every cycle: measure a clean run's shim-op count, then replay the same
/// workload killing the store at a uniformly random shim hit. On reopen,
/// the store must hold exactly the acknowledged state -- the one
/// in-flight operation may have landed or not, nothing else may differ.
TEST_F(CrashRecoveryTest, WritePathTortureLosesNoAcknowledgedWrite) {
  const size_t cycles = CyclesOrDefault(120);
  FaultInjector& fi = FaultInjector::Global();
  for (size_t cycle = 0; cycle < cycles; ++cycle) {
    SCOPED_TRACE("cycle " + std::to_string(cycle));
    std::mt19937_64 rng(0x5eed0000 + cycle);
    std::vector<Op> ops = MakeWorkload(&rng, 40);

    // Clean run: count how many shim hits the workload produces.
    uint64_t total_ops = 0;
    {
      auto store = KvStore::Open(SubDir("clean"), TortureOptions());
      ASSERT_TRUE(store.ok()) << store.status();
      fi.CountOps(true);
      for (const Op& op : ops) ASSERT_TRUE(Apply(store->get(), op).ok());
      total_ops = fi.ops_seen();
      fi.DisarmAll();
    }
    ASSERT_GT(total_ops, 0u);

    // Crash run: kill at a random shim hit.
    std::uniform_int_distribution<uint64_t> kill_dist(1, total_ops);
    uint64_t kill_at = kill_dist(rng);
    std::string crash_dir = SubDir("crash");
    std::map<std::string, std::string> acked;
    size_t next_op = 0;
    {
      auto store = KvStore::Open(crash_dir, TortureOptions());
      ASSERT_TRUE(store.ok()) << store.status();
      fi.ScheduleCrashAtOp(kill_at);
      try {
        for (; next_op < ops.size(); ++next_op) {
          Status st = Apply(store->get(), ops[next_op]);
          ASSERT_TRUE(st.ok()) << st;
          ApplyToModel(&acked, ops[next_op]);
        }
      } catch (const InjectedCrash&) {
        // ops[next_op] was in flight; everything before it was acked
        // (Put/Delete returned OK after an fsync).
      }
      fi.DisarmAll();
      // The store object is abandoned as a real kill would abandon the
      // process; only its destructor (close) runs.
    }

    auto reopened = KvStore::Open(crash_dir, TortureOptions());
    ASSERT_TRUE(reopened.ok())
        << "reopen after crash at op " << kill_at << ": "
        << reopened.status();
    std::map<std::string, std::string> recovered = Dump(**reopened);

    // Allowed states: exactly the acked model, or the acked model plus
    // the in-flight op applied. Any other difference is lost or invented
    // data.
    if (recovered != acked) {
      ASSERT_LT(next_op, ops.size())
          << "crash at op " << kill_at
          << ": state differs from the model but no op was in flight";
      std::map<std::string, std::string> with_in_flight = acked;
      ApplyToModel(&with_in_flight, ops[next_op]);
      EXPECT_EQ(recovered, with_in_flight)
          << "crash at op " << kill_at << " (in-flight op " << next_op
          << "): recovered state is neither the acked model nor the model "
          << "plus the in-flight op";
    }

    // The recovered store must accept writes again.
    ASSERT_TRUE((*reopened)->Put("post_crash", "ok").ok());
    auto back = (*reopened)->Get("post_crash");
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(*back, "ok");
  }
}

/// Compaction must never change logical state, no matter where it dies:
/// each cycle builds two identical stores, measures the shim-op count of
/// a clean Compact() on one, kills the other's Compact() at a random hit,
/// and requires the reopened store to hold exactly the pre-compaction
/// contents. A follow-up Compact() must then succeed.
TEST_F(CrashRecoveryTest, CompactionTorturePreservesAllData) {
  const size_t cycles = CyclesOrDefault(100);
  FaultInjector& fi = FaultInjector::Global();
  for (size_t cycle = 0; cycle < cycles; ++cycle) {
    SCOPED_TRACE("cycle " + std::to_string(cycle));
    std::mt19937_64 rng(0xc0de0000 + cycle);
    std::vector<Op> ops = MakeWorkload(&rng, 50);

    std::map<std::string, std::string> model;
    auto build = [&](const std::string& dir)
        -> Result<std::unique_ptr<KvStore>> {
      auto store = KvStore::Open(dir, TortureOptions());
      if (!store.ok()) return store.status();
      for (const Op& op : ops) {
        Status st = Apply(store->get(), op);
        if (!st.ok()) return st;
      }
      return std::move(*store);
    };

    uint64_t total_ops = 0;
    {
      auto clean = build(SubDir("clean"));
      ASSERT_TRUE(clean.ok()) << clean.status();
      fi.CountOps(true);
      ASSERT_TRUE((*clean)->Compact().ok());
      total_ops = fi.ops_seen();
      fi.DisarmAll();
    }
    ASSERT_GT(total_ops, 0u);
    for (const Op& op : ops) ApplyToModel(&model, op);

    std::string crash_dir = SubDir("crash");
    {
      auto store = build(crash_dir);
      ASSERT_TRUE(store.ok()) << store.status();
      std::uniform_int_distribution<uint64_t> kill_dist(1, total_ops);
      fi.ScheduleCrashAtOp(kill_dist(rng));
      bool crashed = false;
      try {
        Status st = (*store)->Compact();
        // A scheduled crash can only surface as InjectedCrash; any error
        // status would mean the crash was mis-handled as a fault.
        EXPECT_TRUE(st.ok()) << st;
      } catch (const InjectedCrash&) {
        crashed = true;
      }
      fi.DisarmAll();
      EXPECT_TRUE(crashed) << "scheduled kill never fired";
    }

    auto reopened = KvStore::Open(crash_dir, TortureOptions());
    ASSERT_TRUE(reopened.ok()) << "reopen after compaction crash: "
                               << reopened.status();
    EXPECT_EQ(Dump(**reopened), model)
        << "compaction crash changed logical state";

    // The recovered store must be able to finish the job.
    ASSERT_TRUE((*reopened)->Compact().ok());
    EXPECT_EQ(Dump(**reopened), model);
  }
}

// --- named crash points: the compaction marker protocol ---------------------

TEST_F(CrashRecoveryTest, CrashAfterMarkerRollsCompactionBack) {
  FaultInjector& fi = FaultInjector::Global();
  std::string dir = SubDir("store");
  auto store = KvStore::Open(dir, TortureOptions());
  ASSERT_TRUE(store.ok());
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(
        (*store)->Put("k" + std::to_string(i % 5), std::string(40, 'v')).ok());
  }
  std::map<std::string, std::string> before = Dump(**store);

  FaultSpec crash;
  crash.kind = FaultKind::kCrash;
  fi.Arm("kv/compact/after_marker", crash);
  EXPECT_THROW((void)(*store)->Compact(), InjectedCrash);
  fi.DisarmAll();

  auto reopened = KvStore::Open(dir, TortureOptions());
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  EXPECT_EQ(Dump(**reopened), before);
  EXPECT_FALSE(fs::exists(fs::path(dir) / "COMPACTING"));
}

TEST_F(CrashRecoveryTest, CrashBeforeMarkerClearRollsCompactionBack) {
  FaultInjector& fi = FaultInjector::Global();
  std::string dir = SubDir("store");
  auto store = KvStore::Open(dir, TortureOptions());
  ASSERT_TRUE(store.ok());
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(
        (*store)->Put("k" + std::to_string(i % 5), std::string(40, 'v')).ok());
  }
  std::map<std::string, std::string> before = Dump(**store);

  FaultSpec crash;
  crash.kind = FaultKind::kCrash;
  fi.Arm("kv/compact/before_clear_marker", crash);
  EXPECT_THROW((void)(*store)->Compact(), InjectedCrash);
  fi.DisarmAll();

  // The full output was written and fsynced, but the marker still stands:
  // recovery must discard the output and serve the old segments.
  auto reopened = KvStore::Open(dir, TortureOptions());
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  EXPECT_EQ(Dump(**reopened), before);
}

TEST_F(CrashRecoveryTest, CrashAfterMarkerClearKeepsCompactedState) {
  FaultInjector& fi = FaultInjector::Global();
  std::string dir = SubDir("store");
  auto store = KvStore::Open(dir, TortureOptions());
  ASSERT_TRUE(store.ok());
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(
        (*store)->Put("k" + std::to_string(i % 5), std::string(40, 'v')).ok());
  }
  std::map<std::string, std::string> before = Dump(**store);

  FaultSpec crash;
  crash.kind = FaultKind::kCrash;
  fi.Arm("kv/compact/after_clear_marker", crash);
  EXPECT_THROW((void)(*store)->Compact(), InjectedCrash);
  fi.DisarmAll();

  // Committed: old segments linger until the interrupted deletes are
  // redone by a later compaction, but replay order keeps them harmless.
  auto reopened = KvStore::Open(dir, TortureOptions());
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  EXPECT_EQ(Dump(**reopened), before);
  ASSERT_TRUE((*reopened)->Compact().ok());
  EXPECT_EQ(Dump(**reopened), before);
}

TEST_F(CrashRecoveryTest, CrashMidOldSegmentDeletionIsHarmless) {
  FaultInjector& fi = FaultInjector::Global();
  std::string dir = SubDir("store");
  auto store = KvStore::Open(dir, TortureOptions());
  ASSERT_TRUE(store.ok());
  for (int i = 0; i < 30; ++i) {
    ASSERT_TRUE(
        (*store)->Put("k" + std::to_string(i % 7), std::string(40, 'v')).ok());
  }
  std::map<std::string, std::string> before = Dump(**store);

  // Let the first deletion happen, crash on the second.
  FaultSpec crash;
  crash.kind = FaultKind::kCrash;
  crash.skip = 1;
  fi.Arm("kv/compact/delete_old", crash);
  EXPECT_THROW((void)(*store)->Compact(), InjectedCrash);
  fi.DisarmAll();

  auto reopened = KvStore::Open(dir, TortureOptions());
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  EXPECT_EQ(Dump(**reopened), before);
}

// --- error faults (no crash): the store degrades, never corrupts ------------

TEST_F(CrashRecoveryTest, FailedCompactionRestoresOldViewAndRetries) {
  FaultInjector& fi = FaultInjector::Global();
  std::string dir = SubDir("store");
  auto store = KvStore::Open(dir, TortureOptions());
  ASSERT_TRUE(store.ok());
  for (int i = 0; i < 25; ++i) {
    ASSERT_TRUE(
        (*store)->Put("k" + std::to_string(i % 6), std::string(30, 'x')).ok());
  }
  std::map<std::string, std::string> before = Dump(**store);

  // Fail the 4th record append inside the compaction output.
  FaultSpec eio;
  eio.kind = FaultKind::kError;
  eio.error_code = EIO;
  eio.skip = 3;
  eio.count = 1;
  fi.Arm("kv/append/write", eio);
  Status st = (*store)->Compact();
  fi.DisarmAll();
  EXPECT_FALSE(st.ok());

  // Satellite check: the failed compaction restored the old view -- all
  // data readable, writes accepted, retry succeeds.
  EXPECT_EQ(Dump(**store), before);
  ASSERT_TRUE((*store)->Put("after_failure", "ok").ok());
  ASSERT_TRUE((*store)->Compact().ok());
  auto reopened = KvStore::Open(dir, TortureOptions());
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  auto recovered = Dump(**reopened);
  before["after_failure"] = "ok";
  EXPECT_EQ(recovered, before);
}

TEST_F(CrashRecoveryTest, AppendEnospcSurfacesErrorAndKeepsStoreUsable) {
  FaultInjector& fi = FaultInjector::Global();
  std::string dir = SubDir("store");
  auto store = KvStore::Open(dir, TortureOptions());
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE((*store)->Put("stable", "value").ok());

  FaultSpec enospc;
  enospc.kind = FaultKind::kError;
  enospc.error_code = ENOSPC;
  enospc.count = 1;
  fi.Arm("kv/append/write", enospc);
  Status st = (*store)->Put("doomed", "value");
  fi.DisarmAll();
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("No space"), std::string::npos) << st;

  // The failed write was rolled back; the store keeps serving.
  EXPECT_FALSE((*store)->Contains("doomed"));
  EXPECT_EQ(*(*store)->Get("stable"), "value");
  ASSERT_TRUE((*store)->Put("next", "fine").ok());
  auto reopened = KvStore::Open(dir, TortureOptions());
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ(*(*reopened)->Get("next"), "fine");
  EXPECT_FALSE((*reopened)->Contains("doomed"));
}

TEST_F(CrashRecoveryTest, AppendFsyncFailureRollsRecordBack) {
  FaultInjector& fi = FaultInjector::Global();
  std::string dir = SubDir("store");
  auto store = KvStore::Open(dir, TortureOptions());
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE((*store)->Put("stable", "value").ok());

  // The record is fully written before the fsync fails; without the
  // ftruncate rollback the orphan record desyncs the O_APPEND position
  // from active_offset_, and every later read in the segment returns
  // Corruption until reopen.
  FaultSpec eio;
  eio.kind = FaultKind::kError;
  eio.error_code = EIO;
  eio.count = 1;
  fi.Arm("kv/append/fsync", eio);
  Status st = (*store)->Put("doomed", std::string(40, 'd'));
  fi.DisarmAll();
  ASSERT_FALSE(st.ok());

  EXPECT_FALSE((*store)->Contains("doomed"));
  ASSERT_TRUE((*store)->Put("next", "fine").ok());
  EXPECT_EQ(*(*store)->Get("next"), "fine");
  EXPECT_EQ(*(*store)->Get("stable"), "value");
  auto reopened = KvStore::Open(dir, TortureOptions());
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  EXPECT_EQ(*(*reopened)->Get("next"), "fine");
  EXPECT_FALSE((*reopened)->Contains("doomed"));
}

TEST_F(CrashRecoveryTest, FailedMarkerFsyncDoesNotPoisonFutureSegments) {
  FaultInjector& fi = FaultInjector::Global();
  std::string dir = SubDir("store");
  auto store = KvStore::Open(dir, TortureOptions());
  ASSERT_TRUE(store.ok());
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(
        (*store)->Put("k" + std::to_string(i), std::string(20, 'x')).ok());
  }

  // The marker payload lands but its fsync fails: the complete COMPACTING
  // marker may survive on disk. Compact must remove it before returning,
  // or a later segment roll mints the marker's first_output_id and the
  // next Recover() silently discards that segment as compaction output.
  FaultSpec eio;
  eio.kind = FaultKind::kError;
  eio.error_code = EIO;
  eio.count = 1;
  fi.Arm("kv/compact/marker_fsync", eio);
  Status st = (*store)->Compact();
  fi.DisarmAll();
  ASSERT_FALSE(st.ok());

  // Keep writing past max_segment_bytes so the store rolls into the id
  // the failed compaction would have claimed.
  std::map<std::string, std::string> model = Dump(**store);
  for (int i = 0; i < 40; ++i) {
    std::string key = "roll" + std::to_string(i);
    std::string value(30, 'r');
    ASSERT_TRUE((*store)->Put(key, value).ok());
    model[key] = value;
  }
  auto reopened = KvStore::Open(dir, TortureOptions());
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  EXPECT_EQ(Dump(**reopened), model);
}

TEST_F(CrashRecoveryTest, TornShortWriteIsTruncatedNotReplayed) {
  FaultInjector& fi = FaultInjector::Global();
  std::string dir = SubDir("store");
  auto store = KvStore::Open(dir, TortureOptions());
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE((*store)->Put("whole", "value").ok());

  FaultSpec torn;
  torn.kind = FaultKind::kShortWrite;
  torn.arg = 7;  // persist 7 bytes of the record, then fail
  torn.count = 1;
  fi.Arm("kv/append/write", torn);
  Status st = (*store)->Put("torn", std::string(50, 't'));
  fi.DisarmAll();
  ASSERT_FALSE(st.ok());

  // The torn prefix must not poison later appends.
  ASSERT_TRUE((*store)->Put("later", "fine").ok());
  auto reopened = KvStore::Open(dir, TortureOptions());
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  EXPECT_EQ(*(*reopened)->Get("whole"), "value");
  EXPECT_EQ(*(*reopened)->Get("later"), "fine");
  EXPECT_FALSE((*reopened)->Contains("torn"));
}

// --- graceful degradation up the stack --------------------------------------

/// With a matcher forced to fail via fault injection, Search must still
/// return ranked results -- flagged degraded, never an error.
TEST_F(CrashRecoveryTest, SearchSurvivesInjectedMatcherFailure) {
  auto repo = SchemaRepository::OpenInMemory();
  ASSERT_TRUE(repo->Insert(SchemaBuilder("clinic")
                               .Entity("patient")
                               .Attribute("height", DataType::kDouble)
                               .Attribute("diagnosis")
                               .Build())
                  .ok());
  ASSERT_TRUE(repo->Insert(SchemaBuilder("shop")
                               .Entity("customer")
                               .Attribute("name")
                               .Build())
                  .ok());
  auto corpus = ServingCorpus::Create(std::move(repo));
  ASSERT_TRUE(corpus.ok()) << corpus.status();
  SearchEngine engine(corpus->get());

  FaultInjector& fi = FaultInjector::Global();
  FaultSpec eio;
  eio.kind = FaultKind::kError;
  eio.error_code = EIO;
  fi.Arm("match/name", eio);

  SearchStats stats;
  SearchEngineOptions options;
  options.stats = &stats;
  auto results = engine.SearchKeywords("patient height diagnosis", options);
  fi.DisarmAll();

  ASSERT_TRUE(results.ok()) << "degradation must never become an error: "
                            << results.status();
  ASSERT_FALSE(results->empty());
  EXPECT_TRUE(stats.degraded);
  ASSERT_EQ(stats.dropped_matchers.size(), 1u);
  EXPECT_EQ(stats.dropped_matchers[0], "name");
  for (const SearchResult& r : *results) {
    EXPECT_TRUE(r.degraded);
    EXPECT_GE(r.score, 0.0);
  }
  EXPECT_GE(FaultInjector::Global().faults_fired(), 1u);
}

}  // namespace
}  // namespace schemr
