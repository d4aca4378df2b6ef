// RIB tests: candidate bookkeeping, best/ECMP selection, dirty tracking,
// aggregate contributor scans, memory accounting, and the spill store
// used by prefix sharding.
#include <gtest/gtest.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <csignal>
#include <string>
#include <thread>

#include "cp/attr.h"
#include "cp/rib.h"
#include "util/status.h"

namespace s2::cp {
namespace {

AttrPool& TestPool() {
  static AttrPool* pool = new AttrPool();
  return *pool;
}

Route MakeRoute(const std::string& prefix, uint32_t local_pref,
                size_t path_len, topo::NodeId from) {
  Route r;
  r.prefix = util::MustParsePrefix(prefix);
  r.protocol = Protocol::kBgp;
  AttrTuple tuple;
  tuple.local_pref = local_pref;
  tuple.as_path.assign(path_len, 65000);
  r.attrs = TestPool().Intern(std::move(tuple));
  r.learned_from = from;
  r.origin_node = from;
  return r;
}

TEST(RibTest, UpsertSelectsBest) {
  Rib rib(nullptr);
  rib.Upsert(1, MakeRoute("10.0.0.0/24", 100, 3, 1));
  rib.Upsert(2, MakeRoute("10.0.0.0/24", 200, 5, 2));
  auto changed = rib.RecomputeDirty(1);
  ASSERT_EQ(changed.size(), 1u);
  const auto* best = rib.Best(util::MustParsePrefix("10.0.0.0/24"));
  ASSERT_NE(best, nullptr);
  EXPECT_EQ(best->front().learned_from, 2u);  // higher local-pref
}

TEST(RibTest, EcmpKeepsUpToMaxPaths) {
  Rib rib(nullptr);
  for (topo::NodeId n = 1; n <= 5; ++n) {
    rib.Upsert(n, MakeRoute("10.0.0.0/24", 100, 2, n));
  }
  rib.RecomputeDirty(3);
  const auto* best = rib.Best(util::MustParsePrefix("10.0.0.0/24"));
  ASSERT_NE(best, nullptr);
  EXPECT_EQ(best->size(), 3u);  // capped
  // Deterministic order: lowest neighbor ids first.
  EXPECT_EQ(best->at(0).learned_from, 1u);
  EXPECT_EQ(best->at(1).learned_from, 2u);
}

TEST(RibTest, EcmpExcludesNonEquivalent) {
  Rib rib(nullptr);
  rib.Upsert(1, MakeRoute("10.0.0.0/24", 100, 2, 1));
  rib.Upsert(2, MakeRoute("10.0.0.0/24", 100, 4, 2));  // longer path
  rib.RecomputeDirty(8);
  EXPECT_EQ(rib.Best(util::MustParsePrefix("10.0.0.0/24"))->size(), 1u);
}

TEST(RibTest, WithdrawRemovesCandidate) {
  Rib rib(nullptr);
  auto p = util::MustParsePrefix("10.0.0.0/24");
  rib.Upsert(1, MakeRoute("10.0.0.0/24", 100, 2, 1));
  rib.Upsert(2, MakeRoute("10.0.0.0/24", 100, 1, 2));
  rib.RecomputeDirty(1);
  EXPECT_EQ(rib.Best(p)->front().learned_from, 2u);
  rib.Withdraw(2, p);
  auto changed = rib.RecomputeDirty(1);
  EXPECT_EQ(changed.size(), 1u);
  EXPECT_EQ(rib.Best(p)->front().learned_from, 1u);
  rib.Withdraw(1, p);
  rib.RecomputeDirty(1);
  EXPECT_EQ(rib.Best(p), nullptr);
  // Withdrawing something absent is a no-op, not an error.
  rib.Withdraw(9, p);
  EXPECT_TRUE(rib.RecomputeDirty(1).size() <= 1);
}

TEST(RibTest, UnchangedUpsertDoesNotDirty) {
  Rib rib(nullptr);
  Route r = MakeRoute("10.0.0.0/24", 100, 2, 1);
  rib.Upsert(1, r);
  rib.RecomputeDirty(1);
  rib.Upsert(1, r);  // identical
  EXPECT_TRUE(rib.RecomputeDirty(1).empty());
}

TEST(RibTest, RecomputeReportsOnlyBestChanges) {
  Rib rib(nullptr);
  rib.Upsert(1, MakeRoute("10.0.0.0/24", 200, 2, 1));
  rib.RecomputeDirty(1);
  // A strictly worse candidate dirties the prefix but can't change best.
  rib.Upsert(2, MakeRoute("10.0.0.0/24", 100, 2, 2));
  EXPECT_TRUE(rib.RecomputeDirty(1).empty());
}

TEST(RibTest, ContainsAndContributors) {
  Rib rib(nullptr);
  rib.Upsert(1, MakeRoute("10.1.2.0/24", 100, 2, 1));
  rib.Upsert(1, MakeRoute("10.1.3.0/24", 100, 2, 1));
  rib.RecomputeDirty(1);
  auto agg = util::MustParsePrefix("10.1.0.0/16");
  EXPECT_FALSE(rib.Contains(agg));
  EXPECT_TRUE(rib.HasContributor(agg));
  EXPECT_FALSE(rib.HasContributor(util::MustParsePrefix("10.2.0.0/16")));
  // The aggregate itself is not its own contributor.
  Rib rib2(nullptr);
  rib2.Upsert(1, MakeRoute("10.1.0.0/16", 100, 2, 1));
  rib2.RecomputeDirty(1);
  EXPECT_FALSE(rib2.HasContributor(agg));
  EXPECT_TRUE(rib2.Contains(agg));
}

TEST(RibTest, MemoryAccountingBalances) {
  util::MemoryTracker tracker("rib");
  {
    Rib rib(&tracker);
    for (topo::NodeId n = 1; n <= 4; ++n) {
      rib.Upsert(n, MakeRoute("10.0.0.0/24", 100, 2, n));
    }
    rib.RecomputeDirty(4);
    EXPECT_GT(tracker.live_bytes(), 0u);
    rib.Clear();
    EXPECT_EQ(tracker.live_bytes(), 0u);
  }
}

TEST(RibTest, BudgetOverflowThrows) {
  util::MemoryTracker tracker("rib", 1000);
  Rib rib(&tracker);
  EXPECT_THROW(
      {
        for (topo::NodeId n = 1; n <= 100; ++n) {
          rib.Upsert(n, MakeRoute("10.0.0.0/24", 100, 2, n));
        }
      },
      util::SimulatedOom);
}

TEST(RibStoreTest, WriteReadRoundTrip) {
  RibStore store;
  std::map<util::IpPrefix, std::vector<Route>> best;
  best[util::MustParsePrefix("10.0.0.0/24")] = {
      MakeRoute("10.0.0.0/24", 100, 2, 1),
      MakeRoute("10.0.0.0/24", 100, 2, 2)};
  best[util::MustParsePrefix("10.0.1.0/24")] = {
      MakeRoute("10.0.1.0/24", 100, 3, 3)};
  store.Write(0, 7, best);
  EXPECT_GT(store.bytes_written(), 0u);
  EXPECT_EQ(store.routes_written(), 3u);
  auto merged = store.ReadAll(7, TestPool());
  EXPECT_EQ(merged, best);
  EXPECT_TRUE(store.ReadAll(8, TestPool()).empty());
}

TEST(RibStoreTest, MergesAcrossShards) {
  RibStore store;
  std::map<util::IpPrefix, std::vector<Route>> shard0, shard1;
  shard0[util::MustParsePrefix("10.0.0.0/24")] = {
      MakeRoute("10.0.0.0/24", 100, 2, 1)};
  shard1[util::MustParsePrefix("10.0.1.0/24")] = {
      MakeRoute("10.0.1.0/24", 100, 2, 2)};
  store.Write(0, 3, shard0);
  store.Write(1, 3, shard1);
  auto merged = store.ReadAll(3, TestPool());
  EXPECT_EQ(merged.size(), 2u);
}

// Four writers spill disjoint (shard, node) batches concurrently, as the
// CPO's workers do: every batch lands in the one segment and ReadAll
// returns each node's per-shard batches merged.
TEST(RibStoreTest, ConcurrentWritersMatchPerNodeMerge) {
  constexpr int kShards = 4;
  constexpr topo::NodeId kNodes = 6;
  auto batch = [](int shard, topo::NodeId node) {
    std::map<util::IpPrefix, std::vector<Route>> best;
    for (int i = 0; i < 3; ++i) {
      std::string prefix = "10." + std::to_string(shard) + "." +
                           std::to_string(node * 3 + i) + ".0/24";
      best[util::MustParsePrefix(prefix)] = {
          MakeRoute(prefix, 100, 1 + i, node + 1)};
    }
    return best;
  };
  RibStore store;
  std::vector<std::thread> writers;
  for (int shard = 0; shard < kShards; ++shard) {
    writers.emplace_back([&, shard] {
      for (topo::NodeId node = 0; node < kNodes; ++node) {
        store.Write(shard, node, batch(shard, node));
      }
    });
  }
  for (std::thread& writer : writers) writer.join();
  EXPECT_EQ(store.routes_written(), size_t(kShards * kNodes * 3));
  for (topo::NodeId node = 0; node < kNodes; ++node) {
    std::map<util::IpPrefix, std::vector<Route>> want;
    for (int shard = 0; shard < kShards; ++shard) {
      for (auto& [prefix, routes] : batch(shard, node)) want[prefix] = routes;
    }
    EXPECT_EQ(store.ReadAll(node, TestPool()), want) << "node " << node;
  }
}

// Seeded blobs read back byte-identically (via Blobs and ReadAll) and do
// not count as spills; Blobs(s) returns exactly shard s's blobs.
TEST(RibStoreTest, SeededBlobsRoundTripWithoutCounting) {
  RibStore source;
  std::map<util::IpPrefix, std::vector<Route>> shard0, shard1;
  shard0[util::MustParsePrefix("10.0.0.0/24")] = {
      MakeRoute("10.0.0.0/24", 100, 2, 1)};
  shard1[util::MustParsePrefix("10.0.1.0/24")] = {
      MakeRoute("10.0.1.0/24", 120, 3, 2)};
  source.Write(0, 4, shard0);
  source.Write(1, 4, shard1);
  source.Write(1, 9, shard1);
  std::map<topo::NodeId, std::vector<uint8_t>> blobs0 = source.Blobs(0);
  std::map<topo::NodeId, std::vector<uint8_t>> blobs1 = source.Blobs(1);
  ASSERT_EQ(blobs0.size(), 1u);
  EXPECT_EQ(blobs0.count(4), 1u);
  ASSERT_EQ(blobs1.size(), 2u);
  EXPECT_EQ(blobs1.count(4), 1u);
  EXPECT_EQ(blobs1.count(9), 1u);
  EXPECT_TRUE(source.Blobs(2).empty());

  RibStore seeded;
  for (const auto& [node, bytes] : blobs0) seeded.SeedBlob(0, node, bytes);
  for (const auto& [node, bytes] : blobs1) seeded.SeedBlob(1, node, bytes);
  EXPECT_EQ(seeded.bytes_written(), 0u);
  EXPECT_EQ(seeded.routes_written(), 0u);
  EXPECT_EQ(seeded.Blobs(0), blobs0);
  EXPECT_EQ(seeded.Blobs(1), blobs1);
  for (topo::NodeId node : {4u, 9u}) {
    EXPECT_EQ(seeded.ReadAll(node, TestPool()),
              source.ReadAll(node, TestPool()))
        << "node " << node;
  }

  // Re-seeding a (shard, node) with different bytes replaces its blob.
  ASSERT_NE(blobs0.at(4), blobs1.at(9));
  seeded.SeedBlob(1, 9, blobs0.at(4));
  std::map<topo::NodeId, std::vector<uint8_t>> reseeded = seeded.Blobs(1);
  ASSERT_EQ(reseeded.size(), 2u);
  EXPECT_EQ(reseeded.at(9), blobs0.at(4));
  EXPECT_EQ(reseeded.at(4), blobs1.at(4));
  RibStore want;
  want.Write(0, 9, shard0);
  EXPECT_EQ(seeded.ReadAll(9, TestPool()), want.ReadAll(9, TestPool()));
  EXPECT_EQ(seeded.bytes_written(), 0u);
  EXPECT_EQ(seeded.routes_written(), 0u);
}

// A spill write the filesystem refuses (here: past RLIMIT_FSIZE, with
// SIGXFSZ ignored so pwrite fails with EFBIG) throws util::SpillError
// naming the operation and errno. Run in a forked child so the limit does
// not outlive the check.
TEST(RibStoreTest, RefusedWriteThrowsSpillError) {
  pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    signal(SIGXFSZ, SIG_IGN);
    RibStore store;
    struct rlimit limit = {16, 16};
    if (setrlimit(RLIMIT_FSIZE, &limit) != 0) _Exit(2);
    try {
      store.SeedBlob(0, 1, std::vector<uint8_t>(4096, 0xab));
    } catch (const util::SpillError& error) {
      std::string what = error.what();
      bool named = what.find("write") != std::string::npos &&
                   what.find("errno") != std::string::npos;
      _Exit(named ? 0 : 3);
    }
    _Exit(1);
  }
  int status = 0;
  ASSERT_EQ(waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status)) << status;
  EXPECT_EQ(WEXITSTATUS(status), 0)
      << "1: no throw, 2: setrlimit failed, 3: detail lacks op/errno";
}

// An overlay store captures each node's FIB projection as it spills, with
// no setter call; a plain store never does.
TEST(RibStoreTest, OverlayCapturesProjectionPlainStoreDoesNot) {
  auto masked = util::MustParsePrefix("10.0.0.0/24");
  std::map<util::IpPrefix, std::vector<Route>> best;
  best[masked] = {MakeRoute("10.0.0.0/24", 100, 2, 3),
                  MakeRoute("10.0.0.0/24", 100, 2, 5),
                  MakeRoute("10.0.0.0/24", 100, 2, 3)};
  auto base = std::make_shared<RibStore>();
  base->Write(0, 1, best);
  EXPECT_EQ(base->Projection(1), nullptr);

  RibStore overlay(base, {masked});
  overlay.Write(0, 1, best);
  const auto* projection = overlay.Projection(1);
  ASSERT_NE(projection, nullptr);
  std::map<util::IpPrefix, std::vector<topo::NodeId>> want;
  want[masked] = {3, 5};
  EXPECT_EQ(*projection, want);
  EXPECT_EQ(overlay.Projection(2), nullptr);
}

}  // namespace
}  // namespace s2::cp
