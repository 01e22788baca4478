// FlatU64Set as the exchange's stratum-occupancy table: the flat
// open-addressing set behind the bulk routing kernel — membership,
// growth/rehash, collision-chain probing, set union, and the probe
// accounting ExchangeStats::table_probes reports.
#include "common/flat_set.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <unordered_set>
#include <vector>

#include "common/rng.h"
#include "sampling/sample.h"

namespace streamapprox {
namespace {

TEST(FlatU64Set, InsertReportsNoveltyAndContainsAgrees) {
  FlatU64Set table;
  EXPECT_EQ(table.size(), 0u);
  EXPECT_FALSE(table.contains(7));

  EXPECT_TRUE(table.insert(7));
  EXPECT_TRUE(table.insert(11));
  EXPECT_TRUE(table.insert(0));
  // Duplicates are reported as such and do not change the size.
  EXPECT_FALSE(table.insert(7));
  EXPECT_FALSE(table.insert(0));

  EXPECT_EQ(table.size(), 3u);
  EXPECT_TRUE(table.contains(7));
  EXPECT_TRUE(table.contains(11));
  EXPECT_TRUE(table.contains(0));
  EXPECT_FALSE(table.contains(8));
}

TEST(FlatU64Set, SlotCountRoundsUpToPowerOfTwo) {
  EXPECT_EQ(FlatU64Set(1).slot_count(), 8u);
  EXPECT_EQ(FlatU64Set(8).slot_count(), 8u);
  EXPECT_EQ(FlatU64Set(9).slot_count(), 16u);
  EXPECT_EQ(FlatU64Set(64).slot_count(), 64u);
  EXPECT_EQ(FlatU64Set(65).slot_count(), 128u);
}

TEST(FlatU64Set, GrowthPreservesMembershipAndLoadBound) {
  // Start tiny to force many rehashes; mirror against std::unordered_set.
  FlatU64Set table(1);
  std::unordered_set<sampling::StratumId> mirror;
  Rng rng(42);
  for (int i = 0; i < 10'000; ++i) {
    const auto stratum =
        static_cast<sampling::StratumId>(rng.uniform_int(100'000));
    EXPECT_EQ(table.insert(stratum), mirror.insert(stratum).second);
  }
  EXPECT_EQ(table.size(), mirror.size());
  for (const auto stratum : mirror) {
    EXPECT_TRUE(table.contains(stratum));
  }
  // Power-of-two capacity, never above the 70 % load ceiling.
  EXPECT_EQ(table.slot_count() & (table.slot_count() - 1), 0u);
  EXPECT_LE(table.size() * 10, table.slot_count() * 7);
}

TEST(FlatU64Set, CollisionChainProbesGrowLinearly) {
  // Build ids that all hash to one home slot at the current capacity; the
  // i-th collider must walk the i previous entries plus the empty slot.
  FlatU64Set table(64);
  ASSERT_EQ(table.slot_count(), 64u);
  const std::size_t home = FlatU64Set::preferred_slot(0, 64);
  std::vector<sampling::StratumId> colliders{0};
  for (std::uint32_t s = 1; colliders.size() < 5; ++s) {
    if (FlatU64Set::preferred_slot(s, 64) == home) colliders.push_back(s);
  }

  std::uint64_t previous = table.probes();
  for (std::size_t i = 0; i < colliders.size(); ++i) {
    ASSERT_TRUE(table.insert(colliders[i]));
    EXPECT_EQ(table.probes() - previous, i + 1)
        << "collider " << i << " should probe exactly " << i + 1 << " slots";
    previous = table.probes();
  }
  // A duplicate of the chain's tail re-walks the whole chain.
  ASSERT_FALSE(table.insert(colliders.back()));
  EXPECT_EQ(table.probes() - previous, colliders.size());
  for (const auto stratum : colliders) {
    EXPECT_TRUE(table.contains(stratum));
  }
}

TEST(FlatU64Set, SparseInsertsProbeNearOnce) {
  // At low load the expected probe chain is barely above one slot — the
  // property that makes the kernel's per-run-boundary probe cheap.
  FlatU64Set table(4096);
  Rng rng(7);
  const int inserts = 1000;
  for (int i = 0; i < inserts; ++i) {
    table.insert(static_cast<sampling::StratumId>(rng.uniform_int(1u << 30)));
  }
  EXPECT_LT(static_cast<double>(table.probes()) / inserts, 2.0);
}

TEST(FlatU64Set, UnionIntoSmallerTableProbesNearOnce) {
  // insert_all walks the source in slot order (ascending home slot). Without
  // sizing the receiver for the union first, every key added while the
  // receiver is smaller than the source comes from a narrow prefix of the
  // hash space and joins one growing cluster: Θ(N²) probes in total.
  constexpr std::uint64_t kKeys = 4096;
  FlatU64Set source(1);
  for (std::uint64_t key = 0; key < kKeys; ++key) source.insert(key);
  FlatU64Set merged;  // default 64 slots, far smaller than the source
  merged.insert_all(source);
  EXPECT_EQ(merged.size(), kKeys);
  EXPECT_LT(merged.probes(), 2 * kKeys);
  for (std::uint64_t key = 0; key < kKeys; ++key) {
    EXPECT_TRUE(merged.contains(key));
  }
  EXPECT_LE(merged.size() * 10, merged.slot_count() * 7);
}

}  // namespace
}  // namespace streamapprox
