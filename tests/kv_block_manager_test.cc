#include "engine/kv_block_manager.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/rng.h"

namespace distserve::engine {
namespace {

TEST(KvBlockManagerTest, CapacityRoundsDownToBlocks) {
  KvBlockManager kv(100, 16);
  EXPECT_EQ(kv.total_blocks(), 6);  // 100 / 16
  EXPECT_EQ(kv.free_blocks(), 6);
  EXPECT_EQ(kv.used_blocks(), 0);
}

TEST(KvBlockManagerTest, BlocksForTokensCeil) {
  KvBlockManager kv(1024, 16);
  EXPECT_EQ(kv.BlocksForTokens(0), 0);
  EXPECT_EQ(kv.BlocksForTokens(1), 1);
  EXPECT_EQ(kv.BlocksForTokens(16), 1);
  EXPECT_EQ(kv.BlocksForTokens(17), 2);
  EXPECT_EQ(kv.BlocksForTokens(160), 10);
}

TEST(KvBlockManagerTest, ReserveAndRelease) {
  KvBlockManager kv(1024, 16);  // 64 blocks
  EXPECT_TRUE(kv.Reserve(1, 100));  // 7 blocks
  EXPECT_EQ(kv.used_blocks(), 7);
  EXPECT_TRUE(kv.Holds(1));
  EXPECT_EQ(kv.SequenceTokens(1), 100);
  kv.Release(1);
  EXPECT_EQ(kv.used_blocks(), 0);
  EXPECT_FALSE(kv.Holds(1));
}

TEST(KvBlockManagerTest, ReserveFailsWithoutSideEffects) {
  KvBlockManager kv(64, 16);  // 4 blocks
  EXPECT_TRUE(kv.Reserve(1, 48));  // 3 blocks
  EXPECT_FALSE(kv.CanReserve(32));
  EXPECT_FALSE(kv.Reserve(2, 32));  // needs 2, only 1 free
  EXPECT_EQ(kv.used_blocks(), 3);
  EXPECT_FALSE(kv.Holds(2));
  EXPECT_TRUE(kv.Reserve(3, 16));  // exactly the last block
  EXPECT_EQ(kv.free_blocks(), 0);
}

TEST(KvBlockManagerTest, GrowWithinBlockIsFree) {
  KvBlockManager kv(1024, 16);
  EXPECT_TRUE(kv.Reserve(1, 10));
  EXPECT_EQ(kv.used_blocks(), 1);
  EXPECT_TRUE(kv.Grow(1, 6));  // 16 tokens, still one block
  EXPECT_EQ(kv.used_blocks(), 1);
  EXPECT_TRUE(kv.Grow(1, 1));  // 17 tokens crosses the boundary
  EXPECT_EQ(kv.used_blocks(), 2);
  EXPECT_EQ(kv.SequenceTokens(1), 17);
}

TEST(KvBlockManagerTest, GrowFailsWhenExhausted) {
  KvBlockManager kv(32, 16);  // 2 blocks
  EXPECT_TRUE(kv.Reserve(1, 16));
  EXPECT_TRUE(kv.Reserve(2, 16));
  EXPECT_FALSE(kv.Grow(1, 1));
  EXPECT_EQ(kv.SequenceTokens(1), 16);  // unchanged on failure
  kv.Release(2);
  EXPECT_TRUE(kv.Grow(1, 1));
}

TEST(KvBlockManagerTest, ZeroTokenReservation) {
  KvBlockManager kv(64, 16);
  EXPECT_TRUE(kv.Reserve(1, 0));
  EXPECT_EQ(kv.used_blocks(), 0);
  EXPECT_TRUE(kv.Holds(1));
  kv.Release(1);
}

TEST(KvBlockManagerDeathTest, DoubleReserveAborts) {
  KvBlockManager kv(64, 16);
  EXPECT_TRUE(kv.Reserve(1, 16));
  EXPECT_DEATH(kv.Reserve(1, 16), "already reserved");
}

TEST(KvBlockManagerDeathTest, ReleaseUnknownAborts) {
  KvBlockManager kv(64, 16);
  EXPECT_DEATH(kv.Release(99), "unknown sequence");
}

// Property test: a random sequence of reserve/grow/release never corrupts the accounting.
TEST(KvBlockManagerPropertyTest, RandomOpsPreserveInvariants) {
  distserve::Rng rng(777);
  KvBlockManager kv(10000, 16);
  std::vector<SeqId> live;
  SeqId next_id = 0;
  for (int step = 0; step < 5000; ++step) {
    const double op = rng.NextDouble();
    if (op < 0.4) {
      const int64_t tokens = rng.UniformInt(1, 400);
      if (kv.Reserve(next_id, tokens)) {
        live.push_back(next_id);
      }
      ++next_id;
    } else if (op < 0.7 && !live.empty()) {
      const SeqId seq = live[static_cast<size_t>(rng.UniformInt(0, live.size() - 1))];
      kv.Grow(seq, rng.UniformInt(1, 32));
    } else if (!live.empty()) {
      const size_t pick = static_cast<size_t>(rng.UniformInt(0, live.size() - 1));
      kv.Release(live[pick]);
      live.erase(live.begin() + static_cast<ptrdiff_t>(pick));
    }
    // Invariants: non-negative free space, sequence count consistency, used <= total.
    ASSERT_GE(kv.free_blocks(), 0);
    ASSERT_LE(kv.used_blocks(), kv.total_blocks());
    ASSERT_EQ(kv.sequence_count(), live.size());
  }
  for (SeqId seq : live) {
    kv.Release(seq);
  }
  EXPECT_EQ(kv.used_blocks(), 0);
  EXPECT_EQ(kv.sequence_count(), 0u);
}

// Random reserve / grow / release / Clear against a std::unordered_map model of the holdings.
// Ids come from a fixed universe, so released ids are reserved again, lookups probe for
// absent ids, and runs of colliding ids form. `colliding` ids share the top four bits of their
// Fibonacci hash, so they cluster at the end of a small table: probe runs and backward-shift
// deletes wrap around it. (Any hash keeps the test valid; this one makes the wrap certain.)
void CheckAgainstReference(const std::vector<SeqId>& universe, uint64_t seed) {
  struct Held {
    int64_t tokens;
    int64_t blocks;
  };
  distserve::Rng rng(seed);
  KvBlockManager kv(16 * 400, 16);
  std::unordered_map<SeqId, Held> ref;
  int64_t ref_used = 0;
  for (int step = 0; step < 20000; ++step) {
    const SeqId seq = universe[static_cast<size_t>(rng.UniformInt(0, universe.size() - 1))];
    const double op = rng.NextDouble();
    const auto it = ref.find(seq);
    if (op < 0.001) {
      kv.Clear();
      ref.clear();
      ref_used = 0;
    } else if (it == ref.end()) {
      const int64_t tokens = rng.UniformInt(0, 300);
      const int64_t blocks = kv.BlocksForTokens(tokens);
      const bool fits = blocks <= kv.total_blocks() - ref_used;
      ASSERT_EQ(kv.Reserve(seq, tokens), fits);
      if (fits) {
        ref[seq] = Held{tokens, blocks};
        ref_used += blocks;
      }
    } else if (op < 0.4) {
      const int64_t extra = rng.UniformInt(0, 40);
      const int64_t blocks = kv.BlocksForTokens(it->second.tokens + extra);
      const bool fits = blocks - it->second.blocks <= kv.total_blocks() - ref_used;
      ASSERT_EQ(kv.Grow(seq, extra), fits);
      if (fits) {
        ref_used += blocks - it->second.blocks;
        it->second = Held{it->second.tokens + extra, blocks};
      }
    } else {
      kv.Release(seq);
      ref_used -= it->second.blocks;
      ref.erase(it);
    }
    ASSERT_EQ(kv.sequence_count(), ref.size());
    ASSERT_EQ(kv.used_blocks(), ref_used);
    for (SeqId id : universe) {
      const auto held = ref.find(id);
      ASSERT_EQ(kv.Holds(id), held != ref.end()) << "id " << id << " at step " << step;
      ASSERT_EQ(kv.SequenceTokens(id), held == ref.end() ? 0 : held->second.tokens);
    }
  }
}

TEST(KvBlockManagerPropertyTest, MatchesMapReferenceOnRandomIds) {
  distserve::Rng rng(4242);
  std::vector<SeqId> universe;
  for (int i = 0; i < 48; ++i) {
    // Mixed signs and magnitudes, beside small consecutive ids.
    universe.push_back(static_cast<SeqId>(rng.NextU64()));
    universe.push_back(i);
  }
  CheckAgainstReference(universe, 1);
}

TEST(KvBlockManagerPropertyTest, MatchesMapReferenceWhenProbesWrap) {
  std::vector<SeqId> colliding;
  for (SeqId id = 0; colliding.size() < 24; ++id) {
    if ((static_cast<uint64_t>(id) * 0x9E3779B97F4A7C15ull) >> 60 == 15) {
      colliding.push_back(id);
    }
  }
  CheckAgainstReference(colliding, 2);
}

}  // namespace
}  // namespace distserve::engine
