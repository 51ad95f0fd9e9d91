/**
 * @file
 * Unit and property tests for the paged KV-cache block manager:
 * allocation, prefix-cache hits, refcounting, LRU eviction, and
 * invariant preservation under randomized workloads.
 */

#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "kv/block_manager.hh"
#include "sim/rng.hh"

namespace
{

using namespace agentsim;
using kv::BlockManager;
using kv::BlockManagerConfig;
using kv::TokenId;

std::vector<TokenId>
tokenRange(TokenId start, std::size_t n)
{
    std::vector<TokenId> v(n);
    std::iota(v.begin(), v.end(), start);
    return v;
}

BlockManagerConfig
cfg(std::int64_t blocks, int block_size = 16, bool prefix = true,
    std::int64_t host_blocks = 0)
{
    BlockManagerConfig c;
    c.numBlocks = blocks;
    c.blockSize = block_size;
    c.enablePrefixCaching = prefix;
    c.hostCacheBlocks = host_blocks;
    return c;
}

TEST(BlockManager, AllocateAndRelease)
{
    BlockManager mgr(cfg(100));
    const auto prompt = tokenRange(0, 50); // 4 blocks (3 full + partial)
    auto alloc = mgr.allocatePrompt(1, prompt);
    ASSERT_TRUE(alloc.has_value());
    EXPECT_EQ(alloc->cachedTokens, 0);
    EXPECT_EQ(alloc->freshBlocks, 4);
    EXPECT_EQ(mgr.usedBlocks(), 4);
    EXPECT_EQ(mgr.freeBlocks(), 96);
    mgr.release(1);
    EXPECT_EQ(mgr.usedBlocks(), 0);
    // The 3 full blocks stay cached (evictable); the partial one is
    // returned to the free list.
    EXPECT_EQ(mgr.evictableBlocks(), 3);
    EXPECT_EQ(mgr.freeBlocks(), 97);
    mgr.checkInvariants();
}

TEST(BlockManager, BlocksNeededRoundsUp)
{
    BlockManager mgr(cfg(10, 16));
    EXPECT_EQ(mgr.blocksNeeded(1), 1);
    EXPECT_EQ(mgr.blocksNeeded(16), 1);
    EXPECT_EQ(mgr.blocksNeeded(17), 2);
    EXPECT_EQ(mgr.blocksNeeded(0), 0);
}

TEST(BlockManager, PrefixHitOnIdenticalPrompt)
{
    BlockManager mgr(cfg(100));
    const auto prompt = tokenRange(0, 64); // exactly 4 full blocks
    ASSERT_TRUE(mgr.allocatePrompt(1, prompt).has_value());
    auto second = mgr.allocatePrompt(2, prompt);
    ASSERT_TRUE(second.has_value());
    // All four blocks are shared with the live first sequence.
    EXPECT_EQ(second->cachedTokens, 64);
    EXPECT_EQ(second->freshBlocks, 0);
    EXPECT_EQ(mgr.usedBlocks(), 4);
    mgr.checkInvariants();
}

TEST(BlockManager, PrefixHitAfterRelease)
{
    BlockManager mgr(cfg(100));
    const auto prompt = tokenRange(0, 64);
    ASSERT_TRUE(mgr.allocatePrompt(1, prompt).has_value());
    mgr.release(1);
    auto second = mgr.allocatePrompt(2, prompt);
    ASSERT_TRUE(second.has_value());
    EXPECT_EQ(second->cachedTokens, 64);
    EXPECT_EQ(mgr.stats().evictions, 0);
    mgr.checkInvariants();
}

TEST(BlockManager, PartialPrefixHit)
{
    BlockManager mgr(cfg(100));
    auto a = tokenRange(0, 64);
    // b shares the first 32 tokens (2 blocks), then diverges.
    auto b = tokenRange(0, 32);
    const auto tail = tokenRange(1000, 32);
    b.insert(b.end(), tail.begin(), tail.end());
    ASSERT_TRUE(mgr.allocatePrompt(1, a).has_value());
    auto alloc_b = mgr.allocatePrompt(2, b);
    ASSERT_TRUE(alloc_b.has_value());
    EXPECT_EQ(alloc_b->cachedTokens, 32);
    EXPECT_EQ(alloc_b->freshBlocks, 2);
    mgr.checkInvariants();
}

TEST(BlockManager, NoHitsWithCachingDisabled)
{
    BlockManager mgr(cfg(100, 16, false));
    const auto prompt = tokenRange(0, 64);
    ASSERT_TRUE(mgr.allocatePrompt(1, prompt).has_value());
    mgr.release(1);
    auto second = mgr.allocatePrompt(2, prompt);
    ASSERT_TRUE(second.has_value());
    EXPECT_EQ(second->cachedTokens, 0);
    EXPECT_EQ(mgr.stats().hitTokens, 0);
    // Without caching, released blocks go straight to the free list.
    EXPECT_EQ(mgr.evictableBlocks(), 0);
    mgr.checkInvariants();
}

TEST(BlockManager, PartialLastBlockNeverCached)
{
    BlockManager mgr(cfg(100));
    const auto prompt = tokenRange(0, 40); // 2 full + 1 partial
    ASSERT_TRUE(mgr.allocatePrompt(1, prompt).has_value());
    mgr.release(1);
    auto second = mgr.allocatePrompt(2, prompt);
    ASSERT_TRUE(second.has_value());
    EXPECT_EQ(second->cachedTokens, 32); // only the full blocks
    mgr.checkInvariants();
}

TEST(BlockManager, AllocationFailsWhenPoolExhausted)
{
    BlockManager mgr(cfg(4));
    ASSERT_TRUE(mgr.allocatePrompt(1, tokenRange(0, 64)).has_value());
    // Different content: no hits possible, needs 4 fresh blocks.
    EXPECT_FALSE(mgr.allocatePrompt(2, tokenRange(5000, 64)).has_value());
    // Failure must not leak state.
    mgr.checkInvariants();
    EXPECT_EQ(mgr.usedBlocks(), 4);
    mgr.release(1);
    EXPECT_TRUE(mgr.allocatePrompt(2, tokenRange(5000, 64)).has_value());
    mgr.checkInvariants();
}

TEST(BlockManager, EvictionRecyclesCachedBlocks)
{
    BlockManager mgr(cfg(4));
    ASSERT_TRUE(mgr.allocatePrompt(1, tokenRange(0, 64)).has_value());
    mgr.release(1); // 4 blocks now evictable
    EXPECT_EQ(mgr.evictableBlocks(), 4);
    ASSERT_TRUE(mgr.allocatePrompt(2, tokenRange(9000, 64)).has_value());
    EXPECT_EQ(mgr.stats().evictions, 4);
    mgr.checkInvariants();
}

TEST(BlockManager, LruEvictsOldestFirst)
{
    BlockManager mgr(cfg(8));
    ASSERT_TRUE(mgr.allocatePrompt(1, tokenRange(0, 64)).has_value());
    ASSERT_TRUE(mgr.allocatePrompt(2, tokenRange(1000, 64)).has_value());
    mgr.release(1); // older
    mgr.release(2); // newer
    // Need 4 fresh blocks: evicts seq 1's blocks (oldest).
    ASSERT_TRUE(mgr.allocatePrompt(3, tokenRange(2000, 64)).has_value());
    // Seq 2's prefix must still be cached.
    auto again = mgr.allocatePrompt(4, tokenRange(1000, 64));
    ASSERT_TRUE(again.has_value());
    EXPECT_EQ(again->cachedTokens, 64);
    mgr.checkInvariants();
}

TEST(BlockManager, AppendTokenCrossesBlockBoundary)
{
    BlockManager mgr(cfg(10, 16));
    ASSERT_TRUE(mgr.allocatePrompt(1, tokenRange(0, 16)).has_value());
    EXPECT_EQ(mgr.usedBlocks(), 1);
    // Token 17 needs a second block.
    EXPECT_TRUE(mgr.appendToken(1, 100));
    EXPECT_EQ(mgr.usedBlocks(), 2);
    EXPECT_EQ(mgr.seqTokens(1), 17);
    mgr.checkInvariants();
}

TEST(BlockManager, AppendFailsWhenOutOfBlocks)
{
    BlockManager mgr(cfg(1, 16));
    ASSERT_TRUE(mgr.allocatePrompt(1, tokenRange(0, 16)).has_value());
    EXPECT_FALSE(mgr.appendToken(1, 100));
    mgr.checkInvariants();
}

TEST(BlockManager, GeneratedBlocksBecomeCached)
{
    BlockManager mgr(cfg(50, 16));
    ASSERT_TRUE(mgr.allocatePrompt(1, tokenRange(0, 16)).has_value());
    // Generate 16 tokens to fill a second block.
    for (TokenId t = 500; t < 516; ++t)
        ASSERT_TRUE(mgr.appendToken(1, t));
    mgr.release(1);
    // A new prompt equal to prompt+generation should fully hit.
    auto full = tokenRange(0, 16);
    const auto gen = tokenRange(500, 16);
    full.insert(full.end(), gen.begin(), gen.end());
    auto alloc = mgr.allocatePrompt(2, full);
    ASSERT_TRUE(alloc.has_value());
    EXPECT_EQ(alloc->cachedTokens, 32);
    mgr.checkInvariants();
}

TEST(BlockManager, HitRateStatistic)
{
    BlockManager mgr(cfg(100));
    const auto prompt = tokenRange(0, 64);
    ASSERT_TRUE(mgr.allocatePrompt(1, prompt).has_value());
    ASSERT_TRUE(mgr.allocatePrompt(2, prompt).has_value());
    // 128 full-block tokens probed, 64 hit.
    EXPECT_EQ(mgr.stats().lookupTokens, 128);
    EXPECT_EQ(mgr.stats().hitTokens, 64);
    EXPECT_DOUBLE_EQ(mgr.stats().hitRate(), 0.5);
}

TEST(BlockManager, SharedPrefixAcrossParallelSequences)
{
    // Models LATS expanding many children with a common prompt: the
    // shared prefix occupies one set of blocks regardless of fanout.
    BlockManager mgr(cfg(100));
    const auto prompt = tokenRange(0, 64);
    for (kv::SeqId s = 1; s <= 8; ++s)
        ASSERT_TRUE(mgr.allocatePrompt(s, prompt).has_value());
    EXPECT_EQ(mgr.usedBlocks(), 4); // not 32
    for (kv::SeqId s = 1; s <= 8; ++s)
        mgr.release(s);
    mgr.checkInvariants();
}

TEST(BlockManager, DivergingGenerationsKeepPrivateBlocks)
{
    BlockManager mgr(cfg(100, 16));
    const auto prompt = tokenRange(0, 32);
    ASSERT_TRUE(mgr.allocatePrompt(1, prompt).has_value());
    ASSERT_TRUE(mgr.allocatePrompt(2, prompt).has_value());
    EXPECT_EQ(mgr.usedBlocks(), 2);
    // Each generates different tokens: private third blocks.
    ASSERT_TRUE(mgr.appendToken(1, 111));
    ASSERT_TRUE(mgr.appendToken(2, 222));
    EXPECT_EQ(mgr.usedBlocks(), 4);
    mgr.checkInvariants();
}

// Regression: a HostRestore entry preceding a GpuHit entry in the
// same allocatePrompt commit used to acquire its fresh block while the
// hit block was still on the eviction list; with an empty free list
// the eviction could pick the to-be-reused hit block as the victim,
// aliasing one physical block into two sequence positions (and, in
// longer runs, tripping the "idle cached block not on LRU" assert).
TEST(BlockManager, RestoreMustNotEvictPendingHit)
{
    // Pool of 2 blocks, host tier on.
    BlockManager mgr(cfg(2, 16, true, 4));
    const auto shared = tokenRange(0, 32); // 2 full blocks: h0, h1

    // Publish h0 + h1, then park both on the eviction list
    // (h0 older than h1).
    ASSERT_TRUE(mgr.allocatePrompt(1, shared).has_value());
    mgr.release(1);
    EXPECT_EQ(mgr.evictableBlocks(), 2);
    EXPECT_EQ(mgr.freeBlocks(), 0);

    // One fresh block of different content evicts h0's block (LRU),
    // spilling h0 to the host tier; h1 stays GPU-cached.
    ASSERT_TRUE(mgr.allocatePrompt(2, tokenRange(9000, 16)).has_value());
    EXPECT_EQ(mgr.stats().evictions, 1);
    EXPECT_EQ(mgr.hostCachedBlocks(), 1);
    mgr.release(2);

    // Free list is empty; eviction list holds h1's block (older key)
    // and seq 2's block (newer). Re-allocating the shared prompt
    // probes h0 as a host restore followed by h1 as a GPU hit. The
    // restore's fresh block must NOT come from evicting h1's block.
    EXPECT_EQ(mgr.freeBlocks(), 0);
    auto alloc = mgr.allocatePrompt(3, shared);
    ASSERT_TRUE(alloc.has_value());
    EXPECT_EQ(alloc->restoredTokens, 16);
    EXPECT_EQ(alloc->cachedTokens, 16);
    // Two distinct physical blocks must back the two positions.
    EXPECT_EQ(mgr.usedBlocks(), 2);
    mgr.checkInvariants();
    mgr.release(3);
    mgr.checkInvariants();
    EXPECT_EQ(mgr.usedBlocks(), 0);
}

// Same hazard at three blocks: restore at position 0, hits at 1 and 2.
TEST(BlockManager, RestoreEvictionSkipsAllPendingHits)
{
    BlockManager mgr(cfg(3, 16, true, 4));
    const auto shared = tokenRange(0, 48); // h0, h1, h2
    ASSERT_TRUE(mgr.allocatePrompt(1, shared).has_value());
    mgr.release(1);
    // Evict h0's block only.
    ASSERT_TRUE(mgr.allocatePrompt(2, tokenRange(9000, 16)).has_value());
    EXPECT_EQ(mgr.stats().evictions, 1);
    mgr.release(2);
    EXPECT_EQ(mgr.freeBlocks(), 0);

    auto alloc = mgr.allocatePrompt(3, shared);
    ASSERT_TRUE(alloc.has_value());
    EXPECT_EQ(alloc->restoredTokens, 16);
    EXPECT_EQ(alloc->cachedTokens, 32);
    EXPECT_EQ(mgr.usedBlocks(), 3);
    mgr.checkInvariants();
    mgr.release(3);
    mgr.checkInvariants();
}

// Property test: randomized allocate/append/release sequences keep all
// internal invariants and never lose blocks.
class BlockManagerFuzz : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(BlockManagerFuzz, InvariantsHoldUnderRandomWorkload)
{
    sim::Rng rng(GetParam(), "kv-fuzz", 0);
    BlockManager mgr(cfg(64, 8));
    std::vector<kv::SeqId> live;
    kv::SeqId next_id = 1;

    for (int step = 0; step < 2000; ++step) {
        const double action = rng.uniform();
        if (action < 0.4) {
            // Allocate a prompt; half the time reuse a popular prefix.
            const bool popular = rng.bernoulli(0.5);
            const TokenId base =
                popular ? 0
                        : static_cast<TokenId>(
                              rng.uniformInt(1, 1000) * 10000);
            const auto len =
                static_cast<std::size_t>(rng.uniformInt(1, 80));
            const auto prompt = tokenRange(base, len);
            const kv::SeqId id = next_id++;
            if (mgr.allocatePrompt(id, prompt).has_value())
                live.push_back(id);
        } else if (action < 0.8 && !live.empty()) {
            const auto idx = static_cast<std::size_t>(rng.uniformInt(
                0, static_cast<std::int64_t>(live.size()) - 1));
            const TokenId t = static_cast<TokenId>(rng.next());
            mgr.appendToken(live[idx], t); // may fail; that's fine
        } else if (!live.empty()) {
            const auto idx = static_cast<std::size_t>(rng.uniformInt(
                0, static_cast<std::int64_t>(live.size()) - 1));
            mgr.release(live[idx]);
            live.erase(live.begin() + static_cast<std::ptrdiff_t>(idx));
        }
        if (step % 50 == 0)
            mgr.checkInvariants();
    }
    for (kv::SeqId id : live)
        mgr.release(id);
    mgr.checkInvariants();
    EXPECT_EQ(mgr.usedBlocks(), 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, BlockManagerFuzz,
                         ::testing::Values(1, 2, 3, 4, 5, 17, 99, 1234));

// Host-tier fuzz: the same randomized workload over a tight pool with
// the spill tier on, so restore-plus-hit commits (the aliasing bug
// class above) occur under an empty free list. Invariants are checked
// after every allocation.
class BlockManagerHostFuzz
    : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(BlockManagerHostFuzz, InvariantsHoldWithHostTier)
{
    sim::Rng rng(GetParam(), "kv-host-fuzz", 0);
    BlockManager mgr(cfg(24, 8, true, 32));
    std::vector<kv::SeqId> live;
    kv::SeqId next_id = 1;

    for (int step = 0; step < 3000; ++step) {
        const double action = rng.uniform();
        if (action < 0.5) {
            // Mostly popular prefixes so hits and restores interleave.
            const bool popular = rng.bernoulli(0.7);
            const TokenId base =
                popular ? static_cast<TokenId>(
                              rng.uniformInt(0, 2) * 100000)
                        : static_cast<TokenId>(
                              rng.uniformInt(1, 1000) * 10000);
            const auto len =
                static_cast<std::size_t>(rng.uniformInt(1, 64));
            const kv::SeqId id = next_id++;
            if (mgr.allocatePrompt(id, tokenRange(base, len))
                    .has_value()) {
                live.push_back(id);
            }
            mgr.checkInvariants();
        } else if (action < 0.75 && !live.empty()) {
            const auto idx = static_cast<std::size_t>(rng.uniformInt(
                0, static_cast<std::int64_t>(live.size()) - 1));
            mgr.appendToken(live[idx],
                            static_cast<TokenId>(rng.next()));
        } else if (!live.empty()) {
            const auto idx = static_cast<std::size_t>(rng.uniformInt(
                0, static_cast<std::int64_t>(live.size()) - 1));
            mgr.release(live[idx]);
            live.erase(live.begin() + static_cast<std::ptrdiff_t>(idx));
        }
    }
    for (kv::SeqId id : live)
        mgr.release(id);
    mgr.checkInvariants();
    EXPECT_EQ(mgr.usedBlocks(), 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, BlockManagerHostFuzz,
                         ::testing::Values(1, 2, 3, 7, 42, 2026));

BlockManagerConfig
tierCfg(std::int64_t blocks, std::int64_t dram_blocks,
        std::int64_t nvme_blocks = 0, int block_size = 16)
{
    BlockManagerConfig c = cfg(blocks, block_size, true, dram_blocks);
    c.nvmeCacheBlocks = nvme_blocks;
    return c;
}

// Regression (tier residency): a restore must reclaim the tier entry
// (tiers are exclusive). The pre-fix restore path left the DRAM copy behind
// with untouched recency — a stale duplicate wasting tier capacity.
TEST(BlockManagerTiers, ExclusiveRestoreReclaimsTierEntry)
{
    BlockManager mgr(tierCfg(4, 4));
    const auto shared = tokenRange(0, 32); // 2 full blocks
    ASSERT_TRUE(mgr.allocatePrompt(1, shared).has_value());
    mgr.release(1);
    EXPECT_EQ(mgr.parkChain(shared), 2);
    EXPECT_EQ(mgr.hostCachedBlocks(), 2);
    EXPECT_EQ(mgr.freeBlocks(), 4);

    auto alloc = mgr.allocatePrompt(2, shared);
    ASSERT_TRUE(alloc.has_value());
    EXPECT_EQ(alloc->restoredTokens, 32);
    EXPECT_EQ(alloc->dramRestoredTokens, 32);
    EXPECT_EQ(alloc->nvmeRestoredTokens, 0);
    // Both tier entries were consumed by the restore.
    EXPECT_EQ(mgr.hostCachedBlocks(), 0);
    EXPECT_EQ(mgr.stats().dram.restoredTokens, 32);
    mgr.checkInvariants();
}

// Regression (honest preload contract): -1 is reserved for a prefix
// that can never fit; a preload that stops early returns the count of
// blocks actually placed.
TEST(BlockManager, PreloadPrefixMinusOneOnlyWhenImpossible)
{
    BlockManager mgr(cfg(4));
    // 5 full blocks can never fit a 4-block pool.
    EXPECT_EQ(mgr.preloadPrefix(tokenRange(0, 80)), -1);
    EXPECT_EQ(mgr.evictableBlocks(), 0);
    // 4 full blocks + a partial tail fit exactly (the partial block is
    // not preloaded).
    EXPECT_EQ(mgr.preloadPrefix(tokenRange(0, 72)), 4);
    mgr.checkInvariants();
}

// Regression (preload self-eviction): filling the pool mid-preload
// must stop with a contiguous resident head, not evict the blocks the
// loop itself just placed. Pre-fix, the 4-block preload below
// "populated" all 4 by cannibalizing its own head, leaving only the
// tail resident — which no prefix probe can ever reach.
TEST(BlockManager, PreloadPrefixStopsAtPinnedPool)
{
    BlockManager mgr(cfg(4));
    // Pin half the pool with a live sequence.
    ASSERT_TRUE(mgr.allocatePrompt(1, tokenRange(9000, 32)).has_value());
    EXPECT_EQ(mgr.preloadPrefix(tokenRange(0, 64)), 2);
    // Nothing was evicted to make room: the loop stopped instead of
    // un-placing its own blocks, so the resident run is the *head*.
    EXPECT_EQ(mgr.stats().evictions, 0);
    EXPECT_EQ(mgr.usedBlocks(), 2);
    auto head = mgr.allocatePrompt(2, tokenRange(0, 32));
    ASSERT_TRUE(head.has_value());
    EXPECT_EQ(head->cachedTokens, 32);
    EXPECT_EQ(head->freshBlocks, 0);
    mgr.checkInvariants();
}

TEST(BlockManagerTiers, DramVictimSinksToNvme)
{
    BlockManager mgr(tierCfg(4, 1, 4));
    const auto a = tokenRange(0, 16);
    const auto b = tokenRange(1000, 16);
    ASSERT_TRUE(mgr.allocatePrompt(1, a).has_value());
    mgr.release(1);
    EXPECT_EQ(mgr.parkChain(a), 1); // DRAM: {a}
    ASSERT_TRUE(mgr.allocatePrompt(2, b).has_value());
    mgr.release(2);
    EXPECT_EQ(mgr.parkChain(b), 1); // a sinks: DRAM {b}, NVMe {a}
    EXPECT_EQ(mgr.hostCachedBlocks(), 1);
    EXPECT_EQ(mgr.nvmeCachedBlocks(), 1);
    EXPECT_EQ(mgr.stats().dram.evictedBlocks, 1);
    EXPECT_EQ(mgr.stats().nvme.demotedBlocks, 1);

    auto ra = mgr.allocatePrompt(3, a);
    ASSERT_TRUE(ra.has_value());
    EXPECT_EQ(ra->nvmeRestoredTokens, 16);
    EXPECT_EQ(ra->dramRestoredTokens, 0);
    auto rb = mgr.allocatePrompt(4, b);
    ASSERT_TRUE(rb.has_value());
    EXPECT_EQ(rb->dramRestoredTokens, 16);
    mgr.checkInvariants();
}

TEST(BlockManagerTiers, NvmeOnlyTierTakesHbmEvictions)
{
    BlockManager mgr(tierCfg(2, 0, 8));
    const auto shared = tokenRange(0, 32);
    ASSERT_TRUE(mgr.allocatePrompt(1, shared).has_value());
    mgr.release(1);
    // Different content evicts both shared blocks straight into NVMe.
    ASSERT_TRUE(mgr.allocatePrompt(2, tokenRange(9000, 32)).has_value());
    EXPECT_EQ(mgr.hostCachedBlocks(), 0);
    EXPECT_EQ(mgr.nvmeCachedBlocks(), 2);
    mgr.release(2);

    auto alloc = mgr.allocatePrompt(3, shared);
    ASSERT_TRUE(alloc.has_value());
    EXPECT_EQ(alloc->nvmeRestoredTokens, 32);
    EXPECT_EQ(alloc->dramRestoredTokens, 0);
    mgr.checkInvariants();
}

// A block resident in both tiers restores from DRAM (the cheaper
// transfer): the probe order is GPU, then DRAM, then NVMe.
TEST(BlockManagerTiers, DualResidencyRestoresFromDram)
{
    BlockManager mgr(tierCfg(4, 1, 4));
    const auto a = tokenRange(0, 16);
    const auto b = tokenRange(1000, 16);
    ASSERT_TRUE(mgr.allocatePrompt(1, a).has_value());
    mgr.release(1);
    EXPECT_EQ(mgr.parkChain(a), 1); // DRAM {a}
    ASSERT_TRUE(mgr.allocatePrompt(2, b).has_value());
    mgr.release(2);
    EXPECT_EQ(mgr.parkChain(b), 1); // DRAM {b}, NVMe {a}

    // A preload (disaggregated KV transfer) places a on the GPU
    // without consuming its NVMe entry.
    EXPECT_EQ(mgr.preloadPrefix(a), 1);
    EXPECT_EQ(mgr.nvmeCachedBlocks(), 1);

    // Re-parking a puts it back in DRAM: now dual-resident.
    EXPECT_EQ(mgr.parkChain(a), 1);
    EXPECT_EQ(mgr.hostCachedBlocks(), 1);
    EXPECT_EQ(mgr.nvmeCachedBlocks(), 2); // b sank, a still there

    auto again = mgr.allocatePrompt(4, a);
    ASSERT_TRUE(again.has_value());
    EXPECT_EQ(again->dramRestoredTokens, 16);
    EXPECT_EQ(again->nvmeRestoredTokens, 0);
    mgr.checkInvariants();
}

// Tier admission is unconditional: every HBM victim is demoted while
// the tier has room, and comes back on the next prompt that needs it.
TEST(BlockManagerTiers, EveryHbmVictimIsDemoted)
{
    BlockManager mgr(tierCfg(2, 4));
    const auto a = tokenRange(0, 32);
    const auto b = tokenRange(9000, 32);
    ASSERT_TRUE(mgr.allocatePrompt(1, a).has_value());
    mgr.release(1);
    ASSERT_TRUE(mgr.allocatePrompt(2, b).has_value());
    EXPECT_EQ(mgr.stats().evictions, 2);
    EXPECT_EQ(mgr.stats().dram.demotedBlocks, 2);
    EXPECT_EQ(mgr.hostCachedBlocks(), 2);
    mgr.release(2);

    auto ra = mgr.allocatePrompt(3, a);
    ASSERT_TRUE(ra.has_value());
    EXPECT_EQ(ra->dramRestoredTokens, 32);
    EXPECT_EQ(mgr.stats().evictions, 4);
    EXPECT_EQ(mgr.stats().dram.demotedBlocks, 4);
    // a left the tier on restore; b took its place.
    EXPECT_EQ(mgr.hostCachedBlocks(), 2);
    mgr.checkInvariants();
}

TEST(BlockManagerTiers, ParkChainFreesGpuAndPrefetchRestores)
{
    BlockManager mgr(tierCfg(4, 8));
    const auto chain = tokenRange(0, 64); // 4 full blocks
    ASSERT_TRUE(mgr.allocatePrompt(1, chain).has_value());
    mgr.release(1);
    EXPECT_EQ(mgr.parkChain(chain), 4);
    EXPECT_EQ(mgr.freeBlocks(), 4);
    EXPECT_EQ(mgr.hostCachedBlocks(), 4);
    EXPECT_EQ(mgr.stats().dram.demotedBlocks, 4);

    const kv::PrefetchResult pf = mgr.prefetchChain(chain);
    EXPECT_EQ(pf.blocks, 4);
    EXPECT_EQ(pf.dramTokens, 64);
    EXPECT_EQ(pf.nvmeTokens, 0);
    EXPECT_EQ(mgr.hostCachedBlocks(), 0); // Exclusive reclaim

    // The continuation now hits the GPU cache with no restore charge.
    auto alloc = mgr.allocatePrompt(2, chain);
    ASSERT_TRUE(alloc.has_value());
    EXPECT_EQ(alloc->cachedTokens, 64);
    EXPECT_EQ(alloc->restoredTokens, 0);
    EXPECT_EQ(alloc->freshBlocks, 0);
    mgr.checkInvariants();
}

TEST(BlockManagerTiers, ParkChainSkipsLiveBlocks)
{
    BlockManager mgr(tierCfg(4, 8));
    const auto chain = tokenRange(0, 64);
    ASSERT_TRUE(mgr.allocatePrompt(1, chain).has_value());
    // Still referenced: nothing is idle, nothing parks.
    EXPECT_EQ(mgr.parkChain(chain), 0);
    EXPECT_EQ(mgr.usedBlocks(), 4);
    EXPECT_EQ(mgr.hostCachedBlocks(), 0);
    mgr.checkInvariants();
}

// Parking demotes tail-first so the chain *head* is the youngest tier
// entry: when the tier is too small for the chain, the head survives
// (a truncated tail still restores; a lost head forfeits everything).
TEST(BlockManagerTiers, ParkTailFirstKeepsHeadWhenTierTight)
{
    BlockManager mgr(tierCfg(4, 1));
    const auto chain = tokenRange(0, 32); // h0, h1
    ASSERT_TRUE(mgr.allocatePrompt(1, chain).has_value());
    mgr.release(1);
    EXPECT_EQ(mgr.parkChain(chain), 2);
    EXPECT_EQ(mgr.hostCachedBlocks(), 1); // h1 displaced by h0
    EXPECT_EQ(mgr.stats().dram.evictedBlocks, 1);

    // Prefetch promotes the head, then stops at the missing block.
    const kv::PrefetchResult pf = mgr.prefetchChain(chain);
    EXPECT_EQ(pf.blocks, 1);
    EXPECT_EQ(pf.dramTokens, 16);

    auto alloc = mgr.allocatePrompt(2, chain);
    ASSERT_TRUE(alloc.has_value());
    EXPECT_EQ(alloc->cachedTokens, 16); // the head, GPU-hot
    EXPECT_EQ(alloc->freshBlocks, 1);
    mgr.checkInvariants();
}

// Tiered fuzz (DRAM + NVMe, park/prefetch/preload/import
// interleaved): invariants are checked after every operation.
class BlockManagerTierFuzz
    : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(BlockManagerTierFuzz, InvariantsHoldWithTieredWorkload)
{
    const std::uint64_t seed = GetParam();
    sim::Rng rng(seed, "kv-tier-fuzz", 0);
    BlockManager mgr(tierCfg(24, 16, 24, 8));

    auto somePrompt = [&rng](bool popular) {
        const TokenId base =
            popular
                ? static_cast<TokenId>(rng.uniformInt(0, 3) * 100000)
                : static_cast<TokenId>(rng.uniformInt(1, 1000) * 10000);
        const auto len =
            static_cast<std::size_t>(rng.uniformInt(1, 64));
        return tokenRange(base, len);
    };

    std::vector<kv::SeqId> live;
    kv::SeqId next_id = 1;
    for (int step = 0; step < 3000; ++step) {
        const double action = rng.uniform();
        if (action < 0.35) {
            const kv::SeqId id = next_id++;
            if (mgr.allocatePrompt(id, somePrompt(rng.bernoulli(0.7)))
                    .has_value()) {
                live.push_back(id);
            }
        } else if (action < 0.45) {
            const kv::SeqId id = next_id++;
            if (mgr.importChain(id, somePrompt(rng.bernoulli(0.5)))
                    .has_value()) {
                live.push_back(id);
            }
        } else if (action < 0.6 && !live.empty()) {
            const auto idx = static_cast<std::size_t>(rng.uniformInt(
                0, static_cast<std::int64_t>(live.size()) - 1));
            mgr.appendToken(live[idx],
                            static_cast<TokenId>(rng.next()));
        } else if (action < 0.7) {
            mgr.preloadPrefix(somePrompt(rng.bernoulli(0.5)));
        } else if (action < 0.8) {
            mgr.parkChain(somePrompt(true));
        } else if (action < 0.88) {
            mgr.prefetchChain(somePrompt(true));
        } else if (!live.empty()) {
            const auto idx = static_cast<std::size_t>(rng.uniformInt(
                0, static_cast<std::int64_t>(live.size()) - 1));
            mgr.release(live[idx]);
            live.erase(live.begin() + static_cast<std::ptrdiff_t>(idx));
        }
        mgr.checkInvariants();
    }
    for (kv::SeqId id : live)
        mgr.release(id);
    mgr.checkInvariants();
    EXPECT_EQ(mgr.usedBlocks(), 0);
    // Both tiers took demotions and served restores.
    EXPECT_GT(mgr.stats().dram.demotedBlocks, 0);
    EXPECT_GT(mgr.stats().nvme.demotedBlocks, 0);
    EXPECT_GT(mgr.stats().dram.restoredTokens, 0);
    EXPECT_GT(mgr.stats().nvme.restoredTokens, 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, BlockManagerTierFuzz,
                         ::testing::Values(1, 2, 3, 7, 42, 2026));

} // namespace
