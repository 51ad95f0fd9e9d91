#include "kv/block_manager.hh"

#include <algorithm>
#include <unordered_set>

#include "sim/logging.hh"
#include "sim/rng.hh"

namespace agentsim::kv
{

BlockManager::BlockManager(const BlockManagerConfig &config)
    : config_(config)
{
    if (config_.numBlocks <= 0)
        AGENTSIM_FATAL("KV pool needs at least one block");
    if (config_.blockSize <= 0)
        AGENTSIM_FATAL("KV block size must be positive");
    if (config_.hostCacheBlocks < 0)
        AGENTSIM_FATAL("negative host cache size");
    if (config_.nvmeCacheBlocks < 0)
        AGENTSIM_FATAL("negative NVMe cache size");

    blocks_.resize(static_cast<std::size_t>(config_.numBlocks));
    freeList_.reserve(blocks_.size());
    // Pop order: ascending ids first (cosmetic determinism).
    for (std::int64_t i = config_.numBlocks - 1; i >= 0; --i)
        freeList_.push_back(static_cast<BlockId>(i));

    tiers_[0].capacity = config_.hostCacheBlocks;
    tiers_[1].capacity = config_.nvmeCacheBlocks;
}

std::uint64_t
BlockManager::chunkHash(std::uint64_t prev_hash,
                        std::span<const TokenId> chunk) const
{
    std::uint64_t h = sim::hashMix(prev_hash ^ 0x9d5a3f7c1e284b69ULL);
    for (TokenId t : chunk)
        h = sim::hashCombine(h, t);
    return h;
}

std::vector<std::uint64_t>
BlockManager::chainHashes(std::span<const TokenId> tokens) const
{
    const int bs = config_.blockSize;
    const std::int64_t n_full =
        static_cast<std::int64_t>(tokens.size()) / bs;
    std::vector<std::uint64_t> hashes;
    hashes.reserve(static_cast<std::size_t>(n_full));
    std::uint64_t prev = 0;
    for (std::int64_t b = 0; b < n_full; ++b) {
        prev = chunkHash(
            prev, tokens.subspan(static_cast<std::size_t>(b * bs),
                                 static_cast<std::size_t>(bs)));
        hashes.push_back(prev);
    }
    return hashes;
}

std::int64_t
BlockManager::blocksNeeded(std::int64_t token_count) const
{
    return (token_count + config_.blockSize - 1) / config_.blockSize;
}

std::int64_t
BlockManager::availableBlocks() const
{
    return freeBlocks() + evictableBlocks();
}

std::int64_t
BlockManager::usedBlocks() const
{
    return config_.numBlocks - availableBlocks();
}

std::int64_t
BlockManager::seqTokens(SeqId seq_id) const
{
    auto it = seqs_.find(seq_id);
    AGENTSIM_ASSERT(it != seqs_.end(), "seqTokens of unknown sequence");
    return static_cast<std::int64_t>(it->second.tokens.size());
}

std::optional<PromptAlloc>
BlockManager::allocatePrompt(SeqId seq_id,
                             std::span<const TokenId> tokens)
{
    AGENTSIM_ASSERT(!seqs_.contains(seq_id),
                    "allocatePrompt: seq %llu already allocated",
                    static_cast<unsigned long long>(seq_id));
    AGENTSIM_ASSERT(!tokens.empty(), "allocatePrompt with empty prompt");

    const int bs = config_.blockSize;
    const std::int64_t n_tokens =
        static_cast<std::int64_t>(tokens.size());
    const std::int64_t n_full = n_tokens / bs;
    const std::int64_t n_blocks = blocksNeeded(n_tokens);

    // Phase 1: probe for the longest contiguous run of reusable full
    // blocks from position zero — GPU-cached (hit) or spill-tier
    // resident (restore; DRAM probed before NVMe so a dual-resident
    // block restores at the cheaper price). No state is mutated.
    enum class Reuse
    {
        GpuHit,
        TierRestore,
    };
    struct Probe
    {
        Reuse kind;
        BlockId block; // valid for GpuHit
        std::uint64_t hash;
        std::size_t tier; // valid for TierRestore
    };
    std::vector<std::uint64_t> hashes;
    std::vector<Probe> reuse;
    {
        std::uint64_t prev = 0;
        bool chain_alive = config_.enablePrefixCaching;
        for (std::int64_t b = 0; b < n_full; ++b) {
            const std::uint64_t h = chunkHash(
                prev, tokens.subspan(static_cast<std::size_t>(b * bs),
                                     static_cast<std::size_t>(bs)));
            hashes.push_back(h);
            prev = h;
            if (!chain_alive)
                continue;
            if (auto it = cacheTable_.find(h);
                it != cacheTable_.end()) {
                reuse.push_back({Reuse::GpuHit, it->second, h, 0});
            } else if (tiers_[0].contains(h)) {
                reuse.push_back({Reuse::TierRestore, BlockId{-1}, h, 0});
            } else if (tiers_[1].contains(h)) {
                reuse.push_back({Reuse::TierRestore, BlockId{-1}, h, 1});
            } else {
                chain_alive = false;
            }
        }
    }

    std::int64_t gpu_hits = 0;
    std::int64_t dram_restores = 0;
    std::int64_t nvme_restores = 0;
    for (const auto &p : reuse) {
        if (p.kind == Reuse::GpuHit)
            ++gpu_hits;
        else if (p.tier == 0)
            ++dram_restores;
        else
            ++nvme_restores;
    }
    const std::int64_t restores = dram_restores + nvme_restores;
    if (config_.enablePrefixCaching) {
        stats_.lookupTokens += n_full * bs;
        stats_.hitTokens += gpu_hits * bs;
        stats_.restoredTokens += restores * bs;
        stats_.dram.restoredTokens += dram_restores * bs;
        stats_.nvme.restoredTokens += nvme_restores * bs;
    }

    // Phase 2: feasibility. GPU-hit blocks that are currently
    // evictable will be re-referenced, so they cannot double as
    // eviction victims. Restores need fresh blocks like misses.
    std::int64_t evictable_hits = 0;
    for (const auto &p : reuse) {
        if (p.kind == Reuse::GpuHit &&
            blocks_[static_cast<std::size_t>(p.block)].refCount == 0) {
            ++evictable_hits;
        }
    }
    const std::int64_t fresh_needed = n_blocks - gpu_hits;
    const std::int64_t fresh_available =
        freeBlocks() + evictableBlocks() - evictable_hits;
    if (fresh_needed > fresh_available)
        return std::nullopt;

    // Phase 3: commit. All GPU-hit blocks are re-referenced *first*:
    // a hit block idling on the eviction list must be pinned before
    // any acquireFreshBlock() call below may run the evictor, or the
    // eviction could pick a pending hit as its victim and alias one
    // physical block into two sequence positions.
    Seq seq;
    seq.tokens.assign(tokens.begin(), tokens.end());
    seq.chainHashes = hashes;
    seq.blocks.assign(static_cast<std::size_t>(n_blocks), BlockId{-1});

    for (std::size_t i = 0; i < reuse.size(); ++i) {
        if (reuse[i].kind == Reuse::GpuHit) {
            refCachedBlock(reuse[i].block);
            seq.blocks[i] = reuse[i].block;
        }
    }
    for (std::size_t i = 0; i < reuse.size(); ++i) {
        if (reuse[i].kind == Reuse::TierRestore) {
            // Restore from the spill tier: a fresh GPU block receives
            // the transferred contents and is re-published. The tier
            // entry is consumed per the tier's residency mode.
            const BlockId id = acquireFreshBlock();
            blocks_[static_cast<std::size_t>(id)].refCount = 1;
            seq.blocks[i] = id;
            publishBlock(id, reuse[i].hash);
            noteTierRestore(reuse[i].tier, reuse[i].hash);
        }
    }
    for (std::int64_t b = static_cast<std::int64_t>(reuse.size());
         b < n_blocks; ++b) {
        const BlockId id = acquireFreshBlock();
        blocks_[static_cast<std::size_t>(id)].refCount = 1;
        seq.blocks[static_cast<std::size_t>(b)] = id;
        // Full blocks become immediately publishable: their KV will be
        // computed by the upcoming prefill.
        if (config_.enablePrefixCaching && b < n_full)
            publishBlock(id, hashes[static_cast<std::size_t>(b)]);
    }

    PromptAlloc result;
    result.cachedTokens = gpu_hits * bs;
    result.restoredTokens = restores * bs;
    result.dramRestoredTokens = dram_restores * bs;
    result.nvmeRestoredTokens = nvme_restores * bs;
    result.freshBlocks = fresh_needed;
    seqs_.emplace(seq_id, std::move(seq));
    // The restore+hit interleaving is the risky path; verify the
    // whole pool after it (cheap relative to the PCIe transfer the
    // restore itself models).
    if (restores > 0 && gpu_hits > 0)
        checkInvariants();
    return result;
}

bool
BlockManager::appendToken(SeqId seq_id, TokenId token)
{
    auto it = seqs_.find(seq_id);
    AGENTSIM_ASSERT(it != seqs_.end(),
                    "appendToken to unknown sequence");
    Seq &seq = it->second;
    const int bs = config_.blockSize;

    const std::int64_t pos = static_cast<std::int64_t>(seq.tokens.size());
    if (pos % bs == 0) {
        // Crossing into a new block.
        if (availableBlocks() == 0)
            return false;
        const BlockId id = acquireFreshBlock();
        blocks_[static_cast<std::size_t>(id)].refCount = 1;
        seq.blocks.push_back(id);
    }

    seq.tokens.push_back(token);
    const std::int64_t new_size =
        static_cast<std::int64_t>(seq.tokens.size());
    if (new_size % bs == 0) {
        const std::uint64_t prev =
            seq.chainHashes.empty() ? 0 : seq.chainHashes.back();
        const std::uint64_t h = chunkHash(
            prev,
            std::span<const TokenId>(seq.tokens)
                .subspan(static_cast<std::size_t>(new_size - bs),
                         static_cast<std::size_t>(bs)));
        seq.chainHashes.push_back(h);
        if (config_.enablePrefixCaching)
            publishBlock(seq.blocks.back(), h);
    }
    return true;
}

ChainExport
BlockManager::exportChain(SeqId seq_id) const
{
    auto it = seqs_.find(seq_id);
    AGENTSIM_ASSERT(it != seqs_.end(),
                    "exportChain of unknown sequence");
    ChainExport out;
    out.tokens = it->second.tokens;
    return out;
}

std::optional<PromptAlloc>
BlockManager::importChain(SeqId seq_id, std::span<const TokenId> tokens)
{
    // An import is a prompt allocation in disguise: the chain hashes
    // are content-derived, so any prefix already resident here (same
    // workflow instructions, shared conversation head) is reused and
    // never crosses the interconnect.
    return allocatePrompt(seq_id, tokens);
}

void
BlockManager::release(SeqId seq_id)
{
    auto it = seqs_.find(seq_id);
    AGENTSIM_ASSERT(it != seqs_.end(), "release of unknown sequence");
    for (BlockId id : it->second.blocks)
        unrefBlock(id);
    seqs_.erase(it);
}

void
BlockManager::reset()
{
    for (auto &b : blocks_)
        b = Block{};
    freeList_.clear();
    for (std::int64_t i = config_.numBlocks - 1; i >= 0; --i)
        freeList_.push_back(static_cast<BlockId>(i));
    cacheTable_.clear();
    evictable_.clear();
    seqs_.clear();
    for (auto &tier : tiers_) {
        tier.entries.clear();
        tier.lru.clear();
    }
}

std::int64_t
BlockManager::preloadPrefix(std::span<const TokenId> tokens)
{
    AGENTSIM_ASSERT(config_.enablePrefixCaching,
                    "preload requires prefix caching");
    const int bs = config_.blockSize;
    const std::int64_t n_full =
        static_cast<std::int64_t>(tokens.size()) / bs;
    if (n_full > config_.numBlocks)
        return -1; // can never fit, even in an empty pool

    // Blocks of *this* prefix: every one already resident or placed
    // below. The eviction guard keeps them off the victim list so a
    // partial preload is always a contiguous, resident head — without
    // the guard, acquireFreshBlock() could silently cannibalize the
    // blocks this very loop just paid to transfer.
    std::unordered_set<BlockId> prefix_blocks;
    std::int64_t populated = 0;
    std::uint64_t prev = 0;
    for (std::int64_t b = 0; b < n_full; ++b) {
        const std::uint64_t h = chunkHash(
            prev, tokens.subspan(static_cast<std::size_t>(b * bs),
                                 static_cast<std::size_t>(bs)));
        prev = h;
        if (auto it = cacheTable_.find(h); it != cacheTable_.end()) {
            // Already resident. Shield it like a placed block, and
            // under LRU refresh its recency (a preload is an access).
            Block &block = blocks_[static_cast<std::size_t>(it->second)];
            if (block.refCount == 0 &&
                config_.evictionPolicy == EvictionPolicy::Lru) {
                evictable_.erase(block.lruKey);
                block.lruKey = lruCounter_++;
                evictable_.emplace(block.lruKey, it->second);
            }
            prefix_blocks.insert(it->second);
            continue;
        }
        if (availableBlocks() == 0)
            return populated; // pool full: honest partial preload
        if (freeList_.empty() &&
            prefix_blocks.contains(evictable_.begin()->second)) {
            // The only eviction victim left is part of this prefix:
            // placing one more block would un-place another.
            return populated;
        }
        const BlockId id = acquireFreshBlock();
        publishEvictable(id, h);
        prefix_blocks.insert(id);
        ++populated;
    }
    return populated;
}

std::int64_t
BlockManager::parkChain(std::span<const TokenId> tokens)
{
    if (!config_.enablePrefixCaching || !spillTiersEnabled())
        return 0;
    const auto hashes = chainHashes(tokens);
    std::int64_t parked = 0;
    // Tail first: the restore probe dies at the first missing block,
    // so the chain head must be the *youngest* tier entry — losing the
    // tail truncates, losing the head forfeits the whole chain.
    for (auto it = hashes.rbegin(); it != hashes.rend(); ++it) {
        auto entry = cacheTable_.find(*it);
        if (entry == cacheTable_.end())
            continue;
        const BlockId id = entry->second;
        Block &b = blocks_[static_cast<std::size_t>(id)];
        if (b.refCount > 0)
            continue; // pinned by a live sequence: not idle
        AGENTSIM_ASSERT(b.lruKey != 0, "idle cached block not on LRU");
        evictable_.erase(b.lruKey);
        cacheTable_.erase(entry);
        demote(0, b.hash);
        freeList_.push_back(id);
        b = Block{};
        ++parked;
    }
    return parked;
}

PrefetchResult
BlockManager::prefetchChain(std::span<const TokenId> tokens)
{
    PrefetchResult out;
    if (!config_.enablePrefixCaching)
        return out;
    const int bs = config_.blockSize;
    const auto hashes = chainHashes(tokens);
    std::unordered_set<BlockId> placed;
    for (const std::uint64_t h : hashes) {
        if (cacheTable_.contains(h))
            continue; // already on the GPU
        std::size_t tier = kNumSpillTiers;
        if (tiers_[0].contains(h))
            tier = 0;
        else if (tiers_[1].contains(h))
            tier = 1;
        if (tier == kNumSpillTiers)
            break; // chain dead beyond this point
        if (availableBlocks() == 0)
            break; // pool full: promote what we could
        if (freeList_.empty() &&
            placed.contains(evictable_.begin()->second))
            break; // would cannibalize a block promoted just now
        const BlockId id = acquireFreshBlock();
        publishEvictable(id, h);
        placed.insert(id);
        noteTierRestore(tier, h);
        ++out.blocks;
        if (tier == 0) {
            out.dramTokens += bs;
            stats_.dram.restoredTokens += bs;
        } else {
            out.nvmeTokens += bs;
            stats_.nvme.restoredTokens += bs;
        }
        stats_.restoredTokens += bs;
    }
    return out;
}

BlockId
BlockManager::acquireFreshBlock()
{
    ++stats_.allocatedBlocks;
    if (!freeList_.empty()) {
        const BlockId id = freeList_.back();
        freeList_.pop_back();
        Block &b = blocks_[static_cast<std::size_t>(id)];
        b = Block{};
        return id;
    }
    AGENTSIM_ASSERT(!evictable_.empty(),
                    "acquireFreshBlock with no candidates");
    // Evict the lowest-key cached block (LRU or FIFO order).
    auto victim = evictable_.begin();
    const BlockId id = victim->second;
    evictable_.erase(victim);
    Block &b = blocks_[static_cast<std::size_t>(id)];
    if (b.inTable) {
        cacheTable_.erase(b.hash);
        // The contents demote into the spill hierarchy instead of
        // vanishing.
        demote(0, b.hash);
    }
    ++stats_.evictions;
    b = Block{};
    return id;
}

void
BlockManager::refCachedBlock(BlockId id)
{
    Block &b = blocks_[static_cast<std::size_t>(id)];
    if (b.refCount == 0) {
        AGENTSIM_ASSERT(b.lruKey != 0, "idle cached block not on LRU");
        evictable_.erase(b.lruKey);
        b.lruKey = 0;
    }
    ++b.refCount;
}

void
BlockManager::publishBlock(BlockId id, std::uint64_t hash)
{
    Block &b = blocks_[static_cast<std::size_t>(id)];
    b.hash = hash;
    // First writer wins; duplicate content in another live block simply
    // stays private to its sequence.
    auto [it, inserted] = cacheTable_.try_emplace(hash, id);
    (void)it;
    b.inTable = inserted;
    if (inserted)
        b.publishKey = lruCounter_++;
}

void
BlockManager::publishEvictable(BlockId id, std::uint64_t hash)
{
    Block &block = blocks_[static_cast<std::size_t>(id)];
    publishBlock(id, hash);
    AGENTSIM_ASSERT(block.inTable,
                    "publishEvictable of already-cached hash");
    // Immediately evictable: owned by the cache, not a sequence.
    block.lruKey = config_.evictionPolicy == EvictionPolicy::Lru
                       ? lruCounter_++
                       : block.publishKey;
    evictable_.emplace(block.lruKey, id);
}

void
BlockManager::unrefBlock(BlockId id)
{
    Block &b = blocks_[static_cast<std::size_t>(id)];
    AGENTSIM_ASSERT(b.refCount > 0, "unref of unreferenced block");
    if (--b.refCount > 0)
        return;
    if (b.inTable) {
        // Park on the eviction list; the contents stay reusable until
        // evicted. The ordering key realizes the configured policy.
        b.lruKey = config_.evictionPolicy == EvictionPolicy::Lru
                       ? lruCounter_++
                       : b.publishKey;
        evictable_.emplace(b.lruKey, id);
    } else {
        freeList_.push_back(id);
    }
}

TierStats &
BlockManager::tierStats(std::size_t index)
{
    return index == 0 ? stats_.dram : stats_.nvme;
}

void
BlockManager::demote(std::size_t first_tier, std::uint64_t hash)
{
    for (std::size_t i = first_tier; i < kNumSpillTiers; ++i) {
        if (tiers_[i].enabled()) {
            spillToTier(i, hash);
            return;
        }
    }
}

void
BlockManager::spillToTier(std::size_t index, std::uint64_t hash)
{
    SpillTier &tier = tiers_[index];
    AGENTSIM_ASSERT(tier.enabled(), "spill into disabled tier");
    if (auto it = tier.entries.find(hash); it != tier.entries.end()) {
        // Already resident: refresh recency.
        tier.lru.erase(it->second);
        it->second = lruCounter_++;
        tier.lru.emplace(it->second, hash);
        return;
    }
    if (static_cast<std::int64_t>(tier.entries.size()) >=
        tier.capacity) {
        // Capacity victim sinks into the next enabled tier or falls
        // out of the hierarchy.
        auto oldest = tier.lru.begin();
        const std::uint64_t victim = oldest->second;
        tier.entries.erase(victim);
        tier.lru.erase(oldest);
        ++tierStats(index).evictedBlocks;
        demote(index + 1, victim);
    }
    const std::uint64_t key = lruCounter_++;
    tier.entries.emplace(hash, key);
    tier.lru.emplace(key, hash);
    ++tierStats(index).demotedBlocks;
}

void
BlockManager::noteTierRestore(std::size_t index, std::uint64_t hash)
{
    SpillTier &tier = tiers_[index];
    auto it = tier.entries.find(hash);
    if (it == tier.entries.end())
        return; // pushed out by demotions earlier in this commit
    // Reclaim: the contents now live on the GPU; keeping the tier
    // copy would waste capacity on a duplicate whose recency never
    // updates (the pre-tier design's exact bug).
    tier.lru.erase(it->second);
    tier.entries.erase(it);
}

void
BlockManager::checkInvariants() const
{
    std::int64_t referenced = 0;
    for (const auto &b : blocks_) {
        if (b.refCount > 0)
            ++referenced;
    }
    const auto free_count = static_cast<std::int64_t>(freeList_.size());
    const auto evict_count =
        static_cast<std::int64_t>(evictable_.size());
    AGENTSIM_ASSERT(referenced + free_count + evict_count ==
                        config_.numBlocks,
                    "block accounting broken: %lld + %lld + %lld != %lld",
                    static_cast<long long>(referenced),
                    static_cast<long long>(free_count),
                    static_cast<long long>(evict_count),
                    static_cast<long long>(config_.numBlocks));
    for (const auto &[key, id] : evictable_) {
        const Block &b = blocks_[static_cast<std::size_t>(id)];
        AGENTSIM_ASSERT(b.refCount == 0 && b.lruKey == key &&
                            b.inTable,
                        "corrupt evictable entry");
    }
    for (const auto &[hash, id] : cacheTable_) {
        const Block &b = blocks_[static_cast<std::size_t>(id)];
        AGENTSIM_ASSERT(b.inTable && b.hash == hash,
                        "corrupt cache-table entry");
    }
    for (std::size_t i = 0; i < kNumSpillTiers; ++i) {
        const SpillTier &tier = tiers_[i];
        AGENTSIM_ASSERT(tier.entries.size() == tier.lru.size(),
                        "tier %zu maps out of sync", i);
        AGENTSIM_ASSERT(static_cast<std::int64_t>(tier.entries.size()) <=
                            std::max<std::int64_t>(tier.capacity, 0),
                        "tier %zu over capacity", i);
        for (const auto &[key, hash] : tier.lru) {
            auto it = tier.entries.find(hash);
            AGENTSIM_ASSERT(it != tier.entries.end() &&
                                it->second == key,
                            "corrupt tier %zu LRU entry", i);
        }
    }
}

} // namespace agentsim::kv
