#include "serving/checkpoint.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace agentsim::serving
{

bool
CheckpointStore::shouldCheckpoint(int completed_iterations) const
{
    // An episode with no completed iteration has nothing to resume.
    if (!policy_.enabled || completed_iterations < 1)
        return false;
    return policy_.everyIterations <= 1 ||
           completed_iterations % policy_.everyIterations == 0;
}

void
CheckpointStore::put(std::uint64_t episode, EpisodeCheckpoint ckpt,
                     double bytes_per_token)
{
    AGENTSIM_ASSERT(bytes_per_token >= 0.0,
                    "negative checkpoint KV pricing");
    // Delta journaling: the previous snapshot's prefix bytes are
    // already in the store, so only newly appended chain tokens (plus
    // the fixed journal overhead) hit the wire. A shrinking chain
    // (e.g. a Reflexion trial boundary resetting the trajectory)
    // costs only the journal overhead.
    std::size_t prev_tokens = 0;
    if (const auto it = entries_.find(episode); it != entries_.end())
        prev_tokens = it->second.chainTokens.size();
    const auto delta_tokens = static_cast<double>(
        ckpt.chainTokens.size() > prev_tokens
            ? ckpt.chainTokens.size() - prev_tokens
            : 0);
    ckpt.snapshotBytes =
        kCheckpointJournalBytes +
        static_cast<std::int64_t>(delta_tokens * bytes_per_token);
    ++stats_.checkpointsTaken;
    stats_.bytesWritten += ckpt.snapshotBytes;
    stats_.snapshotSeconds +=
        static_cast<double>(ckpt.snapshotBytes) / kCheckpointWireBandwidth;
    entries_[episode] = std::move(ckpt);
}

const EpisodeCheckpoint *
CheckpointStore::find(std::uint64_t episode) const
{
    const auto it = entries_.find(episode);
    return it != entries_.end() ? &it->second : nullptr;
}

void
CheckpointStore::erase(std::uint64_t episode)
{
    entries_.erase(episode);
}

} // namespace agentsim::serving
