/**
 * @file
 * Episode checkpoint store — recover the *work*, not just the
 * request. A long agent rollout that dies at iteration 7 of 8
 * currently replays the whole episode on another node; yet the state
 * that reproduces it (workflow position, accumulated trace, the
 * conversation-prefix token chain) is tiny next to the GPU-seconds
 * that produced it. The store journals that state at iteration
 * boundaries so the cluster's retry path can resume instead of
 * restart.
 *
 * Layering: serving cannot see agent types, so the workflow snapshot
 * travels as an opaque shared_ptr tagged with the workflow kind; the
 * agent that wrote it casts it back on resume (the cluster guards the
 * tag against brownout downgrades). The KV side is explicit: the
 * checkpoint carries the prefix token chain, and the restore path
 * prices wiring those bytes back (migration-style) against
 * recomputing the prefill cold, taking whichever is cheaper.
 *
 * Snapshots are journal *deltas*: re-checkpointing an episode pays
 * only for the tokens appended since the previous checkpoint (the
 * prefix bytes are already in the store), plus a fixed journal
 * overhead. Write time is priced against kCheckpointWireBandwidth — a
 * host-DRAM-class path, never HBM residency — and accounted as
 * background bytes, not sim delay: snapshot writes overlap the next
 * iteration's decode exactly like the background tier demotions.
 *
 * Determinism: the policy gate draws no random numbers, so enabling
 * checkpointing consumes nothing from the fault, retry or workload
 * streams. With the policy disabled the store is never constructed
 * and the run is bit-identical to a build without this file.
 */

#ifndef AGENTSIM_SERVING_CHECKPOINT_HH
#define AGENTSIM_SERVING_CHECKPOINT_HH

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "kv/block_manager.hh"
#include "sim/types.hh"

namespace agentsim::serving
{

/** When episodes are checkpointed. */
struct CheckpointPolicy
{
    /** Master switch. Off: no store, bit-identical runs. */
    bool enabled = false;
    /** Journal every k-th completed iteration (1 = every). */
    int everyIterations = 1;
};

/**
 * Snapshot write bandwidth, B/s. Checkpoints live in host DRAM
 * (spilling to NVMe under pressure), so this is a PCIe-class path,
 * not the 200 GB/s inter-node interconnect.
 */
inline constexpr double kCheckpointWireBandwidth = 25e9;

/** Fixed journal overhead per snapshot (workflow state, trace),
 *  bytes. */
inline constexpr std::int64_t kCheckpointJournalBytes = 4096;

/**
 * One journaled episode snapshot: enough to resume the rollout at
 * the last completed iteration on any node.
 */
struct EpisodeCheckpoint
{
    /** Workflow kind that wrote `state` (agents::AgentKind value);
     *  a resume under a different kind must discard the snapshot. */
    int kindTag = -1;
    /** Completed iterations at snapshot time (resume starts here). */
    int iteration = 0;
    /** Sim time the snapshot was taken. */
    sim::Tick takenTick = 0;
    /** Opaque workflow state (agent-owned type; see file comment). */
    std::shared_ptr<const void> state;
    /**
     * Conversation-prefix token chain the next iteration will prefill
     * with — what the restore path warms (or recomputes) on the
     * surviving node.
     */
    std::vector<kv::TokenId> chainTokens;
    /** GPU-seconds invested in the episode up to this snapshot — the
     *  work a resume recovers. */
    double gpuSeconds = 0.0;
    /** Bytes this snapshot added to the store (delta-journaled). */
    std::int64_t snapshotBytes = 0;
};

/** Checkpoint/recovery accounting, store- and cluster-side. */
struct RecoveryStats
{
    /** Snapshots journaled. */
    std::int64_t checkpointsTaken = 0;
    /** Bytes written into the store (delta-journaled). */
    std::int64_t bytesWritten = 0;
    /** Background wire-seconds spent writing snapshots. */
    double snapshotSeconds = 0.0;
    /** Retries that resumed from a checkpoint instead of replaying. */
    std::int64_t resumes = 0;
    /** Resumes that warmed the prefix KV over the wire. */
    std::int64_t kvRestores = 0;
    /** Resumes that recomputed the prefix cold (priced cheaper, or
     *  nothing to restore). */
    std::int64_t coldFallbacks = 0;
    /** Wire-seconds spent restoring prefix KV on resume. */
    double restoreSeconds = 0.0;
    /** GPU-seconds of completed work a resume did *not* recompute. */
    double recoveredGpuSeconds = 0.0;
    /** GPU-seconds of work lost to retries anyway (invested since the
     *  last snapshot — with checkpointing off, the whole episode). */
    double lostGpuSeconds = 0.0;
    /** recoveredGpuSeconds split by failure cause. */
    double recoveredCrashGpuSeconds = 0.0;
    double recoveredShedGpuSeconds = 0.0;
};

/**
 * Keyed store of the latest checkpoint per in-flight episode. One
 * instance per cluster run; episodes are keyed by request index.
 * Entries are erased when the episode completes or is abandoned, so
 * steady-state footprint is proportional to in-flight episodes only.
 */
class CheckpointStore
{
  public:
    explicit CheckpointStore(const CheckpointPolicy &policy)
        : policy_(policy)
    {
    }

    const CheckpointPolicy &policy() const { return policy_; }

    /**
     * Policy gate: should an episode with @p completed_iterations
     * (>= 1) journal a snapshot now?
     */
    bool shouldCheckpoint(int completed_iterations) const;

    /**
     * Journal @p ckpt as episode @p episode's latest snapshot,
     * replacing any previous one. @p bytes_per_token prices the KV
     * prefix; only tokens beyond the previous snapshot's chain are
     * charged (the store already holds the prefix).
     */
    void put(std::uint64_t episode, EpisodeCheckpoint ckpt,
             double bytes_per_token);

    /** Latest snapshot for @p episode, or null. */
    const EpisodeCheckpoint *find(std::uint64_t episode) const;

    /** Drop @p episode's snapshot (episode finished or abandoned). */
    void erase(std::uint64_t episode);

    /** Store-side accounting (taken/bytes/write-seconds). */
    const RecoveryStats &stats() const { return stats_; }

    std::size_t size() const { return entries_.size(); }

  private:
    CheckpointPolicy policy_;
    std::unordered_map<std::uint64_t, EpisodeCheckpoint> entries_;
    RecoveryStats stats_;
};

} // namespace agentsim::serving

#endif // AGENTSIM_SERVING_CHECKPOINT_HH
