#ifndef SOSIM_CORE_REMAP_H
#define SOSIM_CORE_REMAP_H

/**
 * @file
 * Incremental remapping (section 3.6): when mid-/long-term workload drift
 * makes the current placement suboptimal, SmoothOperator finds the power
 * node with the most severe fragmentation (lowest asynchrony score),
 * identifies the member with the worst differential asynchrony score, and
 * swaps it with an instance of another node — accepting the swap only
 * when it raises the differential asynchrony scores at *both* nodes.
 */

#include <cstddef>
#include <cstdint>
#include <vector>

#include "power/power_tree.h"
#include "trace/kernels.h"
#include "trace/time_series.h"

namespace sosim::cluster {
class ShapeIndex;
}

namespace sosim::core {

/**
 * Candidate-pair pruning strategy for the swap scan.  kOff evaluates
 * every (candidate, partner) pair — the exhaustive reference, exactly
 * the pre-prune behavior, bit for bit.  kCluster builds a
 * cluster::CandidatePairIndex over the population's diurnal shapes once
 * per refine() call and skips partners whose embedding cluster is
 * outside the candidate's allowed set before any kernel pass runs —
 * sublinear effective pair space, final score within a small epsilon of
 * exhaustive (tests/test_prune.cc pins both properties).
 */
enum class PruneMode { kOff, kCluster };

/** Parameters of the swap-based refinement. */
struct RemapConfig {
    /** Upper bound on accepted swaps per refine() call. */
    int maxSwaps = 64;
    /** How many of the worst-scoring members of the fragmented node are
     *  considered as swap-out candidates each round. */
    std::size_t candidatesPerRound = 4;
    /**
     * Instances whose trace validity (fraction of genuinely measured
     * samples, see trace::validFraction / trace::RepairSummary) falls
     * below this are excluded from swap candidacy on both sides of a
     * swap: a trace that is mostly repair-fabricated must not drive
     * placement churn.  Only takes effect when refine() is given a
     * validity vector; 0.0 disables the filter.
     */
    double minValidFraction = 0.5;
    /**
     * How the swap scan runs the per-pair peak passes that survive the
     * O(1) probe bounds.  kStrict (the default) uses the early-reject
     * kernels, which stop a pass once its prefix peak proves the reject;
     * kBlocked scans every such pass in full with the blocked kernels.
     * Every pass the refinement runs is a peak over finite data, so
     * both modes take identical decisions and return bit-identical
     * swaps (tests/test_remap_bound.cc); the mode changes only the work
     * done.  The setup passes (aggregates, member caches) use the
     * dispatched blocked kernels in either mode.
     */
    trace::KernelMode kernels = trace::KernelMode::kStrict;
    /**
     * Candidate-pair pruning (see PruneMode).  kOff is bit-identical to
     * the exhaustive scan; kCluster trades an epsilon of final score for
     * a much smaller pair space at fleet populations.
     */
    PruneMode prune = PruneMode::kOff;
    /**
     * Cluster count for the kCluster embedding; 0 picks
     * ceil(sqrt(population)) clamped to [2, 32].  Ignored when prune is
     * kOff.
     */
    std::size_t pruneClusters = 0;
    /**
     * Fraction of clusters each candidate may partner with, farthest
     * centroids first (asynchronous shapes live far apart in the
     * embedding).  Clamped per build to keep at least one cluster; 1.0
     * keeps every cluster, making kCluster score-equivalent to kOff.
     */
    double pruneKeepFraction = 0.5;
    /** Seed of the k-means embedding behind kCluster. */
    std::uint64_t pruneSeed = 42;
    /**
     * Shard count for the swap scan's rack partition; 0 (default) picks
     * 2x the pool thread count.  Shards are contiguous, subtree-aligned
     * rack ranges (trace::ShardPlan), so per-shard aggregate rows live
     * in disjoint cache-line blocks and the serial reduction over
     * (candidate, shard, rack) order reproduces the unsharded
     * (candidate, rack) order exactly — the shard count never changes
     * results, only the fan-out shape.
     */
    std::size_t shards = 0;
    /**
     * Power-tree level whose subtrees shard boundaries must respect
     * (racks under one ancestor at this level never straddle shards).
     * Defaults to the suite bus level; coarser levels give fewer, larger
     * groups.
     */
    power::Level shardLevel = power::Level::Sb;
};

/** One accepted swap, for reporting. */
struct SwapRecord {
    std::size_t instanceA = 0;
    std::size_t instanceB = 0;
    power::NodeId rackA = power::kNoNode;
    power::NodeId rackB = power::kNoNode;
    /** Differential score of A at rackA before, and of B at rackA after. */
    double scoreAtABefore = 0.0;
    double scoreAtAAfter = 0.0;
    /** Differential score of B at rackB before, and of A at rackB after. */
    double scoreAtBBefore = 0.0;
    double scoreAtBAfter = 0.0;
};

/** Swap-based incremental placement refinement. */
class Remapper
{
  public:
    /**
     * @param tree   The power infrastructure (not owned).
     * @param config Refinement parameters.
     */
    Remapper(const power::PowerTree &tree, RemapConfig config = {});

    /**
     * Refine an assignment in place against (possibly drifted) I-traces.
     * The traces are read in place (never copied); the refinement owns
     * only its rack aggregates and per-candidate scratch rows.
     *
     * @param assignment Placement to refine; updated in place.
     * @param itraces    Current averaged I-traces of every instance,
     *                   all of one length and interval; must be gap-free
     *                   (repair degraded telemetry with trace::repairAll
     *                   first).  Must not change during the call.
     * @param validity   Optional per-instance valid fraction *before*
     *                   repair (e.g. RepairSummary::validBefore).  When
     *                   given, instances below config's
     *                   minValidFraction still count toward their rack's
     *                   aggregate but are never chosen as a swap-out
     *                   candidate or a swap partner.
     * @param shapes     Optional prebuilt cluster::ShapeIndex over
     *                   `itraces` (population order, default buckets).
     *                   Read only when config's prune is kCluster: the
     *                   pruner clusters these points instead of
     *                   re-embedding the population.  An index whose
     *                   size does not match the population is ignored
     *                   (the embedding is rebuilt locally).
     * @return The accepted swaps, in order.
     */
    std::vector<SwapRecord>
    refine(power::Assignment &assignment,
           const std::vector<trace::TimeSeries> &itraces,
           const std::vector<double> *validity = nullptr,
           const cluster::ShapeIndex *shapes = nullptr) const;

    /** Older name of refine(), kept for the benchmark harness. */
    std::vector<SwapRecord>
    refineInPlace(power::Assignment &assignment,
                  const std::vector<trace::TimeSeries> &itraces,
                  const std::vector<double> *validity = nullptr,
                  const cluster::ShapeIndex *shapes = nullptr) const
    {
        return refine(assignment, itraces, validity, shapes);
    }

    /**
     * Asynchrony score of each rack under an assignment (1-member racks
     * score |members| = 1 by definition; empty racks score 0).
     */
    std::vector<double>
    rackScores(const power::Assignment &assignment,
               const std::vector<trace::TimeSeries> &itraces) const;

  private:
    const power::PowerTree &tree_;
    RemapConfig config_;
};

} // namespace sosim::core

#endif // SOSIM_CORE_REMAP_H
