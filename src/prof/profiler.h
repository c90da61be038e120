/**
 * @file
 * Wall-clock self-profiler for the parallel runtime (ultra::prof).
 *
 * Every other observability layer measures *simulated* cycles; this one
 * measures where *host* time goes, so a disappointing par_speedup
 * number or a perf-gate failure can be attributed instead of guessed
 * at.  The profiler is opt-in (a nullable pointer on the components it
 * instruments, one-branch cost when detached) and writes only to its
 * own channel: stats dumps, goldens and the byte-identity contract are
 * untouched whether it is attached or not.
 *
 * Three kinds of accounting:
 *   - per-phase wall timers: the simulation thread stamps the clock at
 *     each phase boundary of the tick loop (PE compute, PNI issue, the
 *     network's commit/MNI/arrival/merge sub-phases, sampler), so the
 *     phase times tile measured elapsed time;
 *   - per-shard work/wait: the tick engine brackets each fork-join
 *     episode and each shard's task; barrier wait per shard is the
 *     episode wall minus that shard's work, and the departure window
 *     additionally times its stage-rank barrier steps;
 *   - per-unit load: messages consumed, pool allocations and staging
 *     high-water marks per (copy, stage, column-group) network unit,
 *     so imbalance across units is visible, not just its cost.
 *
 * This file (src/prof) is the *only* place in simulation code allowed
 * to read the host clock -- tools/ultralint UL-DET-007 flags raw
 * std::chrono / clock_gettime anywhere else, because a wall-clock read
 * woven into simulation logic is a determinism hazard.  Components
 * time themselves through Profiler::nowNs(), an opaque call.
 *
 * Threading contract: phaseAdd / unitPool / unitStagingHighWater /
 * run lifecycle run on the simulation thread at sequential points;
 * shardBegin/shardEnd/stageWait* run on the shard's own thread with a
 * cache-line-padded slot per shard (no sharing, no atomics);
 * episodeBegin/episodeEnd run on the fork-join caller, and the finish
 * barrier orders every worker's slot writes before episodeEnd reads
 * them.  unitMessages is called by whichever thread owns the unit in
 * the current arrival phase -- unit ownership is exclusive per phase,
 * so the slot has one writer at a time.
 */

#ifndef ULTRA_PROF_PROFILER_H
#define ULTRA_PROF_PROFILER_H

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "common/types.h"

namespace ultra::obs
{
class EventTrace;
} // namespace ultra::obs

namespace ultra::prof
{

/** Instrumented phases of one simulated cycle.  Names (phaseName) are
 *  the JSON keys, listed here in their sorted order so the report can
 *  emit them by simple enumeration. */
enum class Phase : unsigned {
    Hook,         //!< inspect pause fence (cycle hook)
    Inject,       //!< net-mode traffic injection (sharded)
    NetArrival,   //!< parallel per-unit arrival phase
    NetCommit,    //!< sequential delivery/commit phase
    NetDepartFwd, //!< forward departure window (stage barrier steps)
    NetDepartRev, //!< reverse departure window
    NetDrain,     //!< sequential unit-staging drain/fold
    NetMni,       //!< sequential MNI handoff
    NetPrePass,   //!< departure pre-pass (pull-list build)
    NetSweepFwd,  //!< sequential sweep of the final forward stage
    NetSweepRev,  //!< sequential sweep of reverse stage 0
    Other,        //!< fork-join episodes with no phase assigned
    PeCompute,    //!< PE coroutine stepping (sharded compute phase)
    Pni,          //!< sequential PNI issue/completion
    Sampler,      //!< per-cycle sampler + observer flush
    kCount
};

constexpr unsigned kPhaseCount = static_cast<unsigned>(Phase::kCount);

/** The stable JSON/report name of @p p (e.g. "net.arrival"). */
const char *phaseName(Phase p);

/** Wall-clock self-profiler; see the file comment for the contract. */
class Profiler
{
  public:
    /**
     * The host monotonic clock, in nanoseconds from an arbitrary
     * epoch.  The single sanctioned wall-clock read in simulation
     * code (UL-DET-007); deliberately opaque so callers carry no
     * <chrono> tokens.
     */
    static std::uint64_t nowNs();

    Profiler();

    /** Size the per-shard slots; call before the first episode. */
    void configureThreads(unsigned threads);

    /** Size the per-unit slots; call at network attach time. */
    void configureUnits(std::uint32_t count);

    /** Label @p unit with its place in the (copy, stage, group) grid. */
    void setUnitGeometry(std::uint32_t unit, unsigned copy,
                         unsigned stage, unsigned group);

    // -- run lifecycle (simulation thread) --------------------------
    void runBegin();
    void runEnd(std::uint64_t cycles);

    /**
     * Zero every counter (phase timers, episodes, shard slots, unit
     * loads, run window) in place, keeping the configured thread/unit
     * geometry.  A persistent server reuses one profiler across jobs,
     * and a job's report must cover that job alone -- without this a
     * warmed machine leaks laps across jobs (see serve_test).
     */
    void reset();

    // -- per-phase wall timers (simulation thread) ------------------
    void
    phaseAdd(Phase p, std::uint64_t ns)
    {
        phaseNs_[static_cast<unsigned>(p)] += ns;
        ++phaseCalls_[static_cast<unsigned>(p)];
    }

    // -- fork-join episode accounting (tick engine) -----------------
    /** Attribute subsequent episodes to @p p (simulation thread). */
    void setEpisodePhase(Phase p) { episodePhase_ = p; }
    void episodeBegin();
    void episodeEnd();
    void shardBegin(unsigned shard);
    void shardEnd(unsigned shard);

    // -- stage-barrier waits (departure window, shard threads) ------
    void stageWaitBegin(unsigned shard);
    void stageWaitEnd(unsigned shard);

    // -- per-unit load counters -------------------------------------
    void
    unitMessages(std::uint32_t unit, std::uint64_t n)
    {
        units_[unit].messages += n;
    }
    void
    unitPool(std::uint32_t unit, std::uint64_t allocs,
             std::uint64_t capacity)
    {
        units_[unit].allocs = allocs;
        units_[unit].capacity = capacity;
    }
    void
    unitStagingHighWater(std::uint32_t unit, std::uint64_t entries)
    {
        UnitSlot &slot = units_[unit];
        slot.stagingHighWater = std::max(slot.stagingHighWater, entries);
    }

    // -- report -----------------------------------------------------
    /** Seconds from runBegin to runEnd (or to now mid-run). */
    double elapsedSeconds() const;

    /**
     * The full report as schema-versioned JSON ("ultra.prof.v1"),
     * keys sorted at every level so diffs and goldens are stable.
     * Callable mid-run (the live `prof` inspect command) -- elapsed
     * is measured to the call.
     */
    std::string reportJson() const;

    /**
     * Emit cumulative per-phase counter tracks onto @p trace (track
     * "prof", Perfetto 'C' events at simulated-cycle @p now).  Only
     * ever called when a trace is recording *and* profiling is on, so
     * a default --trace-events file is byte-identical with the
     * profiler detached.
     */
    void flushCounters(obs::EventTrace &trace, Cycle now) const;

    // -- accessors (tests, report writers) --------------------------
    unsigned threads() const { return static_cast<unsigned>(shards_.size()); }
    std::uint64_t cycles() const { return cycles_; }
    std::uint64_t phaseNs(Phase p) const
    {
        return phaseNs_[static_cast<unsigned>(p)];
    }
    std::uint64_t episodeNs(Phase p) const
    {
        return episodeNs_[static_cast<unsigned>(p)];
    }
    std::uint64_t totalPhaseNs() const;
    std::uint64_t totalEpisodeNs() const;
    std::uint64_t shardWorkNs(unsigned shard) const
    {
        return shards_[shard].workNs;
    }
    std::uint64_t shardBarrierWaitNs(unsigned shard) const
    {
        return shards_[shard].barrierWaitNs;
    }
    std::uint64_t shardStageWaitNs(unsigned shard) const
    {
        return shards_[shard].stageWaitNs;
    }

  private:
    /** One fork-join shard's accounting; padded so neighbouring
     *  shards never share a cache line. */
    struct alignas(64) ShardSlot
    {
        std::uint64_t workNs = 0;        //!< task time, stage waits included
        std::uint64_t episodeWorkNs = 0; //!< work inside the open episode
        std::uint64_t barrierWaitNs = 0; //!< episode wall minus own work
        std::uint64_t stageWaitNs = 0;   //!< departure stage-barrier waits
        std::uint64_t workT0 = 0;
        std::uint64_t stageT0 = 0;
    };

    /** One network unit's load counters (single writer per phase). */
    struct alignas(64) UnitSlot
    {
        std::uint64_t messages = 0;
        std::uint64_t allocs = 0;
        std::uint64_t capacity = 0;
        std::uint64_t stagingHighWater = 0;
        unsigned copy = 0;
        unsigned stage = 0;
        unsigned group = 0;
    };

    std::uint64_t phaseNs_[kPhaseCount] = {};
    std::uint64_t phaseCalls_[kPhaseCount] = {};
    std::uint64_t episodeNs_[kPhaseCount] = {};
    std::uint64_t episodeCount_ = 0;
    Phase episodePhase_ = Phase::Other;
    std::uint64_t episodeT0_ = 0;

    std::vector<ShardSlot> shards_;
    std::vector<UnitSlot> units_;

    std::uint64_t runStartNs_ = 0;
    std::uint64_t runEndNs_ = 0;
    std::uint64_t cycles_ = 0;
};

} // namespace ultra::prof

#endif // ULTRA_PROF_PROFILER_H
