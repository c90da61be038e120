#include "prof/profiler.h"

#include <algorithm>
#include <chrono>
#include <sstream>

#include "common/log.h"
#include "obs/event_trace.h"
#include "obs/json.h"

namespace ultra::prof
{

const char *
phaseName(Phase p)
{
    // Sorted order: these are the JSON keys of the "phases" object,
    // emitted by enumeration -- keep the table and the enum sorted.
    switch (p) {
    case Phase::Hook: return "hook";
    case Phase::Inject: return "inject";
    case Phase::NetArrival: return "net.arrival";
    case Phase::NetCommit: return "net.commit";
    case Phase::NetDepartFwd: return "net.depart_fwd";
    case Phase::NetDepartRev: return "net.depart_rev";
    case Phase::NetDrain: return "net.drain";
    case Phase::NetMni: return "net.mni";
    case Phase::NetPrePass: return "net.prepass";
    case Phase::NetSweepFwd: return "net.sweep_fwd";
    case Phase::NetSweepRev: return "net.sweep_rev";
    case Phase::Other: return "other";
    case Phase::PeCompute: return "pe.compute";
    case Phase::Pni: return "pni";
    case Phase::Sampler: return "sampler";
    case Phase::kCount: break;
    }
    return "?";
}

std::uint64_t
Profiler::nowNs()
{
    // The single sanctioned wall-clock read in simulation code; every
    // instrumented component times itself through this call so no
    // <chrono> token appears outside src/prof (UL-DET-007).
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

Profiler::Profiler() : shards_(1) {}

void
Profiler::configureThreads(unsigned threads)
{
    ULTRA_ASSERT(threads >= 1);
    if (shards_.size() < threads)
        shards_.resize(threads);
}

void
Profiler::configureUnits(std::uint32_t count)
{
    if (units_.size() < count)
        units_.resize(count);
}

void
Profiler::setUnitGeometry(std::uint32_t unit, unsigned copy,
                          unsigned stage, unsigned group)
{
    units_[unit].copy = copy;
    units_[unit].stage = stage;
    units_[unit].group = group;
}

void
Profiler::runBegin()
{
    runStartNs_ = nowNs();
    runEndNs_ = 0;
}

void
Profiler::runEnd(std::uint64_t cycles)
{
    runEndNs_ = nowNs();
    cycles_ = cycles;
}

void
Profiler::reset()
{
    for (unsigned p = 0; p < kPhaseCount; ++p) {
        phaseNs_[p] = 0;
        phaseCalls_[p] = 0;
        episodeNs_[p] = 0;
    }
    episodeCount_ = 0;
    episodePhase_ = Phase::Other;
    episodeT0_ = 0;
    for (ShardSlot &slot : shards_) {
        slot.workNs = 0;
        slot.episodeWorkNs = 0;
        slot.barrierWaitNs = 0;
        slot.stageWaitNs = 0;
        slot.workT0 = 0;
        slot.stageT0 = 0;
    }
    for (UnitSlot &slot : units_) {
        // Counters only; the (copy, stage, group) geometry survives --
        // it describes the attached network, not a run.
        slot.messages = 0;
        slot.allocs = 0;
        slot.capacity = 0;
        slot.stagingHighWater = 0;
    }
    runStartNs_ = 0;
    runEndNs_ = 0;
    cycles_ = 0;
}

void
Profiler::episodeBegin()
{
    episodeT0_ = nowNs();
}

void
Profiler::episodeEnd()
{
    const std::uint64_t wall = nowNs() - episodeT0_;
    episodeNs_[static_cast<unsigned>(episodePhase_)] += wall;
    ++episodeCount_;
    // The finish barrier has joined: every worker's episodeWorkNs is
    // visible.  A shard's work window sits strictly inside the
    // caller's episode window (released by the start barrier, joined
    // by the finish barrier), so wall >= work and the difference is
    // the shard's time spent waiting on the fork-join barriers.
    for (ShardSlot &slot : shards_) {
        const std::uint64_t work = std::min(slot.episodeWorkNs, wall);
        slot.barrierWaitNs += wall - work;
        slot.episodeWorkNs = 0;
    }
}

void
Profiler::shardBegin(unsigned shard)
{
    shards_[shard].workT0 = nowNs();
}

void
Profiler::shardEnd(unsigned shard)
{
    ShardSlot &slot = shards_[shard];
    const std::uint64_t dt = nowNs() - slot.workT0;
    slot.workNs += dt;
    slot.episodeWorkNs += dt;
}

void
Profiler::stageWaitBegin(unsigned shard)
{
    shards_[shard].stageT0 = nowNs();
}

void
Profiler::stageWaitEnd(unsigned shard)
{
    ShardSlot &slot = shards_[shard];
    slot.stageWaitNs += nowNs() - slot.stageT0;
}

std::uint64_t
Profiler::totalPhaseNs() const
{
    std::uint64_t sum = 0;
    for (std::uint64_t ns : phaseNs_)
        sum += ns;
    return sum;
}

std::uint64_t
Profiler::totalEpisodeNs() const
{
    std::uint64_t sum = 0;
    for (std::uint64_t ns : episodeNs_)
        sum += ns;
    return sum;
}

double
Profiler::elapsedSeconds() const
{
    if (runStartNs_ == 0)
        return 0.0;
    const std::uint64_t end = runEndNs_ != 0 ? runEndNs_ : nowNs();
    return static_cast<double>(end - runStartNs_) * 1e-9;
}

namespace
{

constexpr double kNsToS = 1e-9;

void
writeNum(std::ostream &os, double x)
{
    obs::writeJsonNumber(os, x);
}

} // namespace

std::string
Profiler::reportJson() const
{
    // Keys sorted at every level (the schema-stability contract; see
    // prof_test).  Top level: attribution < cycles < elapsed_seconds
    // < phases < schema < thread_slots < threads < units.
    const double elapsed = elapsedSeconds();
    const double safe_elapsed = elapsed > 0 ? elapsed : 1.0;
    const unsigned threads = this->threads();

    const double phase_s = static_cast<double>(totalPhaseNs()) * kNsToS;
    const double episode_s =
        static_cast<double>(totalEpisodeNs()) * kNsToS;
    const double serial_s = std::max(0.0, phase_s - episode_s);
    double work_s = 0.0;      // task time net of stage waits
    double barrier_s = 0.0;   // fork-join barrier waits
    double stage_wait_s = 0.0;
    double max_work_s = 0.0;
    for (const ShardSlot &slot : shards_) {
        const double w =
            static_cast<double>(slot.workNs - std::min(slot.workNs,
                                                       slot.stageWaitNs)) *
            kNsToS;
        work_s += w;
        max_work_s = std::max(max_work_s, w);
        barrier_s += static_cast<double>(slot.barrierWaitNs) * kNsToS;
        stage_wait_s += static_cast<double>(slot.stageWaitNs) * kNsToS;
    }
    const double coverage = phase_s / safe_elapsed;
    const double mean_work_s = work_s / threads;

    std::ostringstream os;
    os << "{\"attribution\": {";
    os << "\"barrier_wait_fraction\": ";
    writeNum(os, barrier_s / (threads * safe_elapsed));
    os << ", \"barrier_wait_seconds\": ";
    writeNum(os, barrier_s);
    os << ", \"coverage\": ";
    writeNum(os, coverage);
    os << ", \"imbalance_fraction\": ";
    writeNum(os, (max_work_s - mean_work_s) / safe_elapsed);
    os << ", \"overhead_fraction\": ";
    writeNum(os, std::max(0.0, 1.0 - coverage));
    os << ", \"parallel_seconds\": ";
    writeNum(os, episode_s);
    os << ", \"serial_fraction\": ";
    writeNum(os, serial_s / safe_elapsed);
    os << ", \"serial_seconds\": ";
    writeNum(os, serial_s);
    os << ", \"stage_wait_fraction\": ";
    writeNum(os, stage_wait_s / (threads * safe_elapsed));
    os << ", \"stage_wait_seconds\": ";
    writeNum(os, stage_wait_s);
    os << ", \"work_seconds\": ";
    writeNum(os, work_s);
    os << "}";

    os << ", \"cycles\": " << cycles_;
    os << ", \"elapsed_seconds\": ";
    writeNum(os, elapsed);

    os << ", \"phases\": {";
    for (unsigned p = 0; p < kPhaseCount; ++p) {
        if (p > 0)
            os << ", ";
        os << "\"" << phaseName(static_cast<Phase>(p))
           << "\": {\"calls\": " << phaseCalls_[p]
           << ", \"episode_seconds\": ";
        writeNum(os, static_cast<double>(episodeNs_[p]) * kNsToS);
        os << ", \"seconds\": ";
        writeNum(os, static_cast<double>(phaseNs_[p]) * kNsToS);
        os << "}";
    }
    os << "}";

    os << ", \"schema\": \"ultra.prof.v1\"";

    os << ", \"thread_slots\": [";
    for (unsigned i = 0; i < threads; ++i) {
        const ShardSlot &slot = shards_[i];
        if (i > 0)
            os << ", ";
        os << "{\"barrier_wait_seconds\": ";
        writeNum(os, static_cast<double>(slot.barrierWaitNs) * kNsToS);
        os << ", \"shard\": " << i << ", \"stage_wait_seconds\": ";
        writeNum(os, static_cast<double>(slot.stageWaitNs) * kNsToS);
        os << ", \"work_seconds\": ";
        writeNum(os, static_cast<double>(slot.workNs) * kNsToS);
        os << "}";
    }
    os << "]";

    os << ", \"threads\": " << threads;

    os << ", \"units\": [";
    for (std::size_t u = 0; u < units_.size(); ++u) {
        const UnitSlot &slot = units_[u];
        if (u > 0)
            os << ", ";
        os << "{\"allocs\": " << slot.allocs
           << ", \"capacity\": " << slot.capacity
           << ", \"copy\": " << slot.copy
           << ", \"group\": " << slot.group
           << ", \"messages\": " << slot.messages
           << ", \"stage\": " << slot.stage
           << ", \"staging_high_water\": " << slot.stagingHighWater
           << ", \"unit\": " << u << "}";
    }
    os << "]}";
    return os.str();
}

void
Profiler::flushCounters(obs::EventTrace &trace, Cycle now) const
{
    const obs::EventTrace::TrackId track = trace.track("prof");
    for (unsigned p = 0; p < kPhaseCount; ++p) {
        if (phaseNs_[p] == 0)
            continue;
        trace.counter(track, phaseName(static_cast<Phase>(p)), now,
                      static_cast<double>(phaseNs_[p]) * kNsToS);
    }
    std::uint64_t barrier = 0;
    std::uint64_t stage_wait = 0;
    for (const ShardSlot &slot : shards_) {
        barrier += slot.barrierWaitNs;
        stage_wait += slot.stageWaitNs;
    }
    trace.counter(track, "barrier_wait", now,
                  static_cast<double>(barrier) * kNsToS);
    trace.counter(track, "stage_wait", now,
                  static_cast<double>(stage_wait) * kNsToS);
}

} // namespace ultra::prof
