/**
 * @file
 * Determinism/conservation battery for the sharded network tick
 * (DESIGN.md "Sharding the network tick"):
 *
 *   - the StageColumnPlan partition binds every switch column of every
 *     copy to exactly one unit,
 *   - the PhaseChecker's network compute domain flags cross-shard and
 *     unit-less mutations (driven directly, so it runs in every build),
 *   - per-unit message pools conserve messages and route frees home
 *     under a combining storm distributed over engine shards,
 *   - shardGroupTarget is a pure parallelism-granularity knob: any
 *     group partition yields byte-identical statistics,
 *   - a 200-seed sweep over randomized Table-1-style traffic (rates,
 *     hot-spot fractions, Burroughs-kill episodes) pins --threads
 *     {2,4,8} runs byte-identical to --threads 1, arrival-phase
 *     sharding on and off,
 *   - TRED2 end-to-end reproduces cycles and stats across thread
 *     counts on randomized inputs.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "apps/tred2.h"
#include "check/phase_check.h"
#include "core/machine.h"
#include "mem/address_hash.h"
#include "mem/memory_system.h"
#include "net/network.h"
#include "net/pni.h"
#include "net/traffic.h"
#include "obs/latency.h"
#include "obs/registry.h"
#include "par/shard.h"
#include "par/tick_engine.h"
#include "prof/profiler.h"

namespace ultra::net
{
namespace
{

using check::PhaseChecker;
using check::Violation;

// ------------------------------------------------------------------
// Partition sanity
// ------------------------------------------------------------------

TEST(NetShardTest, StageColumnPlanBindsEveryColumnOnce)
{
    NetSimConfig cfg;
    cfg.numPorts = 64;
    cfg.k = 2;
    cfg.d = 2;
    cfg.shardGroupTarget = 5; // deliberately not a divisor
    mem::MemoryConfig mc;
    mc.numModules = cfg.numPorts;
    mc.wordsPerModule = 64;
    mem::MemorySystem memory(mc);
    Network network(cfg, memory);

    const par::StageColumnPlan &plan = network.shardPlan();
    const unsigned stages = network.topology().stages();
    const std::uint32_t columns = network.topology().switchesPerStage();
    ASSERT_EQ(plan.units(),
              std::size_t{cfg.d} * stages * plan.groupsPerStage());

    std::vector<unsigned> hits(plan.units(), 0);
    for (unsigned c = 0; c < cfg.d; ++c) {
        for (unsigned s = 0; s < stages; ++s) {
            for (std::uint32_t col = 0; col < columns; ++col) {
                const std::size_t u = plan.unitOf(c, s, col);
                ASSERT_LT(u, plan.units());
                EXPECT_EQ(plan.copyOf(u), c);
                EXPECT_EQ(plan.stageOf(u), s);
                const par::ShardRange r = plan.columnsOf(u);
                EXPECT_GE(col, r.begin);
                EXPECT_LT(col, r.end);
                ++hits[u];
            }
        }
    }
    // Every unit owns at least one column and the column counts add up.
    std::size_t total = 0;
    for (std::size_t u = 0; u < plan.units(); ++u) {
        EXPECT_GT(hits[u], 0u) << "empty unit " << u;
        const par::ShardRange r = plan.columnsOf(u);
        EXPECT_EQ(hits[u], r.end - r.begin);
        total += hits[u];
    }
    EXPECT_EQ(total, std::size_t{cfg.d} * stages * columns);
}

// ------------------------------------------------------------------
// PhaseChecker network compute domain (runs in every build)
// ------------------------------------------------------------------

/** RAII reset covering the network domain as well as the PE domain. */
struct NetCheckerGuard
{
    NetCheckerGuard()
    {
        PhaseChecker::instance().clear();
        PhaseChecker::instance().setFailFast(false);
    }
    ~NetCheckerGuard()
    {
        PhaseChecker::instance().endCompute();
        PhaseChecker::instance().endNetCompute();
        PhaseChecker::unbindShard();
        PhaseChecker::instance().clear();
        PhaseChecker::instance().setOwners(1, {});
        PhaseChecker::instance().setNetOwners(1, {});
    }
};

TEST(NetShardCheckTest, OwningShardMayMutateOthersMayNot)
{
    NetCheckerGuard guard;
    PhaseChecker &checker = PhaseChecker::instance();
    checker.setNetOwners(2, {0, 0, 1, 1});

    // The sequential phase may touch any unit.
    checker.onNetMutate("net.out_queue.enqueue", 3);
    EXPECT_EQ(checker.violationCount(), 0u);

    checker.beginNetCompute(5);
    PhaseChecker::bindShard(0);
    checker.onNetMutate("net.out_queue.enqueue", 1); // own unit: legal
    EXPECT_EQ(checker.violationCount(), 0u);

    checker.onNetMutate("net.out_queue.dequeue", 3); // shard 1's unit
    ASSERT_EQ(checker.violationCount(), 1u);
    const Violation v = checker.violations().front();
    EXPECT_EQ(v.kind, Violation::Kind::CrossShardWrite);
    EXPECT_EQ(v.component, "net.out_queue.dequeue");
    EXPECT_EQ(v.owner, 3u);
    EXPECT_EQ(v.ownerShard, 1u);
    EXPECT_EQ(v.actingShard, 0);
    EXPECT_EQ(v.cycle, 5u);
}

TEST(NetShardCheckTest, UnitLessStateIsUntouchableDuringNetCompute)
{
    NetCheckerGuard guard;
    PhaseChecker &checker = PhaseChecker::instance();
    checker.setNetOwners(2, {0, 1});

    checker.beginNetCompute(9);
    PhaseChecker::bindShard(1);
    // An MNI pending queue keeps the default ~0 owner: no shard may
    // ever touch it during the network compute phase.
    checker.onNetMutate("net.out_queue.enqueue", ~std::uint64_t{0});
    ASSERT_EQ(checker.violationCount(), 1u);
    EXPECT_EQ(checker.violations().front().kind,
              Violation::Kind::CrossShardWrite);
}

TEST(NetShardCheckTest, NetworkIsFrozenDuringPeCompute)
{
    NetCheckerGuard guard;
    PhaseChecker &checker = PhaseChecker::instance();
    checker.setOwners(2, {0, 1});
    checker.setNetOwners(2, {0, 1});

    checker.beginCompute(11);
    PhaseChecker::bindShard(0);
    // Even the unit's own would-be shard may not mutate network state
    // while PE coroutines run.
    checker.onNetMutate("net.wait_buffer.insert", 0);
    PhaseChecker::unbindShard();
    checker.endCompute();

    ASSERT_EQ(checker.violationCount(), 1u);
    EXPECT_EQ(checker.violations().front().kind,
              Violation::Kind::CommitOnlyInCompute);
    EXPECT_EQ(checker.violations().front().cycle, 11u);
}

TEST(NetShardCheckTest, CommitOnlySitesFlagDuringNetCompute)
{
    NetCheckerGuard guard;
    PhaseChecker &checker = PhaseChecker::instance();
    checker.setNetOwners(2, {0, 1});

    checker.beginNetCompute(3);
    PhaseChecker::bindShard(0);
    checker.onCommitOnly("net.network.inject");
    ASSERT_EQ(checker.violationCount(), 1u);
    EXPECT_EQ(checker.violations().front().kind,
              Violation::Kind::CommitOnlyInCompute);
}

// ------------------------------------------------------------------
// Pool isolation and conservation under the sharded tick
// ------------------------------------------------------------------

TEST(NetShardTest, CombiningStormConservesWithShardedArrivals)
{
    NetSimConfig cfg;
    cfg.numPorts = 64;
    cfg.k = 2;
    cfg.combinePolicy = CombinePolicy::Full;
    cfg.shardGroupTarget = 4;
    mem::MemoryConfig mc;
    mc.numModules = cfg.numPorts;
    mc.wordsPerModule = 256;
    mem::MemorySystem memory(mc);
    Network network(cfg, memory);
    par::TickEngine engine(4);
    network.setTickEngine(&engine);
#ifdef ULTRA_CHECK_ENABLED
    PhaseChecker::instance().clear();
#endif

    std::uint64_t delivered = 0;
    network.setDeliverCallback(
        [&](PEId, std::uint64_t, Word) { ++delivered; });

    // Hot-spot fetch-and-add storm: combining moves messages between
    // stages constantly, so combined-away messages die in units far
    // from the pool that allocated them -- exactly the cross-unit free
    // traffic the per-unit staging must route home.
    std::uint64_t injected = 0;
    Word expect = 0;
    for (int burst = 0; burst < 6; ++burst) {
        for (PEId pe = 0; pe < cfg.numPorts; ++pe) {
            const Word inc = 1 + (pe % 7);
            while (!network.tryInject(pe, Op::FetchAdd, 5, inc, pe))
                network.tick();
            ++injected;
            expect += inc;
        }
        ASSERT_TRUE(network.drain(200000)) << "burst " << burst;
        ASSERT_EQ(network.inFlight(), 0u)
            << "a message leaked (or was freed into a foreign pool, "
               "corrupting liveCount) in burst "
            << burst;
    }
    EXPECT_EQ(delivered, injected);
    EXPECT_EQ(memory.peek(5), expect);
    EXPECT_GT(network.stats().combined, 0u);
    EXPECT_EQ(network.stats().combined, network.stats().decombined);
#ifdef ULTRA_CHECK_ENABLED
    const auto violations = PhaseChecker::instance().violations();
    EXPECT_TRUE(violations.empty())
        << violations.size() << " violations, first: "
        << violations.front().describe();
#endif
}

// ------------------------------------------------------------------
// Group partition is a pure parallelism knob
// ------------------------------------------------------------------

namespace
{

/** Open-loop traffic run; returns the full registry JSON.  A non-null
 *  @p prof is attached to the engine and the network. */
std::string
runTraffic(const NetSimConfig &ncfg, const TrafficConfig &tcfg,
           unsigned threads, bool sharded, Cycle cycles,
           prof::Profiler *prof = nullptr)
{
    mem::MemoryConfig mc;
    mc.numModules = ncfg.numPorts;
    mc.wordsPerModule = 1 << 10;
    mc.accessTime = ncfg.mmAccessTime;
    mem::MemorySystem memory(mc);
    Network network(ncfg, memory);
    mem::AddressHash hash(log2Exact(memory.totalWords()), true);
    net::PniConfig pcfg;
    pcfg.maxOutstanding = 8;
    PniArray pni(pcfg, network, hash);
    TrafficGenerator traffic(tcfg, pni, network);

    obs::Registry registry;
    network.registerStats(registry, "net");
    pni.registerStats(registry, "pni");
    memory.registerStats(registry, "mem");

    par::TickEngine engine(threads);
    if (sharded)
        network.setTickEngine(&engine);
    if (prof != nullptr) {
        engine.setProfiler(prof);
        network.setProfiler(prof);
    }

    for (Cycle c = 0; c < cycles; ++c) {
        traffic.tickRange(0, static_cast<PEId>(tcfg.activePes));
        pni.tick();
        network.tick();
    }
    network.drain(5000);
    return registry.jsonDump(network.now());
}

} // namespace

TEST(NetShardTest, GroupTargetIsAPureParallelismKnob)
{
    NetSimConfig ncfg;
    ncfg.numPorts = 64;
    ncfg.k = 4;
    ncfg.sizing = PacketSizing::ByContent;
    ncfg.dataPackets = 3;
    ncfg.combinePolicy = CombinePolicy::Full;
    TrafficConfig tcfg;
    tcfg.activePes = ncfg.numPorts;
    tcfg.rate = 0.25;
    tcfg.hotFraction = 0.2;
    tcfg.hotAddr = 9;
    tcfg.addrSpaceWords = 1 << 10;
    tcfg.seed = 7;

    ncfg.shardGroupTarget = 1; // one unit per (copy, stage)
    const std::string whole = runTraffic(ncfg, tcfg, 4, true, 400);
    ASSERT_FALSE(whole.empty());
    ncfg.shardGroupTarget = 3; // uneven split
    EXPECT_EQ(whole, runTraffic(ncfg, tcfg, 4, true, 400));
    ncfg.shardGroupTarget = 64; // clamped to one column per unit
    EXPECT_EQ(whole, runTraffic(ncfg, tcfg, 4, true, 400));
}

// ------------------------------------------------------------------
// 200-seed randomized thread-identity sweep
// ------------------------------------------------------------------

TEST(NetShardTest, TwoHundredSeedThreadIdentitySweep)
{
    // Table-1-style geometry (k=4 switches, by-content sizing,
    // 3-packet data messages, 15-packet queues) scaled to 64 ports so
    // 200 seeds stay fast.  Each seed randomizes the departure sets:
    // offered load, hot-spot fraction, combining policy, and an
    // occasional Burroughs-kill episode.  Every run must be
    // byte-identical across thread counts; seeds rotate through the
    // alternate counts {2, 4, 8} (and every 4th seed also pins the
    // serial arrival sweep against the sharded one).
    const unsigned alts[] = {2, 4, 8};
    for (std::uint64_t seed = 0; seed < 200; ++seed) {
        NetSimConfig ncfg;
        ncfg.numPorts = 64;
        ncfg.k = 4;
        ncfg.sizing = PacketSizing::ByContent;
        ncfg.dataPackets = 3;
        ncfg.queueCapacityPackets = 15;
        ncfg.mmPendingCapacityPackets = 15;
        ncfg.combinePolicy = seed % 3 == 2 ? CombinePolicy::Homogeneous
                                           : CombinePolicy::Full;
        if (seed % 11 == 10) {
            ncfg.burroughsKill = true; // kill staging under fire
            ncfg.combinePolicy = CombinePolicy::None;
        }
        TrafficConfig tcfg;
        tcfg.activePes = ncfg.numPorts;
        tcfg.rate = 0.05 + 0.05 * static_cast<double>(seed % 7);
        tcfg.hotFraction = 0.1 * static_cast<double>(seed % 5);
        tcfg.hotAddr = 13;
        tcfg.addrSpaceWords = 1 << 10;
        tcfg.seed = seed;

        const std::string base = runTraffic(ncfg, tcfg, 1, true, 60);
        ASSERT_FALSE(base.empty());
        const unsigned alt = alts[seed % 3];
        ASSERT_EQ(base, runTraffic(ncfg, tcfg, alt, true, 60))
            << "seed " << seed << ": --threads " << alt
            << " diverged from --threads 1";
        if (seed % 4 == 0) {
            ASSERT_EQ(base, runTraffic(ncfg, tcfg, alt, false, 60))
                << "seed " << seed
                << ": serial arrival sweep diverged from sharded";
        }
    }
}

// ------------------------------------------------------------------
// Slab-pool accounting: every packet dies in its home slab
// ------------------------------------------------------------------

namespace
{

/** Drive @p network through a traffic episode and then audit every
 *  unit's slab pool: live + free must equal capacity (no double free,
 *  no foreign-slab free corrupted the accounting) and nothing may be
 *  live once the network drained. */
void
auditPools(const Network &network, const char *what)
{
    std::size_t live = 0;
    const auto audits = network.poolAudits();
    ASSERT_FALSE(audits.empty());
    for (std::size_t u = 0; u < audits.size(); ++u) {
        const MessagePool::Audit &a = audits[u];
        EXPECT_TRUE(a.consistent())
            << what << ": unit " << u << " slab accounting broke ("
            << a.live << " live + " << a.freeSlots << " free != "
            << a.capacity << " capacity)";
        live += a.live;
    }
    EXPECT_EQ(live, 0u)
        << what << ": messages leaked across unit pools at teardown";
}

} // namespace

TEST(NetShardTest, SlabPoolsConserveUnderCombiningStorm)
{
    // Combined-away messages die in units far from the slab that
    // allocated them; the home-slab discipline must route every free
    // back (MessagePool::free asserts the pool identity, poolAudits
    // exposes the ledger).  Exercised at 1, 2 and 8 threads with the
    // departure window both on and off (at one thread it sweeps).
    for (const unsigned threads : {1u, 2u, 8u}) {
        for (const bool window : {true, false}) {
            NetSimConfig cfg;
            cfg.numPorts = 64;
            cfg.k = 2;
            cfg.combinePolicy = CombinePolicy::Full;
            cfg.shardGroupTarget = 4;
            cfg.parallelDeparture = window;
            mem::MemoryConfig mc;
            mc.numModules = cfg.numPorts;
            mc.wordsPerModule = 256;
            mem::MemorySystem memory(mc);
            Network network(cfg, memory);
            par::TickEngine engine(threads);
            network.setTickEngine(&engine);

            for (int burst = 0; burst < 3; ++burst) {
                for (PEId pe = 0; pe < cfg.numPorts; ++pe) {
                    while (!network.tryInject(pe, Op::FetchAdd, 5, 1,
                                              pe)) {
                        network.tick();
                    }
                }
                ASSERT_TRUE(network.drain(200000));
            }
            EXPECT_GT(network.stats().combined, 0u);
            auditPools(network, window ? "storm/window"
                                       : "storm/sweep");
        }
    }
}

TEST(NetShardTest, SlabPoolsConserveUnderBurroughsKills)
{
    // Burroughs kill-on-conflict frees messages from both the staged
    // arrival path and the sequential MNI handoff; every kill must
    // land in its home slab at 1, 2 and 8 threads.
    for (const unsigned threads : {1u, 2u, 8u}) {
        NetSimConfig cfg;
        cfg.numPorts = 64;
        cfg.k = 2;
        cfg.burroughsKill = true;
        cfg.combinePolicy = CombinePolicy::None;
        cfg.shardGroupTarget = 4;
        mem::MemoryConfig mc;
        mc.numModules = cfg.numPorts;
        mc.wordsPerModule = 256;
        mem::MemorySystem memory(mc);
        Network network(cfg, memory);
        par::TickEngine engine(threads);
        network.setTickEngine(&engine);

        std::uint64_t attempted = 0;
        for (int burst = 0; burst < 4; ++burst) {
            for (PEId pe = 0; pe < cfg.numPorts; ++pe) {
                // Everyone storms the same module: plenty of kills.
                if (network.tryInject(pe, Op::Load, 7, 0, pe))
                    ++attempted;
            }
            network.tick();
        }
        ASSERT_TRUE(network.drain(200000));
        ASSERT_GT(attempted, 0u);
        EXPECT_GT(network.stats().killed, 0u);
        auditPools(network, "burroughs");
    }
}

// ------------------------------------------------------------------
// 200-seed serial-vs-parallel-departure identity sweep
// ------------------------------------------------------------------

TEST(NetShardTest, TwoHundredSeedDepartureWindowIdentitySweep)
{
    // The receiver-pull departure window must be byte-identical to the
    // legacy sender sweep for every seed, thread count and traffic
    // shape (mirrors the arrival-phase sweep above): randomized load,
    // hot-spot fraction, combining policy, and Burroughs-kill
    // episodes.  The baseline runs the legacy sweep single-threaded;
    // each seed pins the window against it at a rotating thread count.
    // A one-thread tick always sweeps, so every count is above one.
    const unsigned alts[] = {2, 4, 8};
    for (std::uint64_t seed = 0; seed < 200; ++seed) {
        NetSimConfig ncfg;
        ncfg.numPorts = 64;
        ncfg.k = 4;
        ncfg.sizing = PacketSizing::ByContent;
        ncfg.dataPackets = 3;
        ncfg.queueCapacityPackets = 15;
        ncfg.mmPendingCapacityPackets = 15;
        ncfg.combinePolicy = seed % 3 == 2 ? CombinePolicy::Homogeneous
                                           : CombinePolicy::Full;
        if (seed % 11 == 10) {
            ncfg.burroughsKill = true;
            ncfg.combinePolicy = CombinePolicy::None;
        }
        TrafficConfig tcfg;
        tcfg.activePes = ncfg.numPorts;
        tcfg.rate = 0.05 + 0.05 * static_cast<double>(seed % 7);
        tcfg.hotFraction = 0.1 * static_cast<double>(seed % 5);
        tcfg.hotAddr = 13;
        tcfg.addrSpaceWords = 1 << 10;
        tcfg.seed = seed;

        ncfg.parallelDeparture = false;
        const std::string sweep = runTraffic(ncfg, tcfg, 1, true, 60);
        ASSERT_FALSE(sweep.empty());
        ncfg.parallelDeparture = true;
        const unsigned alt = alts[seed % 3];
        ASSERT_EQ(sweep, runTraffic(ncfg, tcfg, alt, true, 60))
            << "seed " << seed << ": departure window at --threads "
            << alt << " diverged from the serial sender sweep";
    }
}

TEST(NetShardTest, DepartureWindowKeepsLatencyInvariantOnHotspot)
{
    // Hot-spot combining traffic with the full latency observatory
    // attached: the per-stage depart stamps staged by the window must
    // still satisfy the decomposition invariant (lat.violations == 0)
    // and fold to byte-identical aggregates in both departure modes.
    auto run = [](bool window, unsigned threads) {
        NetSimConfig ncfg;
        ncfg.numPorts = 64;
        ncfg.k = 2;
        ncfg.combinePolicy = CombinePolicy::Full;
        ncfg.parallelDeparture = window;
        mem::MemoryConfig mc;
        mc.numModules = ncfg.numPorts;
        mc.wordsPerModule = 1 << 10;
        mc.accessTime = ncfg.mmAccessTime;
        mem::MemorySystem memory(mc);
        Network network(ncfg, memory);
        mem::AddressHash hash(log2Exact(memory.totalWords()), true);
        PniConfig pcfg;
        pcfg.maxOutstanding = 8;
        PniArray pni(pcfg, network, hash);
        obs::LatencyShape shape;
        shape.stages = network.topology().stages();
        shape.switchesPerStage = network.topology().switchesPerStage();
        shape.mmAccessTime = ncfg.mmAccessTime;
        obs::LatencyObservatory latency(shape);
        network.setLatencyObservatory(&latency);

        TrafficConfig tcfg;
        tcfg.activePes = ncfg.numPorts;
        tcfg.rate = 0.2;
        tcfg.hotFraction = 0.5;
        tcfg.hotAddr = 21;
        tcfg.addrSpaceWords = 1 << 10;
        tcfg.seed = 77;
        TrafficGenerator traffic(tcfg, pni, network);

        par::TickEngine engine(threads);
        network.setTickEngine(&engine);
        for (Cycle c = 0; c < 600; ++c) {
            traffic.tickRange(0, static_cast<PEId>(tcfg.activePes));
            pni.tick();
            network.tick();
        }
        network.drain(5000);
        EXPECT_EQ(latency.violations(), 0u)
            << (window ? "window" : "sweep") << " @" << threads
            << " threads broke the decomposition invariant";
        EXPECT_GT(latency.delivered(), 0u);
        EXPECT_GT(latency.combinedDelivered(), 0u);
        return latency.summaryJson();
    };
    const std::string sweep = run(false, 1);
    EXPECT_EQ(sweep, run(true, 2));
    EXPECT_EQ(sweep, run(true, 8));
}

TEST(NetShardTest, OneThreadTickSweepsInsteadOfTheWindow)
{
    // With the window enabled, a one-thread tick still takes the sender
    // sweep: the pre-pass and the per-stage windows only pay when
    // their pulls are spread over threads.  A two-thread run does use
    // the window, and both produce the same bytes.
    NetSimConfig ncfg;
    ncfg.numPorts = 64;
    ncfg.k = 4;
    ncfg.sizing = PacketSizing::ByContent;
    ncfg.dataPackets = 3;
    ncfg.combinePolicy = CombinePolicy::Full;
    ncfg.parallelDeparture = true;
    TrafficConfig tcfg;
    tcfg.activePes = ncfg.numPorts;
    tcfg.rate = 0.2;
    tcfg.hotFraction = 0.2;
    tcfg.hotAddr = 9;
    tcfg.addrSpaceWords = 1 << 10;
    tcfg.seed = 5;

    prof::Profiler one;
    prof::Profiler two;
    const std::string swept = runTraffic(ncfg, tcfg, 1, true, 300, &one);
    ASSERT_FALSE(swept.empty());
    EXPECT_EQ(swept, runTraffic(ncfg, tcfg, 2, true, 300, &two))
        << "the two-thread window diverged from the one-thread sweep";
    for (const prof::Phase p :
         {prof::Phase::NetPrePass, prof::Phase::NetDepartFwd,
          prof::Phase::NetDepartRev}) {
        EXPECT_EQ(one.phaseNs(p), 0u)
            << prof::phaseName(p) << " ran at one thread";
        EXPECT_GT(two.phaseNs(p), 0u)
            << prof::phaseName(p) << " did not run at two threads";
    }
    EXPECT_GT(one.phaseNs(prof::Phase::NetSweepFwd), 0u);
    EXPECT_GT(one.phaseNs(prof::Phase::NetSweepRev), 0u);
}

// ------------------------------------------------------------------
// TRED2 end-to-end across thread counts
// ------------------------------------------------------------------

TEST(NetShardTest, Tred2ReproducesAcrossThreadCounts)
{
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
        const std::size_t n = 12;
        const auto matrix = apps::randomSymmetric(n, seed);

        auto run = [&](unsigned threads) {
            core::MachineConfig cfg = core::MachineConfig::small(64, 2);
            cfg.threads = threads;
            core::Machine machine(cfg);
            const auto result =
                apps::tred2Parallel(machine, 8, matrix, n);
            std::string out = std::to_string(result.cycles) + "|" +
                              machine.statsJson();
            for (double d : result.tri.diag)
                out += "," + std::to_string(d);
            return out;
        };
        const std::string solo = run(1);
        EXPECT_EQ(solo, run(4)) << "seed " << seed;
    }
}

} // namespace
} // namespace ultra::net
