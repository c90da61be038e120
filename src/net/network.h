/**
 * @file
 * The complete enhanced Omega network (section 3.1), cycle-stepped.
 *
 * N PEs talk through d identical copies of a D-stage network of k x k
 * combining switches to N memory modules.  The network is message
 * switched and pipelined: a message of L packets holds each traversed
 * link for L cycles, but its head advances one stage per cycle when
 * queues are empty (virtual cut-through), so the unloaded one-way
 * transit is D + 1 hops plus the m - 1 pipe-fill at the destination.
 *
 * Combining happens where a request enters a ToMM queue already holding
 * a matching request; wait buffers record the combined-away requests and
 * replies fission on their way back (section 3.3).  Fetch-and-phi is
 * executed by the MNI at the destination module (section 3.1.3).
 *
 * A "Burroughs mode" reproduces the design the paper argues against
 * (section 3.1.2 factor 3): conflicting requests are killed instead of
 * queued, which limits bandwidth to O(N / log N).
 */

#ifndef ULTRA_NET_NETWORK_H
#define ULTRA_NET_NETWORK_H

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/stats.h"
#include "common/types.h"
#include "mem/memory_system.h"
#include "net/message.h"
#include "net/out_queue.h"
#include "net/routing.h"
#include "net/wait_buffer.h"
#include "par/shard.h"

namespace ultra::obs
{
class EventTrace;
class LatencyObservatory;
class Registry;
} // namespace ultra::obs

namespace ultra::par
{
class TickEngine;
} // namespace ultra::par

namespace ultra::prof
{
class Profiler;
} // namespace ultra::prof

namespace ultra::net
{

/** Simulation parameters of the whole network. */
struct NetSimConfig
{
    /** Ports per side (number of PEs = number of MMs). */
    std::uint32_t numPorts = 64;
    /** Switch degree k. */
    unsigned k = 2;
    /** Packets per message under Uniform sizing (the factor m). */
    unsigned m = 2;
    /** Number of identical network copies d. */
    unsigned d = 1;
    /** Packets of a data-carrying message under ByContent sizing. */
    unsigned dataPackets = 3;
    PacketSizing sizing = PacketSizing::ByContent;
    /** ToMM / ToPE queue capacity in packets (0 = unbounded). */
    std::uint32_t queueCapacityPackets = 15;
    /** Wait-buffer entries per switch (0 = unbounded). */
    std::uint32_t waitBufferCapacity = 0;
    CombinePolicy combinePolicy = CombinePolicy::Homogeneous;
    /** Max pairs a queued request may absorb at one switch (>=1). */
    unsigned maxCombinesPerVisit = 1;
    /** Memory-module access latency in cycles. */
    Cycle mmAccessTime = 2;
    /** MNI pending-queue capacity in packets (0 = unbounded). */
    std::uint32_t mmPendingCapacityPackets = 15;
    /** Kill-on-conflict switches instead of queues (baseline). */
    bool burroughsKill = false;

    /**
     * Target switch-column groups per stage for the sharded network
     * tick (clamped to [1, switches per stage]).  The resulting
     * StageColumnPlan unit count is a pure function of the topology —
     * never of --threads — and the merge phase visits a stage's active
     * columns in canonical ascending order, so simulation behaviour
     * and every statistic are identical for any value; only message-id
     * numbering (which nothing semantic depends on) reflects the
     * partition.  A pure parallelism-granularity knob.  See DESIGN.md
     * "Sharding the network tick".
     */
    unsigned shardGroupTarget = 8;

    /**
     * Use the receiver-pull parallel departure window instead of the
     * legacy sequential sender sweep.  A sequential pre-pass lists
     * every eligible (switch, port) in canonical sweep order on the
     * *receiving* unit's pull list; the window then processes one
     * stage at a time with all receiving units of that stage in
     * parallel.  Because each output port is wired to exactly one
     * next-stage switch, per-queue claim order and per-node inbox
     * order are identical to the sender sweep, so output is
     * byte-identical with the knob on or off (pinned by the departure
     * identity sweep in net_shard_test).  A pure scheduling knob; off
     * reproduces the pre-overhaul sequential merge.  It takes effect
     * only on a multi-thread engine: a one-thread tick always sweeps.
     */
    bool parallelDeparture = true;

    /**
     * Ideal-paracomputer mode (section 2.1): bypass the switches
     * entirely and satisfy every request in one cycle with unlimited
     * concurrency -- the unrealizable reference model the network
     * approximates.  Useful for measuring the cost of physical
     * realizability (bench/paracomputer_gap).
     */
    bool idealParacomputer = false;

    /** Message length in packets for @p op in the given direction. */
    std::uint32_t packetsFor(Op op, bool is_reply) const;

    bool valid() const;
};

/** Aggregate network statistics. */
struct NetStats
{
    std::uint64_t injected = 0;        //!< requests entered
    std::uint64_t mmServed = 0;        //!< requests executed at MMs
    std::uint64_t delivered = 0;       //!< replies handed back to PEs
    std::uint64_t combined = 0;        //!< requests absorbed by combining
    std::uint64_t decombined = 0;      //!< replies synthesized back
    std::uint64_t killed = 0;          //!< Burroughs-mode kills
    std::uint64_t revOverflowPackets = 0; //!< fission slack (see docs)
    std::vector<std::uint64_t> combinesPerStage;

    Accumulator oneWayTransit;  //!< inject -> full receipt at MNI
    Accumulator roundTrip;      //!< inject -> reply receipt at PE
    Accumulator mmQueueWait;    //!< arrival at MNI -> service start
    Accumulator queueLenAtEnqueue; //!< ToMM occupancy seen by arrivals
    /** Round-trip latency distribution (2-cycle bins, for tail
     *  studies: percentile(0.5/0.95/0.99)). */
    Histogram roundTripHist{2, 256};
};

/**
 * The network plus MNIs; PEs (or synthetic traffic sources) sit on top
 * via tryInject() and the delivery callback.
 */
class Network
{
  public:
    /** Reply delivered to the requesting PE. */
    using DeliverFn =
        std::function<void(PEId pe, std::uint64_t tag, Word value)>;
    /** Burroughs-mode kill notification (request must be retried). */
    using KillFn = std::function<void(PEId pe, std::uint64_t tag)>;

    Network(const NetSimConfig &cfg, mem::MemorySystem &memory);
    ~Network();

    Network(const Network &) = delete;
    Network &operator=(const Network &) = delete;

    void setDeliverCallback(DeliverFn fn) { deliverFn_ = std::move(fn); }
    void setKillCallback(KillFn fn) { killFn_ = std::move(fn); }

    /**
     * Attempt to inject a request from PE @p pe for physical address
     * @p paddr.  Fails (returns false) when every copy's injection link
     * is busy or the first-stage queue is full.  @p tag is returned
     * verbatim with the reply.  @p queued_at is when the request was
     * queued at its PNI (for latency attribution; kNeverCycle =
     * unknown, e.g. direct test injections).
     */
    bool tryInject(PEId pe, Op op, Addr paddr, Word data,
                   std::uint64_t tag, Cycle queued_at = kNeverCycle);

    /**
     * Advance one cycle.  Always called from the machine's sequential
     * commit phase; internally the cycle is commitPhase() (deliveries),
     * the sequential MNI sweep, the *parallel* per-unit arrival phase
     * (distributed over the attached TickEngine, or an inline sweep of
     * the same units when none is attached), and the sequential merge
     * phase that executes departures and drains per-unit staging in
     * fixed (copy, stage, column) order.  Output is bit-identical for
     * any engine thread count (see DESIGN.md "Sharding the network
     * tick").
     */
    void tick();

    /**
     * Attach (or detach, with nullptr) a fork-join engine for the
     * arrival phase.  Non-owning; the engine must outlive the network
     * or be detached first.  With no engine the same canonical
     * unit-sweep runs inline, so results are byte-identical either way.
     */
    void setTickEngine(par::TickEngine *engine);

    /** The fixed unit partition of the switch grid. */
    const par::StageColumnPlan &shardPlan() const { return plan_; }

    /** Current simulation time in cycles. */
    Cycle now() const { return now_; }

    /** Messages still inside the network or MNIs. */
    std::size_t inFlight() const;

    /**
     * Run until no messages are in flight or @p max_cycles elapse.
     * @return true if drained.
     */
    bool drain(Cycle max_cycles);

    const NetSimConfig &config() const { return cfg_; }
    const OmegaTopology &topology() const { return topo_; }
    const NetStats &stats() const { return stats_; }
    void resetStats();

    // --- observability (ultra::obs) -----------------------------------

    /**
     * Register counters, latency accumulators and live occupancy gauges
     * under "<prefix>." (e.g. "net.injected", "net.stage2.combines",
     * "net.stage2.tomm_pkts").  The registry reads through to this
     * network; resetStats() is reflected immediately.
     */
    void registerStats(obs::Registry &registry,
                       const std::string &prefix) const;

    /**
     * Attach (or detach, with nullptr) an event tracer.  Emits message
     * injects, per-stage link occupancy, combines, decombines, MM
     * service intervals and reply deliveries; detached, each hook is
     * one branch.
     */
    void setEventTrace(obs::EventTrace *trace);

    /**
     * Attach (or detach, with nullptr) a packet-lifecycle latency
     * observatory (obs/latency.h).  Every subsequently injected
     * request gets a pooled record stamped at injection, per-stage
     * queue entry/exit, combine/decombine, MNI receipt, service start
     * and delivery; messages already in flight stay unobserved.
     * Detached, each hook is one null test.  All stamping happens in
     * the network's (sequential) commit phase, so the observatory's
     * aggregates are bit-identical for any host thread count.
     */
    void setLatencyObservatory(obs::LatencyObservatory *lat);

    /**
     * Attach (or detach, with nullptr) a wall-clock profiler
     * (prof/profiler.h).  Times every tick sub-phase (commit, MNI,
     * arrival, the departure pre-pass/sweeps/windows, the staging
     * drain), the stage-rank barrier waits of the departure window,
     * and per-unit load (messages consumed, pool allocations, staging
     * high-water marks).  Purely observational: no simulation state is
     * touched, so output stays byte-identical with it attached.
     */
    void setProfiler(prof::Profiler *prof);

    /** Packets queued right now across one stage's ToMM (or ToPE)
     *  output queues, summed over copies and switches. */
    std::uint64_t stageQueuePackets(unsigned stage, bool to_mm) const;

    /** Wait-buffer entries held right now across one stage. */
    std::uint64_t stageWaitBufferEntries(unsigned stage) const;

    /** Packets pending in all MNI service queues right now. */
    std::uint64_t mniPendingPackets() const;

    /**
     * Diagnostic dump of every nonempty queue, wait buffer and MNI
     * (location, occupancy, head message and its age) -- for debugging
     * stuck or congested configurations.
     */
    std::string dumpState() const;

    /**
     * One switch's ToMM/ToPE queues and wait-buffer entries as a JSON
     * object (for the live inspection protocol, ultra::inspect).  Reads
     * only committed state -- call it between ticks.  Returns "" when
     * (copy, stage, index) is out of range.
     */
    std::string switchJson(unsigned copy, unsigned stage,
                           std::uint32_t index) const;

    /**
     * One MNI's pending service queue as a JSON object; "" when
     * (copy, mm) is out of range.
     */
    std::string mniJson(unsigned copy, MMId mm) const;

    /**
     * Slab accounting snapshot of every per-unit message pool, in unit
     * order (for the conservation tests): each pool's capacity must
     * equal its live + free slots at any sequential point, and with no
     * messages in flight every pool must report live == 0.
     */
    std::vector<MessagePool::Audit> poolAudits() const;

  private:
    struct OutPort
    {
        explicit OutPort(std::uint32_t capacity) : queue(capacity) {}
        OutQueue queue;
        Cycle linkFreeAt = 0;
        /** Open space-claim of this port's head on its downstream
         *  queue (age-fair admission; see OutQueue). */
        std::uint64_t claimId = 0;
        std::uint32_t claimPkts = 0;
        OutQueue *claimTarget = nullptr;
    };

    struct Arrival
    {
        Message *msg;
        Cycle at;
    };

    struct Node
    {
        Node(unsigned k, std::uint32_t qcap, std::uint32_t wbcap);
        std::vector<OutPort> fwd; //!< k ToMM queues
        std::vector<OutPort> rev; //!< k ToPE queues
        WaitBuffer wb;
        std::vector<Arrival> fwdInbox;
        std::vector<Arrival> revInbox;
        bool inList = false; //!< member of its unit's active list
    };

    struct MniState
    {
        explicit MniState(std::uint32_t capacity) : pending(capacity) {}
        OutQueue pending;
        std::vector<Arrival> inbox;
        Cycle serviceFreeAt = 0;
        bool active = false;
        bool inList = false;
        std::uint64_t claimId = 0; //!< reply-space claim (see OutPort)
        std::uint32_t claimPkts = 0;
        OutQueue *claimTarget = nullptr;
    };

    struct Copy
    {
        unsigned index = 0; //!< which of the d copies this is
        std::vector<std::vector<Node>> stage; //!< [stage][switch]
        std::vector<Cycle> peLinkFreeAt;      //!< injection links
        std::vector<MniState> mni;
        std::vector<MMId> activeMnis;
    };

    /** A trace event staged during a parallel phase (arrival or
     *  departure window) and flushed to the (shared) EventTrace in the
     *  merge phase.  span == false is an instant event; span == true a
     *  complete event of duration dur. */
    struct StagedTrace
    {
        std::uint32_t track;
        std::uint32_t tid;
        const char *name;
        Cycle at;
        std::uint64_t id;
        std::uint64_t link;
        Cycle dur = 0;
        bool span = false;
    };

    /** Statistic increments gathered by one unit during one arrival
     *  phase; folded into stats_ in unit order by the merge phase. */
    struct UnitStats
    {
        std::uint64_t combined = 0;
        std::uint64_t decombined = 0;
        std::uint64_t killed = 0;
        std::uint64_t revOverflowPackets = 0;
        std::uint64_t stageCombines = 0; //!< all in the unit's stage
    };

    /**
     * One StageColumnPlan unit: the contiguous switch columns of one
     * stage of one copy that a single engine shard owns during the
     * arrival phase.  Everything a unit's arrival work touches lives
     * here (or in its own nodes): its message pool (interleaved id
     * stream), its active-column list, and staging for every mutation
     * that crosses unit boundaries — message frees, Burroughs kills,
     * trace events, shared statistics.  Staged work drains in the
     * sequential merge phase in unit order, which is what keeps output
     * bit-identical for any thread count.
     */
    /** One eligible upstream (switch, port) on a receiving unit's pull
     *  list for the departure window. */
    struct PullWire
    {
        std::uint32_t sw;
        std::uint32_t port;
    };

    /** A queue-wait observation staged during the departure window and
     *  folded into the latency observatory's histograms/heatmap at
     *  drain time (integer folds: order-independent). */
    struct DepartWait
    {
        bool fwd;
        unsigned stage;
        std::uint32_t sw;
        Cycle wait;
    };

    struct Unit
    {
        unsigned copy = 0;
        unsigned stage = 0;
        par::ShardRange cols;
        MessagePool pool;
        std::vector<std::uint32_t> active; //!< columns with work pending
        UnitStats delta;
        std::vector<double> queueLenSamples; //!< replayed in merge order
        std::vector<Message *> dead;  //!< combined-away, free at merge
        std::vector<Message *> kills; //!< Burroughs arrival kills
        std::vector<StagedTrace> traces;
        std::vector<WaitEntry> matchScratch;
        /** Departure-window worklists: eligible upstream ports wired to
         *  this unit's columns, in canonical sweep order. */
        std::vector<PullWire> fwdPull;
        std::vector<PullWire> revPull;
        std::vector<DepartWait> departWaits;

        /** True when the merge-phase drain has nothing to fold. */
        bool
        nothingStaged() const
        {
            return traces.empty() && kills.empty() && dead.empty() &&
                   queueLenSamples.empty() && departWaits.empty() &&
                   delta.combined == 0 && delta.decombined == 0 &&
                   delta.killed == 0 && delta.revOverflowPackets == 0 &&
                   delta.stageCombines == 0;
        }
    };

    Node &nodeAt(Copy &copy, unsigned s, std::uint32_t idx)
    {
        return copy.stage[s][idx];
    }
    MessagePool &poolOf(const Message *msg)
    {
        return units_[msg->poolUnit].pool;
    }
    void activateNode(Copy &copy, unsigned s, std::uint32_t idx);
    void activateMni(Copy &copy, MMId mm);
    void stageInstant(Unit &unit, std::uint32_t track, std::uint32_t tid,
                      const char *name, std::uint64_t id,
                      std::uint64_t link = 0);
    void stageComplete(Unit &unit, std::uint32_t track,
                       std::uint32_t tid, const char *name, Cycle dur,
                       std::uint64_t id);

    /**
     * Commit half of a cycle: publish last cycle's staged results to
     * their consumers — replies due now reach the PNIs (whose
     * callbacks may enqueue same-cycle re-injections), and ideal-mode
     * requests injected last cycle execute and stage their replies.
     * Runs before computePhase() so every component's compute step
     * sees a consistent "start of cycle" picture.
     */
    void commitPhase();

    /**
     * Parallel half of a cycle: each unit (independently — over the
     * engine's shards, or inline in unit order with no engine) prunes
     * its idle columns and consumes inbox entries due this cycle
     * (arrival, combining search, reply fission).  A unit touches only
     * its own nodes, pool and staging, so units never race.
     */
    void arrivalPhase();
    void arrivalPhaseUnit(Unit &unit);

    /**
     * Second half: departures — forward in stage-descending order,
     * reverse in stage-ascending order, so a downstream dequeue frees
     * space before the upstream sender tries to claim it (bubble-free
     * ripple) — then per-unit staging (frees, kills, traces, stat
     * deltas) drains in unit order.  Claim order on downstream queue
     * space is a pure function of the topology sweep, which is what
     * makes the cycle deterministic for any thread count.
     *
     * With cfg_.parallelDeparture and a multi-thread engine the
     * per-hop departures run as a receiver-pull window (one thread
     * sweeps): buildPullLists() lists every eligible
     * (switch, port) on the *receiving* unit in canonical sweep order,
     * then departWindow() processes one stage at a time with that
     * stage's receiving units spread over the engine shards (stage
     * barrier between stages).  Each output port is wired to exactly
     * one next-stage switch, so a receiving unit's pulls touch only
     * its own queues/inboxes plus upstream port state no other unit
     * touches — race-free, and byte-identical to the sender sweep.
     * The final forward stage (into the MNIs) and reverse stage 0
     * (deliveries) stay sequential either way.
     */
    void mergePhase();
    void drainUnitStaging();
    void buildPullLists(unsigned start);
    void departWindow(bool forward);
    void execPulls(Unit &unit, bool forward);

    void processMnis(Copy &copy);

    void arriveForward(Unit &unit, std::uint32_t idx, Message *msg);
    void arriveReverse(Unit &unit, std::uint32_t idx, Message *msg);
    void departForward(Copy &copy, unsigned s, std::uint32_t idx,
                       unsigned port);
    void departReverse(Copy &copy, unsigned s, std::uint32_t idx,
                       unsigned port);
    /** Non-final forward hop: stage s -> s + 1 (staged observability;
     *  callable from the departure window's owning shard). */
    void departForwardHop(Copy &copy, unsigned s, std::uint32_t idx,
                          unsigned port);
    /** Reverse hop: stage s -> s - 1 (s >= 1). */
    void departReverseHop(Copy &copy, unsigned s, std::uint32_t idx,
                          unsigned port);

    /** Attempt combining; true when @p msg was absorbed. */
    bool tryCombine(Unit &unit, Node &node, std::uint32_t idx,
                    unsigned port, Message *msg);

    /**
     * Age-fair space acquisition on @p target for the head message of
     * a sender with claim state (@p claim_id, @p claim_pkts,
     * @p claim_target): immediate reservation when possible, else an
     * open claim serviced in FIFO order as space frees.  Returns true
     * once the space is reserved.
     */
    bool acquireSpace(std::uint64_t &claim_id, std::uint32_t &claim_pkts,
                      OutQueue *&claim_target, OutQueue &target,
                      std::uint32_t pkts);

    /** Turn a serviced request into its reply (in place). */
    void makeReply(Message *msg);

    NetSimConfig cfg_;
    OmegaTopology topo_;
    mem::MemorySystem &memory_;
    NetStats stats_;
    struct InjectState
    {
        std::uint64_t claimId = 0;
        std::uint32_t claimPkts = 0;
        OutQueue *claimTarget = nullptr;
        unsigned copy = 0;
    };

    /** Trace lane for a stage's output queues: one tid per port. */
    std::uint32_t traceLane(std::uint32_t sw, unsigned port) const
    {
        return sw * cfg_.k + port;
    }

    obs::EventTrace *trace_ = nullptr;
    obs::LatencyObservatory *lat_ = nullptr;
    prof::Profiler *prof_ = nullptr;
    /** Interned track ids, valid while trace_ != nullptr. */
    std::vector<std::vector<std::uint32_t>> fwdTrack_; //!< [copy][stage]
    std::vector<std::vector<std::uint32_t>> revTrack_; //!< [copy][stage]
    std::uint32_t mmTrack_ = 0;
    std::uint32_t peTrack_ = 0;

    std::vector<Copy> copies_;
    /** Fixed (copy, stage, column-group) partition of the switch grid;
     *  independent of the thread count by construction. */
    par::StageColumnPlan plan_;
    std::vector<Unit> units_;
    /** Engine for the arrival phase (non-owning; null = inline). */
    par::TickEngine *engine_ = nullptr;
    /** Distribution of units over the engine's shards. */
    par::ShardPlan unitShards_;
    /** Distribution of one stage's (copy, group) slots over the
     *  engine's shards for the departure window; stage-agnostic, so a
     *  unit is driven by the same shard in every per-stage dispatch. */
    par::ShardPlan departShards_;
    /** Per-unit active-list length at the end of the arrival phase
     *  (so merge-time activations depart next cycle). */
    std::vector<std::size_t> mergeLen_;
    std::vector<unsigned> nextCopy_; //!< per-PE round-robin cursor
    std::vector<InjectState> injectStates_; //!< per-PE space claims
    Cycle now_ = 0;
    DeliverFn deliverFn_;
    KillFn killFn_;
    std::vector<Arrival> deliveries_;
    /** Ideal-mode requests awaiting their one-cycle completion. */
    std::vector<Arrival> idealPending_;
};

} // namespace ultra::net

#endif // ULTRA_NET_NETWORK_H
