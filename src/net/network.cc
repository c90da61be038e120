#include "network.h"

#include <algorithm>
#include <sstream>

#include "check/phase_check.h"
#include "common/log.h"
#include "net/combining.h"
#include "obs/event_trace.h"
#include "obs/latency.h"
#include "obs/registry.h"
#include "par/tick_engine.h"
#include "prof/profiler.h"

namespace ultra::net
{

std::uint32_t
NetSimConfig::packetsFor(Op op, bool is_reply) const
{
    if (sizing == PacketSizing::Uniform)
        return m;
    const bool has_data =
        is_reply ? mem::opReturnsData(op) : mem::opCarriesData(op);
    return has_data ? dataPackets : 1;
}

bool
NetSimConfig::valid() const
{
    if (!isPowerOfTwo(numPorts) || !isPowerOfTwo(k) || k < 2)
        return false;
    if (m == 0 || d == 0 || dataPackets == 0 || maxCombinesPerVisit == 0)
        return false;
    if (shardGroupTarget == 0)
        return false;
    // numPorts must be a power of k.
    std::uint64_t reach = 1;
    while (reach < numPorts)
        reach *= k;
    if (reach != numPorts)
        return false;
    // Finite queues must hold at least one maximal message.
    const std::uint32_t max_msg =
        sizing == PacketSizing::Uniform ? m : dataPackets;
    if (queueCapacityPackets != 0 && queueCapacityPackets < max_msg)
        return false;
    if (mmPendingCapacityPackets != 0 &&
        mmPendingCapacityPackets < max_msg) {
        return false;
    }
    return true;
}

Network::Node::Node(unsigned k, std::uint32_t qcap, std::uint32_t wbcap)
    : wb(wbcap)
{
    fwd.reserve(k);
    rev.reserve(k);
    for (unsigned i = 0; i < k; ++i) {
        fwd.emplace_back(qcap);
        rev.emplace_back(qcap);
    }
}

Network::Network(const NetSimConfig &cfg, mem::MemorySystem &memory)
    : cfg_(cfg), topo_(cfg.numPorts, cfg.k), memory_(memory)
{
    ULTRA_ASSERT(cfg.valid(), "invalid network configuration");
    ULTRA_ASSERT(memory.config().numModules == cfg.numPorts,
                 "memory system must have one module per port");

    // In Burroughs (kill-on-conflict) mode there is no queueing and no
    // backpressure; queues act as single-message staging slots.
    const std::uint32_t qcap =
        cfg_.burroughsKill ? 0 : cfg_.queueCapacityPackets;
    const std::uint32_t mmcap =
        cfg_.burroughsKill ? 0 : cfg_.mmPendingCapacityPackets;

    stats_.combinesPerStage.assign(topo_.stages(), 0);

    copies_.resize(cfg_.d);
    for (unsigned c = 0; c < cfg_.d; ++c)
        copies_[c].index = c;
    for (auto &copy : copies_) {
        copy.stage.resize(topo_.stages());
        for (auto &stage : copy.stage) {
            stage.reserve(topo_.switchesPerStage());
            for (std::uint32_t i = 0; i < topo_.switchesPerStage(); ++i)
                stage.emplace_back(cfg_.k, qcap, cfg_.waitBufferCapacity);
        }
        copy.peLinkFreeAt.assign(cfg_.numPorts, 0);
        copy.mni.reserve(cfg_.numPorts);
        for (std::uint32_t i = 0; i < cfg_.numPorts; ++i)
            copy.mni.emplace_back(mmcap);
    }
    nextCopy_.assign(cfg_.numPorts, 0);
    injectStates_.resize(cfg_.numPorts);

    // The unit partition is fixed by the topology (never by the thread
    // count); each unit gets its own message pool on an interleaved id
    // stream so allocation during the parallel arrival phase touches no
    // shared state and yields identical ids for any --threads N.
    plan_ = par::StageColumnPlan::build(
        cfg_.d, topo_.stages(), topo_.switchesPerStage(),
        cfg_.shardGroupTarget);
    const std::size_t n_units = plan_.units();
    units_.reserve(n_units);
    for (std::size_t u = 0; u < n_units; ++u) {
        Unit unit;
        unit.copy = plan_.copyOf(u);
        unit.stage = plan_.stageOf(u);
        unit.cols = plan_.columnsOf(u);
        unit.pool = MessagePool(u + 1, n_units,
                                static_cast<std::uint32_t>(u));
        // Pre-size the staging arenas once so the per-tick clear()s
        // recycle capacity instead of reallocating in the hot path;
        // sized to the unit's column count (the natural upper bound on
        // per-tick activity for the list-shaped staging).
        const std::size_t n_cols = unit.cols.size();
        unit.pool.reserve(64);
        unit.active.reserve(n_cols);
        unit.queueLenSamples.reserve(n_cols * cfg_.k);
        unit.dead.reserve(n_cols);
        unit.kills.reserve(cfg_.burroughsKill ? n_cols * cfg_.k : 0);
        unit.matchScratch.reserve(8);
        unit.fwdPull.reserve(n_cols * cfg_.k);
        unit.revPull.reserve(n_cols * cfg_.k);
        unit.departWaits.reserve(n_cols * cfg_.k);
        units_.push_back(std::move(unit));
    }
    unitShards_ = par::ShardPlan::contiguous(n_units, 1);
    departShards_ = par::ShardPlan::contiguous(
        static_cast<std::size_t>(cfg_.d) * plan_.groupsPerStage(), 1);
    mergeLen_.assign(n_units, 0);

    // Bind every queue and wait buffer to its owning unit for the
    // phase-contract checker, and every inter-stage queue to its
    // *departure* owner — the unit of the next-stage switch its output
    // wire feeds, which is the unit allowed to pull its head during
    // the parallel departure window.  Final-stage ToMM ports and
    // stage-0 ToPE ports depart in sequential sub-phases and get no
    // departure owner.
    for (auto &copy : copies_) {
        for (unsigned s = 0; s < topo_.stages(); ++s) {
            for (std::uint32_t idx = 0; idx < topo_.switchesPerStage();
                 ++idx) {
                const std::size_t u =
                    plan_.unitOf(copy.index, s, idx);
                Node &node = copy.stage[s][idx];
                for (unsigned p = 0; p < cfg_.k; ++p) {
                    node.fwd[p].queue.setCheckOwner(u);
                    node.rev[p].queue.setCheckOwner(u);
                    const std::uint32_t line = topo_.lineFrom(idx, p);
                    if (s + 1 < topo_.stages()) {
                        const auto next = topo_.intoStage(line, s + 1);
                        node.fwd[p].queue.setDepartOwner(
                            plan_.unitOf(copy.index, s + 1, next.sw));
                    }
                    if (s > 0) {
                        const std::uint32_t prev_idx =
                            topo_.unshuffle(line) >> log2Exact(cfg_.k);
                        node.rev[p].queue.setDepartOwner(
                            plan_.unitOf(copy.index, s - 1, prev_idx));
                    }
                }
                node.wb.setCheckOwner(u);
            }
        }
        // MNI pending queues are unit-less: sequential-phase only.
    }
}

Network::~Network() = default;

void
Network::setTickEngine(par::TickEngine *engine)
{
    engine_ = engine;
    const unsigned threads = engine != nullptr ? engine->threads() : 1;
    unitShards_ = par::ShardPlan::contiguous(units_.size(), threads);
    std::vector<unsigned> shard_of(units_.size(), 0);
    for (std::size_t u = 0; u < units_.size(); ++u)
        shard_of[u] = unitShards_.shardOf(u);
    ULTRA_CHECK_SET_NET_OWNERS(threads, std::move(shard_of));
    (void)shard_of;

    // The departure window processes one stage at a time, so its
    // shard plan partitions (copy, group) slots rather than whole
    // units: unit u is worked by the shard owning slot
    // copy(u) * groups + group(u), whatever u's stage.
    const unsigned groups = plan_.groupsPerStage();
    departShards_ = par::ShardPlan::contiguous(
        static_cast<std::size_t>(cfg_.d) * groups, threads);
    std::vector<unsigned> depart_shard_of(units_.size(), 0);
    for (std::size_t u = 0; u < units_.size(); ++u) {
        depart_shard_of[u] = departShards_.shardOf(
            static_cast<std::size_t>(plan_.copyOf(u)) * groups +
            u % groups);
    }
    ULTRA_CHECK_SET_NET_DEPART_OWNERS(threads,
                                      std::move(depart_shard_of));
    (void)depart_shard_of;
}

void
Network::setProfiler(prof::Profiler *prof)
{
    prof_ = prof;
    if (prof == nullptr)
        return;
    const unsigned groups = plan_.groupsPerStage();
    prof->configureUnits(static_cast<std::uint32_t>(units_.size()));
    for (std::size_t u = 0; u < units_.size(); ++u) {
        prof->setUnitGeometry(static_cast<std::uint32_t>(u),
                              units_[u].copy, units_[u].stage,
                              static_cast<unsigned>(u % groups));
    }
}

std::size_t
Network::inFlight() const
{
    std::size_t live = 0;
    for (const Unit &unit : units_)
        live += unit.pool.liveCount();
    return live;
}

std::vector<MessagePool::Audit>
Network::poolAudits() const
{
    std::vector<MessagePool::Audit> audits;
    audits.reserve(units_.size());
    for (const Unit &unit : units_)
        audits.push_back(unit.pool.audit());
    return audits;
}

void
Network::activateNode(Copy &copy, unsigned s, std::uint32_t idx)
{
    Node &node = copy.stage[s][idx];
    if (!node.inList) {
        node.inList = true;
        units_[plan_.unitOf(copy.index, s, idx)].active.push_back(idx);
    }
}

void
Network::activateMni(Copy &copy, MMId mm)
{
    MniState &mni = copy.mni[mm];
    mni.active = true;
    if (!mni.inList) {
        mni.inList = true;
        copy.activeMnis.push_back(mm);
    }
}

void
Network::stageInstant(Unit &unit, std::uint32_t track, std::uint32_t tid,
                      const char *name, std::uint64_t id,
                      std::uint64_t link)
{
    unit.traces.push_back({track, tid, name, now_, id, link});
}

void
Network::stageComplete(Unit &unit, std::uint32_t track, std::uint32_t tid,
                       const char *name, Cycle dur, std::uint64_t id)
{
    unit.traces.push_back({track, tid, name, now_, id, 0, dur, true});
}

bool
Network::tryInject(PEId pe, Op op, Addr paddr, Word data,
                   std::uint64_t tag, Cycle queued_at)
{
    // Injection mutates switch queues: sequential-phase only (issued by
    // PniArray::tick, never by a compute-phase shard).
    ULTRA_CHECK_COMMIT_ONLY("net.network.inject");
    ULTRA_ASSERT(pe < cfg_.numPorts);
    const MMId dest = memory_.moduleOf(paddr);
    const std::uint32_t packets = cfg_.packetsFor(op, false);
    const OmegaTopology::Port entry = topo_.intoStage(pe, 0);
    const unsigned out_port = topo_.routeDigit(dest, 0);

    if (cfg_.idealParacomputer) {
        // Section 2.1: simultaneous access in a single cycle; the
        // serialization principle is realized by executing requests in
        // injection order at the next tick.
        Message *msg =
            units_[plan_.unitOf(0, 0, entry.sw)].pool.alloc();
        msg->op = op;
        msg->paddr = paddr;
        msg->data = data;
        msg->origin = pe;
        msg->dest = dest;
        msg->packets = packets;
        msg->tag = tag;
        msg->injectedAt = now_;
        // Ideal mode bypasses every stage the observatory describes;
        // leave such messages unobserved.
        idealPending_.push_back({msg, now_ + 1});
        ++stats_.injected;
        if (trace_)
            trace_->instant(peTrack_, pe, "inject", now_, msg->id);
        return true;
    }

    InjectState &inj = injectStates_[pe];
    for (unsigned attempt = 0; attempt < cfg_.d; ++attempt) {
        // While a space claim is open, the PE is pinned to its copy.
        const unsigned c = inj.claimId != 0
                               ? inj.copy
                               : (nextCopy_[pe] + attempt) % cfg_.d;
        Copy &copy = copies_[c];
        if (copy.peLinkFreeAt[pe] > now_) {
            if (inj.claimId != 0)
                return false;
            continue;
        }
        Node &node = copy.stage[0][entry.sw];
        OutQueue &queue = node.fwd[out_port].queue;
        if (!cfg_.burroughsKill) {
            inj.copy = c;
            if (!acquireSpace(inj.claimId, inj.claimPkts,
                              inj.claimTarget, queue, packets)) {
                return false; // claim registered; caller retries
            }
        }
        Message *msg =
            units_[plan_.unitOf(c, 0, entry.sw)].pool.alloc();
        msg->op = op;
        msg->paddr = paddr;
        msg->data = data;
        msg->origin = pe;
        msg->dest = dest;
        msg->packets = packets;
        msg->tag = tag;
        msg->injectedAt = now_;
        if (lat_)
            msg->lat = lat_->open(msg->id, queued_at, now_);
        copy.peLinkFreeAt[pe] = now_ + packets;
        node.fwdInbox.push_back({msg, now_ + 1});
        activateNode(copy, 0, entry.sw);
        nextCopy_[pe] = (c + 1) % cfg_.d;
        ++stats_.injected;
        if (trace_)
            trace_->instant(peTrack_, pe, "inject", now_, msg->id);
        return true;
    }
    return false;
}

bool
Network::acquireSpace(std::uint64_t &claim_id, std::uint32_t &claim_pkts,
                      OutQueue *&claim_target, OutQueue &target,
                      std::uint32_t pkts)
{
    if (claim_id != 0 &&
        (claim_target != &target || claim_pkts != pkts)) {
        // The head changed shape (e.g. grew by combining) or the
        // sender moved on: abandon the stale claim.
        claim_target->cancelClaim(claim_id);
        claim_id = 0;
    }
    if (claim_id == 0) {
        if (target.tryReserve(pkts))
            return true;
        claim_id = target.openClaim(pkts);
        claim_pkts = pkts;
        claim_target = &target;
    }
    if (target.claimReady(claim_id)) {
        target.consumeClaim(claim_id);
        claim_id = 0;
        return true;
    }
    return false;
}

bool
Network::tryCombine(Unit &unit, Node &node, std::uint32_t idx,
                    unsigned port, Message *msg)
{
    if (cfg_.burroughsKill || cfg_.combinePolicy == CombinePolicy::None)
        return false;
    OutQueue &queue = node.fwd[port].queue;
    if (node.wb.full())
        return false;

    const unsigned s = unit.stage;
    const std::uint32_t growth_packets =
        cfg_.sizing == PacketSizing::Uniform ? 0 : cfg_.dataPackets;

    // Scan the queue's contiguous key array first: the common miss
    // touches one cache line per few entries instead of a Message each.
    const Addr *keys = queue.keys();
    const std::size_t n = queue.sizeMessages();
    for (std::size_t i = 0; i < n; ++i) {
        if (keys[i] != msg->paddr)
            continue;
        Message *cand = queue.msgAt(i);
        if (cand->combinedAtThisQueue >= cfg_.maxCombinesPerVisit)
            continue;
        auto plan = planCombine(*cand, *msg, cfg_.combinePolicy,
                                growth_packets);
        if (!plan)
            continue;
        if (plan->growOldBy != 0 && !queue.grow(cand, plan->growOldBy))
            continue;
        cand->op = plan->newOldOp;
        cand->data = plan->newOldData;
        ++cand->combinedAtThisQueue;
        ++cand->timesCombined;
        plan->entry.waitKey = cand->id;
        plan->entry.createdAt = now_;
        if (msg->lat) {
            // The absorbed request's record parks in the wait buffer
            // until the reply fissions it back out.  noteCombined only
            // touches the record and this unit's heat cells, so it is
            // arrival-phase safe.
            lat_->noteCombined(msg->lat, s, idx, now_);
            plan->entry.lat = msg->lat;
            msg->lat = nullptr;
        }
        if (trace_) {
            stageInstant(unit, fwdTrack_[unit.copy][s],
                         traceLane(idx, port), "combine", msg->id,
                         cand->id);
        }
        node.wb.insert(plan->entry);
        queue.cancelReservation(msg->packets);
        // The absorbed message may live in another unit's pool: stage
        // the free for the merge phase.
        unit.dead.push_back(msg);
        ++unit.delta.combined;
        ++unit.delta.stageCombines;
        return true;
    }
    return false;
}

void
Network::arriveForward(Unit &unit, std::uint32_t idx, Message *msg)
{
    Copy &copy = copies_[unit.copy];
    const unsigned s = unit.stage;
    Node &node = copy.stage[s][idx];
    const unsigned port = topo_.routeDigit(msg->dest, s);
    OutPort &out = node.fwd[port];
    if (msg->lat)
        lat_->noteFwdArrive(msg->lat, s, now_);

    if (cfg_.burroughsKill) {
        // Kill-on-conflict: the output must be idle or the request dies.
        if (out.linkFreeAt > now_ || !out.queue.empty()) {
            ++unit.delta.killed;
            if (trace_)
                stageInstant(unit, peTrack_, msg->origin, "kill",
                             msg->id);
            // closeKilled, the kill callback and the pool free all
            // touch shared state: stage them for the merge phase.
            unit.kills.push_back(msg);
            return;
        }
        out.queue.enqueueUnreserved(msg);
        return;
    }

    if (tryCombine(unit, node, idx, port, msg))
        return;
    unit.queueLenSamples.push_back(
        static_cast<double>(out.queue.usedPackets()));
    out.queue.enqueue(msg);
}

void
Network::arriveReverse(Unit &unit, std::uint32_t idx, Message *msg)
{
    Copy &copy = copies_[unit.copy];
    const unsigned s = unit.stage;
    Node &node = copy.stage[s][idx];
    if (msg->lat)
        lat_->noteRevArrive(msg->lat, s, now_);

    // Fission: synthesize one reply per wait-buffer record.  Entries are
    // applied newest-first while threading the "current value": each
    // rewrite re-expresses the value an *earlier* combine should see, so
    // the reverse order reconstructs the serialization exactly (see
    // combining.h).
    const std::uint32_t packets_on_arrival = msg->packets;
    if (!node.wb.empty()) {
        unit.matchScratch.clear();
        node.wb.takeMatches(msg->requestId, unit.matchScratch);
        Word current = msg->data;
        for (std::size_t i = unit.matchScratch.size(); i-- > 0;) {
            const WaitEntry &entry = unit.matchScratch[i];
            Message *spawn = unit.pool.alloc();
            spawn->op = entry.satisfiedOp;
            spawn->isReply = true;
            spawn->paddr = msg->paddr;
            spawn->data = entry.rule == ReplyRule::Decombine
                              ? mem::decombineReply(entry.decombineOp,
                                                    current, entry.datum)
                              : entry.datum;
            spawn->origin = entry.satisfiedOrigin;
            spawn->dest = msg->dest;
            spawn->packets = cfg_.packetsFor(entry.satisfiedOp, true);
            spawn->requestId = entry.satisfiedId;
            spawn->tag = entry.satisfiedTag;
            spawn->injectedAt = entry.satisfiedInjectedAt;
            if (entry.lat) {
                spawn->lat = entry.lat;
                lat_->noteDecombine(spawn->lat, s, now_);
            }
            if (entry.rewriteReturning) {
                current = entry.rewriteDatum;
                // The returning "acknowledgement" now carries a value.
                msg->packets = std::max(
                    msg->packets, cfg_.packetsFor(Op::Load, true));
            }
            ++unit.delta.decombined;
            const unsigned sp_port =
                topo_.routeDigit(spawn->origin, s);
            if (trace_) {
                stageInstant(unit, revTrack_[unit.copy][s],
                             traceLane(idx, sp_port), "decombine",
                             spawn->id, entry.satisfiedId);
            }
            OutQueue &sp_queue = node.rev[sp_port].queue;
            if (!sp_queue.canAccept(spawn->packets))
                unit.delta.revOverflowPackets += spawn->packets;
            sp_queue.enqueueUnreserved(spawn);
        }
        msg->data = current;
    }

    const unsigned port = topo_.routeDigit(msg->origin, s);
    OutQueue &rev_queue = node.rev[port].queue;
    if (cfg_.burroughsKill) {
        rev_queue.enqueueUnreserved(msg);
    } else {
        // A rewrite may have grown the returning acknowledgement into
        // a data-carrying reply; claim the extra space (over capacity
        // if need be -- accounted as fission slack).
        if (msg->packets > packets_on_arrival) {
            const std::uint32_t extra =
                msg->packets - packets_on_arrival;
            rev_queue.reserve(extra);
            if (!rev_queue.canAccept(0))
                unit.delta.revOverflowPackets += extra;
        }
        rev_queue.enqueue(msg);
    }
}

void
Network::departForward(Copy &copy, unsigned s, std::uint32_t idx,
                       unsigned port)
{
    if (s + 1 != topo_.stages()) {
        departForwardHop(copy, s, idx, port);
        return;
    }
    Node &node = copy.stage[s][idx];
    OutPort &out = node.fwd[port];
    if (out.linkFreeAt > now_ || out.queue.empty())
        return;
    Message *msg = out.queue.head();
    const std::uint32_t line = topo_.lineFrom(idx, port);

    {
        // Final stage: the output line is the MM id.
        ULTRA_ASSERT(line == msg->dest, "routing reached MM ", line,
                     " but message is bound for ", msg->dest);
        MniState &mni = copy.mni[msg->dest];
        if (cfg_.burroughsKill) {
            if (!mni.pending.canAccept(msg->packets) &&
                !mni.pending.unbounded()) {
                out.queue.dequeue();
                ++stats_.killed;
                if (msg->lat) {
                    lat_->closeKilled(msg->lat);
                    msg->lat = nullptr;
                }
                if (trace_) {
                    trace_->instant(peTrack_, msg->origin, "kill",
                                    now_, msg->id);
                }
                if (killFn_)
                    killFn_(msg->origin, msg->tag);
                poolOf(msg).free(msg);
                return;
            }
        } else {
            if (!acquireSpace(out.claimId, out.claimPkts,
                              out.claimTarget, mni.pending,
                              msg->packets)) {
                activateMni(copy, msg->dest); // claims need pumping
                return;                       // backpressure
            }
        }
        out.queue.dequeue();
        out.linkFreeAt = now_ + msg->packets;
        if (msg->lat) {
            lat_->noteFwdDepart(msg->lat, s, idx, now_, msg->packets,
                                true);
        }
        if (trace_) {
            trace_->complete(fwdTrack_[copy.index][s],
                             traceLane(idx, port), mem::opName(msg->op),
                             now_, msg->packets, msg->id);
        }
        // The MNI may begin service only once the tail has arrived.
        mni.inbox.push_back({msg, now_ + msg->packets});
        activateMni(copy, msg->dest);
        return;
    }
}

void
Network::departForwardHop(Copy &copy, unsigned s, std::uint32_t idx,
                          unsigned port)
{
    Node &node = copy.stage[s][idx];
    OutPort &out = node.fwd[port];
    if (out.linkFreeAt > now_ || out.queue.empty())
        return;
    Message *msg = out.queue.head();
    const std::uint32_t line = topo_.lineFrom(idx, port);
    const OmegaTopology::Port next = topo_.intoStage(line, s + 1);
    Node &next_node = copy.stage[s + 1][next.sw];
    // The receiving unit: during the departure window it is the unit
    // executing this call, so observability stages into its arenas.
    Unit &runit = units_[plan_.unitOf(copy.index, s + 1, next.sw)];
    const unsigned next_port = topo_.routeDigit(msg->dest, s + 1);
    if (!cfg_.burroughsKill) {
        OutQueue &next_queue = next_node.fwd[next_port].queue;
        if (!acquireSpace(out.claimId, out.claimPkts, out.claimTarget,
                          next_queue, msg->packets)) {
            activateNode(copy, s + 1, next.sw); // claims need pumping
            return;                             // backpressure
        }
    }
    out.queue.dequeue();
    out.linkFreeAt = now_ + msg->packets;
    if (msg->lat) {
        runit.departWaits.push_back(
            {true, s, idx,
             lat_->stampFwdDepart(msg->lat, s, now_, msg->packets,
                                  false)});
    }
    if (trace_) {
        stageComplete(runit, fwdTrack_[copy.index][s],
                      traceLane(idx, port), mem::opName(msg->op),
                      msg->packets, msg->id);
    }
    next_node.fwdInbox.push_back({msg, now_ + 1});
    activateNode(copy, s + 1, next.sw);
}

void
Network::departReverse(Copy &copy, unsigned s, std::uint32_t idx,
                       unsigned port)
{
    if (s != 0) {
        departReverseHop(copy, s, idx, port);
        return;
    }
    Node &node = copy.stage[s][idx];
    OutPort &out = node.rev[port];
    if (out.linkFreeAt > now_ || out.queue.empty())
        return;
    Message *msg = out.queue.head();
    // The PE-side line of this reverse output port.
    const std::uint32_t line = topo_.unshuffle(topo_.lineFrom(idx, port));

    {
        // Deliver to the PNI once the tail arrives.
        ULTRA_ASSERT(line == msg->origin, "reply reached PE ", line,
                     " but belongs to PE ", msg->origin);
        out.queue.dequeue();
        out.linkFreeAt = now_ + msg->packets;
        if (msg->lat) {
            lat_->noteRevDepart(msg->lat, s, idx, now_, msg->packets,
                                true);
        }
        if (trace_) {
            trace_->complete(revTrack_[copy.index][s],
                             traceLane(idx, port), mem::opName(msg->op),
                             now_, msg->packets, msg->id);
        }
        deliveries_.push_back({msg, now_ + msg->packets});
        return;
    }
}

void
Network::departReverseHop(Copy &copy, unsigned s, std::uint32_t idx,
                          unsigned port)
{
    Node &node = copy.stage[s][idx];
    OutPort &out = node.rev[port];
    if (out.linkFreeAt > now_ || out.queue.empty())
        return;
    Message *msg = out.queue.head();
    // The PE-side line of this reverse output port.
    const std::uint32_t line = topo_.unshuffle(topo_.lineFrom(idx, port));
    const std::uint32_t prev_idx = line >> log2Exact(cfg_.k);
    Node &prev_node = copy.stage[s - 1][prev_idx];
    Unit &runit = units_[plan_.unitOf(copy.index, s - 1, prev_idx)];
    const unsigned prev_port = topo_.routeDigit(msg->origin, s - 1);
    if (!cfg_.burroughsKill) {
        OutQueue &prev_queue = prev_node.rev[prev_port].queue;
        if (!acquireSpace(out.claimId, out.claimPkts, out.claimTarget,
                          prev_queue, msg->packets)) {
            activateNode(copy, s - 1, prev_idx); // claims need pumping
            return;                              // backpressure
        }
    }
    out.queue.dequeue();
    out.linkFreeAt = now_ + msg->packets;
    if (msg->lat) {
        runit.departWaits.push_back(
            {false, s, idx,
             lat_->stampRevDepart(msg->lat, s, now_, msg->packets,
                                  false)});
    }
    if (trace_) {
        stageComplete(runit, revTrack_[copy.index][s],
                      traceLane(idx, port), mem::opName(msg->op),
                      msg->packets, msg->id);
    }
    prev_node.revInbox.push_back({msg, now_ + 1});
    activateNode(copy, s - 1, prev_idx);
}

void
Network::arrivalPhaseUnit(Unit &unit)
{
    Copy &copy = copies_[unit.copy];
    auto &stage_nodes = copy.stage[unit.stage];

    std::uint64_t consumed = 0; // arrivals taken (prof load counter)
    auto take_due = [&](std::vector<Arrival> &inbox, std::uint32_t idx,
                        bool forward) {
        std::size_t keep = 0;
        for (std::size_t i = 0; i < inbox.size(); ++i) {
            if (inbox[i].at <= now_) {
                ++consumed;
                if (forward)
                    arriveForward(unit, idx, inbox[i].msg);
                else
                    arriveReverse(unit, idx, inbox[i].msg);
            } else {
                inbox[keep++] = inbox[i];
            }
        }
        inbox.resize(keep);
    };

    std::size_t keep = 0;
    for (std::size_t i = 0; i < unit.active.size(); ++i) {
        const std::uint32_t idx = unit.active[i];
        Node &node = stage_nodes[idx];

        bool busy = !node.fwdInbox.empty() || !node.revInbox.empty();
        for (unsigned p = 0; p < cfg_.k && !busy; ++p) {
            busy = !node.fwd[p].queue.empty() ||
                   !node.rev[p].queue.empty();
        }
        if (!busy) {
            // Went idle after last cycle's departures; drop it.  Only
            // sequential contexts re-activate, so this prune cannot
            // race with another unit.
            node.inList = false;
            continue;
        }
        take_due(node.fwdInbox, idx, true);
        take_due(node.revInbox, idx, false);
        unit.active[keep++] = idx;
    }
    unit.active.resize(keep);
    // Canonical ascending-column order: the merge sweep then visits a
    // stage's active columns in an order independent of how they were
    // activated AND of the group partition, so downstream space
    // arbitration -- and with it every statistic -- is identical for
    // any shardGroupTarget.
    std::sort(unit.active.begin(), unit.active.end());
    const std::size_t u = static_cast<std::size_t>(&unit - units_.data());
    // Columns the merge activates depart from next cycle on: the merge
    // sweeps only this post-arrival prefix (one writer per slot).
    mergeLen_[u] = keep;
    // One profiler call per unit per tick; the unit's slot has a
    // single writer (whichever shard owns the unit this phase).
    if (prof_ != nullptr && consumed != 0)
        prof_->unitMessages(static_cast<std::uint32_t>(u), consumed);
}

void
Network::arrivalPhase()
{
    if (engine_ != nullptr && engine_->threads() > 1) {
        ULTRA_CHECK_NET_COMPUTE_BEGIN(now_);
        try {
            engine_->forEachShard([this](unsigned shard) {
                const par::ShardRange r = unitShards_.range(shard);
                for (std::size_t u = r.begin; u < r.end; ++u)
                    arrivalPhaseUnit(units_[u]);
            });
        } catch (...) {
            ULTRA_CHECK_NET_COMPUTE_END();
            throw;
        }
        ULTRA_CHECK_NET_COMPUTE_END();
        return;
    }
    // Inline sweep: the same canonical algorithm, unit by unit, so the
    // unsharded path is byte-identical to the sharded one.  A unit with
    // an empty active list has no inbox to consume and nothing to
    // prune, so it is skipped.
    for (std::size_t u = 0; u < units_.size(); ++u) {
        if (units_[u].active.empty())
            mergeLen_[u] = 0;
        else
            arrivalPhaseUnit(units_[u]);
    }
}

void
Network::buildPullLists(unsigned start)
{
    // Sequential pre-pass: walk the EXACT legacy sender sweep (per
    // sender stage: groups ascending, the sorted active-column prefix,
    // ports in this cycle's rotation) and append every eligible
    // (switch, port) to the RECEIVING unit's pull list.  Eligibility
    // (link idle, queue non-empty) is stable until the window reaches
    // it: a listed port's state is mutated only by its own single
    // pull, and the sequential sub-phases (final forward stage,
    // reverse stage 0) touch no hop port.  Each output port feeds
    // exactly one next-stage switch, so replaying a unit's list in
    // order reproduces the sweep's per-queue claim order, per-inbox
    // push order and activation order byte for byte.
    const unsigned stages = topo_.stages();
    const unsigned groups = plan_.groupsPerStage();
    for (auto &copy : copies_) {
        for (unsigned s = 0; s + 1 < stages; ++s) {
            for (unsigned g = 0; g < groups; ++g) {
                const std::size_t u =
                    (static_cast<std::size_t>(copy.index) * stages + s) *
                        groups +
                    g;
                Unit &unit = units_[u];
                for (std::size_t i = 0; i < mergeLen_[u]; ++i) {
                    const std::uint32_t idx = unit.active[i];
                    Node &node = copy.stage[s][idx];
                    for (unsigned p = 0; p < cfg_.k; ++p) {
                        const unsigned port = (start + p) % cfg_.k;
                        const OutPort &out = node.fwd[port];
                        if (out.linkFreeAt > now_ ||
                            out.queue.empty()) {
                            continue;
                        }
                        const OmegaTopology::Port next = topo_.intoStage(
                            topo_.lineFrom(idx, port), s + 1);
                        units_[plan_.unitOf(copy.index, s + 1, next.sw)]
                            .fwdPull.push_back({idx, port});
                    }
                }
            }
        }
        for (unsigned s = 1; s < stages; ++s) {
            for (unsigned g = 0; g < groups; ++g) {
                const std::size_t u =
                    (static_cast<std::size_t>(copy.index) * stages + s) *
                        groups +
                    g;
                Unit &unit = units_[u];
                for (std::size_t i = 0; i < mergeLen_[u]; ++i) {
                    const std::uint32_t idx = unit.active[i];
                    Node &node = copy.stage[s][idx];
                    for (unsigned p = 0; p < cfg_.k; ++p) {
                        const unsigned port = (start + p) % cfg_.k;
                        const OutPort &out = node.rev[port];
                        if (out.linkFreeAt > now_ ||
                            out.queue.empty()) {
                            continue;
                        }
                        const std::uint32_t prev_idx =
                            topo_.unshuffle(topo_.lineFrom(idx, port)) >>
                            log2Exact(cfg_.k);
                        units_[plan_.unitOf(copy.index, s - 1, prev_idx)]
                            .revPull.push_back({idx, port});
                    }
                }
            }
        }
    }
}

void
Network::execPulls(Unit &unit, bool forward)
{
    Copy &copy = copies_[unit.copy];
    if (forward) {
        const unsigned s = unit.stage - 1;
        for (const PullWire &w : unit.fwdPull)
            departForwardHop(copy, s, w.sw, static_cast<unsigned>(w.port));
        unit.fwdPull.clear();
    } else {
        const unsigned s = unit.stage + 1;
        for (const PullWire &w : unit.revPull)
            departReverseHop(copy, s, w.sw, static_cast<unsigned>(w.port));
        unit.revPull.clear();
    }
}

void
Network::departWindow(bool forward)
{
    // Only mergePhase() calls this, and only with a multi-thread engine
    // and at least one hop stage (a one-thread tick sweeps instead).
    const unsigned stages = topo_.stages();
    const unsigned groups = plan_.groupsPerStage();
    // Receiving stages in ripple order: forward rs = stages-1 .. 1
    // (sender stage descending), reverse rs = 0 .. stages-2.
    const unsigned n_rs = stages - 1;
    ULTRA_ASSERT(engine_ != nullptr && engine_->threads() > 1 && n_rs > 0);

    ULTRA_CHECK_NET_DEPART_BEGIN(now_);
    try {
        prof::Profiler *const prof = prof_;
        engine_->forEachShard([this, forward, stages, groups, n_rs,
                               prof](unsigned shard) {
            const par::ShardRange r = departShards_.range(shard);
            unsigned step = 0;
            try {
                for (; step < n_rs; ++step) {
                    const unsigned rs = forward ? stages - 1 - step : step;
                    for (std::size_t slot = r.begin; slot < r.end;
                         ++slot) {
                        const std::size_t c = slot / groups;
                        const std::size_t g = slot % groups;
                        execPulls(units_[(c * stages + rs) * groups + g],
                                  forward);
                    }
                    // One stage completes everywhere before the next
                    // starts: stage rs-1's own-queue space mutations
                    // must not race stage rs's pulls.
                    if (step + 1 < n_rs) {
                        if (prof != nullptr)
                            prof->stageWaitBegin(shard);
                        engine_->stageBarrier().arriveAndWait();
                        if (prof != nullptr)
                            prof->stageWaitEnd(shard);
                    }
                }
            } catch (...) {
                // Keep this shard arriving at the remaining stage
                // barriers so the other shards can finish instead of
                // deadlocking; the engine rethrows after join.
                for (unsigned b = step; b + 1 < n_rs; ++b)
                    engine_->stageBarrier().arriveAndWait();
                throw;
            }
        });
    } catch (...) {
        ULTRA_CHECK_NET_DEPART_END();
        throw;
    }
    ULTRA_CHECK_NET_DEPART_END();
}

void
Network::mergePhase()
{
    // Rotate the service order across cycles so no output port (and
    // hence no subtree of PEs) gets a systematic arbitration advantage.
    const unsigned start = static_cast<unsigned>(now_) % cfg_.k;
    const unsigned stages = topo_.stages();
    const unsigned groups = plan_.groupsPerStage();

    // The arrival phase left each unit's active count in mergeLen_:
    // columns activated DURING the merge (claim pumping, next-hop
    // handoffs) depart starting next cycle, which keeps the sweep a
    // pure function of the pre-merge state.  The lists themselves were
    // sorted by the arrival phase, so a stage's columns are visited in
    // ascending order regardless of the group partition.

    // k is a power of two, so the port rotation is a mask.  A port
    // whose link is busy or whose queue is empty cannot depart; testing
    // that here skips the call, which would return at once.
    const unsigned port_mask = cfg_.k - 1;
    auto sweepStage = [&](Copy &copy, unsigned s, bool forward) {
        auto &nodes = copy.stage[s];
        for (unsigned g = 0; g < groups; ++g) {
            const std::size_t u =
                (static_cast<std::size_t>(copy.index) * stages + s) *
                    groups +
                g;
            Unit &unit = units_[u];
            for (std::size_t i = 0; i < mergeLen_[u]; ++i) {
                const std::uint32_t idx = unit.active[i];
                Node &node = nodes[idx];
                for (unsigned p = 0; p < cfg_.k; ++p) {
                    const unsigned port = (start + p) & port_mask;
                    const OutPort &out =
                        forward ? node.fwd[port] : node.rev[port];
                    if (out.linkFreeAt > now_ || out.queue.empty())
                        continue;
                    if (forward)
                        departForward(copy, s, idx, port);
                    else
                        departReverse(copy, s, idx, port);
                }
            }
        }
    };

    std::uint64_t mark = prof_ != nullptr ? prof::Profiler::nowNs() : 0;
    const auto lap = [&](prof::Phase p) {
        if (prof_ == nullptr)
            return;
        const std::uint64_t next = prof::Profiler::nowNs();
        prof_->phaseAdd(p, next - mark);
        mark = next;
    };

    // The window's pre-pass and stage barriers only pay when the pulls
    // run on more than one thread; a one-thread tick takes the sender
    // sweep, which yields the same bytes (see buildPullLists).
    const bool window = cfg_.parallelDeparture && stages > 1 &&
                        engine_ != nullptr && engine_->threads() > 1;
    if (window) {
        // Receiver-pull schedule: the hop stages run as parallel
        // windows; only the MNI handoff and the PE deliveries stay
        // sequential.
        buildPullLists(start);
        lap(prof::Phase::NetPrePass);
        for (auto &copy : copies_)
            sweepStage(copy, stages - 1, true);
        lap(prof::Phase::NetSweepFwd);
        if (prof_ != nullptr)
            prof_->setEpisodePhase(prof::Phase::NetDepartFwd);
        departWindow(true);
        lap(prof::Phase::NetDepartFwd);
        for (auto &copy : copies_)
            sweepStage(copy, 0, false);
        lap(prof::Phase::NetSweepRev);
        if (prof_ != nullptr)
            prof_->setEpisodePhase(prof::Phase::NetDepartRev);
        departWindow(false);
        lap(prof::Phase::NetDepartRev);
    } else {
        // Forward departures in stage-descending order: a downstream
        // dequeue at stage s+1 frees space before the stage-s sender
        // tries to claim it, so a full pipeline ripples forward
        // without bubbles.
        for (auto &copy : copies_) {
            for (unsigned s = stages; s-- > 0;)
                sweepStage(copy, s, true);
        }
        lap(prof::Phase::NetSweepFwd);
        // Reverse departures ripple the other way: stage-ascending.
        for (auto &copy : copies_) {
            for (unsigned s = 0; s < stages; ++s)
                sweepStage(copy, s, false);
        }
        lap(prof::Phase::NetSweepRev);
    }

    drainUnitStaging();
    lap(prof::Phase::NetDrain);
}

void
Network::drainUnitStaging()
{
    // Fixed unit order makes every cross-unit effect deterministic: the
    // same kills fire, the same messages return to the same pools, and
    // the same samples land in the same accumulator order no matter how
    // the arrival phase was scheduled.
    for (Unit &unit : units_) {
        const std::uint32_t u =
            static_cast<std::uint32_t>(&unit - units_.data());
        // A pool can allocate without its unit doing any work (an
        // ideal-mode injection), so every unit reports its pool.
        if (prof_ != nullptr)
            prof_->unitPool(u, unit.pool.allocCount(), unit.pool.capacity());
        if (unit.active.empty()) {
            // Staging is pushed only by a unit working one of its
            // active nodes, or into a receiving unit by a departure
            // that activates the receiving node in the same hop, and
            // active lists only grow between the arrival prune and
            // here: an idle unit has nothing to drain (and a staging
            // high-water of 0 to report).
#ifdef ULTRA_CHECK_ENABLED
            ULTRA_ASSERT(unit.nothingStaged(), "idle unit ", u,
                         " holds staged work");
#endif
            continue;
        }
        if (prof_ != nullptr) {
            // Observe staged sizes before the clears below; this is
            // the sequential point where the whole tick's cross-unit
            // staging is visible at once.
            prof_->unitStagingHighWater(
                u, unit.traces.size() + unit.departWaits.size() +
                       unit.kills.size() + unit.dead.size() +
                       unit.queueLenSamples.size());
        }
        if (unit.nothingStaged())
            continue; // nothing staged this cycle
        if (trace_) {
            for (const StagedTrace &t : unit.traces) {
                if (t.span) {
                    trace_->complete(t.track, t.tid, t.name, t.at,
                                     t.dur, t.id);
                } else {
                    trace_->instant(t.track, t.tid, t.name, t.at, t.id,
                                    t.link);
                }
            }
        }
        unit.traces.clear();

        // Departure-window queue waits: pure integer folds, so the
        // unit-order replay yields the exact aggregates the legacy
        // in-sweep noteFwdDepart/noteRevDepart calls produced.
        for (const DepartWait &w : unit.departWaits)
            lat_->foldDepartWait(w.fwd, w.stage, w.sw, w.wait);
        unit.departWaits.clear();

        for (Message *msg : unit.kills) {
            if (msg->lat) {
                lat_->closeKilled(msg->lat);
                msg->lat = nullptr;
            }
            if (killFn_)
                killFn_(msg->origin, msg->tag);
            poolOf(msg).free(msg);
        }
        unit.kills.clear();

        for (Message *msg : unit.dead)
            poolOf(msg).free(msg);
        unit.dead.clear();

        stats_.combined += unit.delta.combined;
        stats_.decombined += unit.delta.decombined;
        stats_.killed += unit.delta.killed;
        stats_.revOverflowPackets += unit.delta.revOverflowPackets;
        stats_.combinesPerStage[unit.stage] += unit.delta.stageCombines;
        unit.delta = UnitStats{};

        for (double sample : unit.queueLenSamples)
            stats_.queueLenAtEnqueue.add(sample);
        unit.queueLenSamples.clear();
    }
}

void
Network::processMnis(Copy &copy)
{
    for (std::size_t i = 0; i < copy.activeMnis.size(); ++i) {
        const MMId mm = copy.activeMnis[i];
        MniState &mni = copy.mni[mm];

        std::size_t keep = 0;
        for (std::size_t j = 0; j < mni.inbox.size(); ++j) {
            Arrival &arr = mni.inbox[j];
            if (arr.at <= now_) {
                arr.msg->mniArriveAt = arr.at;
                if (arr.msg->lat)
                    lat_->noteMniArrive(arr.msg->lat, arr.at);
                stats_.oneWayTransit.add(static_cast<double>(
                    arr.at - arr.msg->injectedAt));
                if (cfg_.burroughsKill)
                    mni.pending.enqueueUnreserved(arr.msg);
                else
                    mni.pending.enqueue(arr.msg);
            } else {
                mni.inbox[keep++] = arr;
            }
        }
        mni.inbox.resize(keep);

        if (mni.serviceFreeAt <= now_ && !mni.pending.empty()) {
            Message *msg = mni.pending.head();
            const std::uint32_t reply_packets =
                cfg_.packetsFor(msg->op, true);
            // Reverse-path entry point: the switch this request left.
            const std::uint32_t sw_idx = msg->dest >> log2Exact(cfg_.k);
            const unsigned last = topo_.stages() - 1;
            Node &entry_node = copy.stage[last][sw_idx];
            const unsigned rev_port =
                topo_.routeDigit(msg->origin, last);
            OutQueue &rev_queue = entry_node.rev[rev_port].queue;
            bool have_space;
            if (cfg_.burroughsKill) {
                have_space = true;
            } else {
                have_space = acquireSpace(mni.claimId, mni.claimPkts,
                                          mni.claimTarget, rev_queue,
                                          reply_packets);
                if (!have_space) {
                    // The claim is serviced as the rev queue drains.
                    activateNode(copy, last, sw_idx);
                }
            }
            if (have_space) {
                mni.pending.dequeue();
                stats_.mmQueueWait.add(
                    static_cast<double>(now_ - msg->mniArriveAt));
                if (msg->lat) {
                    lat_->noteServiceStart(
                        msg->lat, now_, 1 + msg->timesCombined,
                        std::max<Cycle>(cfg_.mmAccessTime,
                                        reply_packets));
                }
                if (trace_) {
                    trace_->complete(mmTrack_, mm, mem::opName(msg->op),
                                     now_, cfg_.mmAccessTime, msg->id);
                }
                msg->data =
                    memory_.execute(msg->op, msg->paddr, msg->data);
                makeReply(msg);
                msg->packets = reply_packets;
                entry_node.revInbox.push_back(
                    {msg, now_ + cfg_.mmAccessTime + 1});
                activateNode(copy, last, sw_idx);
                mni.serviceFreeAt =
                    now_ + std::max<Cycle>(cfg_.mmAccessTime,
                                           reply_packets);
                ++stats_.mmServed;
            }
        }

        mni.active = !mni.inbox.empty() || !mni.pending.empty();
    }
    std::erase_if(copy.activeMnis, [&](MMId mm) {
        MniState &mni = copy.mni[mm];
        if (mni.active)
            return false;
        mni.inList = false;
        return true;
    });
}

void
Network::makeReply(Message *msg)
{
    msg->isReply = true;
    msg->requestId = msg->id;
    msg->combinedAtThisQueue = 0;
}

void
Network::commitPhase()
{
    // Ideal-paracomputer mode: execute and answer everything injected
    // last cycle, in injection order.
    if (cfg_.idealParacomputer && !idealPending_.empty()) {
        std::size_t keep_ideal = 0;
        for (std::size_t i = 0; i < idealPending_.size(); ++i) {
            Arrival &arr = idealPending_[i];
            if (arr.at > now_) {
                idealPending_[keep_ideal++] = arr;
                continue;
            }
            Message *msg = arr.msg;
            msg->data = memory_.execute(msg->op, msg->paddr, msg->data);
            ++stats_.mmServed;
            stats_.oneWayTransit.add(1.0);
            makeReply(msg);
            deliveries_.push_back({msg, now_});
        }
        idealPending_.resize(keep_ideal);
    }

    // Deliveries due this cycle reach the PNIs first so reply-driven
    // callbacks can inject in the same cycle.
    std::size_t keep = 0;
    for (std::size_t i = 0; i < deliveries_.size(); ++i) {
        Arrival &arr = deliveries_[i];
        if (arr.at <= now_) {
            Message *msg = arr.msg;
            stats_.roundTrip.add(
                static_cast<double>(arr.at - msg->injectedAt));
            stats_.roundTripHist.add(arr.at - msg->injectedAt);
            ++stats_.delivered;
            if (msg->lat) {
                lat_->closeDelivered(msg->lat, arr.at);
                msg->lat = nullptr;
            }
            if (trace_) {
                trace_->instant(peTrack_, msg->origin, "reply", now_,
                                msg->requestId);
            }
            if (deliverFn_)
                deliverFn_(msg->origin, msg->tag, msg->data);
            poolOf(msg).free(msg);
        } else {
            deliveries_[keep++] = arr;
        }
    }
    deliveries_.resize(keep);
}

void
Network::tick()
{
    ULTRA_CHECK_COMMIT_ONLY("net.network.tick");
    // Chained phase stamps: each boundary is a single clock read, and
    // with no profiler attached the whole ladder compiles down to null
    // tests.  The phase times tile tick() wall time by construction.
    std::uint64_t mark = prof_ != nullptr ? prof::Profiler::nowNs() : 0;
    const auto lap = [&](prof::Phase p) {
        if (prof_ == nullptr)
            return;
        const std::uint64_t next = prof::Profiler::nowNs();
        prof_->phaseAdd(p, next - mark);
        mark = next;
    };
    commitPhase();
    lap(prof::Phase::NetCommit);
    // MNIs are few, cheap and touch cross-unit state (last-stage rev
    // queues, the memory system): they stay sequential, before the
    // parallel arrival phase so every unit sees the same pre-arrival
    // queue state.
    for (auto &copy : copies_)
        processMnis(copy);
    lap(prof::Phase::NetMni);
    if (prof_ != nullptr)
        prof_->setEpisodePhase(prof::Phase::NetArrival);
    arrivalPhase();
    lap(prof::Phase::NetArrival);
    mergePhase();
    ++now_;
}

bool
Network::drain(Cycle max_cycles)
{
    const Cycle deadline = now_ + max_cycles;
    while (inFlight() > 0 && now_ < deadline)
        tick();
    return inFlight() == 0;
}


std::string
Network::dumpState() const
{
    std::ostringstream os;
    os << "cycle " << now_ << ", live messages " << inFlight() << "\n";
    auto show_queue = [&](const char *what, unsigned c, unsigned s,
                          std::uint32_t idx, unsigned port,
                          const OutQueue &queue, Cycle link_free) {
        if (queue.empty() && queue.reservedPackets() == 0)
            return;
        os << "  copy" << c << " stage" << s << " sw" << idx << " "
           << what << port << ": " << queue.sizeMessages() << " msgs, "
           << queue.usedPackets() << "+" << queue.reservedPackets()
           << " pkts";
        if (link_free > now_)
            os << ", link busy until " << link_free;
        if (!queue.empty()) {
            const Message *head = queue.head();
            os << ", head " << mem::opName(head->op)
               << (head->isReply ? " reply" : " req") << " paddr "
               << head->paddr << " pkts " << head->packets << " age "
               << (now_ - head->injectedAt);
        }
        os << "\n";
    };
    for (unsigned c = 0; c < copies_.size(); ++c) {
        const Copy &copy = copies_[c];
        for (unsigned s = 0; s < copy.stage.size(); ++s) {
            for (std::uint32_t idx = 0; idx < copy.stage[s].size();
                 ++idx) {
                const Node &node = copy.stage[s][idx];
                for (unsigned p = 0; p < cfg_.k; ++p) {
                    show_queue("fwd", c, s, idx, p, node.fwd[p].queue,
                               node.fwd[p].linkFreeAt);
                    show_queue("rev", c, s, idx, p, node.rev[p].queue,
                               node.rev[p].linkFreeAt);
                }
                if (!node.wb.empty()) {
                    os << "  copy" << c << " stage" << s << " sw"
                       << idx << " waitbuf: " << node.wb.size()
                       << " entries\n";
                }
                if (!node.fwdInbox.empty() || !node.revInbox.empty()) {
                    os << "  copy" << c << " stage" << s << " sw"
                       << idx << " inbox: " << node.fwdInbox.size()
                       << " fwd, " << node.revInbox.size()
                       << " rev\n";
                }
            }
        }
        for (MMId mm = 0; mm < copy.mni.size(); ++mm) {
            const MniState &mni = copy.mni[mm];
            if (mni.pending.empty() && mni.inbox.empty())
                continue;
            os << "  copy" << c << " mni" << mm << ": "
               << mni.pending.sizeMessages() << " msgs, "
               << mni.pending.usedPackets() << "+"
               << mni.pending.reservedPackets()
               << " pkts, service free at " << mni.serviceFreeAt
               << ", inbox " << mni.inbox.size() << "\n";
        }
    }
    return os.str();
}

namespace
{

/** Append one message as a JSON object (protocol dump format). */
void
messageJson(std::ostringstream &os, const Message *msg, Cycle now)
{
    os << "{\"id\": " << msg->id << ", \"op\": \""
       << mem::opName(msg->op) << "\", \"reply\": "
       << (msg->isReply ? "true" : "false") << ", \"paddr\": "
       << msg->paddr << ", \"origin\": " << msg->origin
       << ", \"dest\": " << msg->dest << ", \"packets\": "
       << msg->packets << ", \"combined\": " << msg->timesCombined
       << ", \"age\": " << (now - msg->injectedAt) << "}";
}

/** Append one output queue as a JSON object. */
void
queueJson(std::ostringstream &os, const OutQueue &queue, Cycle now)
{
    os << "{\"msgs\": " << queue.sizeMessages() << ", \"used_pkts\": "
       << queue.usedPackets() << ", \"reserved_pkts\": "
       << queue.reservedPackets() << ", \"capacity_pkts\": "
       << queue.capacityPackets() << ", \"entries\": [";
    bool first = true;
    for (const Message *msg : queue.entries()) {
        if (!first)
            os << ", ";
        first = false;
        messageJson(os, msg, now);
    }
    os << "]}";
}

} // namespace

std::string
Network::switchJson(unsigned copy, unsigned stage,
                    std::uint32_t index) const
{
    if (copy >= copies_.size() || stage >= topo_.stages() ||
        index >= copies_[copy].stage[stage].size()) {
        return "";
    }
    const Node &node = copies_[copy].stage[stage][index];
    std::ostringstream os;
    os << "{\"copy\": " << copy << ", \"stage\": " << stage
       << ", \"index\": " << index << ", \"tomm\": [";
    for (unsigned p = 0; p < cfg_.k; ++p) {
        if (p > 0)
            os << ", ";
        queueJson(os, node.fwd[p].queue, now_);
    }
    os << "], \"tope\": [";
    for (unsigned p = 0; p < cfg_.k; ++p) {
        if (p > 0)
            os << ", ";
        queueJson(os, node.rev[p].queue, now_);
    }
    os << "], \"wait_buffer\": [";
    bool first = true;
    for (const WaitEntry &entry : node.wb.entries()) {
        if (!first)
            os << ", ";
        first = false;
        os << "{\"wait_key\": " << entry.waitKey
           << ", \"satisfied_id\": " << entry.satisfiedId
           << ", \"origin\": " << entry.satisfiedOrigin
           << ", \"op\": \"" << mem::opName(entry.satisfiedOp)
           << "\", \"paddr\": " << entry.paddr << ", \"age\": "
           << (now_ - entry.createdAt) << "}";
    }
    os << "], \"inbox\": {\"fwd\": " << node.fwdInbox.size()
       << ", \"rev\": " << node.revInbox.size() << "}}";
    return os.str();
}

std::string
Network::mniJson(unsigned copy, MMId mm) const
{
    if (copy >= copies_.size() || mm >= copies_[copy].mni.size())
        return "";
    const MniState &mni = copies_[copy].mni[mm];
    std::ostringstream os;
    os << "{\"copy\": " << copy << ", \"module\": " << mm
       << ", \"service_free_at\": " << mni.serviceFreeAt
       << ", \"inbox\": " << mni.inbox.size() << ", \"pending\": ";
    queueJson(os, mni.pending, now_);
    os << "}";
    return os.str();
}

void
Network::resetStats()
{
    const auto stages = stats_.combinesPerStage.size();
    stats_ = NetStats{};
    stats_.combinesPerStage.assign(stages, 0);
}

std::uint64_t
Network::stageQueuePackets(unsigned stage, bool to_mm) const
{
    ULTRA_ASSERT(stage < topo_.stages());
    std::uint64_t total = 0;
    for (const Copy &copy : copies_) {
        for (const Node &node : copy.stage[stage]) {
            const auto &ports = to_mm ? node.fwd : node.rev;
            for (const OutPort &out : ports)
                total += out.queue.usedPackets();
        }
    }
    return total;
}

std::uint64_t
Network::stageWaitBufferEntries(unsigned stage) const
{
    ULTRA_ASSERT(stage < topo_.stages());
    std::uint64_t total = 0;
    for (const Copy &copy : copies_) {
        for (const Node &node : copy.stage[stage])
            total += node.wb.size();
    }
    return total;
}

std::uint64_t
Network::mniPendingPackets() const
{
    std::uint64_t total = 0;
    for (const Copy &copy : copies_) {
        for (const MniState &mni : copy.mni)
            total += mni.pending.usedPackets();
    }
    return total;
}

void
Network::registerStats(obs::Registry &registry,
                       const std::string &prefix) const
{
    auto count = [&](const char *leaf, const std::uint64_t NetStats::*f,
                     const char *desc) {
        registry.addScalar(prefix + "." + leaf,
                           [this, f] {
                               return static_cast<double>(stats_.*f);
                           },
                           desc);
    };
    count("injected", &NetStats::injected, "requests entered");
    count("mm_served", &NetStats::mmServed, "requests executed at MMs");
    count("delivered", &NetStats::delivered, "replies handed to PEs");
    count("combined", &NetStats::combined,
          "requests absorbed by combining");
    count("decombined", &NetStats::decombined,
          "replies synthesized back");
    count("killed", &NetStats::killed, "Burroughs-mode kills");
    count("rev_overflow_packets", &NetStats::revOverflowPackets,
          "fission slack packets");

    registry.addAccumulator(prefix + ".one_way_transit",
                            &stats_.oneWayTransit,
                            "inject -> full receipt at MNI, cycles");
    registry.addAccumulator(prefix + ".round_trip", &stats_.roundTrip,
                            "inject -> reply receipt at PE, cycles");
    registry.addAccumulator(prefix + ".mm_queue_wait",
                            &stats_.mmQueueWait,
                            "arrival at MNI -> service start, cycles");
    registry.addAccumulator(prefix + ".queue_len_at_enqueue",
                            &stats_.queueLenAtEnqueue,
                            "ToMM occupancy seen by arrivals, packets");
    registry.addHistogram(prefix + ".round_trip_hist",
                          &stats_.roundTripHist,
                          "round-trip latency distribution");

    registry.addScalar(prefix + ".mni_pending_pkts",
                       [this] {
                           return static_cast<double>(
                               mniPendingPackets());
                       },
                       "packets queued at MNIs (gauge)");
    for (unsigned s = 0; s < topo_.stages(); ++s) {
        const std::string stage =
            prefix + ".stage" + std::to_string(s) + ".";
        registry.addScalar(stage + "combines",
                           [this, s] {
                               return static_cast<double>(
                                   stats_.combinesPerStage[s]);
                           },
                           "requests combined at this stage");
        registry.addScalar(stage + "tomm_pkts",
                           [this, s] {
                               return static_cast<double>(
                                   stageQueuePackets(s, true));
                           },
                           "ToMM queue occupancy (gauge)");
        registry.addScalar(stage + "tope_pkts",
                           [this, s] {
                               return static_cast<double>(
                                   stageQueuePackets(s, false));
                           },
                           "ToPE queue occupancy (gauge)");
        registry.addScalar(stage + "wb_entries",
                           [this, s] {
                               return static_cast<double>(
                                   stageWaitBufferEntries(s));
                           },
                           "wait-buffer fill (gauge)");
    }
}

void
Network::setEventTrace(obs::EventTrace *trace)
{
    trace_ = trace;
    fwdTrack_.clear();
    revTrack_.clear();
    if (trace_ == nullptr)
        return;
    peTrack_ = trace_->track("pe");
    mmTrack_ = trace_->track("mm");
    fwdTrack_.resize(cfg_.d);
    revTrack_.resize(cfg_.d);
    for (unsigned c = 0; c < cfg_.d; ++c) {
        for (unsigned s = 0; s < topo_.stages(); ++s) {
            const std::string base = "net.copy" + std::to_string(c) +
                                     ".stage" + std::to_string(s);
            fwdTrack_[c].push_back(trace_->track(base + ".tomm"));
            revTrack_[c].push_back(trace_->track(base + ".tope"));
        }
    }
}

void
Network::setLatencyObservatory(obs::LatencyObservatory *lat)
{
    // Only whole-lifecycle records make sense: attach while messages are
    // in flight and the partial stamps would fail the decomposition
    // check the moment those messages complete.
    ULTRA_ASSERT(inFlight() == 0,
                 "attach the latency observatory while the network is "
                 "quiescent, not with ", inFlight(),
                 " messages in flight");
    lat_ = lat;
}

} // namespace ultra::net
