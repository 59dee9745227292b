#include "sim/mem_hierarchy.hh"

#include <algorithm>
#include <bit>
#include <cassert>

#include "cache/drrip.hh"
#include "cache/policy_5p.hh"
#include "core/best_offset.hh"
#include "core/offset_list.hh"
#include "prefetch/fixed_offset.hh"
#include "prefetch/sandbox.hh"

namespace bop
{

std::unique_ptr<ReplacementPolicy>
makeL3Policy(const SystemConfig &cfg)
{
    switch (cfg.l3Policy) {
      case L3PolicyKind::P5:
        return std::make_unique<Policy5P>(cfg.seed ^ 0x5105,
                                          cfg.coreCount());
      case L3PolicyKind::Lru:
        return std::make_unique<LruPolicy>();
      case L3PolicyKind::Drrip:
        return std::make_unique<DrripPolicy>(cfg.seed ^ 0xd661);
    }
    return std::make_unique<LruPolicy>();
}

std::unique_ptr<L2Prefetcher>
makeL2Prefetcher(const SystemConfig &cfg)
{
    switch (cfg.l2Prefetcher) {
      case L2PrefetcherKind::None:
        return std::make_unique<NullPrefetcher>(cfg.pageSize);
      case L2PrefetcherKind::NextLine:
        return std::make_unique<NextLinePrefetcher>(cfg.pageSize);
      case L2PrefetcherKind::FixedOffset:
        return std::make_unique<FixedOffsetPrefetcher>(cfg.pageSize,
                                                       cfg.fixedOffset);
      case L2PrefetcherKind::BestOffset:
        return std::make_unique<BestOffsetPrefetcher>(cfg.pageSize,
                                                      cfg.bo);
      case L2PrefetcherKind::Sandbox:
        return std::make_unique<SandboxPrefetcher>(
            cfg.pageSize, makeOffsetList(cfg.bo.maxOffset), cfg.sbp);
      case L2PrefetcherKind::Stream:
        return std::make_unique<StreamPrefetcher>(cfg.pageSize,
                                                  cfg.stream);
      case L2PrefetcherKind::Fdp:
        return std::make_unique<FdpPrefetcher>(cfg.pageSize, cfg.fdp);
      case L2PrefetcherKind::Acdc:
        return std::make_unique<GhbAcdcPrefetcher>(cfg.pageSize,
                                                   cfg.ghb);
      case L2PrefetcherKind::StreamBuffer:
        return std::make_unique<StreamBufferPrefetcher>(cfg.pageSize,
                                                        cfg.streamBuf);
      case L2PrefetcherKind::BestOffsetDpc2:
        return std::make_unique<BestOffsetDpc2Prefetcher>(cfg.pageSize,
                                                          cfg.boDpc2);
    }
    return std::make_unique<NullPrefetcher>(cfg.pageSize);
}

MemHierarchy::CoreSide::CoreSide(const SystemConfig &cfg, CoreId id_)
    : id(id_),
      dl1("dl1." + std::to_string(id), cfg.caches.dl1Bytes,
          cfg.caches.dl1Ways, std::make_unique<LruPolicy>()),
      l2("l2." + std::to_string(id), cfg.caches.l2Bytes,
         cfg.caches.l2Ways, std::make_unique<LruPolicy>()),
      mshr(cfg.caches.dl1Mshrs),
      l2Fill("l2fq." + std::to_string(id), cfg.caches.l2FillQueue),
      prefetchQueue(cfg.caches.prefetchQueue),
      vmem(cfg.pageSize, static_cast<std::uint64_t>(id), cfg.seed)
{
    // All reported numbers are for core 0 (Sec. 5.1). The prefetcher
    // under test runs on core 0 only; the other active cores keep the
    // fixed baseline prefetchers (next-line + DL1 stride), so that a
    // configuration change isolates core 0's prefetcher instead of
    // also making the cache-thrashing micro-benchmarks fetch faster.
    if (id == 0) {
        l2pf = makeL2Prefetcher(cfg);
        if (cfg.dl1StridePrefetcher)
            stride.emplace(cfg.stride);
    } else {
        l2pf = std::make_unique<NextLinePrefetcher>(cfg.pageSize);
        stride.emplace(cfg.stride);
    }
}

std::vector<std::unique_ptr<ReplacementPolicy>>
MemHierarchy::makeL3BankPolicies(
    std::size_t num_banks,
    const std::vector<std::vector<std::size_t>> &bank_global_sets) const
{
    std::vector<std::unique_ptr<ReplacementPolicy>> out;
    if (num_banks == 1) {
        out.push_back(makeL3Policy(cfg));
        return out;
    }
    // Multi-bank: per-bank instances carry the per-set state, but the
    // LLC-global state (proportional counters, PSEL, the BIP RNG) is
    // one shared object so every draw and halving happens in the same
    // global order as in the monolithic cache. The leader-set layout
    // is rebuilt from the monolithic set ids via the translation
    // tables.
    switch (cfg.l3Policy) {
      case L3PolicyKind::P5: {
        auto shared = std::make_shared<Policy5PSharedState>(
            cfg.seed ^ 0x5105, cfg.coreCount(), 12u);
        for (std::size_t b = 0; b < num_banks; ++b)
            out.push_back(std::make_unique<Policy5P>(
                shared, bank_global_sets[b]));
        break;
      }
      case L3PolicyKind::Lru:
        for (std::size_t b = 0; b < num_banks; ++b)
            out.push_back(std::make_unique<LruPolicy>());
        break;
      case L3PolicyKind::Drrip: {
        auto shared =
            std::make_shared<DrripSharedState>(cfg.seed ^ 0xd661);
        for (std::size_t b = 0; b < num_banks; ++b)
            out.push_back(std::make_unique<DrripPolicy>(
                shared, bank_global_sets[b]));
        break;
      }
    }
    return out;
}

MemHierarchy::MemHierarchy(const SystemConfig &cfg_)
    : cfg(cfg_.resolved()),
      toL3(static_cast<std::size_t>(cfg.numChannels)),
      cores(static_cast<std::size_t>(cfg.numCores), nullptr),
      chanStalled(static_cast<std::size_t>(cfg.numChannels), 0),
      channelProgress(static_cast<std::size_t>(cfg.numChannels), 0)
{
    for (int c = 0; c < cfg.activeCores; ++c)
        sides.push_back(std::make_unique<CoreSide>(cfg, c));
    for (int ch = 0; ch < cfg.numChannels; ++ch) {
        mcs.push_back(std::make_unique<MemoryController>(cfg.dram, ch,
                                                         cfg.numCores));
    }

    // The fill queue bounds all in-flight DRAM reads (every queued
    // read holds a live entry until its data drains), so it must
    // grow with the channel count or it, not the channels, caps
    // memory-level parallelism. The paper's 2-channel chip keeps
    // the Table 1 capacity exactly. Banked or not, capacity and ids
    // are one shared group: backpressure and drain order are global.
    l3FillGroup = std::make_unique<FillQueueGroup>(
        cfg.caches.l3FillQueue * channelLanes());

    // Bank the L3 per channel when the channel XOR-fold (line bits
    // [2, 2+4k)) lies entirely inside the set index, i.e. the channel
    // — and hence the bank — is a pure function of the set. Otherwise
    // (e.g. 8 channels folding above the default 13 set bits) a
    // single bank keeps the monolithic layout.
    const std::size_t g_sets =
        cfg.caches.l3Bytes / lineBytes / cfg.caches.l3Ways;
    const unsigned set_bits =
        static_cast<unsigned>(std::countr_zero(g_sets));
    const unsigned k = static_cast<unsigned>(
        std::countr_zero(static_cast<unsigned>(cfg.numChannels)));
    const bool banked = cfg.numChannels > 1 && 2 + 4 * k <= set_bits;
    const std::size_t num_banks =
        banked ? static_cast<std::size_t>(cfg.numChannels) : 1;
    const std::size_t local_sets = g_sets / num_banks;

    // Local-to-monolithic set translation per bank: squeezing the
    // folded field f1 (line bits [2, 2+k)) out of the set index is a
    // bijection per bank, because fixing the bank pins f1 from the
    // other three fields.
    std::vector<std::vector<std::size_t>> bank_sets(num_banks);
    SetIndexFold fold = SetIndexFold::identity(g_sets);
    if (banked) {
        fold.shift = k;
        fold.lowMask = 0x3ull;
        fold.highMask = (local_sets - 1) & ~0x3ull;
        for (auto &v : bank_sets)
            v.resize(local_sets);
        for (std::size_t s = 0; s < g_sets; ++s) {
            const int b = channelOfLine(static_cast<LineAddr>(s),
                                        cfg.numChannels);
            const std::size_t local =
                (s & fold.lowMask) | ((s >> fold.shift) & fold.highMask);
            bank_sets[static_cast<std::size_t>(b)][local] = s;
        }
    }

    auto policies = makeL3BankPolicies(num_banks, bank_sets);
    for (std::size_t b = 0; b < num_banks; ++b) {
        l3Banks.push_back(std::make_unique<L3Bank>(
            num_banks == 1 ? std::string("l3")
                           : "l3.b" + std::to_string(b),
            local_sets, cfg.caches.l3Ways, std::move(policies[b]), fold,
            *l3FillGroup));
    }

    if (cfg.prewarmL3) {
        // Occupy every L3 way with a clean placeholder line from an
        // address region no workload touches (top of the physical
        // space), attributed round-robin across the active cores so
        // the core-aware policies start from a neutral state. The
        // loop walks monolithic set ids in the historical order, so
        // the (shared) policy counters see the exact same insertion
        // sequence however many banks there are.
        for (std::size_t set = 0; set < g_sets; ++set) {
            for (unsigned w = 0; w < cfg.caches.l3Ways; ++w) {
                const LineAddr junk =
                    (1ull << (VirtualMemory::physBits - lineShift)) +
                    (static_cast<LineAddr>(w + 1) << set_bits) + set;
                CacheFill fill;
                fill.core = static_cast<CoreId>(w) % cfg.activeCores;
                fill.demand = true;
                bankFor(junk).cache.insert(junk, fill);
            }
        }
    }
}

void
MemHierarchy::attachCore(CoreId core, CoreModel *model)
{
    cores.at(static_cast<std::size_t>(core)) = model;
}

int
MemHierarchy::channelOf(LineAddr line) const
{
    return channelOfLine(line, cfg.numChannels);
}

// ---------------------------------------------------------------------------
// Core-side entry points
// ---------------------------------------------------------------------------

LoadOutcome
MemHierarchy::coreLoad(CoreId core, Addr vaddr, Addr pc,
                       std::uint32_t rob_tag, Cycle now)
{
    horizonStaleFlag.store(true, std::memory_order_relaxed);
    CoreSide &cs = side(core);
    cs.horizonDirty = true;
    const LineAddr line = lineOf(cs.vmem.translate(vaddr));

    // Structural check first so a Retry has no side effects.
    if (!cs.dl1.probe(line) && !cs.mshr.find(line) && cs.mshr.full())
        return {LoadOutcome::Kind::Retry, 0};

    std::uint64_t dummy1 = 0, dummy2 = 0;
    const bool c0 = core == 0;
    const unsigned tlb_pen = cs.tlb.demandAccess(
        cs.vmem.vpn(vaddr), c0 ? stats.dtlb1Misses : dummy1,
        c0 ? stats.tlb2Misses : dummy2);

    if (c0)
        ++stats.dl1Accesses;

    const CacheAccessResult res = cs.dl1.access(line, false, true);
    const Cycle data_at = now + tlb_pen + cfg.caches.dl1Latency;

    LoadOutcome out;
    if (res.hit) {
        out = {LoadOutcome::Kind::Hit, data_at};
    } else {
        if (c0)
            ++stats.dl1Misses;
        if (MshrEntry *m = cs.mshr.find(line)) {
            m->waiters.push_back(rob_tag);
            m->prefetchOnly = false;
            out = {LoadOutcome::Kind::Pending, 0};
        } else {
            const std::uint32_t id = cs.mshr.allocate(line, false, now);
            MshrEntry *fresh = cs.mshr.find(line);
            fresh->waiters.push_back(rob_tag);

            ReqMeta meta;
            meta.core = core;
            meta.type = ReqType::DemandRead;
            meta.needL1 = true;
            meta.mshrId = id;
            meta.birth = now;
            cs.toL2.push_back({line, meta, data_at});
            out = {LoadOutcome::Kind::Pending, 0};
        }
    }

    if ((!res.hit || res.prefetchedHit) && cs.stride) {
        if (auto target = cs.stride->onAccess(pc, vaddr))
            issueL1Prefetch(cs, pc, *target, now);
    }
    return out;
}

StoreOutcome
MemHierarchy::coreStore(CoreId core, Addr vaddr, Addr pc, Cycle now)
{
    horizonStaleFlag.store(true, std::memory_order_relaxed);
    CoreSide &cs = side(core);
    cs.horizonDirty = true;
    const LineAddr line = lineOf(cs.vmem.translate(vaddr));

    if (!cs.dl1.probe(line) && !cs.mshr.find(line) && cs.mshr.full())
        return {false, false};

    std::uint64_t dummy1 = 0, dummy2 = 0;
    const bool c0 = core == 0;
    const unsigned tlb_pen = cs.tlb.demandAccess(
        cs.vmem.vpn(vaddr), c0 ? stats.dtlb1Misses : dummy1,
        c0 ? stats.tlb2Misses : dummy2);

    if (c0)
        ++stats.dl1Accesses;

    const CacheAccessResult res = cs.dl1.access(line, true, true);

    StoreOutcome out;
    if (res.hit) {
        out = {true, true};
    } else {
        if (c0)
            ++stats.dl1Misses;
        if (MshrEntry *m = cs.mshr.find(line)) {
            m->prefetchOnly = false;
            m->storeIntent = true;
            ++m->storeWaiters;
        } else {
            const std::uint32_t id = cs.mshr.allocate(line, false, now);
            MshrEntry *fresh = cs.mshr.find(line);
            fresh->storeIntent = true;
            fresh->storeWaiters = 1;

            ReqMeta meta;
            meta.core = core;
            meta.type = ReqType::DemandRead; // write-allocate fetch
            meta.needL1 = true;
            meta.mshrId = id;
            meta.birth = now;
            cs.toL2.push_back(
                {line, meta, now + tlb_pen + cfg.caches.dl1Latency});
        }
        out = {true, false};
    }

    if ((!res.hit || res.prefetchedHit) && cs.stride) {
        if (auto target = cs.stride->onAccess(pc, vaddr))
            issueL1Prefetch(cs, pc, *target, now);
    }
    return out;
}

void
MemHierarchy::retireMemOp(CoreId core, Addr pc, Addr vaddr)
{
    CoreSide &cs = side(core);
    if (cs.stride)
        cs.stride->onRetire(pc, vaddr);
}

void
MemHierarchy::issueL1Prefetch(CoreSide &cs, Addr pc, Addr vaddr, Cycle now)
{
    (void)pc;
    const bool c0 = cs.id == 0;

    // Sec. 5.5: the prefetch address goes through the TLB2; a miss
    // drops the request (no TLB prefetching).
    if (!cs.tlb.prefetchProbe(cs.vmem.vpn(vaddr))) {
        if (c0)
            ++stats.dl1PrefDropTlb;
        return;
    }
    const LineAddr line = lineOf(cs.vmem.translate(vaddr));
    if (cs.dl1.probe(line) || cs.mshr.find(line) || cs.mshr.full())
        return;

    const std::uint32_t id = cs.mshr.allocate(line, true, now);
    ReqMeta meta;
    meta.core = cs.id;
    meta.type = ReqType::L1Prefetch;
    meta.needL1 = true;
    meta.l1PrefetchBit = true;
    meta.mshrId = id;
    meta.birth = now;
    cs.toL2.push_back({line, meta, now + cfg.caches.dl1Latency});
    if (c0)
        ++stats.dl1PrefIssued;
}

// ---------------------------------------------------------------------------
// L2 stage
// ---------------------------------------------------------------------------

void
MemHierarchy::triggerL2Prefetcher(CoreSide &cs, const L2AccessEvent &ev)
{
    const bool c0 = cs.id == 0;
    cs.prefetchScratch.clear();
    cs.l2pf->onAccess(ev, cs.prefetchScratch);

    for (const LineAddr target : cs.prefetchScratch) {
        // Degree-N prefetchers (SBP) check the L2 tags before issuing.
        if (cs.l2pf->requiresTagCheck() && cs.l2.probe(target)) {
            if (c0)
                ++stats.l2PrefDropped;
            continue;
        }
        // Redundant-request removal: the fill queues, prefetch queue
        // and memory-controller read queues are searched (Sec. 6.3).
        if (cs.l2Fill.find(target) || cs.prefetchQueue.contains(target) ||
            controller(channelOf(target)).readQueueContains(target)) {
            if (c0)
                ++stats.l2PrefDropped;
            continue;
        }

        ReqMeta meta;
        meta.core = cs.id;
        meta.type = ReqType::L2Prefetch;
        meta.needL2 = true;
        meta.wasL2Prefetch = true;
        meta.prefetchOffset = cs.l2pf->currentOffset();
        meta.birth = ev.cycle;

        touched(cs);
        const bool cancelled =
            cs.prefetchQueue.insert({target, meta, ev.cycle + 1});
        if (c0) {
            ++stats.l2PrefIssued;
            if (cancelled)
                ++stats.l2PrefDropped;
        }
    }
}

void
MemHierarchy::processToL2(CoreSide &cs, Cycle now)
{
    const bool c0 = cs.id == 0;
    for (unsigned n = 0; n < l2ReqsPerCycle && !cs.toL2.empty(); ++n) {
        PendingReq &req = cs.toL2.front();
        if (req.readyAt > now)
            break;

        // Gate the miss path before touching the cache, so a blocked
        // miss retries with no side effects (no stat double-counting),
        // as in processToL3.
        FillQueueEntry *e = cs.l2Fill.find(req.line);
        if (!e && !cs.l2.probe(req.line) && !cs.l2Fill.canAllocateWaiting())
            break; // backpressure: miss cannot issue yet
        touched(cs);

        // Fill-queue CAM: an in-flight block absorbs this request.
        if (e) {
            if (e->isPrefetch) {
                // Late-prefetch promotion (Sec. 5.4).
                e->isPrefetch = false;
                e->meta.needL1 = req.meta.needL1;
                e->meta.mshrId = req.meta.mshrId;
                e->meta.l1PrefetchBit = req.meta.type == ReqType::L1Prefetch;
                if (e->meta.wasL2Prefetch)
                    cs.l2pf->onLatePromotion(req.line, now);
                if (c0)
                    ++stats.l2LatePromotions;
            }
            // A demand entry for the same line cannot carry two MSHRs;
            // the DL1 MSHR coalescing prevents that case entirely.
            cs.toL2.pop_front();
            continue;
        }

        const CacheAccessResult res = cs.l2.access(req.line, false, true);
        if (c0)
            ++stats.l2Accesses;

        if (res.hit) {
            if (res.prefetchedHit && c0)
                ++stats.l2PrefetchedHits;
            deliverToDl1(cs, req.line, req.meta,
                         now + cfg.caches.l2Latency);
        } else {
            if (c0)
                ++stats.l2Misses;
            ReqMeta meta = req.meta;
            meta.l2FillId = cs.l2Fill.allocate(req.line, meta, false);
            // Staged, not pushed: the global toL3 queues (and the seq
            // stamp) are shared across cores, so the hand-off happens
            // at the serial commitIngress barrier, in core order —
            // which is exactly the order the serial loop produced.
            cs.stagedToL3.push_back(
                {req.line, meta, now + cfg.caches.l2TagLatency, 0});
        }

        if (!res.hit || res.prefetchedHit) {
            triggerL2Prefetcher(
                cs, {req.line, !res.hit, res.prefetchedHit, now});
        }
        cs.toL2.pop_front();
    }
}

void
MemHierarchy::processWbToL2(CoreSide &cs, Cycle now)
{
    for (unsigned n = 0; n < wbPerCycle && !cs.wbToL2.empty(); ++n) {
        const LineAddr line = cs.wbToL2.front();
        // A miss leaves the cache untouched, so a blocked retry is
        // side-effect free.
        const CacheAccessResult res = cs.l2.access(line, true, false);
        if (!res.hit) {
            if (cs.l2Fill.full())
                break;
            ReqMeta meta;
            meta.core = cs.id;
            meta.type = ReqType::Writeback;
            cs.l2Fill.allocateWithData(line, meta, false, now + 1);
        }
        touched(cs);
        cs.wbToL2.pop_front();
    }
}

// ---------------------------------------------------------------------------
// L3 stage
// ---------------------------------------------------------------------------

void
MemHierarchy::processToL3(Cycle now)
{
    // Sharded L3 demand stage: every channel owns a queue, and the
    // arbiter serves channel heads in global arrival (seq) order so a
    // balanced stream behaves exactly like the historical single
    // queue. A structurally blocked head stalls only its own channel
    // for the rest of the cycle; requests bound for other channels
    // keep flowing, which is what lets the stage scale with the
    // channel count.
    const unsigned budget = l3DemandsPerCycle * channelLanes();
    std::fill(chanStalled.begin(), chanStalled.end(), 0);

    for (unsigned n = 0; n < budget; ++n) {
        // Oldest head among the channels still serviceable this cycle.
        std::size_t best = toL3.size();
        for (std::size_t ch = 0; ch < toL3.size(); ++ch) {
            if (chanStalled[ch] || toL3[ch].empty())
                continue;
            if (best == toL3.size() ||
                toL3[ch].front().seq < toL3[best].front().seq)
                best = ch;
        }
        if (best == toL3.size())
            break; // nothing serviceable left

        std::deque<PendingReq> &q = toL3[best];
        PendingReq &req = q.front();
        // Arrival order implies readyAt order, so if the globally
        // oldest head is not due yet nothing younger is either.
        if (req.readyAt > now)
            break;
        CoreSide &cs = side(req.meta.core);
        const bool c0 = req.meta.core == 0;
        L3Bank &bank = bankFor(req.line);

        // L3 fill-queue CAM: promote an in-flight prefetch of ours.
        // An in-flight entry for this line can only live in the
        // line's own bank, so the CAM probe stays bank-local.
        if (FillQueueEntry *e = bank.fill.find(req.line)) {
            if (e->isPrefetch && e->meta.core == req.meta.core) {
                e->isPrefetch = false;
                e->meta.needL2 = true;
                e->meta.needL1 = req.meta.needL1;
                e->meta.mshrId = req.meta.mshrId;
                e->meta.l1PrefetchBit = req.meta.l1PrefetchBit;
                // The demand's reserved L2 fill entry is dropped; the
                // promoted block allocates its own on arrival.
                touched(cs);
                cs.l2Fill.release(req.meta.l2FillId);
                if (e->meta.wasL2Prefetch)
                    cs.l2pf->onLatePromotion(req.line, now);
                if (c0)
                    ++stats.l2LatePromotions;
                q.pop_front();
                continue;
            }
            // Same line in flight for another core: fall through and
            // fetch a duplicate (cores do not share data in practice).
        }

        // Check the miss path's structural gates *before* touching the
        // cache, so a blocked request retries with no side effects
        // (no stat double-counting, no replacement churn). A full L3
        // fill queue is global backpressure — every channel's misses
        // need an entry, so the whole stage stops, as it always has. A
        // full per-core read queue is channel-local congestion: only
        // this channel stalls and the others keep draining.
        const bool will_hit = bank.cache.probe(req.line);
        if (!will_hit) {
            if (l3FillFull())
                break; // retry next cycle
            if (controller(static_cast<int>(best))
                    .readQueueFull(req.meta.core)) {
                chanStalled[best] = 1; // others continue
                ++bank.l3ChannelStalls;
                uncoreProgress = true; // a counted stall is no no-op
                continue;
            }
        }

        bank.cache.access(req.line, false, false);
        if (c0)
            ++bank.l3Accesses;

        if (will_hit) {
            touched(cs);
            cs.l2Fill.fillData(req.meta.l2FillId,
                               now + cfg.caches.l3Latency);
        } else {
            if (c0)
                ++bank.l3Misses;
            // Sec. 5.4: on an L3 miss the L2 fill entry is released and
            // the request becomes an L1/L2/L3 miss.
            touched(cs);
            cs.l2Fill.release(req.meta.l2FillId);
            ReqMeta meta = req.meta;
            meta.l2FillId = invalidMshr;
            meta.needL2 = true;
            meta.l3FillId = bank.fill.allocate(req.line, meta, false);
            // Keep the fill-queue entry's own meta in sync with the id.
            bank.fill.entry(meta.l3FillId).meta = meta;
            controller(static_cast<int>(best))
                .enqueueRead(req.line, meta,
                             now + cfg.caches.l3TagLatency);
        }
        q.pop_front();
    }
}

void
MemHierarchy::processPrefetchQueues(Cycle now)
{
    // Prefetch issue is round-robin over the cores' prefetch queues (a
    // per-core resource); the per-cycle budget scales with the channel
    // count like the demand stage. A prefetch whose target channel is
    // congested stays queued without blocking other cores (continue,
    // not break), so the path is already channel-sharded.
    const unsigned budget = l3PrefetchesPerCycle * channelLanes();
    const unsigned active = static_cast<unsigned>(cfg.activeCores);
    for (unsigned n = 0; n < budget; ++n) {
        bool issued = false;
        for (int i = 0; i < cfg.activeCores && !issued; ++i) {
            // Round-robin wrap without the runtime-divisor modulo (this
            // scan runs every cycle): both operands are < active.
            unsigned rr = prefetchRr + static_cast<unsigned>(i);
            if (rr >= active)
                rr -= active;
            const CoreId c = static_cast<CoreId>(rr);
            CoreSide &cs = side(c);
            const PrefetchRequest *req = cs.prefetchQueue.peekReady(now);
            if (!req)
                continue;
            const bool c0 = c == 0;
            L3Bank &bank = bankFor(req->line);

            if (bank.fill.find(req->line)) {
                // Already being fetched: redundant prefetch.
                touched(cs);
                cs.prefetchQueue.popFront(now);
                if (c0)
                    ++stats.l2PrefDropped;
                issued = true;
                continue;
            }

            // Gate before accessing, so retries have no side effects.
            const bool will_hit = bank.cache.probe(req->line);
            if (will_hit) {
                if (cs.l2Fill.full())
                    continue; // leave in queue, retry
                bank.cache.access(req->line, false, false);
                touched(cs);
                cs.l2Fill.allocateWithData(req->line, req->meta, true,
                                           now + cfg.caches.l3Latency);
                cs.prefetchQueue.popFront(now);
                issued = true;
            } else {
                const int ch = channelOf(req->line);
                if (l3FillFull() || controller(ch).readQueueFull(c))
                    continue; // leave in queue, retry
                ReqMeta meta = req->meta;
                meta.l3FillId = bank.fill.allocate(req->line, meta, true);
                bank.fill.entry(meta.l3FillId).meta = meta;
                controller(ch).enqueueRead(req->line, meta,
                                           now + cfg.caches.l3TagLatency);
                touched(cs);
                cs.prefetchQueue.popFront(now);
                issued = true;
            }
        }
        if (++prefetchRr >= active)
            prefetchRr = 0;
        if (!issued)
            break;
    }
}

void
MemHierarchy::drainDramCompletions(Cycle now)
{
    for (auto &mc : mcs) {
        // Most completed reads sit with a future finishCycle (the data
        // burst is still on the bus); the min-finish gate spares both
        // the vector round trip and the erase scan until one is due.
        if (mc->nextCompletionAt() > now)
            continue;
        for (const CompletedRead &r : mc->popCompleted(now)) {
            assert(r.meta.l3FillId != invalidMshr);
            bankFor(r.line).fill.fillData(r.meta.l3FillId, now + 1);
            uncoreProgress = true;
        }
    }
}

bool
MemHierarchy::drainOneL3Fill(Cycle now)
{
    // The architectural (single) fill queue drains its oldest ready
    // entry. Banked, that is the minimum-id ready head across banks:
    // each bank's FIFO order is id order and ids are one global
    // monotonic sequence, so the merge reproduces the monolithic
    // drain order exactly. (Circular id compare, immune to wrap.)
    L3Bank *bank = nullptr;
    FillQueueEntry *e = nullptr;
    for (auto &b : l3Banks) {
        FillQueueEntry *cand = b->fill.peekReady(now);
        if (cand &&
            (!e || static_cast<std::int32_t>(cand->id - e->id) < 0)) {
            e = cand;
            bank = b.get();
        }
    }
    if (!e)
        return false;

    const LineAddr line = e->line;
    CoreSide &cs = side(e->meta.core);

    if (e->meta.needL2 && cs.l2Fill.full())
        return false; // forwarding target full: stall

    const bool will_insert = !bank->cache.probe(line);
    if (will_insert) {
        const CacheVictim victim = bank->cache.peekVictim(line);
        if (victim.valid && victim.dirty &&
            controller(channelOf(victim.line))
                .writeQueueFull(victim.core)) {
            return false; // cannot sink the dirty victim: stall
        }
    }

    const FillQueueEntry entry = *e;
    bank->fill.removeById(e->id);
    uncoreProgress = true;

    if (will_insert) {
        CacheFill fill;
        fill.core = entry.meta.core;
        fill.demand = !entry.isPrefetch &&
                      entry.meta.type != ReqType::Writeback;
        fill.markDirty = entry.meta.type == ReqType::Writeback;
        // A victim shares the fill's set, hence its bank — and the
        // bank's channel, so the dirty writeback sinks into the
        // bank's own controller.
        const CacheVictim victim = bank->cache.insert(line, fill);
        if (victim.valid && victim.dirty) {
            controller(channelOf(victim.line))
                .enqueueWrite(victim.line, victim.core, now);
        }
    }

    if (entry.meta.needL2) {
        touched(cs);
        cs.l2Fill.allocateWithData(line, entry.meta, entry.isPrefetch,
                                   now + 1);
    }
    return true;
}

void
MemHierarchy::processWbToL3(Cycle now)
{
    for (unsigned n = 0; n < wbPerCycle && !wbToL3.empty(); ++n) {
        if (l3FillFull())
            break;
        auto [line, core] = wbToL3.front();
        ReqMeta meta;
        meta.core = core;
        meta.type = ReqType::Writeback;
        bankFor(line).fill.allocateWithData(line, meta, false, now + 1);
        wbToL3.pop_front();
        uncoreProgress = true;
    }
}

// ---------------------------------------------------------------------------
// Fills into L2 / DL1
// ---------------------------------------------------------------------------

void
MemHierarchy::deliverToDl1(CoreSide &cs, LineAddr line, const ReqMeta &meta,
                           Cycle at)
{
    touched(cs);
    cs.dl1Due.push_back({line, meta, at});
}

void
MemHierarchy::drainL2Fill(CoreSide &cs, Cycle now)
{
    const bool c0 = cs.id == 0;
    for (unsigned n = 0; n < l2FillsPerCycle; ++n) {
        auto popped = cs.l2Fill.popReady(now);
        if (!popped)
            return;
        touched(cs);
        FillQueueEntry &entry = *popped;

        // Mandatory tag check before inserting (Sec. 5.4): redundant
        // prefetch paths may have filled the line already.
        if (!cs.l2.probe(entry.line)) {
            CacheFill fill;
            fill.core = entry.meta.core;
            fill.demand = !entry.isPrefetch &&
                          entry.meta.type != ReqType::Writeback;
            fill.markPrefetch = entry.isPrefetch;
            fill.markDirty = entry.meta.type == ReqType::Writeback;
            const CacheVictim victim = cs.l2.insert(entry.line, fill);
            // Staged: wbToL3 is global, so the hand-off crosses the
            // shard boundary at the serial commitEgress merge.
            if (victim.valid && victim.dirty)
                cs.stagedWbToL3.push_back({victim.line, entry.meta.core});
            if (victim.valid) {
                cs.l2pf->onEvict({victim.line, victim.prefetchBit,
                                  entry.isPrefetch, now});
                if (victim.prefetchBit && c0)
                    ++stats.l2PrefUselessEvicted;
            }

            if (entry.meta.type != ReqType::Writeback) {
                cs.l2pf->onFill(
                    {entry.line, entry.meta.wasL2Prefetch, now});
                if (entry.isPrefetch && c0)
                    ++stats.l2PrefFills;
            }
        }

        if (entry.meta.needL1)
            deliverToDl1(cs, entry.line, entry.meta, now + 1);
    }
}

void
MemHierarchy::processDl1Deliveries(CoreSide &cs, Cycle now)
{
    std::size_t keep = 0;
    for (std::size_t i = 0; i < cs.dl1Due.size(); ++i) {
        Dl1Delivery &d = cs.dl1Due[i];
        if (d.at > now) {
            cs.dl1Due[keep++] = d;
            continue;
        }
        touched(cs);

        // Deliveries are strictly core-local; the completion callback
        // below must target this side's own core (parallel egress).
        assert(d.meta.core == cs.id);
        auto m = cs.mshr.complete(d.line);
        const bool store_intent = m && m->storeIntent;
        const bool prefetch_only = m && m->prefetchOnly;

        if (!cs.dl1.probe(d.line)) {
            CacheFill fill;
            fill.core = d.meta.core;
            fill.demand = !prefetch_only;
            fill.markPrefetch = d.meta.l1PrefetchBit && prefetch_only;
            fill.markDirty = store_intent;
            const CacheVictim victim = cs.dl1.insert(d.line, fill);
            if (victim.valid && victim.dirty)
                cs.wbToL2.push_back(victim.line);
        } else if (store_intent) {
            cs.dl1.access(d.line, true, false);
        }

        if (m) {
            CoreModel *core = cores[static_cast<std::size_t>(d.meta.core)];
            for (const std::uint32_t tag : m->waiters)
                core->loadCompleted(tag, now);
            if (m->storeWaiters > 0)
                core->storeCompleted(m->storeWaiters);
        }
    }
    cs.dl1Due.resize(keep);
}

// ---------------------------------------------------------------------------
// Top-level tick + stats
// ---------------------------------------------------------------------------

void
MemHierarchy::tick(Cycle now)
{
    // The serial tick IS the phase sequence: the parallel epochs in
    // System run exactly these calls with the per-core / per-channel
    // phases spread over the worker pool, so threads=N and threads=1
    // execute the same state transitions in the same order.
    for (auto &sd : sides)
        tickCoreIngress(sd->id, now);
    commitIngress(now);
    for (int ch = 0; ch < channelCount(); ++ch)
        tickChannel(ch, now);
    drainUncore(now);
    for (auto &sd : sides)
        tickCoreEgress(sd->id, now);
    commitEgress(now);
}

void
MemHierarchy::tickCoreIngress(CoreId core, Cycle now)
{
    // One gate for the serial tick and the parallel engine: a side
    // with nothing due would only re-scan its empty or future queues.
    if (!coreIngressWork(core, now))
        return;
    CoreSide &cs = side(core);
    processWbToL2(cs, now);
    processToL2(cs, now);
}

void
MemHierarchy::commitIngress(Cycle now)
{
    horizonStaleFlag.store(true, std::memory_order_relaxed);
    ++ticks;

    // Jump-safety for the one piece of per-tick state that advances
    // even when the uncore is idle: processPrefetchQueues moves the
    // round-robin pointer by exactly one on every tick that issues
    // nothing. A fast-forwarded stretch is by construction a run of
    // such ticks (no prefetch-queue entry was ready anywhere in it, or
    // every ready head was blocked under the stall latch), so catching
    // the pointer up by the gap keeps the arbitration order
    // bit-identical to single-stepping.
    if (now > lastTicked + 1) {
        const Cycle gap = now - lastTicked - 1;
        if (stallLatched && latchDropped)
            stalledSkips += gap; // each would have re-polled a head
        const unsigned active = static_cast<unsigned>(cfg.activeCores);
        prefetchRr = static_cast<unsigned>(
            (prefetchRr + gap) % active);
    }
    lastTicked = now;

    // Merge the staged L2 misses into the global sharded queues in
    // core order — exactly the order the serial per-side loop used to
    // push them — stamping the global arrival seq at the merge point.
    for (auto &sd : sides) {
        for (PendingReq &req : sd->stagedToL3) {
            req.seq = toL3Seq++;
            toL3[static_cast<std::size_t>(channelOf(req.line))]
                .push_back(req);
        }
        sd->stagedToL3.clear();
    }

    processToL3(now);
    processPrefetchQueues(now);

    // Latched for the channel phase, which must not read the (shared)
    // fill-queue group while its siblings tick concurrently.
    l3FillWasFull = l3FillFull();
}

void
MemHierarchy::tickChannel(int channel, Cycle now)
{
    MemoryController &mc = controller(channel);
    mc.setL3FillQueueFull(l3FillWasFull);
    channelProgress[static_cast<std::size_t>(channel)] = mc.tick(now);
}

void
MemHierarchy::drainUncore(Cycle now)
{
    drainDramCompletions(now);

    for (unsigned n = 0; n < l3FillsPerCycle; ++n) {
        if (!drainOneL3Fill(now))
            break;
    }
    processWbToL3(now);
}

void
MemHierarchy::tickCoreEgress(CoreId core, Cycle now)
{
    if (!coreEgressWork(core, now))
        return;
    CoreSide &cs = side(core);
    drainL2Fill(cs, now);
    processDl1Deliveries(cs, now);
}

void
MemHierarchy::commitEgress(Cycle now)
{
    (void)now;
    // Merge the staged L2 victims in core order. The serial loop
    // pushed them directly, but nothing reads wbToL3 between the
    // egress stages and the end of the tick, so deferring the pushes
    // to the barrier leaves next cycle's processWbToL3 input
    // identical. (A victim is only staged by a fill, which already
    // marked its side's progress.)
    bool progress = uncoreProgress;
    for (auto &sd : sides) {
        for (const auto &wb : sd->stagedWbToL3)
            wbToL3.push_back(wb);
        sd->stagedWbToL3.clear();
        progress |= sd->progress;
        sd->progress = false;
    }
    for (char &ch : channelProgress) {
        progress |= ch != 0;
        ch = 0;
    }
    uncoreProgress = false;
    stallLatched = !progress;
}

bool
MemHierarchy::coreIngressWork(CoreId core, Cycle now) const
{
    const CoreSide &cs = *sides[static_cast<std::size_t>(core)];
    return !cs.wbToL2.empty() ||
           (!cs.toL2.empty() && cs.toL2.front().readyAt <= now);
}

bool
MemHierarchy::coreEgressWork(CoreId core, Cycle now) const
{
    const CoreSide &cs = *sides[static_cast<std::size_t>(core)];
    if (cs.l2Fill.minReadyAt() <= now)
        return true;
    for (const Dl1Delivery &d : cs.dl1Due) {
        if (d.at <= now)
            return true;
    }
    return false;
}

Cycle
MemHierarchy::nextEventAt(Cycle now) const
{
    const Cycle next = now + 1;
    Cycle ev = neverCycle;

    // Under the stall latch, sources due at or before the last tick
    // are heads that tick found blocked: drop them (see the header).
    const Cycle blockedBelow = stallLatched ? lastTicked + 1 : 0;
    latchDropped = false;

    // Helper: fold in a time-gated event; a source already due (or due
    // next cycle) pins the horizon to next, which short-circuits the
    // caller via the `ev == next` checks below.
    const auto fold = [&](Cycle at) {
        if (at < blockedBelow) {
            latchDropped = true;
            return;
        }
        ev = std::min(ev, std::max(next, at));
    };

    // Per-side horizon sub-cache: each side's sources are kept in
    // ABSOLUTE cycles (0 = "due whenever ticked", an occupied
    // writeback buffer; neverCycle = idle) so they stay valid as `now`
    // advances. A side recomputes only when something actually
    // mutated it (horizonDirty); untouched sides fold the cached
    // values and skip their queue scans entirely. Single-threaded by
    // contract (the fast-forward decision point), hence the plain
    // mutation of the cache fields through the const interface.
    for (const auto &sd : sides) {
        if (sd->horizonDirty) {
            sd->wbHead = sd->wbToL2.empty() ? neverCycle : 0;
            // The DL1-miss path and the prefetch queue are FIFOs in
            // readyAt order that only ever try their oldest ready
            // entry: the front gates.
            sd->toL2Head =
                sd->toL2.empty() ? neverCycle : sd->toL2.front().readyAt;
            sd->prefetchHead = sd->prefetchQueue.minReadyAt();
            // Fill-queue entries carrying data insert at their
            // readyAt; data-less entries wait on downstream
            // components' events.
            Cycle fills = sd->l2Fill.minReadyAt();
            for (const Dl1Delivery &d : sd->dl1Due)
                fills = std::min(fills, d.at);
            sd->fillHorizon = fills;
            sd->horizonDirty = false;
        }
        fold(sd->wbHead);
        fold(sd->toL2Head);
        fold(sd->prefetchHead);
        fold(sd->fillHorizon);
        if (ev == next)
            return next;
    }

    // Sharded L3 demand queues: served in global arrival order, and
    // arrival order implies readyAt order within a shard, so the
    // shard heads bound the next serviceable request.
    for (const auto &q : toL3) {
        if (!q.empty())
            fold(q.front().readyAt);
    }
    if (!wbToL3.empty())
        fold(0);
    for (const auto &b : l3Banks) {
        // The drain tries the oldest ready entry across banks; when
        // that one is blocked, a later arrival may still be older in
        // drain order, so the latch keeps the bank's next readyAt.
        const Cycle at = b->fill.minReadyAt();
        fold(at);
        if (at < blockedBelow)
            fold(b->fill.minReadyAfter(lastTicked));
        if (ev == next)
            return next;
    }

    for (const auto &mc : mcs) {
        fold(mc->nextEventAt(now));
        if (ev == next)
            return next;
    }
    return ev;
}

RunStats
MemHierarchy::collectStats() const
{
    RunStats out = stats;
    // L3 stats live in per-bank shards so the (serial, but
    // bank-routed) L3 stages never share a counter cache line;
    // the sums are order-independent, merged bank 0..N-1.
    for (const auto &b : l3Banks) {
        out.l3Accesses += b->l3Accesses;
        out.l3Misses += b->l3Misses;
        out.l3ChannelStalls += b->l3ChannelStalls;
    }
    for (const auto &mc : mcs) {
        const DramChannelStats &s = mc->stats();
        out.dramReads += s.reads;
        out.dramWrites += s.writes;
        out.dramRowHits += s.rowHits;
        out.dramRowMisses += s.rowMisses;
    }
    if (const auto *bo = dynamic_cast<const BestOffsetPrefetcher *>(
            sides[0]->l2pf.get())) {
        out.boLearningPhases = bo->learningPhases();
        out.boPrefetchOffPhases = bo->offPhases();
        out.boFinalOffset = bo->currentOffset();
        out.boFinalScore = bo->lastPhaseBestScore();
    }
    return out;
}

bool
MemHierarchy::anyToL3() const
{
    for (const auto &q : toL3) {
        if (!q.empty())
            return true;
    }
    return false;
}

bool
MemHierarchy::quiescent() const
{
    if (anyToL3() || !wbToL3.empty() || l3FillSize() > 0)
        return false;
    for (const auto &side : sides) {
        if (!side->toL2.empty() || !side->wbToL2.empty() ||
            !side->dl1Due.empty() || side->l2Fill.size() > 0 ||
            !side->prefetchQueue.empty() || side->mshr.size() > 0) {
            return false;
        }
    }
    for (const auto &mc : mcs) {
        if (mc->anyPending())
            return false;
    }
    return true;
}

void
MemHierarchy::serialize(Serializer &s)
{
    auto pending_req = [](Serializer &sr, PendingReq &r) {
        sr.value(r.line);
        r.meta.serialize(sr);
        sr.value(r.readyAt);
        sr.value(r.seq);
    };

    for (auto &sp : sides) {
        CoreSide &cs = *sp;
        // The staging buffers and prefetch scratch only carry state
        // *inside* one tick; a checkpoint is taken between ticks.
        assert(cs.stagedToL3.empty() && cs.stagedWbToL3.empty());
        cs.dl1.serialize(s);
        cs.l2.serialize(s);
        cs.mshr.serialize(s);
        cs.l2Fill.serialize(s);
        cs.prefetchQueue.serialize(s);
        cs.l2pf->serialize(s);
        if (cs.stride)
            cs.stride->serialize(s);
        cs.tlb.serialize(s);
        s.seq(cs.toL2, pending_req);
        s.seq(cs.wbToL2, [](Serializer &sr, LineAddr &l) {
            sr.value(l);
        });
        s.seq(cs.dl1Due, [](Serializer &sr, Dl1Delivery &d) {
            sr.value(d.line);
            d.meta.serialize(sr);
            sr.value(d.at);
        });
        if (s.loading())
            cs.horizonDirty = true;
    }

    // The shared fill-queue group exactly once, before the banks (whose
    // FillQueue::serialize skips it — they don't own it).
    std::uint64_t group_live = l3FillGroup->liveEntries;
    s.value(group_live);
    s.value(l3FillGroup->nextId);
    if (s.loading()) {
        if (group_live > l3FillGroup->capacity)
            s.fail("L3 fill-queue group occupancy out of range");
        l3FillGroup->liveEntries = static_cast<std::size_t>(group_live);
    }
    for (auto &bp : l3Banks) {
        L3Bank &b = *bp;
        b.cache.serialize(s);
        b.fill.serialize(s);
        s.value(b.l3Accesses);
        s.value(b.l3Misses);
        s.value(b.l3ChannelStalls);
    }

    const std::size_t channels = toL3.size();
    for (auto &q : toL3)
        s.seq(q, pending_req);
    s.value(toL3Seq);
    s.seq(wbToL3, [](Serializer &sr, std::pair<LineAddr, CoreId> &wb) {
        sr.value(wb.first);
        sr.value(wb.second);
    });
    s.value(prefetchRr);
    s.value(lastTicked);
    s.value(l3FillWasFull);
    stats.serialize(s);
    if (s.loading()) {
        if (toL3.size() != channels)
            s.fail("L3 demand shard count mismatch");
        horizonStaleFlag.store(true, std::memory_order_relaxed);
        // The latch is not checkpointed: the first tick after a
        // restore polls every head.
        stallLatched = false;
    }
}

void
MemHierarchy::serializeDram(Serializer &s)
{
    for (auto &mc : mcs)
        mc->serialize(s);
}

} // namespace bop
