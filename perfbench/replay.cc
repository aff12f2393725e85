#include "replay.hh"

#include <algorithm>
#include <memory>
#include <optional>
#include <unordered_map>

#include "core/morc.hh"
#include "mesh/banked_llc.hh"
#include "mesh/noc.hh"
#include "sim/l1.hh"
#include "sim/memchannel.hh"
#include "sim/scheme.hh"
#include "stats/summary.hh"
#include "util/rng.hh"

namespace morc {
namespace perfbench {

std::vector<std::uint64_t>
sliceTargets(std::uint64_t measure, std::uint64_t slice)
{
    std::vector<std::uint64_t> out;
    for (std::uint64_t t = slice; t < measure; t += slice)
        out.push_back(t);
    out.push_back(measure);
    return out;
}

namespace {

using Clock = Spans::Clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

// ------------------------------------------------------------------
// Sim workloads: sim::System::step and runUntil, layer by layer.
// ------------------------------------------------------------------

enum SimSpan : unsigned
{
    TraceNext,
    TraceValueLine,
    SimL1,
    SimDram,
    SimChannel,
    MeshNoc,
    SimCacheRead,
    SimCacheInsert,
    SimStep, // root: the scheduler loop outside every layer call
    SimCheck,
};

class SimReplay
{
  public:
    explicit SimReplay(const SimSetup &setup)
        : cfg_(setup.cfg), llc_(buildLlc(cfg_)),
          channel_(cfg_.bandwidthPerCore * cfg_.numCores, cfg_.clockHz,
                   cfg_.dramCycles),
          ratio_(cfg_.ratioSampleInterval),
          spans_({"trace.next", "trace.value_line", "sim.l1", "sim.dram",
                  "sim.channel", "mesh.noc", "cache.read",
                  "cache.insert", "sim.step", "replay.check"})
    {
        cores_.resize(cfg_.numCores);
        for (unsigned i = 0; i < cfg_.numCores; i++) {
            cores_[i].trace = std::make_unique<trace::ThreadTrace>(
                setup.programs[i], i, i);
            cores_[i].l1 = sim::L1Cache(cfg_.l1Bytes, cfg_.l1Ways);
            cores_[i].result.program = setup.programs[i].name;
        }
        if (cfg_.useMesh) {
            banked_ = static_cast<mesh::BankedLlc *>(llc_.get());
            noc_ = std::make_unique<mesh::Noc>(cfg_.meshCfg);
            const double per_channel = cfg_.bandwidthPerCore *
                                       cfg_.numCores /
                                       cfg_.meshCfg.memControllers;
            for (unsigned c = 0; c < cfg_.meshCfg.memControllers; c++)
                channels_.emplace_back(per_channel, cfg_.clockHz,
                                       cfg_.dramCycles);
        }
    }

    SimReplayResult
    run(const Budget &budget, std::uint64_t slice,
        std::uint64_t warmup_slice)
    {
        SimReplayResult out;
        if (budget.warmup > 0) {
            for (std::uint64_t target :
                 sliceTargets(budget.warmup, warmup_slice))
                runUntil(target);
            out.warmupWritebacks = llc_->stats().victimWritebacks;
            clearAfterWarmup();
        }
        spans_.reset();
        insertWritebacks_ = 0;
        channelWait_ = 0;
        mismatches_ = 0;
        iterations_ = 0;

        const Clock::time_point t0 = Clock::now();
        spans_.begin(SimStep);
        for (std::uint64_t target : sliceTargets(budget.measure, slice))
            runUntil(target);
        spans_.end();
        const double window = secondsSince(t0);
        spans_.setCalls(SimStep, iterations_);

        sim::RunResult &r = out.result;
        for (const Core &c : cores_) {
            r.cores.push_back(c.result);
            r.completionCycles =
                std::max(r.completionCycles, c.result.cycles);
        }
        r.compressionRatio = ratio_.mean(llc_->compressionRatio());
        if (noc_) {
            for (const sim::MemoryChannel &ch : channels_) {
                r.memReads += ch.reads();
                r.memWrites += ch.writes();
            }
            out.nocQueueCycles = noc_->queueCycleSum();
            out.nocMeanHops = noc_->meanHops();
        } else {
            r.memReads = channel_.reads();
            r.memWrites = channel_.writes();
        }
        r.totalInstructions = totalInstructions_;
        r.llcStats = llc_->stats();

        out.insertWritebacks = insertWritebacks_;
        out.channelWaitCycles = channelWait_;
        out.checks.functionalMismatches = mismatches_;
        out.checks.checkSeconds = spans_.selfSeconds(SimCheck);
        out.checks.windowSeconds = window - out.checks.checkSeconds;
        out.checks.audit = llc_->audit();
        out.spans = spans_;
        return out;
    }

  private:
    struct Core
    {
        std::unique_ptr<trace::ThreadTrace> trace;
        sim::L1Cache l1;
        sim::CoreResult result;
        std::unordered_map<Addr, std::uint32_t> versions;
        double gapSum = 0.0;
        Cycles lastMissCycle = 0;
    };

    /** The flat or banked LLC, as sim::System builds it. */
    static std::unique_ptr<cache::Llc>
    buildLlc(const sim::SystemConfig &cfg)
    {
        const std::uint64_t total =
            cfg.llcBytesPerCore * cfg.numCores *
            (cfg.scheme == sim::Scheme::Uncompressed8x ? 8 : 1);
        const core::MorcConfig *morc =
            cfg.useMorcOverride ? &cfg.morc : nullptr;
        if (!cfg.useMesh)
            return sim::makeLlc(cfg.scheme, total, morc);
        return std::make_unique<mesh::BankedLlc>(
            cfg.meshCfg, total,
            [&cfg, morc](unsigned, std::uint64_t bank_bytes) {
                return sim::makeLlc(cfg.scheme, bank_bytes, morc);
            });
    }

    static Addr
    localLine(Addr addr)
    {
        return lineNumber(addr & ((1ull << 40) - 1));
    }

    unsigned
    coreTile(unsigned core_idx) const
    {
        return core_idx % cfg_.meshCfg.tiles();
    }

    std::uint32_t
    version(const Core &core, Addr lnum) const
    {
        const auto it = core.versions.find(lnum);
        return it == core.versions.end() ? 0u : it->second;
    }

    /** Functional check, outside every layer span. */
    void
    checkLine(const Core &core, Addr lnum, const CacheLine *got)
    {
        spans_.call(SimCheck, [&] {
            const CacheLine want =
                core.trace->values().line(lnum, version(core, lnum));
            if (!got || !(*got == want))
                mismatches_++;
        });
    }

    CacheLine
    valueLine(const Core &core, Addr lnum, std::uint32_t ver)
    {
        return spans_.call(TraceValueLine, [&] {
            return core.trace->values().line(lnum, ver);
        });
    }

    Cycles
    nocTransfer(unsigned from, unsigned to, unsigned bytes, Cycles now)
    {
        return spans_.call(MeshNoc, [&] {
            return noc_->transfer(from, to, bytes, now);
        });
    }

    Cycles
    channelRead(sim::MemoryChannel &ch, Cycles now)
    {
        channelWait_ += ch.busyUntil() > now ? ch.busyUntil() - now : 0;
        return spans_.call(SimChannel, [&] { return ch.readAccess(now); });
    }

    void
    channelWrite(sim::MemoryChannel &ch, Cycles now)
    {
        channelWait_ += ch.busyUntil() > now ? ch.busyUntil() - now : 0;
        spans_.call(SimChannel, [&] { ch.writeAccess(now); });
    }

    CacheLine
    dramFetch(unsigned core_idx, Addr addr)
    {
        std::optional<CacheLine> stored = spans_.call(SimDram, [&] {
            const auto it = dram_.find(lineNumber(addr));
            return it == dram_.end() ? std::optional<CacheLine>()
                                     : std::optional<CacheLine>(it->second);
        });
        if (stored)
            return *stored;
        return valueLine(cores_[core_idx], localLine(addr), 0);
    }

    cache::FillResult
    llcInsert(Addr addr, const CacheLine &data, bool dirty)
    {
        cache::FillResult fr = spans_.call(SimCacheInsert, [&] {
            return llc_->insert(addr, data, dirty);
        });
        insertWritebacks_ += fr.writebacks.size();
        return fr;
    }

    void
    handleWritebacks(const cache::FillResult &fr, Cycles now)
    {
        for (const auto &wb : fr.writebacks) {
            if (noc_) {
                const unsigned bank_tile = banked_->homeBank(wb.addr);
                const unsigned ctrl = cfg_.meshCfg.controllerFor(wb.addr);
                const Cycles arrival =
                    now + nocTransfer(bank_tile,
                                      cfg_.meshCfg.controllerTile(ctrl),
                                      kLineSize, now);
                channelWrite(channels_[ctrl], arrival);
            } else {
                channelWrite(channel_, now);
            }
            spans_.call(SimDram,
                        [&] { dram_[lineNumber(wb.addr)] = wb.data; });
        }
    }

    Cycles
    meshMemoryRead(Addr addr, unsigned bank_tile, Cycles now)
    {
        const unsigned ctrl = cfg_.meshCfg.controllerFor(addr);
        const unsigned ctrl_tile = cfg_.meshCfg.controllerTile(ctrl);
        const Cycles req = nocTransfer(bank_tile, ctrl_tile, 0, now);
        const Cycles mem = channelRead(channels_[ctrl], now + req);
        const Cycles rsp =
            nocTransfer(ctrl_tile, bank_tile, kLineSize, now + req + mem);
        return req + mem + rsp;
    }

    void
    step(unsigned core_idx)
    {
        Core &core = cores_[core_idx];
        sim::CoreResult &m = core.result;
        const trace::MemRef ref =
            spans_.call(TraceNext, [&] { return core.trace->next(); });

        m.instructions += ref.gap + 1;
        m.cycles += ref.gap;
        totalInstructions_ += ref.gap + 1;
        m.cycles += cfg_.l1Latency;
        m.l1Accesses++;

        const Addr lnum = localLine(ref.addr);
        if (spans_.call(SimL1, [&] { return core.l1.lookup(ref.addr); })) {
            if (ref.write) {
                const std::uint32_t ver = ++core.versions[lnum];
                const CacheLine line = valueLine(core, lnum, ver);
                spans_.call(SimL1, [&] { core.l1.update(ref.addr, line); });
            } else {
                checkLine(core, lnum, core.l1.peek(ref.addr));
            }
            return;
        }

        m.l1Misses++;
        core.gapSum += static_cast<double>(m.cycles - core.lastMissCycle);

        Cycles latency = 0;
        unsigned home_tile = 0;
        if (noc_) {
            home_tile = banked_->homeBank(ref.addr);
            latency += nocTransfer(coreTile(core_idx), home_tile, 0,
                                   m.cycles);
        }
        latency += cfg_.llcLatency;
        CacheLine data;

        const cache::ReadResult rr = spans_.call(
            SimCacheRead, [&] { return llc_->read(ref.addr); });
        latency += rr.extraLatency;
        if (rr.hit) {
            m.llcHits++;
            data = rr.data;
        } else {
            m.llcMisses++;
            if (noc_)
                latency += meshMemoryRead(ref.addr, home_tile,
                                          m.cycles + latency);
            else
                latency +=
                    channelRead(channel_, m.cycles + cfg_.llcLatency);
            data = dramFetch(core_idx, ref.addr);
            if (!ref.write || cfg_.inclusiveWriteFills) {
                handleWritebacks(llcInsert(ref.addr, data, false),
                                 noc_ ? m.cycles + latency : m.cycles);
            }
        }
        if (noc_) {
            latency += nocTransfer(home_tile, coreTile(core_idx),
                                   kLineSize, m.cycles + latency);
        }

        if (!ref.write)
            checkLine(core, lnum, &data);
        if (ref.write) {
            const std::uint32_t ver = ++core.versions[lnum];
            data = valueLine(core, lnum, ver);
        }

        const std::optional<sim::L1Victim> victim = spans_.call(
            SimL1, [&] { return core.l1.fill(ref.addr, data, ref.write); });
        if (victim && victim->dirty) {
            if (noc_) {
                nocTransfer(coreTile(core_idx),
                            banked_->homeBank(victim->addr), kLineSize,
                            m.cycles);
            }
            handleWritebacks(llcInsert(victim->addr, victim->data, true),
                             m.cycles);
        }

        m.cycles += latency;
        const double mean_gap =
            core.gapSum / static_cast<double>(m.l1Misses);
        const double hidden =
            static_cast<double>(cfg_.threadsPerCore - 1) * mean_gap;
        const double l = static_cast<double>(latency);
        if (l > hidden)
            m.stallCycles += static_cast<std::uint64_t>(l - hidden);
        core.lastMissCycle = m.cycles;
    }

    void
    runUntil(std::uint64_t target)
    {
        for (;;) {
            unsigned pick = 0;
            Cycles min_cycles = ~0ull;
            bool done = true;
            for (unsigned i = 0; i < cores_.size(); i++) {
                const sim::CoreResult &m = cores_[i].result;
                if (m.instructions >= target)
                    continue;
                done = false;
                if (m.cycles < min_cycles) {
                    min_cycles = m.cycles;
                    pick = i;
                }
            }
            if (done)
                return;
            iterations_++;
            for (unsigned q = 0; q < cfg_.interleaveQuantum; q++) {
                step(pick);
                if (cores_[pick].result.instructions >= target)
                    break;
            }
            ratio_.tick(totalInstructions_,
                        [&] { return llc_->compressionRatio(); });
        }
    }

    /** sim::System::warmup's reset: measurement state restarts, the
     *  architectural state stays warm. */
    void
    clearAfterWarmup()
    {
        for (Core &core : cores_) {
            const std::string program = core.result.program;
            core.result = sim::CoreResult{};
            core.result.program = program;
            core.gapSum = 0.0;
            core.lastMissCycle = 0;
        }
        llc_->stats().clear();
        llc_->clearWear();
        channel_.clearCounters();
        if (banked_)
            banked_->clearAllStats();
        for (auto &ch : channels_)
            ch.clearCounters();
        if (noc_)
            noc_->clearCounters();
        totalInstructions_ = 0;
        ratio_.restart(0);
    }

    sim::SystemConfig cfg_;
    std::unique_ptr<cache::Llc> llc_;
    sim::MemoryChannel channel_;
    std::vector<Core> cores_;
    std::unordered_map<Addr, CacheLine> dram_;
    std::uint64_t totalInstructions_ = 0;
    stats::PeriodicSampler ratio_;
    std::unique_ptr<mesh::Noc> noc_;
    std::vector<sim::MemoryChannel> channels_;
    mesh::BankedLlc *banked_ = nullptr; // owned by llc_

    Spans spans_;
    std::uint64_t insertWritebacks_ = 0;
    std::uint64_t channelWait_ = 0;
    std::uint64_t mismatches_ = 0;
    std::uint64_t iterations_ = 0;
};

// ------------------------------------------------------------------
// KV workload: kv::Service::step, layer by layer.
// ------------------------------------------------------------------

enum KvSpan : unsigned
{
    KvGen,
    KvValues,
    KvCacheRead,
    KvCacheInsert,
    KvTierFetch,
    KvTierWriteback,
    KvStep, // root: request handling outside every layer call
    KvCheck,
};

/** kv::Service's latency buckets. */
std::vector<std::uint64_t>
latencyBounds()
{
    return {16,    24,    32,    48,    64,    96,   128,  192,  256,
            384,   512,   768,   1024,  1536,  2048, 3072, 4096, 6144,
            8192,  12288, 16384, 24576, 32768, 49152, 65536};
}

/** kv::Service's per-tenant value-seed salt. */
constexpr std::uint64_t kTenantValueSalt = 0x6b7676616c;

class KvReplay
{
  public:
    explicit KvReplay(const kv::ServiceConfig &cfg)
        : cfg_(cfg), gen_(cfg.seed, cfg.tenants),
          front_(sim::makeLlc(cfg.scheme, cfg.frontBytes)),
          tiers_(cfg.tier), latency_(latencyBounds()),
          spans_({"kv.gen", "kv.values", "cache.read", "cache.insert",
                  "kv.tier.fetch", "kv.tier.writeback", "kv.step",
                  "replay.check"})
    {
        for (std::size_t i = 0; i < cfg_.tenants.size(); i++) {
            trace::KvProfile p = cfg_.values;
            p.seed = mix64(cfg_.values.seed ^ kTenantValueSalt, i + 1);
            values_.emplace_back(p);
        }
    }

    KvReplayResult
    run(const Budget &budget)
    {
        KvReplayResult out;
        for (std::uint64_t i = 0; i < budget.warmup; i++) {
            step();
            out.ssdPeakBytes =
                std::max(out.ssdPeakBytes, tiers_.ssdUsedBytes());
        }
        out.warmupSsdDrops = tiers_.stats().ssdDrops;
        const cache::LlcStats warm_front = front_->stats();
        const kv::TierStats warm_tier = tiers_.stats();
        spans_.reset();
        insertWritebacks_ = 0;
        mismatches_ = 0;

        const Clock::time_point t0 = Clock::now();
        spans_.begin(KvStep);
        for (std::uint64_t i = 0; i < budget.measure; i++)
            step();
        spans_.end();
        const double window = secondsSince(t0);
        spans_.setCalls(KvStep, budget.measure);

        out.digest = digest_.finish(latency_);
        out.insertWritebacks = insertWritebacks_;
        out.frontStats = front_->stats() - warm_front;
        out.frontRatio = front_->compressionRatio();
        const kv::TierStats &t = tiers_.stats();
        out.tierStats.dramHits = t.dramHits - warm_tier.dramHits;
        out.tierStats.ssdHits = t.ssdHits - warm_tier.ssdHits;
        out.tierStats.originFetches =
            t.originFetches - warm_tier.originFetches;
        out.tierStats.promotions = t.promotions - warm_tier.promotions;
        out.tierStats.demotions = t.demotions - warm_tier.demotions;
        out.tierStats.ssdDrops = t.ssdDrops - warm_tier.ssdDrops;
        out.tierStats.writebacks = t.writebacks - warm_tier.writebacks;
        out.checks.functionalMismatches = mismatches_;
        out.checks.checkSeconds = spans_.selfSeconds(KvCheck);
        out.checks.windowSeconds = window - out.checks.checkSeconds;
        out.checks.audit.merge(front_->audit(), "front: ");
        out.checks.audit.merge(tiers_.audit(), "tier: ");
        out.spans = spans_;
        return out;
    }

  private:
    Addr
    addrOf(std::uint32_t tenant, std::uint64_t key,
           std::uint32_t line_idx) const
    {
        const std::uint64_t line =
            (static_cast<std::uint64_t>(tenant + 1) << 34) |
            (key * values_[tenant].maxValueLines() + line_idx);
        return line << kLineShift;
    }

    void
    writebacks(const cache::FillResult &fill)
    {
        insertWritebacks_ += fill.writebacks.size();
        for (const cache::Writeback &wb : fill.writebacks) {
            spans_.call(KvTierWriteback,
                        [&] { tiers_.writeback(wb.addr, wb.data); });
        }
    }

    void
    step()
    {
        kv::Service::Reply r;
        r.req = spans_.call(KvGen, [&] { return gen_.next(); });
        const std::uint32_t t = r.req.tenant;
        trace::KvValueModel &vm = values_[t];
        r.lines = spans_.call(KvValues,
                              [&] { return vm.valueLines(r.req.key); });
        r.digest = kv::kDigestBasis;

        Cycles lat = 0;
        if (r.req.isSet) {
            const std::uint32_t version =
                spans_.call(KvValues, [&] { return vm.bump(r.req.key); });
            for (std::uint32_t i = 0; i < r.lines; i++) {
                const Addr a = addrOf(t, r.req.key, i);
                const CacheLine data = spans_.call(KvValues, [&] {
                    return vm.line(r.req.key, i, version);
                });
                r.digest = kv::digestLine(r.digest, a, data);
                writebacks(spans_.call(KvCacheInsert, [&] {
                    return front_->insert(a, data, true);
                }));
            }
            lat = cfg_.frontLatency +
                  cfg_.lineStep * (r.lines > 0 ? r.lines - 1 : 0);
        } else {
            const std::uint32_t version = spans_.call(
                KvValues, [&] { return vm.version(r.req.key); });
            Cycles worst = 0;
            for (std::uint32_t i = 0; i < r.lines; i++) {
                const Addr a = addrOf(t, r.req.key, i);
                const cache::ReadResult rr = spans_.call(
                    KvCacheRead, [&] { return front_->read(a); });
                Cycles lineLat;
                CacheLine data;
                if (rr.hit) {
                    data = rr.data;
                    lineLat = cfg_.frontLatency + rr.extraLatency;
                    spans_.call(KvCheck, [&] {
                        if (!(data == vm.line(r.req.key, i, version)))
                            mismatches_++;
                    });
                } else {
                    data = spans_.call(KvValues, [&] {
                        return vm.line(r.req.key, i, version);
                    });
                    const kv::TieredStore::FetchResult fr =
                        spans_.call(KvTierFetch,
                                    [&] { return tiers_.fetch(a, data); });
                    lineLat = cfg_.frontLatency + fr.latency;
                    writebacks(spans_.call(KvCacheInsert, [&] {
                        return front_->insert(a, data, false);
                    }));
                }
                r.digest = kv::digestLine(r.digest, a, data);
                worst = std::max(worst, lineLat);
            }
            lat = worst + cfg_.lineStep * (r.lines > 0 ? r.lines - 1 : 0);
        }
        r.latency = lat;
        latency_.record(lat);
        digest_.reply(r);
    }

    kv::ServiceConfig cfg_;
    kv::Generator gen_;
    std::unique_ptr<cache::Llc> front_;
    kv::TieredStore tiers_;
    std::vector<trace::KvValueModel> values_;
    stats::Histogram latency_;
    KvDigest digest_;
    Spans spans_;
    std::uint64_t insertWritebacks_ = 0;
    std::uint64_t mismatches_ = 0;
};

} // namespace

SimReplayResult
replaySim(const SimSetup &setup, const Budget &budget, std::uint64_t slice,
          std::uint64_t warmup_slice)
{
    SimReplay replay(setup);
    return replay.run(budget, slice, warmup_slice);
}

KvReplayResult
replayKv(const kv::ServiceConfig &cfg, const Budget &budget)
{
    KvReplay replay(cfg);
    return replay.run(budget);
}

} // namespace perfbench
} // namespace morc
