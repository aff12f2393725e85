#include "workloads.hh"

#include <cstring>

#include "util/rng.hh"

namespace morc {
namespace perfbench {

namespace {

/** Tile programs of the mesh figure, assigned round-robin. */
const char *const kMeshPrograms[] = {"gcc", "mcf", "omnetpp", "soplex"};

void
mixSeed(std::vector<trace::BenchmarkSpec> &programs, std::uint64_t seed)
{
    if (seed == 0)
        return;
    for (auto &p : programs)
        p.data.seed = mix64(p.data.seed, seed);
}

} // namespace

const std::vector<Workload> &
workloads()
{
    // Episode budgets are sized so one episode takes a few host
    // seconds: long enough that the warm-up leaves every modelled
    // cache evicting (and the KV SSD tier at its byte budget; 88,000
    // KV requests were enough on every seed tried), short enough that
    // a run holds enough episodes for each piece's fastest time to
    // find a quiet moment of the host. Slices are as short as the
    // cost of a System::measure call allows: about 14 us on
    // mp16_morc, about 1.2 ms on mesh64_uncomp.
    static const std::vector<Workload> kAll = {
        {"mp16_morc", Kind::Sim, {60'000, 40'000}, 10, 10,
         0xe330fbc3a279e9e0ull},
        {"mesh64_uncomp", Kind::Sim, {40'000, 30'000}, 60, 1000,
         0x8d3a3599f29931ebull},
        {"kv_morc", Kind::Kv, {100'000, 40'000}, 1, 1,
         0x05d9c7ac1af8de0dull},
    };
    return kAll;
}

const Workload *
findWorkload(const std::string &name)
{
    for (const Workload &w : workloads()) {
        if (name == w.name)
            return &w;
    }
    return nullptr;
}

SimSetup
simSetup(const Workload &w, std::uint64_t seed, const Budget &budget)
{
    SimSetup s;
    sim::SystemConfig &cfg = s.cfg;
    cfg.interleaveQuantum = 1;
    cfg.ratioSampleInterval =
        std::max<std::uint64_t>(budget.measure, 100'000);
    if (std::strcmp(w.name, "mp16_morc") == 0) {
        // Figure 8, mix M0: 16 cores over a flat shared MORC LLC.
        cfg.scheme = sim::Scheme::Morc;
        cfg.numCores = 16;
        cfg.bandwidthPerCore = 100e6;
        for (const auto &mix : trace::table6Workloads()) {
            if (mix.name != "M0")
                continue;
            for (const auto &name : mix.programs)
                s.programs.push_back(trace::resolveWorkload(name));
        }
    } else {
        // The mesh figure at 64 tiles: 8x8 banks, 4 controllers,
        // 1600 MB/s in total.
        const unsigned dim = 8, tiles = dim * dim;
        cfg.scheme = sim::Scheme::Uncompressed;
        cfg.useMesh = true;
        cfg.meshCfg.width = dim;
        cfg.meshCfg.height = dim;
        cfg.meshCfg.memControllers = dim / 2;
        cfg.numCores = tiles;
        cfg.bandwidthPerCore = 1600e6 / tiles;
        cfg.llcBytesPerCore = 128 * 1024;
        for (unsigned c = 0; c < tiles; c++)
            s.programs.push_back(
                trace::resolveWorkload(kMeshPrograms[c % 4]));
    }
    mixSeed(s.programs, seed);
    return s;
}

kv::ServiceConfig
kvSetup(std::uint64_t seed)
{
    // The kvtier figure's MORC point with both tiers compressed: the
    // canonical 4-tenant service over tight 4 MiB DRAM and SSD tiers.
    kv::ServiceConfig cfg;
    cfg.scheme = sim::Scheme::Morc;
    cfg.frontBytes = 2ull << 20;
    cfg.seed = 0x6b76;
    cfg.tier.dramBytes = 4ull << 20;
    cfg.tier.ssdBytes = 4ull << 20;
    cfg.tier.dramCompressed = true;
    cfg.tier.ssdCompressed = true;
    cfg.values.seed = 0x76616c;
    cfg.tenants.push_back({"social", 262144, 1.1, 4, 0.05, 4096, 997});
    cfg.tenants.push_back({"search", 262144, 0.8, 2, 0.02, 0, 0});
    cfg.tenants.push_back({"feed", 262144, 1.2, 1, 0.3, 8192, 4999});
    cfg.tenants.push_back({"analytics", 262144, 0.6, 1, 0.5, 0, 0});
    if (seed != 0) {
        cfg.seed = mix64(cfg.seed, seed);
        cfg.values.seed = mix64(cfg.values.seed, seed);
    }
    return cfg;
}

void
Fnv::f64(double v)
{
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    u64(bits);
}

std::uint64_t
simDigest(const sim::RunResult &r)
{
    Fnv f;
    f.u64(r.cores.size());
    for (const sim::CoreResult &c : r.cores) {
        for (std::uint64_t v :
             {c.instructions, c.cycles, c.l1Accesses, c.l1Misses,
              c.llcHits, c.llcMisses, c.stallCycles})
            f.u64(v);
    }
    const cache::LlcStats &l = r.llcStats;
    for (std::uint64_t v :
         {l.reads, l.readHits, l.inserts, l.victimWritebacks,
          l.linesCompressed, l.linesDecompressed, l.bytesDecompressed,
          l.logFlushes, l.lmtConflictEvicts, l.cellBitsWritten,
          l.cellBitFlips})
        f.u64(v);
    f.u64(r.memReads);
    f.u64(r.memWrites);
    f.u64(r.totalInstructions);
    f.u64(r.completionCycles);
    f.f64(r.compressionRatio);
    return f.h;
}

std::uint64_t
KvDigest::finish(const stats::Histogram &latency) const
{
    Fnv f = chain;
    f.u64(latency.numBuckets());
    for (std::size_t i = 0; i < latency.numBuckets(); i++)
        f.u64(latency.count(i));
    return f.h;
}

} // namespace perfbench
} // namespace morc
