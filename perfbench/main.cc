/**
 * @file
 * morc_perfbench: host speed of one workload, end to end (--trace 0)
 * or per layer (--trace 1).
 *
 * A run repeats whole episodes while another one fits in --seconds. An
 * episode constructs the simulated system (timed), warms it up,
 * measures a fixed window, and checks the outputs: the audits, the
 * digest of the simulated statistics, and at --trace 1 the traced
 * replay's equivalence with the untraced episode. Every episode whose
 * checks fail counts all of its operations as failed. The warm-up and
 * the window are timed piece by piece, and the end-to-end times are
 * built from each piece's fastest time over the run's episodes.
 *
 * The last line of stdout is the result object
 * {"correct", "attempted", "failed", "metrics"}; a "manifest" line
 * before it records the build and the inputs.
 */

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "replay.hh"
#include "util/simd.hh"
#include "workloads.hh"

using namespace morc;
using namespace morc::perfbench;

namespace {

using Clock = std::chrono::steady_clock;

/** Constructions timed after the last episode, besides the one each
 *  episode times; setup_s is the median of them all. They come last
 *  because objects built and freed before an episode change where its
 *  system's memory lands, which moved kv_morc's throughput by 30%. */
constexpr unsigned kExtraSetups = 29;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** Nearest-rank percentile. */
double
percentile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double rank = q * static_cast<double>(v.size());
    std::size_t i = static_cast<std::size_t>(rank);
    if (static_cast<double>(i) == rank && i > 0)
        i--;
    return v[std::min(i, v.size() - 1)];
}

struct Args
{
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 10;
    int trace = 0;
    std::optional<std::uint64_t> warmup;
    std::optional<std::uint64_t> measure;
    std::optional<std::uint64_t> expectDigest;
    std::string gitRev = "unknown";
};

bool
parseArgs(int argc, char **argv, Args &a)
{
    for (int i = 1; i < argc; i++) {
        const std::string k = argv[i];
        if (i + 1 >= argc)
            return false;
        const char *v = argv[++i];
        char *end = nullptr;
        if (k == "--workload") {
            a.workload = v;
        } else if (k == "--seed") {
            a.seed = std::strtoull(v, &end, 10);
        } else if (k == "--seconds") {
            a.seconds = std::strtod(v, &end);
        } else if (k == "--trace") {
            a.trace = static_cast<int>(std::strtol(v, &end, 10));
        } else if (k == "--warmup") {
            a.warmup = std::strtoull(v, &end, 10);
        } else if (k == "--measure") {
            a.measure = std::strtoull(v, &end, 10);
        } else if (k == "--expect-digest") {
            a.expectDigest = std::strtoull(v, &end, 16);
        } else if (k == "--git-rev") {
            a.gitRev = v;
        } else {
            return false;
        }
        if (end && *end != '\0')
            return false;
    }
    return !a.workload.empty() && (a.trace == 0 || a.trace == 1) &&
           a.seconds > 0;
}

// ------------------------------------------------------------------
// Untraced episodes
// ------------------------------------------------------------------

struct Episode
{
    double setupS = 0.0;
    double runS = 0.0;    // warm-up plus measured window
    double windowS = 0.0; // measured window
    std::uint64_t ops = 0;

    /** Host time of each timed piece of the warm-up: one warm-up
     *  slice on the sim workloads, one request on kv_morc. */
    std::vector<double> warmUs;
    std::vector<double> requestUs;
    std::uint64_t digest = 0;
    std::vector<std::string> errors;
};

void
addAudit(Episode &ep, const check::AuditReport &r, const char *what)
{
    if (!r.ok())
        ep.errors.push_back(std::string(what) + " audit: " + r.str());
}

/** Sim episode: the warm-up and the measured window are driven one
 *  slice of instructions per core at a time; each slice of the window
 *  is one request. */
Episode
simEpisode(const SimSetup &s, const Budget &b, const Workload &w)
{
    Episode ep;
    Clock::time_point t0 = Clock::now();
    auto sys = std::make_unique<sim::System>(s.cfg, s.programs);
    ep.setupS = secondsSince(t0);
    t0 = Clock::now();
    // measure() drives the system to each warm-up piece's target and
    // resets nothing; warmup() runs the last piece and then starts the
    // measured phase.
    const std::vector<std::uint64_t> warm =
        sliceTargets(b.warmup, w.warmupSlice);
    for (std::size_t i = 0; i < warm.size(); i++) {
        const Clock::time_point ts = Clock::now();
        if (i + 1 < warm.size())
            sys->measure(warm[i]);
        else
            sys->warmup(b.warmup);
        ep.warmUs.push_back(secondsSince(ts) * 1e6);
    }
    const Clock::time_point tw = Clock::now();
    sim::RunResult r;
    for (std::uint64_t target : sliceTargets(b.measure, w.slice)) {
        const Clock::time_point ts = Clock::now();
        r = sys->measure(target);
        ep.requestUs.push_back(secondsSince(ts) * 1e6);
    }
    ep.windowS = secondsSince(tw);
    ep.runS = secondsSince(t0);
    ep.ops = r.totalInstructions;
    ep.digest = simDigest(r);
    addAudit(ep, sys->llc().audit(), "LLC");
    return ep;
}

/** KV episode: closed loop, one request per Service::step. */
Episode
kvEpisode(const kv::ServiceConfig &cfg, const Budget &b)
{
    Episode ep;
    Clock::time_point t0 = Clock::now();
    auto svc = std::make_unique<kv::Service>(cfg);
    ep.setupS = secondsSince(t0);
    KvDigest digest;
    t0 = Clock::now();
    ep.warmUs.reserve(b.warmup);
    for (std::uint64_t i = 0; i < b.warmup; i++) {
        const Clock::time_point ts = Clock::now();
        const kv::Service::Reply r = svc->step();
        ep.warmUs.push_back(secondsSince(ts) * 1e6);
        digest.reply(r);
    }
    const Clock::time_point tw = Clock::now();
    ep.requestUs.reserve(b.measure);
    for (std::uint64_t i = 0; i < b.measure; i++) {
        const Clock::time_point ts = Clock::now();
        const kv::Service::Reply r = svc->step();
        ep.requestUs.push_back(secondsSince(ts) * 1e6);
        digest.reply(r);
    }
    ep.windowS = secondsSince(tw);
    ep.runS = secondsSince(t0);
    ep.ops = b.measure;
    ep.digest = digest.finish(svc->latency());
    addAudit(ep, svc->audit(), "service");
    return ep;
}

/**
 * Fastest host time of every timed piece over a run's episodes. Each
 * episode repeats the same pieces of simulated work in the same order
 * (its digest proves it), so piece i of one episode and piece i of
 * another differ only in how much the host's other tenants took.
 */
struct Fastest
{
    std::vector<double> warmUs;
    std::vector<double> requestUs;

    static void
    fold(std::vector<double> &best, std::vector<double> &v)
    {
        if (best.empty())
            best.swap(v);
        for (std::size_t i = 0; i < v.size() && i < best.size(); i++)
            best[i] = std::min(best[i], v[i]);
        v = {};
    }

    /** Takes the episode's piece times, and frees them. */
    void
    add(Episode &ep)
    {
        fold(warmUs, ep.warmUs);
        fold(requestUs, ep.requestUs);
    }

    static double
    seconds(const std::vector<double> &us)
    {
        double sum = 0.0;
        for (double t : us)
            sum += t;
        return sum * 1e-6;
    }
};

// ------------------------------------------------------------------
// Output
// ------------------------------------------------------------------

struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

/** Every per-layer metric, in BENCHMARK.json order. A workload that
 *  has no such layer reports 0. */
const char *const kSpanNames[] = {
    "trace.next",    "trace.value_line", "sim.l1",
    "sim.dram",      "sim.channel",      "mesh.noc",
    "cache.read",    "cache.insert",     "sim.step",
    "kv.gen",        "kv.values",        "kv.tier.fetch",
    "kv.tier.writeback", "kv.step",
};

struct LayerCounts
{
    double hitRatio = 0, insertWritebacks = 0, linesCompressed = 0,
           linesDecompressed = 0, bytesDecompressed = 0, logFlushes = 0,
           lmtConflictEvicts = 0, channelWait = 0, nocQueue = 0,
           nocMeanHops = 0, dramHits = 0, ssdHits = 0,
           originFetches = 0, promotions = 0, demotions = 0,
           ssdDrops = 0, ipc = 0, compressionRatio = 0;

    void
    llc(const cache::LlcStats &s)
    {
        hitRatio = s.reads ? double(s.readHits) / double(s.reads) : 0.0;
        linesCompressed = double(s.linesCompressed);
        linesDecompressed = double(s.linesDecompressed);
        bytesDecompressed = double(s.bytesDecompressed);
        logFlushes = double(s.logFlushes);
        lmtConflictEvicts = double(s.lmtConflictEvicts);
    }
};

std::vector<Metric>
layerMetrics(const std::vector<Spans> &traced, const LayerCounts &c,
             double overhead)
{
    std::vector<Metric> out;
    for (const char *name : kSpanNames) {
        std::uint64_t calls = 0;
        std::vector<double> self;
        for (const Spans &sp : traced) {
            for (unsigned id = 0; id < sp.size(); id++) {
                if (sp.name(id) == name) {
                    calls = sp.calls(id);
                    self.push_back(sp.selfSeconds(id));
                }
            }
        }
        out.push_back({std::string(name) + ".calls", double(calls),
                       "count"});
        out.push_back({std::string(name) + ".self_s", median(self), "s"});
    }
    const Metric counts[] = {
        {"cache.read.hit_ratio", c.hitRatio, "ratio"},
        {"cache.insert.writebacks", c.insertWritebacks, "count"},
        {"compress.lines_compressed", c.linesCompressed, "count"},
        {"compress.lines_decompressed", c.linesDecompressed, "count"},
        {"compress.bytes_decompressed", c.bytesDecompressed, "bytes"},
        {"core.log_flushes", c.logFlushes, "count"},
        {"core.lmt_conflict_evicts", c.lmtConflictEvicts, "count"},
        {"sim.channel.wait_cycles", c.channelWait, "cycles"},
        {"mesh.noc.queue_cycles", c.nocQueue, "cycles"},
        {"mesh.noc.mean_hops", c.nocMeanHops, "hops"},
        {"kv.tier.dram_hits", c.dramHits, "count"},
        {"kv.tier.ssd_hits", c.ssdHits, "count"},
        {"kv.tier.origin_fetches", c.originFetches, "count"},
        {"kv.tier.promotions", c.promotions, "count"},
        {"kv.tier.demotions", c.demotions, "count"},
        {"kv.tier.ssd_drops", c.ssdDrops, "count"},
        {"sim.ipc", c.ipc, "instr/cycle"},
        {"sim.compression_ratio", c.compressionRatio, "ratio"},
        {"trace.overhead", overhead, "ratio"},
    };
    out.insert(out.end(), std::begin(counts), std::end(counts));
    return out;
}

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (char ch : s) {
        if (ch == '"' || ch == '\\')
            out += '\\';
        if (static_cast<unsigned char>(ch) < 0x20)
            ch = ' ';
        out += ch;
    }
    return out + "\"";
}

std::string
compilerName()
{
#if defined(__clang__)
    return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
    return std::string("gcc ") + __VERSION__;
#else
    return "unknown";
#endif
}

void
printManifest(const Args &a, const Workload &w, const Budget &b,
              bool default_budget)
{
    std::printf(
        "manifest {\"workload\": %s, \"seed\": %" PRIu64
        ", \"seconds\": %g, \"trace\": %d, \"warmup\": %" PRIu64
        ", \"measure\": %" PRIu64 ", \"slice\": %" PRIu64
        ", \"warmup_slice\": %" PRIu64
        ", \"default_budget\": %s, \"build_type\": %s, \"simd\": %s, "
        "\"compiler\": %s, \"git_rev\": %s, \"nproc\": %u}\n",
        jsonString(w.name).c_str(), a.seed, a.seconds, a.trace, b.warmup,
        b.measure, w.slice, w.warmupSlice,
        default_budget ? "true" : "false",
        jsonString(MORC_PERFBENCH_BUILD_TYPE).c_str(),
        jsonString(simd::levelName(simd::activeLevel())).c_str(),
        jsonString(compilerName()).c_str(), jsonString(a.gitRev).c_str(),
        std::thread::hardware_concurrency());
}

void
printResult(std::uint64_t attempted, std::uint64_t failed,
            const std::vector<Metric> &metrics)
{
    for (const Metric &m : metrics)
        std::printf("metric %-32s %.9g %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
    std::printf("operations attempted %" PRIu64 " failed %" PRIu64 "\n",
                attempted, failed);
    std::string json = "{\"correct\": ";
    json += failed == 0 ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(attempted);
    json += ", \"failed\": " + std::to_string(failed);
    json += ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); i++) {
        char value[64];
        std::snprintf(value, sizeof value, "%.17g", metrics[i].value);
        json += (i ? ", " : "") + jsonString(metrics[i].name) +
                ": {\"value\": " + value +
                ", \"unit\": " + jsonString(metrics[i].unit) + "}";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
}

double
peakRssMb()
{
    struct rusage ru;
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

/** One traced replay, reduced to what the traced run reports. */
struct Traced
{
    std::uint64_t digest = 0;
    std::uint64_t ops = 0;
    ReplayChecks checks;
    Spans spans;
    LayerCounts counts;

    /** Non-empty when warm-up ended before steady state; checked at
     *  the default budget only. */
    std::string warmupError;
};

Traced
traceSim(const SimSetup &setup, const Budget &b, const Workload &w)
{
    SimReplayResult sr = replaySim(setup, b, w.slice, w.warmupSlice);
    const sim::RunResult &r = sr.result;
    Traced t;
    t.digest = simDigest(r);
    t.ops = r.totalInstructions;
    t.checks = std::move(sr.checks);
    t.spans = std::move(sr.spans);
    t.counts.llc(r.llcStats);
    t.counts.insertWritebacks = double(sr.insertWritebacks);
    t.counts.channelWait = double(sr.channelWaitCycles);
    t.counts.nocQueue = double(sr.nocQueueCycles);
    t.counts.nocMeanHops = sr.nocMeanHops;
    t.counts.ipc = r.meanIpc();
    t.counts.compressionRatio = r.compressionRatio;
    if (sr.warmupWritebacks == 0)
        t.warmupError = "warm-up ended before the LLC evicted a line";
    return t;
}

Traced
traceKv(const kv::ServiceConfig &cfg, const Budget &b)
{
    KvReplayResult kr = replayKv(cfg, b);
    Traced t;
    t.digest = kr.digest;
    t.ops = b.measure;
    t.checks = std::move(kr.checks);
    t.spans = std::move(kr.spans);
    t.counts.llc(kr.frontStats);
    t.counts.insertWritebacks = double(kr.insertWritebacks);
    t.counts.compressionRatio = kr.frontRatio;
    const kv::TierStats &ts = kr.tierStats;
    t.counts.dramHits = double(ts.dramHits);
    t.counts.ssdHits = double(ts.ssdHits);
    t.counts.originFetches = double(ts.originFetches);
    t.counts.promotions = double(ts.promotions);
    t.counts.demotions = double(ts.demotions);
    t.counts.ssdDrops = double(ts.ssdDrops);
    if (kr.warmupSsdDrops == 0 ||
        kr.ssdPeakBytes + kLineSize < cfg.tier.ssdBytes)
        t.warmupError = "warm-up did not fill the SSD tier to its budget";
    return t;
}

void
reportErrors(unsigned episode, const std::vector<std::string> &errors)
{
    for (const std::string &e : errors)
        std::fprintf(stderr, "episode %u: %s\n", episode, e.c_str());
}

} // namespace

int
main(int argc, char **argv)
{
    Args a;
    if (!parseArgs(argc, argv, a)) {
        std::fprintf(stderr,
                     "usage: morc_perfbench --workload NAME --seed N "
                     "--seconds S --trace 0|1 [--warmup N] [--measure N] "
                     "[--expect-digest HEX] [--git-rev REV]\n");
        return 2;
    }
    const Workload *w = findWorkload(a.workload);
    if (!w) {
        std::fprintf(stderr, "unknown workload '%s'\n",
                     a.workload.c_str());
        return 2;
    }
    Budget b = w->budget;
    b.warmup = a.warmup.value_or(b.warmup);
    b.measure = a.measure.value_or(b.measure);
    if (b.measure == 0) {
        std::fprintf(stderr, "--measure must be positive\n");
        return 2;
    }
    const bool default_budget = b.warmup == w->budget.warmup &&
                                b.measure == w->budget.measure;
    // The recorded digest holds for seed 0 at the default budget; an
    // explicit --expect-digest applies to any seed and budget.
    std::optional<std::uint64_t> expected = a.expectDigest;
    if (!expected && a.seed == 0 && default_budget)
        expected = w->expectedDigest;
    printManifest(a, *w, b, default_budget);
    std::fflush(stdout);

    const bool is_sim = w->kind == Kind::Sim;
    const SimSetup sim_setup =
        is_sim ? simSetup(*w, a.seed, b) : SimSetup{};
    const kv::ServiceConfig kv_cfg = kvSetup(a.seed);
    auto episode = [&] {
        return is_sim ? simEpisode(sim_setup, b, *w)
                      : kvEpisode(kv_cfg, b);
    };
    // Build one system and drop it; the seconds the build took.
    auto setupOnce = [&] {
        const Clock::time_point t0 = Clock::now();
        if (is_sim) {
            const sim::System sys(sim_setup.cfg, sim_setup.programs);
            return secondsSince(t0);
        }
        const kv::Service svc(kv_cfg);
        return secondsSince(t0);
    };
    // Every episode of a run must reproduce the recorded digest, or
    // without one, the first episode's.
    auto checkDigest = [&](Episode &ep) {
        if (!expected)
            expected = ep.digest;
        if (ep.digest != *expected) {
            char msg[96];
            std::snprintf(msg, sizeof msg,
                          "digest %016" PRIx64 " != expected %016" PRIx64,
                          ep.digest, *expected);
            ep.errors.push_back(msg);
        }
    };

    std::uint64_t attempted = 0, failed = 0;
    std::vector<Metric> metrics;
    // Another episode starts only if one as long as the last one still
    // ends within --seconds; the first always runs.
    const Clock::time_point start = Clock::now();
    auto another = [&](Clock::time_point episode_start) {
        return secondsSince(start) + secondsSince(episode_start) <
               a.seconds;
    };

    if (a.trace == 0) {
        // Interference from other tenants of the host only ever adds
        // time, comes and goes within an episode, and can last longer
        // than one. Each time-like metric is therefore built from the
        // fastest time of every piece of work (a request, a slice of
        // the window, the warm-up) over the run's episodes, which is
        // steadier from run to run than any one episode, the best one
        // included; setup_s is the median of every construction.
        // Episodes are folded in as they end, so memory does not grow
        // with their number.
        std::vector<double> setup, run, ops;
        Fastest fastest;
        std::uint64_t window_ops = 0, digest = 0;
        unsigned n = 0;
        Clock::time_point t0;
        do {
            t0 = Clock::now();
            Episode ep = episode();
            checkDigest(ep);
            attempted += ep.ops;
            if (!ep.errors.empty()) {
                failed += ep.ops;
                reportErrors(n, ep.errors);
            }
            setup.push_back(ep.setupS);
            run.push_back(ep.runS);
            ops.push_back(double(ep.ops) / ep.windowS);
            std::printf("episode %u: run_s %.6f ops_per_s %.1f "
                        "req_p50_us %.3f req_p99_us %.3f over %zu "
                        "requests\n",
                        n, run.back(), ops.back(),
                        percentile(ep.requestUs, 0.50),
                        percentile(ep.requestUs, 0.99),
                        ep.requestUs.size());
            window_ops = ep.ops;
            digest = ep.digest;
            fastest.add(ep);
            n++;
        } while (another(t0));
        for (unsigned i = 0; i < kExtraSetups; i++)
            setup.push_back(setupOnce());
        std::printf("setup over %zu constructions: min %.6f median %.6f "
                    "max %.6f s\n",
                    setup.size(),
                    *std::min_element(setup.begin(), setup.end()),
                    median(setup),
                    *std::max_element(setup.begin(), setup.end()));
        const double window_s = Fastest::seconds(fastest.requestUs);
        std::printf("episodes %zu, digest %016" PRIx64
                    ", median episode: run_s %.6f ops_per_s %.1f; "
                    "fastest pieces: warm-up %.6f s, window %.6f s over "
                    "%zu requests\n",
                    run.size(), digest, median(run), median(ops),
                    Fastest::seconds(fastest.warmUs), window_s,
                    fastest.requestUs.size());
        metrics = {
            {"setup_s", median(setup), "s"},
            {"run_s", Fastest::seconds(fastest.warmUs) + window_s, "s"},
            {"ops_per_s", double(window_ops) / window_s, "1/s"},
            {"peak_rss_mb", peakRssMb(), "MB"},
            {"req_p50_us", percentile(fastest.requestUs, 0.50), "us"},
            {"req_p99_us", percentile(fastest.requestUs, 0.99), "us"},
        };
    } else {
        std::vector<Spans> traced;
        std::vector<double> overhead;
        LayerCounts counts;
        std::vector<double> checkS;
        unsigned pair = 0;
        Clock::time_point t0;
        do {
            t0 = Clock::now();
            Episode ep = episode();
            checkDigest(ep);
            const Traced t = is_sim ? traceSim(sim_setup, b, *w)
                                    : traceKv(kv_cfg, b);
            const ReplayChecks &rc = t.checks;
            traced.push_back(t.spans);
            counts = t.counts;
            if (default_budget && !t.warmupError.empty())
                ep.errors.push_back(t.warmupError);
            if (t.digest != ep.digest)
                ep.errors.push_back("traced replay diverged from the "
                                    "untraced run");
            if (rc.functionalMismatches)
                ep.errors.push_back(
                    std::to_string(rc.functionalMismatches) +
                    " lines read differ from the value model");
            if (!rc.audit.ok())
                ep.errors.push_back("replay audit: " + rc.audit.str());
            overhead.push_back(rc.windowSeconds / ep.windowS);
            checkS.push_back(rc.checkSeconds);

            attempted += ep.ops + t.ops;
            if (!ep.errors.empty()) {
                failed += ep.ops + t.ops;
                reportErrors(pair, ep.errors);
            }
            pair++;
        } while (another(t0));
        std::printf("traced pairs %u, replay.check self %.6g s\n", pair,
                    median(checkS));
        metrics = layerMetrics(traced, counts, median(overhead));
    }

    printResult(attempted, failed, metrics);
    return 0;
}
