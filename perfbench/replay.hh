/**
 * @file
 * Traced replay: the same episode as the untraced run, re-driven
 * through each layer's public functions with every call timed from
 * outside. The replay re-implements the System::step / Service::step
 * loops, so it must reproduce their counters exactly; main.cc checks
 * that it does before trusting the per-layer split.
 */

#ifndef MORC_PERFBENCH_REPLAY_HH
#define MORC_PERFBENCH_REPLAY_HH

#include <cstdint>
#include <string>
#include <vector>

#include "kv/service.hh"
#include "sim/system.hh"
#include "spans.hh"
#include "workloads.hh"

namespace morc {
namespace perfbench {

/** Targets (instructions per core) when a phase of @p measure
 *  instructions per core is driven one slice at a time: slice,
 *  2 x slice, ..., measure. */
std::vector<std::uint64_t> sliceTargets(std::uint64_t measure,
                                        std::uint64_t slice);

/** What both replays report beyond their spans. */
struct ReplayChecks
{
    /** Lines read that differ from the value model. */
    std::uint64_t functionalMismatches = 0;

    /** LLC (and, for KV, tier) audit after the window. */
    check::AuditReport audit;

    /** Host seconds of the measured window, excluding the functional
     *  checks, and the seconds the checks took. */
    double windowSeconds = 0.0;
    double checkSeconds = 0.0;
};

struct SimReplayResult
{
    /** The fields simDigest() covers. */
    sim::RunResult result;

    /** Dirty lines the LLC evicted during warm-up. */
    std::uint64_t warmupWritebacks = 0;

    std::uint64_t insertWritebacks = 0;

    /** Simulated cycles memory requests queued at a channel. */
    std::uint64_t channelWaitCycles = 0;

    std::uint64_t nocQueueCycles = 0;
    double nocMeanHops = 0.0;

    ReplayChecks checks;
    Spans spans;
};

SimReplayResult replaySim(const SimSetup &setup, const Budget &budget,
                          std::uint64_t slice, std::uint64_t warmup_slice);

struct KvReplayResult
{
    /** KvDigest over warm-up and window, as the untraced run forms it. */
    std::uint64_t digest = 0;

    /** Front-cache and tier counters of the measured window. */
    std::uint64_t insertWritebacks = 0;
    cache::LlcStats frontStats;
    double frontRatio = 0.0;
    kv::TierStats tierStats;

    /** Warm-up fill of the SSD tier: the most bytes it held, and the
     *  lines it had dropped by the end of warm-up. */
    std::uint64_t ssdPeakBytes = 0;
    std::uint64_t warmupSsdDrops = 0;

    ReplayChecks checks;
    Spans spans;
};

KvReplayResult replayKv(const kv::ServiceConfig &cfg, const Budget &budget);

} // namespace perfbench
} // namespace morc

#endif // MORC_PERFBENCH_REPLAY_HH
