/**
 * @file
 * The benchmark's three workloads: how each simulated system is
 * configured from a seed, how much work one episode does, and the
 * digest of the simulated outputs an episode must reproduce.
 */

#ifndef MORC_PERFBENCH_WORKLOADS_HH
#define MORC_PERFBENCH_WORKLOADS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "kv/service.hh"
#include "sim/system.hh"
#include "trace/workload.hh"

namespace morc {
namespace perfbench {

enum class Kind { Sim, Kv };

/** Work done by one episode: instructions per core for the sim
 *  workloads, served requests for the KV service. */
struct Budget
{
    std::uint64_t warmup = 0;
    std::uint64_t measure = 0;
};

struct Workload
{
    const char *name;
    Kind kind;
    Budget budget;

    /** Sim workloads: instructions per core one request (one
     *  System::measure call) advances the measured window by. */
    std::uint64_t slice;

    /** Sim workloads: instructions per core in one timed piece of the
     *  warm-up, which is driven in slices like the window. */
    std::uint64_t warmupSlice;

    /** Digest of one episode at seed 0 and the default budget. */
    std::uint64_t expectedDigest;
};

/** Every workload, in the order BENCHMARK.json lists them. */
const std::vector<Workload> &workloads();

/** nullptr when @p name is not a workload. */
const Workload *findWorkload(const std::string &name);

/** A simulated manycore: its configuration and one program per core. */
struct SimSetup
{
    sim::SystemConfig cfg;
    std::vector<trace::BenchmarkSpec> programs;
};

/** Seed 0 keeps the registry seeds; any other seed is mixed into
 *  every program's value/trace seed. */
SimSetup simSetup(const Workload &w, std::uint64_t seed,
                  const Budget &budget);

/** Seed 0 keeps the registry seeds; any other seed is mixed into the
 *  request-stream and value seeds. */
kv::ServiceConfig kvSetup(std::uint64_t seed);

/** 64-bit FNV-1a accumulator. */
struct Fnv
{
    std::uint64_t h = 1469598103934665603ull;

    void
    u64(std::uint64_t v)
    {
        for (unsigned i = 0; i < 8; i++)
            h = (h ^ ((v >> (8 * i)) & 0xff)) * 1099511628211ull;
    }

    void f64(double v);
};

/** Digest of the simulated statistics of a sim run: per-core
 *  counters, LlcStats, memory traffic, completion cycles and the
 *  sampled compression ratio. */
std::uint64_t simDigest(const sim::RunResult &r);

/** Digest of the KV run: the chain of per-request reply digests and
 *  latencies, then the aggregate latency histogram. */
struct KvDigest
{
    Fnv chain;

    void
    reply(const kv::Service::Reply &r)
    {
        chain.u64(r.digest);
        chain.u64(r.latency);
    }

    std::uint64_t finish(const stats::Histogram &latency) const;
};

} // namespace perfbench
} // namespace morc

#endif // MORC_PERFBENCH_WORKLOADS_HH
