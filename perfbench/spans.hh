/**
 * @file
 * Host-time spans recorded from outside the simulator: the traced
 * replay wraps every call into a layer in a Scope, and each span keeps
 * its call count and self time (its duration minus the time of the
 * spans it encloses). Spans live in memory; main.cc prints them at
 * the end of the run.
 */

#ifndef MORC_PERFBENCH_SPANS_HH
#define MORC_PERFBENCH_SPANS_HH

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <string>
#include <type_traits>
#include <vector>

namespace morc {
namespace perfbench {

class Spans
{
  public:
    using Clock = std::chrono::steady_clock;

    Spans() = default;

    explicit Spans(std::vector<std::string> names)
        : names_(std::move(names)), calls_(names_.size(), 0),
          selfNs_(names_.size(), 0)
    {}

    void
    begin(unsigned id)
    {
        stack_[depth_++] = Frame{id, Clock::now(), 0};
    }

    void
    end()
    {
        const Frame f = stack_[--depth_];
        const std::int64_t dur = (Clock::now() - f.start).count();
        selfNs_[f.id] += dur - f.childNs;
        calls_[f.id]++;
        if (depth_ > 0)
            stack_[depth_ - 1].childNs += dur;
    }

    /** Time one call of @p fn as span @p id. */
    template <typename Fn>
    auto
    call(unsigned id, Fn &&fn)
    {
        struct Scope
        {
            Spans &s;
            ~Scope() { s.end(); }
        };
        begin(id);
        Scope scope{*this};
        return fn();
    }

    /** Forget everything recorded so far (end of warm-up). */
    void
    reset()
    {
        std::fill(calls_.begin(), calls_.end(), 0);
        std::fill(selfNs_.begin(), selfNs_.end(), 0);
    }

    /** Override a span's call count (a root span whose calls are the
     *  loop iterations it encloses, not the times it was opened). */
    void setCalls(unsigned id, std::uint64_t n) { calls_[id] = n; }

    std::size_t size() const { return names_.size(); }
    const std::string &name(unsigned id) const { return names_[id]; }
    std::uint64_t calls(unsigned id) const { return calls_[id]; }

    double
    selfSeconds(unsigned id) const
    {
        return static_cast<double>(selfNs_[id]) * 1e-9;
    }

  private:
    static_assert(std::is_same_v<Clock::duration, std::chrono::nanoseconds>,
                  "span arithmetic assumes a nanosecond clock");

    struct Frame
    {
        unsigned id;
        Clock::time_point start;
        std::int64_t childNs;
    };

    std::vector<std::string> names_;
    std::vector<std::uint64_t> calls_;
    std::vector<std::int64_t> selfNs_;
    std::array<Frame, 8> stack_{};
    unsigned depth_ = 0;
};

} // namespace perfbench
} // namespace morc

#endif // MORC_PERFBENCH_SPANS_HH
