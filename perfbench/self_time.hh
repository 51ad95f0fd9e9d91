/**
 * @file
 * Self-time accounting over properly nested spans. A span's self time
 * is its duration minus the durations of its direct children, so the
 * self times of all spans sum to the time covered by the outermost
 * ones. Spans are folded into per-entry totals as they close: a traced
 * run makes tens of millions of them, far too many to keep.
 */

#ifndef AGENTSIM_PERFBENCH_SELF_TIME_HH
#define AGENTSIM_PERFBENCH_SELF_TIME_HH

#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench
{

class SelfTimeAccounting
{
  public:
    struct Totals
    {
        std::uint64_t calls = 0;
        /** Duration minus the durations of direct children. */
        std::int64_t selfNs = 0;
        /** Full duration, children included. */
        std::int64_t totalNs = 0;
    };

    explicit SelfTimeAccounting(std::size_t entries) : totals_(entries)
    {
        open_.reserve(64);
    }

    /** Open a span of @p entry at @p now_ns, as a child of the span
     *  open at the top of the stack, if any. */
    void
    enter(std::size_t entry, std::int64_t now_ns)
    {
        open_.push_back({entry, now_ns, 0});
    }

    /** Close the innermost open span at @p now_ns. */
    void
    leave(std::int64_t now_ns)
    {
        const Frame f = open_.back();
        open_.pop_back();
        const std::int64_t dur = now_ns - f.startNs;
        Totals &t = totals_[f.entry];
        ++t.calls;
        t.totalNs += dur;
        t.selfNs += dur - f.childNs;
        if (open_.empty())
            coveredNs_ += dur;
        else
            open_.back().childNs += dur;
    }

    const Totals &totals(std::size_t entry) const
    {
        return totals_[entry];
    }

    /** Time covered by outermost spans. */
    std::int64_t coveredNs() const { return coveredNs_; }

    std::size_t depth() const { return open_.size(); }

  private:
    struct Frame
    {
        std::size_t entry;
        std::int64_t startNs;
        std::int64_t childNs;
    };

    std::vector<Totals> totals_;
    std::vector<Frame> open_;
    std::int64_t coveredNs_ = 0;
};

} // namespace perfbench

#endif // AGENTSIM_PERFBENCH_SELF_TIME_HH
