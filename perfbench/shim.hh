/**
 * @file
 * Control of the traced binary's layer-boundary shim (shim.cc).
 */

#ifndef AGENTSIM_PERFBENCH_SHIM_HH
#define AGENTSIM_PERFBENCH_SHIM_HH

#include <cstdint>
#include <vector>

namespace perfbench::shim
{

/** Record spans only while enabled (off at start). */
void setEnabled(bool on);

struct EntryReport
{
    const char *layer;
    /** Qualified name of the wrapped entry point. */
    const char *entry;
    /** False when the entry's real definition is absent from the
     *  link, e.g. because it was renamed. */
    bool present;
    std::uint64_t calls;
    /** Tokens made, for workload::makeTokens; calls, for the rest. */
    std::uint64_t work;
    std::int64_t selfNs;
    std::int64_t totalNs;
};

std::vector<EntryReport> report();

/** Host time covered by outermost wrapped calls. */
std::int64_t coveredNs();

} // namespace perfbench::shim

#endif // AGENTSIM_PERFBENCH_SHIM_HH
