/**
 * @file
 * Benchmark driver: runs one workload's units single-threaded and
 * prints one JSON object per line for run.py to aggregate.
 *
 *   perfbench --workload <name> --seed <n> --seconds <s> [--setup-only]
 *
 * Set-up is static init, building the unit list and one untimed
 * warm-up run of the first unit; "timed_start" marks its end on the
 * steady clock. The timed part then runs whole passes over the unit
 * list until --seconds have elapsed (at least one pass), printing a
 * "rep" line per unit run. The traced build (PERFBENCH_TRACED) records
 * layer spans during timed unit runs only and prints them at the end.
 */

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "workloads.hh"

#ifdef PERFBENCH_TRACED
#include "shim.hh"
#endif

namespace
{

double
steadySeconds()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (const char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            out += ' ';
        } else {
            out += c;
        }
    }
    return out + "\"";
}

/**
 * Peak resident set of this program, in KiB. Read from VmHWM: unlike
 * getrusage's ru_maxrss, it starts afresh at exec and so does not
 * include the launching process.
 */
long
peakRssKb()
{
    std::FILE *f = std::fopen("/proc/self/status", "r");
    if (f == nullptr)
        return 0;
    char line[256];
    long kb = 0;
    while (std::fgets(line, sizeof line, f) != nullptr) {
        if (std::sscanf(line, "VmHWM: %ld kB", &kb) == 1)
            break;
    }
    std::fclose(f);
    return kb;
}

void
setTracing([[maybe_unused]] bool on)
{
#ifdef PERFBENCH_TRACED
    perfbench::shim::setEnabled(on);
#endif
}

void
printTrace()
{
#ifdef PERFBENCH_TRACED
    std::printf("{\"event\":\"trace\",\"covered_ns\":%lld,\"entries\":[",
                static_cast<long long>(perfbench::shim::coveredNs()));
    bool first = true;
    for (const auto &e : perfbench::shim::report()) {
        std::printf("%s{\"layer\":\"%s\",\"entry\":\"%s\","
                    "\"present\":%s,\"calls\":%llu,\"work\":%llu,"
                    "\"self_ns\":%lld,\"total_ns\":%lld}",
                    first ? "" : ",", e.layer, e.entry,
                    e.present ? "true" : "false",
                    static_cast<unsigned long long>(e.calls),
                    static_cast<unsigned long long>(e.work),
                    static_cast<long long>(e.selfNs),
                    static_cast<long long>(e.totalNs));
        first = false;
    }
    std::printf("]}\n");
#endif
}

/** Run @p unit once; print its "rep" line. */
void
runTimed(const perfbench::Unit &unit, int pass)
{
    std::string error;
    perfbench::UnitOutcome outcome;
    setTracing(true);
    const double start = steadySeconds();
    try {
        outcome = unit.run();
    } catch (const std::exception &e) {
        error = e.what();
    }
    const double wall = steadySeconds() - start;
    setTracing(false);

    std::printf("{\"event\":\"rep\",\"pass\":%d,\"unit\":%s,"
                "\"wall_s\":%.9f,\"requests\":%d,",
                pass, jsonString(unit.name).c_str(), wall,
                outcome.requests);
    if (!error.empty())
        std::printf("\"error\":%s,", jsonString(error).c_str());
    std::printf("\"stats\":{");
    bool first = true;
    for (const auto &[name, value] : outcome.stats) {
        std::printf("%s%s:%.17g", first ? "" : ",",
                    jsonString(name).c_str(), value);
        first = false;
    }
    std::printf("}}\n");
    // Flushed per unit, so the lines before an abort still reach run.py.
    std::fflush(stdout);
}

int
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload <name> "
                 "--seed <n> --seconds <s> [--setup-only]\n",
                 why);
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = -1.0;
    bool setup_only = false;
    for (int i = 1; i < argc; ++i) {
        const bool has_value = i + 1 < argc;
        if (std::strcmp(argv[i], "--setup-only") == 0)
            setup_only = true;
        else if (std::strcmp(argv[i], "--workload") == 0 && has_value)
            workload = argv[++i];
        else if (std::strcmp(argv[i], "--seed") == 0 && has_value)
            seed = std::strtoull(argv[++i], nullptr, 10);
        else if (std::strcmp(argv[i], "--seconds") == 0 && has_value)
            seconds = std::strtod(argv[++i], nullptr);
        else
            return usage("bad argument");
    }
    if (seconds < 0.0)
        return usage("--seconds is required");
    const auto units = perfbench::makeUnits(workload, seed);
    if (units.empty())
        return usage("unknown workload");

    try {
        units.front().run();
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: warm-up failed: %s\n",
                     e.what());
        return 1;
    }
    std::printf("{\"event\":\"timed_start\",\"steady_s\":%.9f}\n",
                steadySeconds());
    if (setup_only)
        return 0;

    const double start = steadySeconds();
    long first_pass_rss_kb = 0;
    int passes = 0;
    do {
        for (const auto &unit : units)
            runTimed(unit, passes);
        if (passes++ == 0)
            first_pass_rss_kb = peakRssKb();
    } while (steadySeconds() - start < seconds);

    printTrace();
    std::printf("{\"event\":\"end\",\"passes\":%d,"
                "\"first_pass_peak_rss_kb\":%ld}\n",
                passes, first_pass_rss_kb);
    return 0;
}
