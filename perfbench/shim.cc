/**
 * @file
 * Layer-boundary shim of the traced binary. Each layer is a static
 * archive, and the entry points below are undefined references across
 * archives, so the linker can redirect every call to them with
 * -Wl,--wrap=<mangled name>: the call lands in wrap_<id>, which
 * records a span and forwards to the real definition, bound as
 * "__real_<mangled name>". Calls inside one translation unit are not
 * redirected; they count toward the caller.
 *
 * A member function is declared here as a free function taking `this`
 * first. That relies on the Itanium C++ ABI on x86-64, where both are
 * called alike, including the hidden return-slot argument.
 *
 * The "__real_" symbols are weak. When an entry point is renamed, the
 * link still succeeds, report() marks the entry absent, and the run
 * names it as missing. CMakeLists.txt reads the mangled names from the
 * lines of this file that hold only a quoted "_Z..." string.
 */

#include "shim.hh"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <span>
#include <string>
#include <utility>

#include "agents/prompt.hh"
#include "kv/block_manager.hh"
#include "llm/perf_model.hh"
#include "self_time.hh"
#include "sim/event_queue.hh"
#include "telemetry/sampler.hh"
#include "telemetry/slo.hh"
#include "telemetry/span.hh"
#include "telemetry/trace_sink.hh"
#include "workload/token_stream.hh"

namespace perfbench::shim
{

namespace
{

enum Entry : std::size_t
{
    kvAllocatePrompt,
    kvAppendToken,
    kvRelease,
    kvParkChain,
    kvPrefetchChain,
    llmStepCost,
    workloadMakeTokens,
    agentsPromptBuild,
    simQueuePush,
    simQueuePop,
    telemetryTraceComplete,
    telemetryTraceInstant,
    telemetryTraceCounter,
    telemetrySpanChild,
    telemetrySpanEnd,
    telemetrySamplerRecord,
    telemetrySloObserve,
    kEntryCount
};

struct EntryInfo
{
    const char *layer = nullptr;
    const char *name = nullptr;
    bool present = false;
};

EntryInfo g_entries[kEntryCount];
SelfTimeAccounting g_accounting(kEntryCount);
std::uint64_t g_work[kEntryCount] = {};
bool g_enabled = false;

std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** One span, from construction to destruction (exceptions included). */
class Scope
{
  public:
    Scope(Entry entry, bool counted, std::uint64_t work)
        : on_(g_enabled && counted)
    {
        if (!on_)
            return;
        g_work[entry] += work;
        g_accounting.enter(entry, nowNs());
    }
    ~Scope()
    {
        if (on_)
            g_accounting.leave(nowNs());
    }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    bool on_;
};

[[noreturn]] void
missing(const char *name)
{
    std::fprintf(stderr, "perfbench: %s was called but is not linked\n",
                 name);
    std::abort();
}

struct Registrar
{
    Registrar(Entry entry, const char *layer, const char *name,
              bool present)
    {
        g_entries[entry] = {layer, name, present};
    }
};

} // namespace

// Spans are recorded only when `counted` holds for the call;
// `work_units` is what the call adds to the entry's work count.
#define PERFBENCH_WRAP(id, layer, label, mangled, Ret, params, args,    \
                       counted, work_units)                             \
    Ret real_##id params __asm__("__real_" mangled)                     \
        __attribute__((weak));                                          \
    Ret wrap_##id params __asm__("__wrap_" mangled);                    \
    Ret wrap_##id params                                                \
    {                                                                   \
        if (real_##id == nullptr)                                       \
            missing(label);                                             \
        const Scope scope(id, counted, work_units);                     \
        return real_##id args;                                          \
    }                                                                   \
    namespace                                                           \
    {                                                                   \
    const Registrar registrar_##id(id, layer, label,                    \
                                   real_##id != nullptr);               \
    }

using namespace agentsim;
using Tokens = std::span<const kv::TokenId>;

PERFBENCH_WRAP(
    kvAllocatePrompt, "kv", "kv::BlockManager::allocatePrompt",
    "_ZN8agentsim2kv12BlockManager14allocatePromptEmSt4spanIKmLm18446744073709551615EE",
    std::optional<kv::PromptAlloc>,
    (kv::BlockManager * self, kv::SeqId seq, Tokens tokens),
    (self, seq, tokens), true, 1)

PERFBENCH_WRAP(
    kvAppendToken, "kv", "kv::BlockManager::appendToken",
    "_ZN8agentsim2kv12BlockManager11appendTokenEmm",
    bool, (kv::BlockManager * self, kv::SeqId seq, kv::TokenId token),
    (self, seq, token), true, 1)

PERFBENCH_WRAP(
    kvRelease, "kv", "kv::BlockManager::release",
    "_ZN8agentsim2kv12BlockManager7releaseEm",
    void, (kv::BlockManager * self, kv::SeqId seq), (self, seq), true, 1)

PERFBENCH_WRAP(
    kvParkChain, "kv", "kv::BlockManager::parkChain",
    "_ZN8agentsim2kv12BlockManager9parkChainESt4spanIKmLm18446744073709551615EE",
    std::int64_t, (kv::BlockManager * self, Tokens tokens),
    (self, tokens), true, 1)

PERFBENCH_WRAP(
    kvPrefetchChain, "kv", "kv::BlockManager::prefetchChain",
    "_ZN8agentsim2kv12BlockManager13prefetchChainESt4spanIKmLm18446744073709551615EE",
    kv::PrefetchResult, (kv::BlockManager * self, Tokens tokens),
    (self, tokens), true, 1)

PERFBENCH_WRAP(
    llmStepCost, "llm", "llm::PerfModel::stepCost",
    "_ZNK8agentsim3llm9PerfModel8stepCostERKNS0_8StepWorkE",
    llm::StepCost,
    (const llm::PerfModel *self, const llm::StepWork &work),
    (self, work), true, 1)

PERFBENCH_WRAP(
    workloadMakeTokens, "workload", "workload::makeTokens",
    "_ZN8agentsim8workload10makeTokensEmll",
    std::vector<kv::TokenId>,
    (std::uint64_t stream, std::int64_t count, std::int64_t offset),
    (stream, count, offset), true,
    static_cast<std::uint64_t>(count))

PERFBENCH_WRAP(
    agentsPromptBuild, "agents", "agents::PromptBuilder::build",
    "_ZNK8agentsim6agents13PromptBuilder5buildEv",
    agents::Prompt, (const agents::PromptBuilder *self), (self), true, 1)

PERFBENCH_WRAP(
    simQueuePush, "sim", "sim::EventQueue::push",
    "_ZN8agentsim3sim10EventQueue4pushElSt8functionIFvvEE",
    void,
    (sim::EventQueue * self, sim::Tick when,
     std::function<void()> action),
    (self, when, std::move(action)), true, 1)

PERFBENCH_WRAP(
    simQueuePop, "sim", "sim::EventQueue::pop",
    "_ZN8agentsim3sim10EventQueue3popEv",
    sim::Event, (sim::EventQueue * self), (self), true, 1)

PERFBENCH_WRAP(
    telemetryTraceComplete, "telemetry", "telemetry::TraceSink::complete",
    "_ZN8agentsim9telemetry9TraceSink8completeEimRKNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEEPKcllS9_",
    void,
    (telemetry::TraceSink * self, int pid, std::uint64_t tid,
     const std::string &name, const char *cat, sim::Tick start,
     sim::Tick end, const std::string &args_json),
    (self, pid, tid, name, cat, start, end, args_json), true, 1)

PERFBENCH_WRAP(
    telemetryTraceInstant, "telemetry", "telemetry::TraceSink::instant",
    "_ZN8agentsim9telemetry9TraceSink7instantEimRKNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEEPKcl",
    void,
    (telemetry::TraceSink * self, int pid, std::uint64_t tid,
     const std::string &name, const char *cat, sim::Tick at),
    (self, pid, tid, name, cat, at), true, 1)

PERFBENCH_WRAP(
    telemetryTraceCounter, "telemetry", "telemetry::TraceSink::counter",
    "_ZN8agentsim9telemetry9TraceSink7counterEiRKNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEElS9_",
    void,
    (telemetry::TraceSink * self, int pid, const std::string &name,
     sim::Tick at, const std::string &args_json),
    (self, pid, name, at, args_json), true, 1)

PERFBENCH_WRAP(
    telemetrySpanChild, "telemetry", "telemetry::SpanCollector::child",
    "_ZN8agentsim9telemetry13SpanCollector5childENS0_7SpanRefENS0_8SpanKindENSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEEl",
    telemetry::SpanRef,
    (telemetry::SpanCollector * self, telemetry::SpanRef parent,
     telemetry::SpanKind kind, std::string label, sim::Tick start),
    (self, parent, kind, std::move(label), start), true, 1)

PERFBENCH_WRAP(
    telemetrySpanEnd, "telemetry", "telemetry::SpanCollector::end",
    "_ZN8agentsim9telemetry13SpanCollector3endENS0_7SpanRefEl",
    void,
    (telemetry::SpanCollector * self, telemetry::SpanRef span,
     sim::Tick end_tick),
    (self, span, end_tick), true, 1)

// The engine calls record() on every step. A sampler with stride 0
// returns at once; that call does no telemetry work and is not counted.
PERFBENCH_WRAP(
    telemetrySamplerRecord, "telemetry", "telemetry::EngineSampler::record",
    "_ZN8agentsim9telemetry13EngineSampler6recordERKNS0_15IterationSampleE",
    void,
    (telemetry::EngineSampler * self,
     const telemetry::IterationSample &sample),
    (self, sample), self->enabled(), 1)

PERFBENCH_WRAP(
    telemetrySloObserve, "telemetry", "telemetry::SloTracker::observe",
    "_ZN8agentsim9telemetry10SloTracker7observeENS0_9SloMetricEld",
    void,
    (telemetry::SloTracker * self, telemetry::SloMetric metric,
     sim::Tick now, double seconds),
    (self, metric, now, seconds), true, 1)

#undef PERFBENCH_WRAP

void
setEnabled(bool on)
{
    g_enabled = on;
}

std::vector<EntryReport>
report()
{
    std::vector<EntryReport> out;
    for (std::size_t i = 0; i < kEntryCount; ++i) {
        const auto &t = g_accounting.totals(i);
        out.push_back({g_entries[i].layer, g_entries[i].name,
                       g_entries[i].present, t.calls, g_work[i],
                       t.selfNs, t.totalNs});
    }
    return out;
}

std::int64_t
coveredNs()
{
    return g_accounting.coveredNs();
}

} // namespace perfbench::shim
