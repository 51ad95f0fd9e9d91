#include "workloads.hh"

#include <memory>

#include "core/cluster.hh"
#include "core/probe.hh"
#include "core/serving_system.hh"
#include "llm/model_spec.hh"
#include "sim/rng.hh"
#include "sim/strfmt.hh"
#include "telemetry/session.hh"
#include "telemetry/slo.hh"

namespace perfbench
{

namespace
{

using namespace agentsim;
using agents::AgentKind;
using workload::Benchmark;

/** Metric-name-safe tag for a rate ("0.5" -> "0p5"). */
std::string
rateTag(double qps)
{
    std::string tag = sim::strfmt("%g", qps);
    for (char &c : tag) {
        if (c == '.')
            c = 'p';
    }
    return tag;
}

double
count(std::int64_t v)
{
    return static_cast<double>(v);
}

UnitOutcome
serveOutcome(const core::ServeConfig &cfg)
{
    const core::ServeResult r = core::runServing(cfg);
    const auto &e = r.engineStats;
    const auto &c = r.cacheStats;
    UnitOutcome out;
    out.requests = r.completed;
    out.stats = {
        {"offered", cfg.numRequests},
        {"completed", r.completed},
        {"solved", r.solved},
        {"p50_s", r.p50()},
        {"p95_s", r.p95()},
        {"energy_wh", r.energyWh},
        {"events", r.simEventsProcessed},
        {"serving.steps", count(e.steps)},
        {"serving.preemptions", count(e.preemptions)},
        {"serving.prefill_tokens", count(e.prefillTokens)},
        {"serving.decode_tokens", count(e.decodeTokens)},
        {"kv.lookup_tokens", count(c.lookupTokens)},
        {"kv.hit_tokens", count(c.hitTokens)},
        {"kv.evictions", count(c.evictions)},
        {"kv.tier_demotions",
         count(c.dram.demotedBlocks + c.nvme.demotedBlocks)},
        {"kv.restored_tokens", count(c.restoredTokens)},
        {"ledger_gpu_s", r.totalCost.gpuSeconds()},
        {"busy_s", e.busySeconds},
    };
    return out;
}

/** One configuration; `run` simulates it with the given seed. */
struct Point
{
    std::string name;
    std::function<UnitOutcome(std::uint64_t)> run;
};

/**
 * Every point @p replicas times, each with its own seed drawn from
 * @p seed. Several draws per point keep a pass's work and peak memory
 * close to their average over seeds, so runs with different seeds
 * stay comparable.
 */
std::vector<Unit>
replicate(std::uint64_t seed, int replicas,
          const std::vector<Point> &points)
{
    std::vector<Unit> units;
    for (int r = 0; r < replicas; ++r) {
        for (const auto &p : points) {
            const std::uint64_t s = sim::hashCombine(seed, units.size());
            units.push_back({p.name + "_s" + std::to_string(r),
                             [run = p.run, s] { return run(s); }});
        }
    }
    return units;
}

/**
 * Serving points: one per rate. The bypass workloads attach no
 * observer and switch the engine's iteration sampler off, so no call
 * reaches the telemetry layer.
 */
std::vector<Point>
servingPoints(bool chatbot, Benchmark bench,
              const std::vector<double> &rates, int requests,
              std::int64_t kv_pool_bytes = 0, std::int64_t dram_blocks = 0,
              std::int64_t nvme_blocks = 0)
{
    std::vector<Point> points;
    for (double qps : rates) {
        core::ServeConfig cfg;
        cfg.chatbot = chatbot;
        cfg.agent = AgentKind::ReAct;
        cfg.bench = bench;
        cfg.engineConfig = core::enginePreset8b();
        cfg.engineConfig.kvPoolBytes = kv_pool_bytes;
        cfg.engineConfig.hostCacheBlocks = dram_blocks;
        cfg.engineConfig.nvmeCacheBlocks = nvme_blocks;
        cfg.engineConfig.samplerStride = 0;
        cfg.qps = qps;
        cfg.numRequests = requests;
        const std::string name =
            std::string(chatbot ? "chat_" : "react_") +
            std::string(workload::benchmarkName(bench)) + "_qps_" +
            rateTag(qps);
        points.push_back({name, [cfg](std::uint64_t s) {
                              auto c = cfg;
                              c.seed = s;
                              return serveOutcome(c);
                          }});
    }
    return points;
}

/** Long shared prompts growing over each episode, up to each knee
 *  (~2.6 QPS on HotpotQA, ~1.2 on WebShop). */
std::vector<Unit>
agentPrefix(std::uint64_t seed)
{
    auto points =
        servingPoints(false, Benchmark::HotpotQA, {0.5, 1.5, 2.5}, 120);
    for (auto &p : servingPoints(false, Benchmark::WebShop, {0.5, 1.0}, 120))
        points.push_back(std::move(p));
    return replicate(seed, 3, points);
}

/** Short, mostly unshared single-turn prompts up to saturation
 *  (~6.4 QPS). */
std::vector<Unit>
chatShort(std::uint64_t seed)
{
    return replicate(
        seed, 3,
        servingPoints(true, Benchmark::ShareGpt, {2.0, 4.0, 6.0}, 600));
}

/** Fig 17's constrained pool: 20% of the weights, one weight size of
 *  DRAM spill blocks and twice that on NVMe. */
std::vector<Unit>
kvPressure(std::uint64_t seed)
{
    const auto model = llm::llama31_8b();
    const auto pool =
        static_cast<std::int64_t>(0.2 * static_cast<double>(
                                            model.weightBytes()));
    const std::int64_t block_bytes = 16 * model.kvBytesPerToken();
    const std::int64_t dram_blocks = model.weightBytes() / block_bytes;
    // Spill and restore volumes vary most with the seed (restored tokens
    // by about 30% between seeds over three draws per point), so each
    // point takes more draws.
    return replicate(seed, 9,
                     servingPoints(false, Benchmark::HotpotQA,
                                   {0.5, 1.0, 1.5}, 100, pool,
                                   dram_blocks, 2 * dram_blocks));
}

/** Every observer the cluster takes, except the flight recorder
 *  (which writes incident bundles to disk). */
struct Observers
{
    telemetry::SessionTelemetry session;
    telemetry::SloTracker slo{telemetry::SloConfig{}};
};

UnitOutcome
clusterOutcome(core::ClusterConfig cfg)
{
    const auto obs = std::make_unique<Observers>();
    cfg.traceSink = &obs->session.trace;
    cfg.metrics = &obs->session.registry;
    cfg.spans = &obs->session.spans;
    cfg.timeseries = &obs->session.timeseries;
    cfg.slo = &obs->slo;
    const core::ClusterResult r = core::runCluster(cfg);
    serving::EngineStats sum;
    for (const auto &node : r.nodes) {
        sum.steps += node.engineStats.steps;
        sum.preemptions += node.engineStats.preemptions;
        sum.prefillTokens += node.engineStats.prefillTokens;
        sum.decodeTokens += node.engineStats.decodeTokens;
        sum.busySeconds += node.engineStats.busySeconds;
        sum.busyJoules += node.engineStats.busyJoules;
    }
    UnitOutcome out;
    out.requests = r.completed;
    out.stats = {
        {"offered", cfg.numRequests},
        {"completed", r.completed},
        {"failed", r.failed},
        {"p50_s", r.p50()},
        {"p95_s", r.p95()},
        {"busy_energy_wh", sum.busyJoules / 3600.0},
        {"serving.steps", count(sum.steps)},
        {"serving.preemptions", count(sum.preemptions)},
        {"serving.prefill_tokens", count(sum.prefillTokens)},
        {"serving.decode_tokens", count(sum.decodeTokens)},
        {"kv.hit_rate", r.aggregateHitRate()},
        {"busy_s", sum.busySeconds},
        {"episode_gpu_s", r.episodeCost.gpuSeconds()},
    };
    return out;
}

/** Four nodes serving an agent/chat mix with every observer on. A few
 *  tool calls fail, as in a real fleet; the trace records each as an
 *  instant event. */
std::vector<Unit>
fleetObserved(std::uint64_t seed)
{
    std::vector<Point> points;
    for (double qps : {2.0, 4.0, 8.0}) {
        core::ClusterConfig cfg;
        cfg.numNodes = 4;
        cfg.engineConfig = core::enginePreset8b();
        cfg.policy = core::RoutePolicy::CacheAffinity;
        core::WorkloadSpec react;
        react.agent = AgentKind::ReAct;
        react.bench = Benchmark::HotpotQA;
        core::WorkloadSpec reflexion;
        reflexion.agent = AgentKind::Reflexion;
        reflexion.bench = Benchmark::WebShop;
        core::WorkloadSpec chat;
        chat.chatbot = true;
        chat.bench = Benchmark::ShareGpt;
        chat.weight = 2.0;
        cfg.mix = {react, reflexion, chat};
        cfg.faults.toolFailureProb = 0.02;
        cfg.qps = qps;
        cfg.numRequests = 160;
        points.push_back({"fleet4_mix_qps_" + rateTag(qps),
                          [cfg](std::uint64_t s) {
                              auto c = cfg;
                              c.seed = s;
                              return clusterOutcome(c);
                          }});
    }
    return replicate(seed, 3, points);
}

} // namespace

std::vector<Unit>
makeUnits(std::string_view workload, std::uint64_t seed)
{
    if (workload == "agent_prefix")
        return agentPrefix(seed);
    if (workload == "chat_short")
        return chatShort(seed);
    if (workload == "kv_pressure")
        return kvPressure(seed);
    if (workload == "fleet_observed")
        return fleetObserved(seed);
    return {};
}

} // namespace perfbench
