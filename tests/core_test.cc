/**
 * @file
 * Integration tests of the experiment harness: single-request probes,
 * the serving system, table rendering, and the energy projections.
 */

#include <gtest/gtest.h>

#include "core/probe.hh"
#include "core/serving_system.hh"
#include "core/table.hh"
#include "energy/projection.hh"

namespace
{

using namespace agentsim;
using agents::AgentKind;
using core::ProbeConfig;
using core::ServeConfig;
using workload::Benchmark;

ProbeConfig
probeCfg(AgentKind agent, Benchmark bench, int tasks = 6)
{
    ProbeConfig cfg;
    cfg.agent = agent;
    cfg.bench = bench;
    cfg.engineConfig = core::enginePreset8b();
    cfg.numTasks = tasks;
    return cfg;
}

TEST(Probe, ReactProducesFullMeasurements)
{
    const auto r = core::runProbe(probeCfg(AgentKind::ReAct,
                                           Benchmark::HotpotQA));
    ASSERT_EQ(r.requests.size(), 6u);
    for (const auto &req : r.requests) {
        EXPECT_GT(req.result.e2eSeconds, 0.0);
        EXPECT_GT(req.energyWh, 0.0);
        EXPECT_GT(req.gpuBusySeconds, 0.0);
        EXPECT_LE(req.gpuBusySeconds, req.result.e2eSeconds + 1e-9);
        EXPECT_GT(req.kvAvgBytes, 0.0);
        EXPECT_GE(req.kvMaxBytes, req.kvAvgBytes);
        EXPECT_GT(req.flops, 0.0);
    }
    EXPECT_GT(r.meanLlmCalls(), 1.0);
    EXPECT_GT(r.meanGpuIdleFraction(), 0.0);
    EXPECT_LT(r.meanGpuIdleFraction(), 1.0);
}

TEST(Probe, CotHasNoIdleFromTools)
{
    const auto cot =
        core::runProbe(probeCfg(AgentKind::CoT, Benchmark::HotpotQA));
    const auto react = core::runProbe(
        probeCfg(AgentKind::ReAct, Benchmark::HotpotQA));
    // Tool waits idle the GPU: ReAct idles more than CoT (Fig 6).
    EXPECT_LT(cot.meanGpuIdleFraction(),
              react.meanGpuIdleFraction());
}

TEST(Probe, DeterministicAcrossRuns)
{
    const auto a = core::runProbe(probeCfg(AgentKind::Reflexion,
                                           Benchmark::Math, 4));
    const auto b = core::runProbe(probeCfg(AgentKind::Reflexion,
                                           Benchmark::Math, 4));
    ASSERT_EQ(a.requests.size(), b.requests.size());
    for (std::size_t i = 0; i < a.requests.size(); ++i) {
        EXPECT_DOUBLE_EQ(a.requests[i].result.e2eSeconds,
                         b.requests[i].result.e2eSeconds);
        EXPECT_DOUBLE_EQ(a.requests[i].energyWh,
                         b.requests[i].energyWh);
    }
    EXPECT_DOUBLE_EQ(a.accuracy(), b.accuracy());
}

TEST(Probe, UnsupportedPairIsFatal)
{
    EXPECT_DEATH(
        {
            core::runProbe(
                probeCfg(AgentKind::CoT, Benchmark::WebShop, 1));
        },
        "does not evaluate");
}

TEST(Probe, SeventyBUsesMoreEnergyPerRequest)
{
    auto small = probeCfg(AgentKind::CoT, Benchmark::HotpotQA, 4);
    auto big = small;
    big.engineConfig = core::enginePreset70b();
    const auto r8 = core::runProbe(small);
    const auto r70 = core::runProbe(big);
    EXPECT_GT(r70.meanEnergyWh(), 3.0 * r8.meanEnergyWh());
}

TEST(Serving, ChatbotOpenLoopCompletes)
{
    ServeConfig cfg;
    cfg.chatbot = true;
    cfg.engineConfig = core::enginePreset8b();
    cfg.qps = 2.0;
    cfg.numRequests = 40;
    const auto r = core::runServing(cfg);
    EXPECT_EQ(r.completed, 40);
    EXPECT_GT(r.makespanSeconds, 0.0);
    EXPECT_GT(r.p95(), r.p50() * 0.99);
    EXPECT_GT(r.throughputQps(), 0.5);
}

TEST(Serving, AgentClosedLoopSequential)
{
    ServeConfig cfg;
    cfg.agent = AgentKind::ReAct;
    cfg.bench = Benchmark::WebShop;
    cfg.engineConfig = core::enginePreset8b();
    cfg.closedLoop = true;
    cfg.numRequests = 5;
    const auto r = core::runServing(cfg);
    EXPECT_EQ(r.completed, 5);
    // Sequential: makespan is the sum of latencies.
    EXPECT_NEAR(r.makespanSeconds, r.e2eSeconds.sum(), 1e-6);
}

TEST(Serving, ConcurrencyBeatsSequentialThroughput)
{
    ServeConfig seq;
    seq.agent = AgentKind::ReAct;
    seq.bench = Benchmark::HotpotQA;
    seq.engineConfig = core::enginePreset8b();
    seq.closedLoop = true;
    seq.numRequests = 8;
    const auto r_seq = core::runServing(seq);

    ServeConfig con = seq;
    con.closedLoop = false;
    con.qps = 2.0;
    const auto r_con = core::runServing(con);

    // Paper §IV-C: concurrency raises throughput substantially at
    // some latency cost.
    EXPECT_GT(r_con.throughputQps(), 2.0 * r_seq.throughputQps());
    EXPECT_GT(r_con.e2eSeconds.mean(), r_seq.e2eSeconds.mean());
}

TEST(Serving, PrefixCachingRaisesHitRate)
{
    ServeConfig cfg;
    cfg.agent = AgentKind::ReAct;
    cfg.bench = Benchmark::WebShop;
    cfg.engineConfig = core::enginePreset8b();
    cfg.qps = 1.0;
    cfg.numRequests = 20;
    const auto with = core::runServing(cfg);
    EXPECT_GT(with.cacheHitRate, 0.3);

    cfg.engineConfig.enablePrefixCaching = false;
    const auto without = core::runServing(cfg);
    EXPECT_DOUBLE_EQ(without.cacheHitRate, 0.0);
    // Caching reduces tail latency under identical load.
    EXPECT_LE(with.p95(), without.p95());
}

TEST(Serving, DeterministicAcrossRuns)
{
    ServeConfig cfg;
    cfg.chatbot = true;
    cfg.engineConfig = core::enginePreset8b();
    cfg.qps = 3.0;
    cfg.numRequests = 30;
    const auto a = core::runServing(cfg);
    const auto b = core::runServing(cfg);
    EXPECT_DOUBLE_EQ(a.makespanSeconds, b.makespanSeconds);
    EXPECT_DOUBLE_EQ(a.p95(), b.p95());
    EXPECT_DOUBLE_EQ(a.energyWh, b.energyWh);
}

TEST(Serving, MakespanStartsAtFirstSubmission)
{
    // Request 0 arrives at t = 0 and nothing runs after the last
    // completion, so the makespan spans the whole simulated run, no
    // matter which request happens to complete first.
    telemetry::SessionTelemetry session;
    ServeConfig cfg;
    cfg.chatbot = true;
    cfg.engineConfig = core::enginePreset8b();
    cfg.qps = 4.0;
    cfg.numRequests = 20;
    cfg.telemetry = &session;
    const auto r = core::runServing(cfg);
    double sim_seconds = -1.0;
    session.registry.forEachScalar(
        [&](const std::string &name, double v) {
            if (name == "agentsim_sim_virtual_seconds")
                sim_seconds = v;
        });
    EXPECT_DOUBLE_EQ(r.makespanSeconds, sim_seconds);
    EXPECT_DOUBLE_EQ(r.throughputQps(), 20 / sim_seconds);
}

TEST(Serving, ClosedLoopIgnoresQps)
{
    ServeConfig cfg;
    cfg.chatbot = true;
    cfg.closedLoop = true;
    cfg.engineConfig = core::enginePreset8b();
    cfg.qps = 0.0;
    cfg.numRequests = 3;
    EXPECT_EQ(core::runServing(cfg).completed, 3);
}

TEST(ServingDeathTest, OpenLoopRejectsNonPositiveQps)
{
    for (bool chatbot : {true, false}) {
        for (double qps : {0.0, -1.0}) {
            ServeConfig cfg;
            cfg.chatbot = chatbot;
            cfg.engineConfig = core::enginePreset8b();
            cfg.qps = qps;
            cfg.numRequests = 2;
            EXPECT_DEATH(core::runServing(cfg),
                         "open-loop serving needs qps > 0");
        }
    }
}

// ---------------------------------------------------------------
// Golden results for the serving modes outside the perfbench
// reference and the fig14 baseline: multi-turn sessions and
// closed-loop issue. Any change to these figures is a behaviour
// change and must be stated as one.
// ---------------------------------------------------------------

struct ServeGolden
{
    int completed;
    double p50;
    double p95;
    std::size_t turns;
    std::size_t ttfts;
    std::int64_t steps;
    std::int64_t prefillTokens;
    std::int64_t decodeTokens;
    double events;
    double ledgerGpuSeconds;
};

void
expectGolden(const core::ServeResult &r, const ServeGolden &g)
{
    EXPECT_EQ(r.completed, g.completed);
    EXPECT_DOUBLE_EQ(r.p50(), g.p50);
    EXPECT_DOUBLE_EQ(r.p95(), g.p95);
    EXPECT_EQ(r.turnSeconds.count(), g.turns);
    EXPECT_EQ(r.ttftSeconds.count(), g.ttfts);
    EXPECT_EQ(r.engineStats.steps, g.steps);
    EXPECT_EQ(r.engineStats.prefillTokens, g.prefillTokens);
    EXPECT_EQ(r.engineStats.decodeTokens, g.decodeTokens);
    EXPECT_DOUBLE_EQ(r.simEventsProcessed, g.events);
    EXPECT_DOUBLE_EQ(r.totalCost.gpuSeconds(), g.ledgerGpuSeconds);
}

TEST(ServingGolden, MultiTurnSessions)
{
    ServeConfig cfg;
    cfg.chatbot = true;
    cfg.multiTurn = true;
    cfg.engineConfig = core::enginePreset8b();
    cfg.qps = 0.5;
    cfg.numRequests = 20;
    cfg.seed = 2026;
    expectGolden(core::runServing(cfg),
                 {20, 12.8058385, 65.357550450000005, 42, 42, 4931,
                  6493, 8541, 5025, 83.789877019212852});
}

TEST(ServingGolden, ClosedLoopChat)
{
    ServeConfig cfg;
    cfg.chatbot = true;
    cfg.closedLoop = true;
    cfg.engineConfig = core::enginePreset8b();
    cfg.numRequests = 20;
    cfg.seed = 2026;
    expectGolden(core::runServing(cfg),
                 {20, 3.6946649999999996, 6.1601380500000023, 0, 20,
                  4548, 7252, 4522, 4588, 76.068978128389006});
}

TEST(ServingGolden, ClosedLoopReact)
{
    ServeConfig cfg;
    cfg.agent = AgentKind::ReAct;
    cfg.bench = Benchmark::HotpotQA;
    cfg.closedLoop = true;
    cfg.engineConfig = core::enginePreset8b();
    cfg.numRequests = 6;
    cfg.seed = 2026;
    expectGolden(core::runServing(cfg),
                 {6, 14.3923045, 19.636518500000001, 0, 0, 2784, 8120, 2748,
                  2887, 47.140943248240717});
}

TEST(Table, RendersAlignedCells)
{
    core::Table t("Demo");
    t.header({"name", "value"});
    t.row({"alpha", "1"});
    t.row({"b", "22222"});
    const auto text = t.render();
    EXPECT_NE(text.find("Demo"), std::string::npos);
    EXPECT_NE(text.find("alpha"), std::string::npos);
    EXPECT_NE(text.find("22222"), std::string::npos);
    EXPECT_EQ(t.rows(), 2u);
}

TEST(Table, Formatters)
{
    EXPECT_EQ(core::fmtDouble(3.14159, 2), "3.14");
    EXPECT_EQ(core::fmtPercent(0.1234), "12.3%");
    EXPECT_EQ(core::fmtSeconds(0.0005), "500 us");
    EXPECT_EQ(core::fmtSeconds(0.5), "500.0 ms");
    EXPECT_EQ(core::fmtSeconds(12.0), "12.00 s");
    EXPECT_EQ(core::fmtCount(5.0), "5");
    EXPECT_EQ(core::fmtEng(1.5e9, "W"), "1.50 GW");
}

TEST(Energy, ProjectionMath)
{
    // Paper Table III: 0.32 Wh/query at 71.4 M queries/day ~ 1.0 MW.
    const double watts = energy::datacenterPowerWatts(
        0.32, energy::chatGptDailyQueries);
    EXPECT_NEAR(watts / 1e6, 0.95, 0.05);
    // Reflexion 70B at Google scale ~ 198.9 GW.
    const double reflexion70 = energy::datacenterPowerWatts(
        348.41, energy::googleDailyQueries);
    EXPECT_NEAR(reflexion70 / 1e9, 198.9, 1.0);
    // Reflexion 8B daily energy at ChatGPT scale ~ 2.97 GWh.
    EXPECT_NEAR(energy::dailyEnergyGWh(41.53,
                                       energy::chatGptDailyQueries),
                2.97, 0.05);
}

TEST(Energy, WauSeriesIsMonotone)
{
    const auto series = energy::chatGptWauSeries();
    ASSERT_GE(series.size(), 4u);
    for (std::size_t i = 1; i < series.size(); ++i)
        EXPECT_GT(series[i].millions, series[i - 1].millions);
    EXPECT_DOUBLE_EQ(series.back().millions, 500.0);
}

} // namespace
