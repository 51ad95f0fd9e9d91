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

// ---------------------------------------------------------------
// Golden per-request probe windows: every RequestProbe measurement
// of a tool-using agent, a fan-out agent and a 70B node. Any change
// to these figures is a behaviour change and must be stated as one.
// ---------------------------------------------------------------

struct RequestGolden
{
    bool solved;
    int llmCalls;
    int toolCalls;
    double e2eSeconds;
    std::int64_t promptTokens;
    std::int64_t cachedPromptTokens;
    std::int64_t outputTokens;
    double energyWh;
    double gpuBusySeconds;
    double gpuPrefillSeconds;
    double gpuDecodeSeconds;
    double gpuCoreActiveSeconds;
    double kvAvgBytes;
    double kvMaxBytes;
    double flops;
    double blameSeconds;
};

void
expectGolden(const core::ProbeResult &r,
             const std::vector<RequestGolden> &requests,
             double accuracy, double idle_fraction)
{
    ASSERT_EQ(r.requests.size(), requests.size());
    for (std::size_t i = 0; i < requests.size(); ++i) {
        SCOPED_TRACE(i);
        const core::RequestProbe &got = r.requests[i];
        const RequestGolden &g = requests[i];
        EXPECT_EQ(got.result.solved, g.solved);
        EXPECT_EQ(got.result.llmCalls, g.llmCalls);
        EXPECT_EQ(got.result.toolCalls, g.toolCalls);
        EXPECT_DOUBLE_EQ(got.result.e2eSeconds, g.e2eSeconds);
        EXPECT_EQ(got.result.promptTokensTotal, g.promptTokens);
        EXPECT_EQ(got.result.cachedPromptTokensTotal,
                  g.cachedPromptTokens);
        EXPECT_EQ(got.result.outputTokens, g.outputTokens);
        EXPECT_DOUBLE_EQ(got.energyWh, g.energyWh);
        EXPECT_DOUBLE_EQ(got.gpuBusySeconds, g.gpuBusySeconds);
        EXPECT_DOUBLE_EQ(got.gpuPrefillSeconds, g.gpuPrefillSeconds);
        EXPECT_DOUBLE_EQ(got.gpuDecodeSeconds, g.gpuDecodeSeconds);
        EXPECT_DOUBLE_EQ(got.gpuCoreActiveSeconds,
                         g.gpuCoreActiveSeconds);
        EXPECT_DOUBLE_EQ(got.kvAvgBytes, g.kvAvgBytes);
        EXPECT_DOUBLE_EQ(got.kvMaxBytes, g.kvMaxBytes);
        EXPECT_DOUBLE_EQ(got.flops, g.flops);
        EXPECT_DOUBLE_EQ(got.blame.total(), g.blameSeconds);
    }
    EXPECT_DOUBLE_EQ(r.accuracy(), accuracy);
    EXPECT_DOUBLE_EQ(r.meanGpuIdleFraction(), idle_fraction);
}

TEST(ProbeGolden, ReactHotpotQa)
{
    auto cfg = probeCfg(AgentKind::ReAct, Benchmark::HotpotQA, 4);
    cfg.seed = 2026;
    telemetry::SpanCollector spans;
    cfg.spans = &spans;
    expectGolden(
        core::runProbe(cfg),
        {{false, 6, 6, 12.84212, 11281, 8864, 405, 0.61668733581467738,
          6.9524938289949194, 0.22760287093011222, 6.7248909580648064,
          0.25829561608951046, 144420696.1784777, 364904448,
          44323527720960, 12.842120000000001},
         {true, 3, 2, 5.115259, 3704, 3360, 245, 0.32380638453097021,
          4.1061942067647941, 0.050490652089552446, 4.0557035546752402,
          0.053539960588531554, 138066280.18752521, 205520896,
          9187457236992, 5.115259},
         {false, 7, 7, 17.332567999999998, 13602, 12432, 609,
          0.88085869223317503, 10.284651771949564, 0.14076774563247757,
          10.143884026317094, 0.16504405977808878, 156800291.57166785,
          358612992, 28321560657920, 17.332568000000002},
         {false, 7, 7, 20.404502000000001, 14801, 13184, 622,
          0.9444438525898744, 10.536776477882004, 0.17081704223917726,
          10.365959435642822, 0.20944145811393938, 139406269.72759169,
          417333248, 35940154212352, 20.404502000000001}},
        0.25, 0.38652933800495121);
}

TEST(ProbeGolden, LatsFanOut)
{
    auto cfg = probeCfg(AgentKind::Lats, Benchmark::HotpotQA, 2);
    cfg.seed = 2026;
    telemetry::SpanCollector spans;
    cfg.spans = &spans;
    expectGolden(
        core::runProbe(cfg),
        {{true, 14, 8, 11.919298, 19308, 16320, 743, 0.60314566419128668,
          6.9356253794736595, 0.29555830299390878, 6.6400670764797516,
          0.33912402769752903, 142174117.42736393, 335544320,
          58193683152896, 11.919298},
         {true, 12, 6, 7.5876359999999998, 14487, 13264, 709,
          0.42430713831497519, 5.1187004425266949, 0.1305110439492847,
          4.9881893985774122, 0.17518154711421929, 134244884.49150908,
          331350016, 30061153484800, 7.5876359999999989}},
        1.0, 0.3717536317470978);
}

TEST(ProbeGolden, Reflexion70bWithoutSpans)
{
    auto cfg = probeCfg(AgentKind::Reflexion, Benchmark::HotpotQA, 2);
    cfg.engineConfig = core::enginePreset70b();
    cfg.seed = 2026;
    expectGolden(
        core::runProbe(cfg),
        {{true, 6, 5, 13.508563000000001, 9282, 7568, 414,
          6.4998866617201569, 10.077886441815897, 0.26548766494459469,
          9.8123987768713032, 0.29219297195661237, 372363198.64896363,
          692060160, 300841883926528, 0},
         {true, 6, 3, 12.040150000000001, 6144, 5376, 416,
          6.2679672538183153, 10.011473008260873, 0.16177011576850353,
          9.8497028924923722, 0.16199385749979772, 283550131.04829425,
          545259520, 166788875681792, 0}},
        1.0, 0.21122788461747638);
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
