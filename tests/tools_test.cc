/**
 * @file
 * Tests for the simulated tool environments.
 */

#include <gtest/gtest.h>

#include "llm/hardware.hh"
#include "llm/model_spec.hh"
#include "serving/engine.hh"
#include "tools/catalog.hh"

namespace
{

using namespace agentsim;
using sim::Simulation;
using sim::Task;
using tools::LatencySpec;
using tools::ObservationSpec;
using tools::Tool;
using tools::ToolResult;

Task<ToolResult>
invokeOnce(Tool &tool, sim::Rng &rng)
{
    co_return co_await tool.invoke(rng);
}

TEST(LatencySpec, ConstantAndUniform)
{
    sim::Rng rng(1, "lat", 0);
    LatencySpec c{LatencySpec::Dist::Constant, 0.5, 0.0};
    EXPECT_DOUBLE_EQ(c.sample(rng), 0.5);
    EXPECT_DOUBLE_EQ(c.mean(), 0.5);

    LatencySpec u{LatencySpec::Dist::Uniform, 0.1, 0.3};
    for (int i = 0; i < 1000; ++i) {
        const double x = u.sample(rng);
        EXPECT_GE(x, 0.1);
        EXPECT_LE(x, 0.3);
    }
    EXPECT_DOUBLE_EQ(u.mean(), 0.2);
}

TEST(LatencySpec, LognormalMeanApproximatelyRight)
{
    sim::Rng rng(1, "lat", 1);
    LatencySpec l{LatencySpec::Dist::Lognormal, 1.2, 0.55};
    double total = 0.0;
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        total += l.sample(rng);
    EXPECT_NEAR(total / n, 1.2, 0.04);
    EXPECT_DOUBLE_EQ(l.mean(), 1.2);
}

TEST(ObservationSpec, ClampsToBounds)
{
    sim::Rng rng(1, "obs", 0);
    ObservationSpec spec{100.0, 500.0, 20, 150};
    for (int i = 0; i < 2000; ++i) {
        const auto n = spec.sample(rng);
        EXPECT_GE(n, 20);
        EXPECT_LE(n, 150);
    }
}

TEST(StochasticTool, AdvancesVirtualTime)
{
    Simulation sim;
    auto tool = tools::makeWikipediaSearch(sim);
    sim::Rng rng(1, "call", 0);
    auto t = invokeOnce(*tool, rng);
    sim.run();
    const ToolResult r = t.result();
    EXPECT_GT(r.latencySeconds, 0.0);
    EXPECT_GT(r.observationTokens, 0);
    EXPECT_FALSE(r.usedGpu);
    EXPECT_EQ(tool->invocations(), 1);
    EXPECT_NEAR(sim::toSeconds(sim.now()), r.latencySeconds, 1e-9);
}

TEST(StochasticTool, WebshopIsFastWikipediaIsSlow)
{
    Simulation sim;
    auto wiki = tools::makeWikipediaSearch(sim);
    auto shop = tools::makeWebshopSearch(sim);
    sim::Rng rng(1, "call", 0);
    double wiki_total = 0.0;
    double shop_total = 0.0;
    const int n = 500;
    for (int i = 0; i < n; ++i) {
        auto a = invokeOnce(*wiki, rng);
        auto b = invokeOnce(*shop, rng);
        sim.run();
        wiki_total += a.result().latencySeconds;
        shop_total += b.result().latencySeconds;
    }
    // Paper: Wikipedia ~1.2 s, WebShop ~20 ms.
    EXPECT_NEAR(wiki_total / n, 1.2, 0.25);
    EXPECT_NEAR(shop_total / n, 0.022, 0.01);
    EXPECT_GT(wiki_total / n, 20.0 * shop_total / n);
}

TEST(SelfTestTool, UsesGpuThroughEngine)
{
    Simulation sim;
    serving::EngineConfig cfg;
    cfg.model = llm::llama31_8b();
    cfg.node = llm::singleA100();
    serving::LlmEngine engine(sim, cfg);

    auto tool = tools::makeSelfTest(sim, engine, 7);
    EXPECT_TRUE(tool->usesGpu());
    sim::Rng rng(1, "call", 0);
    auto t = invokeOnce(*tool, rng);
    sim.run();
    const ToolResult r = t.result();
    EXPECT_TRUE(r.usedGpu);
    EXPECT_GT(r.observationTokens, 0);
    // The engine really served the test-generation call.
    EXPECT_EQ(engine.stats().requestsCompleted, 1);
    EXPECT_GT(engine.stats().busySeconds, 0.0);
    // Latency covers LLM generation plus sandbox execution.
    EXPECT_GT(r.latencySeconds, engine.stats().busySeconds);
}

TEST(ToolSet, PickCoversAllTools)
{
    Simulation sim;
    tools::ToolSet set;
    set.add(tools::makeWikipediaSearch(sim));
    set.add(tools::makeWikipediaLookup(sim));
    EXPECT_EQ(set.size(), 2u);
    sim::Rng rng(1, "pick", 0);
    bool saw0 = false;
    bool saw1 = false;
    for (int i = 0; i < 100; ++i) {
        tools::Tool &t = set.pick(rng);
        saw0 |= (&t == &set.at(0));
        saw1 |= (&t == &set.at(1));
    }
    EXPECT_TRUE(saw0);
    EXPECT_TRUE(saw1);
}

Task<void>
holdTool(Tool &tool, sim::Rng &rng)
{
    co_await tool.invoke(rng);
}

TEST(Tool, ConcurrencyLimitSerializesCalls)
{
    Simulation sim;
    tools::StochasticTool tool(
        sim, "limited", {LatencySpec::Dist::Constant, 1.0, 0.0},
        {50.0, 0.0, 50, 50}, /*max_concurrency=*/1);
    sim::Rng rng(1, "limited", 0);
    std::vector<Task<void>> calls;
    for (int i = 0; i < 3; ++i)
        calls.push_back(holdTool(tool, rng));
    sim.run();
    // Three serialized 1 s calls take 3 s.
    EXPECT_NEAR(sim::toSeconds(sim.now()), 3.0, 1e-6);
}

TEST(ToolFaults, FailedCallBurnsFixedTimeAndReturnsErrorText)
{
    Simulation sim;
    tools::StochasticTool tool(
        sim, "flaky", {LatencySpec::Dist::Constant, 0.25, 0.0},
        {50.0, 0.0, 50, 50});
    tools::FaultProfile faults;
    faults.failureProb = 1.0;
    tool.setFaults(faults);
    sim::Rng rng(1, "flaky", 0);
    auto t = invokeOnce(tool, rng);
    sim.run();
    const ToolResult r = t.result();
    // A failure skips the real call and burns a fixed 1 s instead.
    EXPECT_TRUE(r.failed);
    EXPECT_DOUBLE_EQ(r.latencySeconds, 1.0);
    EXPECT_EQ(r.observationTokens, faults.failureObservationTokens);
    EXPECT_EQ(tool.failures(), 1);
    EXPECT_EQ(tool.slowdowns(), 0);
}

TEST(ToolFaults, SlowdownStretchesLatencyFourfold)
{
    Simulation sim;
    tools::StochasticTool tool(
        sim, "spiky", {LatencySpec::Dist::Constant, 0.25, 0.0},
        {50.0, 0.0, 50, 50});
    tools::FaultProfile faults;
    faults.slowdownProb = 1.0;
    tool.setFaults(faults);
    sim::Rng rng(1, "spiky", 0);
    auto t = invokeOnce(tool, rng);
    sim.run();
    const ToolResult r = t.result();
    // A spike keeps the real observation but takes 4x as long.
    EXPECT_FALSE(r.failed);
    EXPECT_NEAR(r.latencySeconds, 4 * 0.25, 1e-9);
    EXPECT_EQ(r.observationTokens, 50);
    EXPECT_EQ(tool.failures(), 0);
    EXPECT_EQ(tool.slowdowns(), 1);
}

} // namespace
