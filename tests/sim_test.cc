/**
 * @file
 * Unit tests for the discrete-event kernel: event queue ordering, the
 * clock, coroutine tasks, awaitable primitives, the bucketed event
 * queue and the coroutine frame pool.
 */

#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "sim/awaitable.hh"
#include "sim/event_queue.hh"
#include "sim/frame_pool.hh"
#include "sim/rng.hh"
#include "sim/simulation.hh"
#include "sim/task.hh"
#include "sim/types.hh"

namespace
{

using namespace agentsim;
using sim::Simulation;
using sim::Task;
using sim::Tick;

TEST(Types, SecondConversionsRoundTrip)
{
    EXPECT_EQ(sim::fromSeconds(1.0), sim::tickSec);
    EXPECT_EQ(sim::fromMillis(1.0), sim::tickMs);
    EXPECT_DOUBLE_EQ(sim::toSeconds(sim::fromSeconds(3.25)), 3.25);
    EXPECT_DOUBLE_EQ(sim::toMillis(sim::fromMillis(17.5)), 17.5);
}

TEST(EventQueue, OrdersByTime)
{
    sim::EventQueue q;
    std::vector<int> order;
    q.push(30, [&] { order.push_back(3); });
    q.push(10, [&] { order.push_back(1); });
    q.push(20, [&] { order.push_back(2); });
    while (!q.empty())
        q.pop().action();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, SameTimeIsFifo)
{
    sim::EventQueue q;
    std::vector<int> order;
    for (int i = 0; i < 10; ++i)
        q.push(5, [&order, i] { order.push_back(i); });
    while (!q.empty())
        q.pop().action();
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(Simulation, ClockAdvancesToEventTimes)
{
    Simulation s;
    std::vector<Tick> seen;
    s.schedule(100, [&] { seen.push_back(s.now()); });
    s.schedule(50, [&] { seen.push_back(s.now()); });
    const Tick end = s.run();
    EXPECT_EQ(end, 100);
    EXPECT_EQ(seen, (std::vector<Tick>{50, 100}));
}

TEST(Simulation, NestedScheduling)
{
    Simulation s;
    int fired = 0;
    s.schedule(10, [&] {
        s.schedule(5, [&] { fired = static_cast<int>(s.now()); });
    });
    s.run();
    EXPECT_EQ(fired, 15);
}

TEST(Simulation, RunUntilStopsAndSetsClock)
{
    Simulation s;
    int count = 0;
    for (Tick t = 10; t <= 100; t += 10)
        s.schedule(t, [&] { ++count; });
    s.runUntil(45);
    EXPECT_EQ(count, 4);
    EXPECT_EQ(s.now(), 45);
    s.run();
    EXPECT_EQ(count, 10);
}

TEST(Simulation, ProcessedEventCount)
{
    Simulation s;
    for (int i = 0; i < 7; ++i)
        s.schedule(i, [] {});
    s.run();
    EXPECT_EQ(s.processedEvents(), 7u);
}

TEST(Simulation, ScheduleAtUsesAbsoluteTime)
{
    Simulation s;
    std::vector<Tick> seen;
    s.schedule(40, [&] {
        // Absolute 60, not now + 60.
        s.scheduleAt(60, [&] { seen.push_back(s.now()); });
        // Same tick as now is allowed and runs after this callback.
        s.scheduleAt(s.now(), [&] { seen.push_back(s.now()); });
    });
    s.run();
    EXPECT_EQ(seen, (std::vector<Tick>{40, 60}));
}

TEST(Simulation, StepProcessesOneEventAtATime)
{
    Simulation s;
    int fired = 0;
    s.schedule(5, [&] { ++fired; });
    s.schedule(9, [&] { ++fired; });
    EXPECT_EQ(s.pendingEvents(), 2u);
    ASSERT_TRUE(s.step());
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(s.now(), 5);
    EXPECT_EQ(s.pendingEvents(), 1u);
    ASSERT_TRUE(s.step());
    EXPECT_EQ(fired, 2);
    EXPECT_EQ(s.now(), 9);
    EXPECT_FALSE(s.step());
    EXPECT_EQ(s.now(), 9);
    EXPECT_EQ(s.processedEvents(), 2u);
}

TEST(Simulation, RunUntilOnEmptyQueueAdvancesClock)
{
    Simulation s;
    EXPECT_EQ(s.runUntil(500), 500);
    EXPECT_EQ(s.now(), 500);
    EXPECT_EQ(s.processedEvents(), 0u);
    // Delays are relative to the advanced clock.
    Tick fired_at = -1;
    s.schedule(20, [&] { fired_at = s.now(); });
    s.run();
    EXPECT_EQ(fired_at, 520);
}

TEST(SimulationDeathTest, SchedulingInThePastPanics)
{
    EXPECT_DEATH(
        {
            Simulation s;
            s.schedule(-1, [] {});
        },
        "in the past");
    EXPECT_DEATH(
        {
            Simulation s;
            s.runUntil(100);
            s.scheduleAt(50, [] {});
        },
        "before now");
    EXPECT_DEATH(
        {
            Simulation s;
            s.runUntil(100);
            s.runUntil(50);
        },
        "into the past");
}

/** Token passing around a ring of @p actors; returns each receive. */
std::vector<std::pair<int, Tick>>
runRing(int actors, int hops)
{
    Simulation s;
    std::vector<std::pair<int, Tick>> log;
    std::function<void(int, int)> pass = [&](int at, int left) {
        log.emplace_back(at, s.now());
        if (left == 0)
            return;
        const int next = (at + 1) % actors;
        // Distinct latencies per actor plus a same-tick echo keep the
        // queue's tie-breaking on the observed path.
        s.schedule(10 + at,
                   [&pass, next, left] { pass(next, left - 1); });
        s.schedule(0, [&log, &s, at, actors] {
            log.emplace_back(actors + at, s.now());
        });
    };
    for (int a = 0; a < actors; ++a)
        s.schedule(a, [&pass, a, hops] { pass(a, hops); });
    s.run();
    return log;
}

TEST(Simulation, RingIsRunToRunDeterministic)
{
    const auto a = runRing(4, 25);
    const auto b = runRing(4, 25);
    ASSERT_EQ(a.size(), 4u * 26u * 2u - 4u);
    EXPECT_EQ(a, b);
}

TEST(Simulation, ExposesQueuePoolingCounters)
{
    // The Simulation forwards the calendar queue's bucket counters
    // (exported by sim_metrics); draining many distinct ticks must
    // recycle buckets rather than allocate one per tick.
    Simulation s;
    int left = 50;
    std::function<void()> tick = [&] {
        if (--left > 0)
            s.schedule(1, tick);
    };
    s.schedule(0, tick);
    s.run();
    EXPECT_EQ(left, 0);
    EXPECT_EQ(s.processedEvents(), 50u);
    EXPECT_GT(s.queueBucketsAllocated(), 0u);
    EXPECT_LT(s.queueBucketsAllocated(), 50u);
    EXPECT_GT(s.queueBucketsRecycled(), 0u);
}

Task<void>
sleeper(Simulation &s, Tick d, Tick *woke)
{
    co_await sim::delay(s, d);
    *woke = s.now();
}

TEST(TaskCoroutine, DelayResumesAtRightTime)
{
    Simulation s;
    Tick woke = -1;
    auto t = sleeper(s, 250, &woke);
    EXPECT_FALSE(t.done());
    s.run();
    EXPECT_TRUE(t.done());
    EXPECT_EQ(woke, 250);
}

Task<int>
answer(Simulation &s)
{
    co_await sim::delay(s, 10);
    co_return 42;
}

TEST(TaskCoroutine, ResultAfterRun)
{
    Simulation s;
    auto t = answer(s);
    s.run();
    EXPECT_TRUE(t.done());
    EXPECT_EQ(t.result(), 42);
}

Task<int>
chained(Simulation &s)
{
    const int a = co_await answer(s);
    const int b = co_await answer(s);
    co_return a + b;
}

TEST(TaskCoroutine, AwaitingChildTasks)
{
    Simulation s;
    auto t = chained(s);
    s.run();
    EXPECT_EQ(t.result(), 84);
    EXPECT_EQ(s.now(), 20);
}

Task<int>
thrower(Simulation &s)
{
    co_await sim::delay(s, 1);
    throw std::runtime_error("boom");
}

Task<int>
catcher(Simulation &s, bool *caught)
{
    try {
        co_await thrower(s);
    } catch (const std::runtime_error &) {
        *caught = true;
    }
    co_return 7;
}

TEST(TaskCoroutine, ExceptionsPropagateToAwaiter)
{
    Simulation s;
    bool caught = false;
    auto t = catcher(s, &caught);
    s.run();
    EXPECT_TRUE(caught);
    EXPECT_EQ(t.result(), 7);
}

TEST(TaskCoroutine, ExceptionRethrownFromResult)
{
    Simulation s;
    auto t = thrower(s);
    s.run();
    EXPECT_THROW(t.result(), std::runtime_error);
}

Task<void>
detachee(Simulation &s, int *done)
{
    co_await sim::delay(s, 100);
    *done = 1;
}

TEST(TaskCoroutine, DetachedTaskKeepsRunning)
{
    Simulation s;
    int done = 0;
    {
        auto t = detachee(s, &done);
        // Task handle dropped here while the coroutine is suspended.
    }
    s.run();
    EXPECT_EQ(done, 1);
}

Task<std::vector<int>>
fanOut(Simulation &s)
{
    std::vector<Task<int>> children;
    for (int i = 0; i < 5; ++i)
        children.push_back(answer(s));
    co_return co_await sim::allOf(std::move(children));
}

TEST(TaskCoroutine, AllOfRunsChildrenConcurrently)
{
    Simulation s;
    auto t = fanOut(s);
    s.run();
    // All five children overlap: total virtual time is one delay.
    EXPECT_EQ(s.now(), 10);
    const auto results = t.result();
    ASSERT_EQ(results.size(), 5u);
    for (int v : results)
        EXPECT_EQ(v, 42);
}

Task<void>
completer(Simulation &s, sim::Completion<int> c)
{
    co_await sim::delay(s, 30);
    c.set(99);
}

Task<int>
waiter(sim::Completion<int> c)
{
    co_return co_await c;
}

TEST(Completion, WakesWaiters)
{
    Simulation s;
    sim::Completion<int> c(s);
    auto w1 = waiter(c);
    auto w2 = waiter(c);
    auto p = completer(s, c);
    s.run();
    EXPECT_EQ(w1.result(), 99);
    EXPECT_EQ(w2.result(), 99);
    EXPECT_EQ(s.now(), 30);
    EXPECT_TRUE(c.ready());
    EXPECT_EQ(c.peek(), 99);
}

TEST(Completion, AwaitAfterSetIsImmediate)
{
    Simulation s;
    sim::Completion<int> c(s);
    c.set(5);
    auto w = waiter(c);
    EXPECT_TRUE(w.done());
    EXPECT_EQ(w.result(), 5);
}

Task<void>
semUser(Simulation &s, sim::Semaphore &sem, Tick hold,
        std::vector<Tick> *entries)
{
    co_await sem.acquire();
    entries->push_back(s.now());
    co_await sim::delay(s, hold);
    sem.release();
}

TEST(Semaphore, LimitsConcurrency)
{
    Simulation s;
    sim::Semaphore sem(s, 2);
    std::vector<Tick> entries;
    std::vector<Task<void>> users;
    for (int i = 0; i < 4; ++i)
        users.push_back(semUser(s, sem, 10, &entries));
    s.run();
    ASSERT_EQ(entries.size(), 4u);
    // Two run immediately, two wait for the first releases.
    EXPECT_EQ(entries[0], 0);
    EXPECT_EQ(entries[1], 0);
    EXPECT_EQ(entries[2], 10);
    EXPECT_EQ(entries[3], 10);
    EXPECT_EQ(sem.available(), 2);
    EXPECT_EQ(sem.waiting(), 0u);
}

TEST(Rng, DeterministicStreams)
{
    sim::Rng a(1234, "test", 0);
    sim::Rng b(1234, "test", 0);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DistinctStreamsDiffer)
{
    sim::Rng a(1234, "alpha", 0);
    sim::Rng b(1234, "beta", 0);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += (a.next() == b.next());
    EXPECT_LE(same, 1);
}

TEST(Rng, UniformRange)
{
    sim::Rng r(7, "uniform", 0);
    for (int i = 0; i < 10000; ++i) {
        const double u = r.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
    }
}

TEST(Rng, UniformIntInclusiveBounds)
{
    sim::Rng r(7, "uniformInt", 0);
    bool saw_lo = false;
    bool saw_hi = false;
    for (int i = 0; i < 10000; ++i) {
        const auto v = r.uniformInt(3, 5);
        EXPECT_GE(v, 3);
        EXPECT_LE(v, 5);
        saw_lo |= (v == 3);
        saw_hi |= (v == 5);
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(Rng, ExponentialMeanApprox)
{
    sim::Rng r(7, "exp", 0);
    double total = 0.0;
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        total += r.exponential(2.5);
    EXPECT_NEAR(total / n, 2.5, 0.05);
}

TEST(Rng, NormalMoments)
{
    sim::Rng r(7, "normal", 0);
    double total = 0.0;
    double sq = 0.0;
    const int n = 100000;
    for (int i = 0; i < n; ++i) {
        const double x = r.normal(10.0, 3.0);
        total += x;
        sq += x * x;
    }
    const double mean = total / n;
    const double var = sq / n - mean * mean;
    EXPECT_NEAR(mean, 10.0, 0.1);
    EXPECT_NEAR(var, 9.0, 0.3);
}

TEST(Rng, LognormalMeanMatchesRequestedMean)
{
    sim::Rng r(7, "lognormal", 0);
    double total = 0.0;
    const int n = 200000;
    for (int i = 0; i < n; ++i)
        total += r.lognormalMean(1.2, 0.6);
    EXPECT_NEAR(total / n, 1.2, 0.03);
}

TEST(Rng, BernoulliFrequency)
{
    sim::Rng r(7, "bern", 0);
    int hits = 0;
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        hits += r.bernoulli(0.3);
    EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(Rng, CategoricalRespectsWeights)
{
    sim::Rng r(7, "cat", 0);
    std::vector<double> w{1.0, 0.0, 3.0};
    std::vector<int> counts(3, 0);
    const int n = 40000;
    for (int i = 0; i < n; ++i)
        ++counts[r.categorical(w)];
    EXPECT_EQ(counts[1], 0);
    EXPECT_NEAR(static_cast<double>(counts[0]) / n, 0.25, 0.02);
    EXPECT_NEAR(static_cast<double>(counts[2]) / n, 0.75, 0.02);
}

TEST(Rng, PoissonMeanSmallAndLarge)
{
    sim::Rng r(7, "poisson", 0);
    double total_small = 0.0;
    double total_large = 0.0;
    const int n = 50000;
    for (int i = 0; i < n; ++i) {
        total_small += static_cast<double>(r.poisson(3.0));
        total_large += static_cast<double>(r.poisson(80.0));
    }
    EXPECT_NEAR(total_small / n, 3.0, 0.1);
    EXPECT_NEAR(total_large / n, 80.0, 0.5);
}

TEST(Hashing, Fnv1aStable)
{
    // Known stable values keep RNG streams reproducible across builds.
    EXPECT_EQ(sim::fnv1a(""), 0xcbf29ce484222325ULL);
    EXPECT_NE(sim::fnv1a("a"), sim::fnv1a("b"));
    EXPECT_EQ(sim::fnv1a("agent"), sim::fnv1a("agent"));
}

// ---------------------------------------------------------------------
// Bucketed event queue.

TEST(BucketQueue, MatchesReferenceModelUnderRandomLoad)
{
    // The bucket queue must pop in exactly (when, push order) — the
    // same order a stable multimap over insertion sequence produces.
    sim::EventQueue q;
    std::multimap<Tick, int> model;
    std::vector<int> popped;
    sim::Rng rng(7, "test.queue", 0);
    int next_id = 0;
    for (int round = 0; round < 2000; ++round) {
        const bool push = model.empty() || rng.uniform() < 0.6;
        if (push) {
            // Small tick range forces heavy same-tick bucketing.
            const Tick when =
                static_cast<Tick>(rng.uniform(0.0, 50.0));
            const int id = next_id++;
            model.emplace(when, id);
            q.push(when, [&popped, id] { popped.push_back(id); });
        } else {
            ASSERT_FALSE(q.empty());
            ASSERT_EQ(q.nextTime(), model.begin()->first);
            const int expect = model.begin()->second;
            model.erase(model.begin());
            auto ev = q.pop();
            ev.action();
            ASSERT_EQ(popped.back(), expect);
        }
    }
    while (!q.empty()) {
        ASSERT_EQ(q.nextTime(), model.begin()->first);
        const int expect = model.begin()->second;
        model.erase(model.begin());
        q.pop().action();
        ASSERT_EQ(popped.back(), expect);
    }
    EXPECT_TRUE(model.empty());
    EXPECT_EQ(popped.size(), static_cast<std::size_t>(next_id));
}

TEST(BucketQueue, SameTickRepushGetsLaterSequence)
{
    // An action that reschedules itself at the *current* tick must run
    // after everything already queued at that tick — the bucket is
    // retired before the action runs, so the re-push starts a fresh
    // bucket with later sequence numbers.
    sim::EventQueue q;
    std::vector<std::string> order;
    q.push(5, [&] {
        order.push_back("a");
        q.push(5, [&] { order.push_back("a2"); });
    });
    q.push(5, [&] { order.push_back("b"); });
    while (!q.empty())
        q.pop().action();
    EXPECT_EQ(order, (std::vector<std::string>{"a", "b", "a2"}));
}

TEST(BucketQueue, RecyclesBuckets)
{
    sim::EventQueue q;
    for (int round = 0; round < 10; ++round) {
        for (int i = 0; i < 8; ++i)
            q.push(round * 100 + i, [] {});
        while (!q.empty())
            q.pop().action();
    }
    // 80 distinct ticks drained; after the first few rounds the free
    // list satisfies every bucket demand.
    EXPECT_GT(q.bucketsRecycled(), 0u);
    EXPECT_LT(q.bucketsAllocated(), 80u);
}

// ---------------------------------------------------------------------
// Coroutine frame pool.

sim::Task<int> trivialTask() { co_return 42; }

TEST(FramePool, ReusesCoroutineFrames)
{
    const auto before = sim::framePoolStats();
    for (int i = 0; i < 64; ++i) {
        auto t = trivialTask();
        EXPECT_TRUE(t.done());
        EXPECT_EQ(t.result(), 42);
    }
    const auto after = sim::framePoolStats();
    if (sim::framePoolEnabled()) {
        EXPECT_GE(after.allocations - before.allocations, 64u);
        // Identical frames: every allocation after the first must be
        // served from the free bins.
        EXPECT_GE(after.poolHits - before.poolHits, 63u);
    } else {
        // Sanitizer build: the pool is a passthrough by design, so
        // asan/tsan keep seeing raw frame lifetimes.
        EXPECT_EQ(after.poolHits, before.poolHits);
    }
}

} // namespace
