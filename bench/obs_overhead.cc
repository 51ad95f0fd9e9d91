/**
 * @file
 * Observability-overhead micro-bench: what the full telemetry stack
 * (Chrome trace sink, causal spans, windowed time-series sampling and
 * the flight recorder's retroactive rings) costs in host wall time on
 * a fixed serving workload.
 *
 * The same ReAct serving run executes bare and fully instrumented,
 * alternating in pairs (the side that runs first alternates too, so
 * slow drift in host speed cancels). Each pair gives one overhead
 *
 *   (instrumented - bare) / bare * 100
 *
 * and the binary reports the median over all pairs, with the
 * interquartile range as its spread, into the perf report
 * (informational — host timing never gates a diff). It also enforces
 * the observer-purity contract on every pair: the instrumented run
 * must produce the same request-level results as the bare run, or the
 * binary exits non-zero.
 *
 *   obs_overhead [--report out.json] [--smoke]
 */

#include <cstdio>
#include <cstring>

#include "common.hh"

namespace
{

using namespace benchutil;

ServeConfig
makeWorkload(int requests)
{
    ServeConfig cfg;
    cfg.agent = AgentKind::ReAct;
    cfg.bench = Benchmark::HotpotQA;
    cfg.engineConfig = core::enginePreset8b();
    cfg.qps = 2.0;
    cfg.numRequests = requests;
    cfg.seed = kSeed;
    return cfg;
}

} // namespace

int
main(int argc, char **argv)
{
    bool smoke = false;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--smoke") == 0)
            smoke = true;
    }
    TelemetryCli telemetry(argc, argv);
    telemetry.report().setGenerator("obs_overhead");

    const int requests = smoke ? 40 : 120;
    const int pairs = smoke ? 4 : 31;

    const auto run = [requests](telemetry::SessionTelemetry *session) {
        auto cfg = makeWorkload(requests);
        if (session != nullptr) {
            // Trace sink + spans + time-series sampler + flight-
            // recorder rings all live (no SLO tracker, so no incident
            // is ever dumped — this measures the always-on cost).
            session->reset();
            cfg.telemetry = session;
            cfg.recorder = &session->recorder;
            cfg.timeseries = &session->timeseries;
        }
        return core::runServing(cfg);
    };
    // Observer purity: instrumentation must not change the sim.
    const auto identical = [](const ServeResult &a, const ServeResult &b) {
        return a.completed == b.completed && a.solved == b.solved &&
               a.p50() == b.p50() && a.p95() == b.p95() &&
               a.engineStats.busySeconds == b.engineStats.busySeconds;
    };

    telemetry::SessionTelemetry session;
    ServeResult bare;
    ServeResult instr;
    stats::SampleSet bare_walls;
    stats::SampleSet instr_walls;
    stats::SampleSet overheads;
    for (int pair = 0; pair < pairs; ++pair) {
        if (pair % 2 == 0) {
            bare = run(nullptr);
            instr = run(&session);
        } else {
            instr = run(&session);
            bare = run(nullptr);
        }
        if (!identical(bare, instr)) {
            std::fprintf(stderr,
                         "error: instrumented run diverged from bare "
                         "run in pair %d (telemetry is supposed to be "
                         "a pure observer)\n",
                         pair);
            return 1;
        }
        bare_walls.add(bare.simWallSeconds);
        instr_walls.add(instr.simWallSeconds);
        overheads.add(bare.simWallSeconds > 0.0
                          ? (instr.simWallSeconds - bare.simWallSeconds) /
                                bare.simWallSeconds * 100.0
                          : 0.0);
    }
    const double bare_wall = bare_walls.median();
    const double instr_wall = instr_walls.median();
    const double overhead_pct = overheads.median();
    const double overhead_iqr_pct =
        overheads.percentile(75.0) - overheads.percentile(25.0);

    core::Table table("Observability overhead (ReAct/HotpotQA, "
                      "open loop)");
    table.header(
        {"Mode", "Median wall", "Events", "p50", "p95", "GPU busy"});
    table.row({"bare", sim::strfmt("%.3f s", bare_wall),
               core::fmtCount(bare.simEventsProcessed),
               core::fmtSeconds(bare.p50()),
               core::fmtSeconds(bare.p95()),
               core::fmtSeconds(bare.engineStats.busySeconds)});
    table.row({"instrumented", sim::strfmt("%.3f s", instr_wall),
               core::fmtCount(instr.simEventsProcessed),
               core::fmtSeconds(instr.p50()),
               core::fmtSeconds(instr.p95()),
               core::fmtSeconds(instr.engineStats.busySeconds)});
    table.print();

    std::printf("\nTelemetry overhead: %.1f%% host wall time (median "
                "of %d alternating pairs, interquartile range %.1f "
                "points; trace %zu events, %lld spans, %zu time-series "
                "points, recorder rings %zu/%zu).\n",
                overhead_pct, pairs, overhead_iqr_pct,
                session.trace.eventCount(),
                static_cast<long long>(session.spans.requestsFinished()),
                session.timeseries.pointsRetained(),
                session.recorder.traceEventsRetained(),
                session.recorder.spansRetained());
    std::printf("Observer purity: every instrumented run identical to "
                "its bare pair (completed/solved/p50/p95/GPU busy).\n");

    if (telemetry.reportRequested()) {
        auto &rep = telemetry.report();
        rep.set("telemetry_overhead_pct", overhead_pct);
        rep.set("telemetry_overhead_iqr_pct", overhead_iqr_pct);
        rep.set("sim_bare_wall_seconds", bare_wall);
        rep.set("sim_instrumented_wall_seconds", instr_wall);
    }
    if (!telemetry.write())
        return 1;
    return 0;
}
