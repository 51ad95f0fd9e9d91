/**
 * @file
 * Chaos/SLO sweep — what unreliable infrastructure costs an agentic
 * serving cluster. Sweeps the per-node crash rate (and, separately,
 * tool fault rates) over a mixed agent + chatbot workload and reports
 * tail latency, goodput, the retry/failover traffic the client layer
 * generates to survive, and the online SLO monitor's view: TTFT
 * attainment and the burn-rate alerts the injected crashes trip.
 *
 * Every crash cold-starts the node's prefix cache and reroutes its
 * in-flight rollouts, so the p99 penalty is much larger than the raw
 * downtime fraction suggests: retried requests pay queueing, backoff
 * and a full re-prefill on a cache-cold node.
 *
 *   chaos_slo [--trace out.json] [--metrics out.prom]
 *             [--report out.json] [--flight-record]
 *             [--incident-dir dir] [--smoke]
 *
 * Optional telemetry captures the *last* instrumented run — the
 * engine-stall scenario: the Chrome trace holds crash/restart/
 * failover/shed, cancellation and slo_alert instants across all three
 * nodes, the metrics file the cluster-wide retry/failover/cancel
 * counters plus the agentsim_slo_* families. --report accumulates
 * every sweep point's goodput/p99/alert-count into a perf report.
 *
 * --flight-record arms the flight recorder for the stall scenario:
 * the injected engine stalls burn the TBT budget, the SLO alert trips
 * the recorder, and an incident bundle lands under --incident-dir
 * (default "incidents") whose retroactive window contains the stall
 * and whose blame table indicts it (decode/queue-dominated). The
 * binary exits non-zero if recording was requested and no bundle was
 * produced. --smoke skips the crash/tool sweeps and shrinks the stall
 * scenario for CI (scripts/check_trace.py validates the bundle).
 */

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>

#include "common.hh"
#include "core/cluster.hh"
#include "sim/strfmt.hh"
#include "telemetry/slo.hh"

namespace
{

using namespace benchutil;

core::ClusterConfig
baseConfig()
{
    core::ClusterConfig cfg;
    cfg.numNodes = 3;
    cfg.engineConfig = core::enginePreset8b();
    cfg.policy = core::RoutePolicy::LeastLoaded;

    core::WorkloadSpec react_hotpot;
    react_hotpot.agent = AgentKind::ReAct;
    react_hotpot.bench = Benchmark::HotpotQA;
    cfg.mix.push_back(react_hotpot);

    core::WorkloadSpec reflexion_shop;
    reflexion_shop.agent = AgentKind::Reflexion;
    reflexion_shop.bench = Benchmark::WebShop;
    cfg.mix.push_back(reflexion_shop);

    core::WorkloadSpec chat;
    chat.chatbot = true;
    cfg.mix.push_back(chat);

    cfg.qps = 3.0;
    cfg.numRequests = 150;
    cfg.seed = kSeed;
    return cfg;
}

/** SLO targets for the chaos sweep, calibrated so the fault-free run
 *  holds its budget and injected node crashes burn through it. */
telemetry::SloConfig
sloConfig()
{
    telemetry::SloConfig slo;
    slo.ttftTargetSeconds = 15.0;
    slo.tbtTargetSeconds = 0.5;
    slo.e2eTargetSeconds = 120.0;
    slo.windowSeconds = 20.0;
    return slo;
}

/** Engine-stall scenario: no crashes, but multi-second driver stalls
 *  that freeze prefill and decode — the flight recorder's
 *  demonstration workload. */
core::ClusterConfig
stallConfig(bool smoke)
{
    auto cfg = baseConfig();
    cfg.numRequests = smoke ? 60 : 150;
    cfg.faults.stallMtbfSeconds = 15.0;
    cfg.faults.stallMeanSeconds = 10.0;
    return cfg;
}

/** SLO targets for the stall scenario, calibrated against the
 *  per-LLM-call latency profile of the fault-free mixed workload
 *  (TTFT p99 ~3.5s, E2E p95 ~9s) so a multi-second engine stall
 *  burns the budget and trips the recorder. */
telemetry::SloConfig
stallSloConfig()
{
    telemetry::SloConfig slo;
    slo.ttftTargetSeconds = 2.0;
    slo.tbtTargetSeconds = 0.25;
    slo.e2eTargetSeconds = 15.0;
    slo.windowSeconds = 10.0;
    return slo;
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
    telemetry.report().setGenerator("chaos_slo");

    if (!smoke) {
    // --- Sweep 1: node crash rate vs tail latency / goodput. -------
    core::Table crash_table(
        "Chaos: node crash rate vs SLO (3 nodes, mixed workload)");
    crash_table.header({"Node MTBF", "Crashes", "Retries", "Failovers",
                        "Goodput", "p50", "p99", "TTFT attain",
                        "SLO alerts"});

    const double mtbfs[] = {0.0, 120.0, 60.0, 30.0};
    std::int64_t total_alerts = 0;
    for (double mtbf : mtbfs) {
        auto cfg = baseConfig();
        cfg.faults.nodeMtbfSeconds = mtbf;
        cfg.faults.nodeRestartMeanSeconds = 5.0;
        telemetry::SloTracker slo(sloConfig());
        cfg.slo = &slo;
        // Telemetry files capture the most hostile sweep point.
        if (mtbf == mtbfs[std::size(mtbfs) - 1])
            telemetry.apply(cfg);
        const auto r = core::runCluster(cfg);
        total_alerts += r.sloAlerts;
        crash_table.row(
            {mtbf > 0 ? core::fmtSeconds(mtbf) : "off",
             core::fmtCount(static_cast<double>(r.faultStats.crashes)),
             core::fmtCount(r.retries), core::fmtCount(r.failovers),
             core::fmtPercent(r.goodputFraction()),
             core::fmtSeconds(r.p50()), core::fmtSeconds(r.p99()),
             core::fmtPercent(
                 slo.attainment(telemetry::SloMetric::Ttft)),
             core::fmtCount(static_cast<double>(r.sloAlerts))});
        if (telemetry.reportRequested()) {
            const std::string prefix =
                mtbf > 0 ? sim::strfmt("crash_mtbf_%.0fs", mtbf)
                         : std::string("crash_off");
            auto &rep = telemetry.report();
            rep.set(prefix + "_goodput", r.goodputFraction());
            rep.set(prefix + "_p99_seconds", r.p99());
            rep.set(prefix + "_ttft_attainment",
                    slo.attainment(telemetry::SloMetric::Ttft));
            rep.set(prefix + "_slo_alerts",
                    static_cast<double>(r.sloAlerts));
        }
    }
    crash_table.print();
    std::printf("SLO monitor: %lld burn-rate alert(s) fired across "
                "the crash sweep (targets: TTFT %.0fs, TBT %.1fs, "
                "E2E %.0fs at %.0f%% attainment).\n\n",
                static_cast<long long>(total_alerts),
                sloConfig().ttftTargetSeconds,
                sloConfig().tbtTargetSeconds,
                sloConfig().e2eTargetSeconds,
                telemetry::kSloAttainmentTarget * 100.0);

    // --- Sweep 2: tool fault rate vs rollout latency. --------------
    core::Table tool_table(
        "Chaos: tool fault rate vs rollout latency (no node faults)");
    tool_table.header(
        {"Tool failure prob", "Slowdown prob", "Goodput", "p50", "p99"});
    for (double prob : {0.0, 0.1, 0.3}) {
        auto cfg = baseConfig();
        cfg.faults.toolFailureProb = prob;
        cfg.faults.toolSlowdownProb = prob;
        const auto r = core::runCluster(cfg);
        tool_table.row({core::fmtPercent(prob),
                        core::fmtPercent(prob),
                        core::fmtPercent(r.goodputFraction()),
                        core::fmtSeconds(r.p50()),
                        core::fmtSeconds(r.p99())});
    }
    tool_table.print();

    std::printf(
        "\nDesign note: agent rollouts amplify infrastructure "
        "faults — one node crash cancels every in-flight iteration "
        "on it, and each retried rollout re-prefills its whole "
        "accumulated context on a cache-cold node. Goodput degrades "
        "slowly (retries absorb the failures) while p99 degrades "
        "fast (backoff + re-prefill + queueing on the survivors); "
        "the burn-rate monitor turns that tail damage into pageable "
        "alerts long before goodput moves.\n\n");
    } // !smoke

    // --- Scenario 3: engine stalls vs incident capture. ------------
    // Multi-second driver stalls freeze decode on one node at a time;
    // the TBT burn alert trips, and with --flight-record the recorder
    // dumps an incident bundle whose window contains the stall.
    {
        core::Table stall_table(
            "Chaos: engine stalls vs incident capture (no crashes)");
        stall_table.header({"Stall MTBF", "Stalls", "Stall secs",
                            "p50", "p99", "TBT attain", "SLO alerts",
                            "Incidents"});
        auto cfg = stallConfig(smoke);
        telemetry::SloTracker slo(stallSloConfig());
        cfg.slo = &slo;
        telemetry.apply(cfg);
        const auto r = core::runCluster(cfg);
        stall_table.row(
            {core::fmtSeconds(cfg.faults.stallMtbfSeconds),
             core::fmtCount(static_cast<double>(r.faultStats.stalls)),
             core::fmtSeconds(r.faultStats.stallSecondsInjected),
             core::fmtSeconds(r.p50()), core::fmtSeconds(r.p99()),
             core::fmtPercent(slo.attainment(telemetry::SloMetric::Tbt)),
             core::fmtCount(static_cast<double>(r.sloAlerts)),
             core::fmtCount(static_cast<double>(r.incidentBundles))});
        stall_table.print();
        if (telemetry.reportRequested()) {
            auto &rep = telemetry.report();
            rep.set("stall_p99_seconds", r.p99());
            rep.set("stall_tbt_attainment",
                    slo.attainment(telemetry::SloMetric::Tbt));
            rep.set("stall_slo_alerts",
                    static_cast<double>(r.sloAlerts));
        }

        if (telemetry.flightRecordRequested()) {
            const auto &rec = telemetry.session().recorder;
            std::printf("\nFlight recorder: %lld incident bundle(s), "
                        "%lld debounced, %lld over budget, %lld bytes "
                        "written.\n",
                        static_cast<long long>(rec.incidentsDumped()),
                        static_cast<long long>(rec.skippedDebounce()),
                        static_cast<long long>(rec.skippedBudget()),
                        static_cast<long long>(rec.bytesWritten()));
            for (const auto &path : rec.incidentPaths())
                std::printf("  %s\n", path.c_str());
        }
    }

    if (!telemetry.write())
        return 1;
    if (telemetry.flightRecordRequested()) {
        const auto &rec = telemetry.session().recorder;
        if (rec.incidentsDumped() == 0) {
            std::fprintf(stderr,
                         "error: --flight-record was given but the "
                         "stall scenario produced no incident bundle\n");
            return 1;
        }
        // The demonstration is a gate: some bundle's retroactive
        // window must actually contain an injected stall instant.
        bool stall_captured = false;
        for (const auto &path : rec.incidentPaths()) {
            std::ifstream in(std::filesystem::path(path) /
                             "trace.json");
            const std::string trace(
                (std::istreambuf_iterator<char>(in)),
                std::istreambuf_iterator<char>());
            if (trace.find("\"stall ") != std::string::npos) {
                stall_captured = true;
                break;
            }
        }
        if (!stall_captured) {
            std::fprintf(stderr,
                         "error: no incident bundle's window contains "
                         "an injected stall instant\n");
            return 1;
        }
    }
    return 0;
}
