/**
 * @file
 * Deterministic fault injection for chaos experiments.
 *
 * Production agent serving must survive node crashes (KV cache lost,
 * in-flight requests dropped), engine stalls (driver hiccups, GC,
 * straggler collectives) and flaky external tools. The FaultInjector
 * drives those events on the simulation clock from named Rng streams,
 * so a chaos experiment is exactly reproducible from its seed and
 * adding one fault class never perturbs the schedule of another.
 *
 * The injector is deliberately layer-agnostic: it fires callbacks
 * (NodeHooks) instead of touching the serving engine directly, so the
 * sim layer stays free of upward dependencies. The cluster layer wires
 * the hooks to LlmEngine::crash()/restart()/injectStall(); tool-level
 * faults are sampled by the tools layer from the same config (see
 * tools::FaultProfile).
 */

#ifndef AGENTSIM_SIM_FAULT_HH
#define AGENTSIM_SIM_FAULT_HH

#include <cstdint>
#include <functional>
#include <string_view>
#include <vector>

#include "sim/simulation.hh"
#include "sim/task.hh"

namespace agentsim::sim
{

/** Chaos-experiment knobs. All rates are per node. */
struct FaultConfig
{
    /**
     * Mean time between node crashes, seconds (exponential). A crash
     * drops every in-flight request on the node and loses its KV
     * cache. 0 disables crashes.
     */
    double nodeMtbfSeconds = 0.0;
    /** Mean node downtime before restart, seconds (exponential). */
    double nodeRestartMeanSeconds = 10.0;

    /** Mean time between engine stalls, seconds. 0 disables. */
    double stallMtbfSeconds = 0.0;
    /** Mean injected stall length, seconds (exponential). */
    double stallMeanSeconds = 0.25;

    /** Probability a tool call fails outright (burning
     *  kToolFailureSeconds, tools/tool.cc). */
    double toolFailureProb = 0.0;
    /** Probability a tool call suffers a latency spike (of
     *  kToolSlowdownFactor times its latency, tools/tool.cc). */
    double toolSlowdownProb = 0.0;

    /** Seed for the fault streams ("fault.node", "fault.stall"). */
    std::uint64_t seed = 1;

    /** True if any node-level fault class is active. */
    bool
    nodeFaultsEnabled() const
    {
        return nodeMtbfSeconds > 0 || stallMtbfSeconds > 0;
    }

    /** True if any tool-level fault class is active. */
    bool
    toolFaultsEnabled() const
    {
        return toolFailureProb > 0 || toolSlowdownProb > 0;
    }
};

/** What the injector has done so far. */
struct FaultStats
{
    std::int64_t crashes = 0;
    std::int64_t restarts = 0;
    std::int64_t stalls = 0;
    double stallSecondsInjected = 0.0;
    double downSecondsTotal = 0.0;
    /**
     * Sim time of each injected crash, in injection order. The fault
     * streams are independent of the workload, so two runs of the
     * same config must agree on every timestamp up to the shorter
     * run's drain point — the determinism check for features (like
     * checkpoint-resume) that change makespan but must not perturb
     * the schedule itself.
     */
    std::vector<double> crashSeconds;
};

/**
 * Drives crash/restart and stall events for a set of nodes. Create it
 * before sim.run(), attach every node, and call stop() once the
 * workload has drained so the driver coroutines exit at their next
 * wake (they hold pending timers; the simulation ends after those
 * fire and see the stop flag).
 */
class FaultInjector
{
  public:
    /** Callbacks into one node. crash/restart must be callable;
     *  stall may be empty when stalls are disabled. */
    struct NodeHooks
    {
        std::function<void()> crash;
        std::function<void()> restart;
        std::function<void(double)> stall;
    };

    FaultInjector(Simulation &sim, const FaultConfig &config);

    FaultInjector(const FaultInjector &) = delete;
    FaultInjector &operator=(const FaultInjector &) = delete;

    /**
     * Register one node; spawns its deterministic fault drivers
     * (streams "fault.node"/@p node_index, "fault.stall"/@p
     * node_index). No-op for fault classes disabled in the config.
     */
    void attachNode(std::size_t node_index, NodeHooks hooks);

    /** Ask every driver to exit at its next wake. */
    void stop() { stopped_ = true; }

    const FaultConfig &config() const { return config_; }
    const FaultStats &stats() const { return stats_; }

  private:
    Task<void> crashDriver(std::size_t node_index, NodeHooks hooks);
    Task<void> stallDriver(std::size_t node_index, NodeHooks hooks);

    Simulation &sim_;
    FaultConfig config_;
    FaultStats stats_;
    bool stopped_ = false;
    std::vector<Task<void>> drivers_;
};

/** How a MaintenanceSchedule takes a node out of service. */
enum class MaintenanceMode
{
    /** Hard restart: crash semantics (requests dropped, KV lost). */
    Crash,
    /** Graceful drain; leftovers at the deadline are cancelled. */
    Drain,
    /** Graceful drain; leftovers live-migrate to another node. */
    DrainMigrate,
};

std::string_view maintenanceModeName(MaintenanceMode mode);

/**
 * Planned-churn knobs: a rolling restart visits nodes round-robin at a
 * fixed cadence (maintenance is scheduled, not random — the stochastic
 * counterpart lives in FaultConfig).
 */
struct MaintenanceConfig
{
    /** Time between node maintenances, seconds. 0 disables. */
    double periodSeconds = 0.0;
    /** Drain deadline before leftovers are migrated or cancelled. */
    double drainDeadlineSeconds = 5.0;
    /** Offline time after the drain/crash before restart, seconds. */
    double downtimeSeconds = 2.0;
    MaintenanceMode mode = MaintenanceMode::DrainMigrate;

    bool enabled() const { return periodSeconds > 0; }
};

/** What the schedule has done so far. */
struct MaintenanceStats
{
    /** Maintenance cycles completed (one node each). */
    std::int64_t cycles = 0;
};

/**
 * Drives rolling restarts through a layer-supplied hook, one node per
 * period in round-robin order. Like FaultInjector, the sim layer
 * stays ignorant of engines: the cluster layer's hook performs the
 * actual crash-or-drain(-and-migrate) and the restart. Call stop()
 * once the workload has drained.
 */
class MaintenanceSchedule
{
  public:
    /** Performs one full maintenance of node @p index (take out of
     *  service, wait out the downtime, restart). */
    using MaintainHook = std::function<Task<void>(std::size_t index)>;

    MaintenanceSchedule(Simulation &sim, const MaintenanceConfig &config,
                        std::size_t num_nodes, MaintainHook hook);

    MaintenanceSchedule(const MaintenanceSchedule &) = delete;
    MaintenanceSchedule &operator=(const MaintenanceSchedule &) = delete;

    /** Ask the driver to exit at its next wake. */
    void stop() { stopped_ = true; }

    const MaintenanceConfig &config() const { return config_; }
    const MaintenanceStats &stats() const { return stats_; }

  private:
    Task<void> driver();

    Simulation &sim_;
    MaintenanceConfig config_;
    std::size_t numNodes_;
    MaintainHook hook_;
    MaintenanceStats stats_;
    bool stopped_ = false;
    Task<void> driver_;
};

} // namespace agentsim::sim

#endif // AGENTSIM_SIM_FAULT_HH
