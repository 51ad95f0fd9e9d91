/**
 * @file
 * Elastic cluster autoscaling with predictive admission control.
 *
 * A closed-loop capacity controller for core/cluster: instead of
 * serving every load level on a statically provisioned fleet
 * (over-paying at low load, shedding at peaks), the controller watches
 * three predictive signals and resizes the cluster between a floor and
 * a ceiling:
 *
 *  - the EWMA arrival rate (irregular-sample exponential decay, so the
 *    estimate tracks the last ~tau seconds of traffic) against the
 *    fleet's sustainable per-node service rate;
 *  - a streaming P² percentile of observed queue delay
 *    (stats/quantile) — the earliest user-visible symptom of
 *    under-provisioning;
 *  - the SLO burn rate from telemetry/slo — the error budget is
 *    already on fire, capacity is the remedy.
 *
 * Scale-out is not free: a new node pays a simulated warm-up (instance
 * boot plus model-weight load priced on the host->GPU link from
 * llm/hardware) before it takes traffic, and it enters routing with a
 * HalfOpen circuit breaker so it earns trust through probes. Scale-in
 * reuses the graceful-drain + live-KV-migration path (never the crash
 * path), so elasticity costs zero lost prefill seconds. Cooldowns and
 * a sustained-relief requirement (hysteresis) keep the controller from
 * flapping.
 *
 * The same module provides predictive admission control for the
 * router: when the projected queue delay on the chosen node exceeds a
 * request's deadline budget, the cluster rejects fast with a
 * retryable signal instead of letting the request time out inside the
 * queue. This complements EngineConfig::maxQueueDepth (a per-node
 * depth cap) and core/brownout (degrades quality): admission control
 * degrades *latency honestly* — the client learns immediately and can
 * back off, instead of burning its deadline in a doomed queue.
 *
 * See docs/OPERATIONS.md ("Autoscaler") for the operator's view of
 * every knob and metric.
 */

#ifndef AGENTSIM_CORE_AUTOSCALER_HH
#define AGENTSIM_CORE_AUTOSCALER_HH

#include <cstdint>
#include <string_view>

#include "llm/hardware.hh"
#include "llm/model_spec.hh"
#include "sim/types.hh"
#include "stats/quantile.hh"
#include "telemetry/registry.hh"
#include "telemetry/trace_sink.hh"

namespace agentsim::core
{

/** Autoscaler + admission-control tuning. Disabled by default. */
struct AutoscalerConfig
{
    bool enabled = false;

    /** Capacity floor, nodes (>= 1: a 0-node fleet cannot serve). */
    int minNodes = 1;
    /** Capacity ceiling, nodes (the pre-built standby pool size). */
    int maxNodes = 4;

    // --- Predictive scale-out signal -----------------------------
    /**
     * Sustainable per-node service rate, requests/s, sized offline
     * (e.g. from bench/fig14_qps_sweep). Enables the capacity term:
     * scale out when predicted arrivals exceed kTargetUtilization x
     * nodeServiceQps x provisioned nodes. 0 disables the term; the
     * controller then reacts to queue delay and burn rate only.
     */
    double nodeServiceQps = 0.0;
    /** Queue-delay quantile tracked by the P² estimator (0..1). */
    double queueDelayQuantile = 0.95;
    /** Observations the estimator needs before it may signal. */
    int minDelaySamples = 8;
    /** Scale out when the tracked delay percentile exceeds this, s. */
    double queueDelayHighSeconds = 8.0;
    /** Scale in only when the delay percentile is below this, s. */
    double queueDelayLowSeconds = 1.0;

    // --- Hysteresis ----------------------------------------------
    /** Minimum time between consecutive scaling decisions, s. */
    double scaleOutCooldownSeconds = 10.0;
    /**
     * Scale in only after this long without *any* pressure signal
     * (and at least this long since the last scaling decision), s.
     */
    double scaleInCooldownSeconds = 45.0;
};

/** Fixed instance boot time before weights start loading, s. */
inline constexpr double kNodeBootSeconds = 4.0;

/** What the controller wants done with the fleet. */
enum class ScaleDecision
{
    Hold,
    ScaleOut,
    ScaleIn,
};

std::string_view scaleDecisionName(ScaleDecision decision);

/**
 * Simulated node warm-up: instance boot plus loading the (tensor-
 * parallel sharded) model weights onto every GPU over the host link
 * (NodeSpec::hostOffloadBandwidth, PCIe). Shards load in parallel, so
 * the transfer term is the per-GPU shard over one link's bandwidth.
 */
double nodeWarmupSeconds(const llm::ModelSpec &model,
                         const llm::NodeSpec &node);

/**
 * The closed-loop capacity controller. The cluster feeds it arrivals
 * and observed queue delays as they happen; a periodic monitor calls
 * evaluate() with the current fleet state and SLO burn rate and acts
 * on the decision. Single-threaded, owned by runCluster — but free of
 * engine dependencies, so tests can drive the state machine directly.
 */
class AutoscalerController
{
  public:
    explicit AutoscalerController(const AutoscalerConfig &config);

    /** Emit decisions as trace instants (kResilience, tid = node
     *  count at decision time). */
    void attachTrace(telemetry::TraceSink *sink) { trace_ = sink; }

    /** Every scale-out (and scale flap) becomes an incident trigger
     *  (nullptr detaches). */
    void attachRecorder(telemetry::FlightRecorder *recorder)
    {
        recorder_ = recorder;
    }

    /** Feed one request arrival (EWMA rate estimator). */
    void recordArrival(sim::Tick now);

    /** Feed one observed queue delay (P² percentile estimator). */
    void recordQueueDelay(double seconds);

    /**
     * Evaluate the control loop: @p active serving nodes, @p warming
     * nodes still paying their boot cost (provisioned capacity the
     * controller must not double-order), and the current max SLO
     * @p burn_rate. A non-Hold return starts the decision's cooldown
     * and resets the delay estimator (each decision demands fresh
     * evidence); the caller is expected to act on it.
     */
    ScaleDecision evaluate(sim::Tick now, int active, int warming,
                           double burn_rate);

    /** A scaled-out node finished warm-up and entered routing. */
    void noteNodeReady(sim::Tick now);

    /** Predicted arrival rate: the EWMA decayed to @p now. */
    double predictedQps(sim::Tick now) const;

    /** Current queue-delay percentile estimate (0 before
     *  minDelaySamples observations). */
    double queueDelayPercentile() const;

    /** Why the last non-Hold decision fired ("capacity",
     *  "queue_delay", "burn", "idle"; empty before the first). */
    std::string_view lastReason() const { return reason_; }

    std::int64_t scaleOuts() const { return scaleOuts_; }
    std::int64_t scaleIns() const { return scaleIns_; }
    std::int64_t nodesReady() const { return nodesReady_; }

    /** Export agentsim_autoscale_* controller families. */
    void exportMetrics(telemetry::MetricsRegistry &registry,
                       sim::Tick now) const;

    const AutoscalerConfig &config() const { return config_; }

  private:
    double elapsedSeconds(sim::Tick now, sim::Tick since) const;
    void resetDelayEstimator();

    AutoscalerConfig config_;
    telemetry::TraceSink *trace_ = nullptr;
    telemetry::FlightRecorder *recorder_ = nullptr;

    /** EWMA of the instantaneous arrival rate, requests/s. */
    double arrivalRate_ = 0.0;
    sim::Tick lastArrival_ = -1;

    stats::P2Quantile delay_;
    std::int64_t delaySamples_ = 0;

    sim::Tick lastScaleOut_ = 0;
    sim::Tick lastScaleIn_ = 0;
    /** Last tick any pressure signal was observed. */
    sim::Tick lastPressure_ = 0;

    std::int64_t scaleOuts_ = 0;
    std::int64_t scaleIns_ = 0;
    std::int64_t nodesReady_ = 0;
    std::string_view reason_ = "";
};

/**
 * Predictive admission control: Little's-law projection of the queue
 * delay a request would suffer on its routed node, gated against the
 * request's deadline budget. The completion-rate estimate is learned
 * online (EWMA over completions) unless nodeServiceQps pins it.
 */
class AdmissionController
{
  public:
    explicit AdmissionController(const AutoscalerConfig &config);

    /** Feed one request completion (service-rate estimator). */
    void recordCompletion(sim::Tick now);

    /**
     * Projected queue delay for a request joining a node whose
     * waiting queue holds @p queue_depth requests, with @p active
     * nodes sharing the cluster's completion rate. 0 while the rate
     * is still unknown (cold start admits everything).
     */
    double projectedDelaySeconds(std::size_t queue_depth, int active,
                                 sim::Tick now) const;

    /**
     * Admit or reject-fast. @p deadline_budget_seconds is the
     * request's *remaining* deadline (<= 0: deadline-less, always
     * admitted).
     */
    bool admit(std::size_t queue_depth, int active,
               double deadline_budget_seconds, sim::Tick now);

    std::int64_t decisions() const { return decisions_; }
    std::int64_t rejects() const { return rejects_; }

  private:
    AutoscalerConfig config_;
    /** EWMA of the cluster-wide completion rate, requests/s. */
    double completionRate_ = 0.0;
    sim::Tick lastCompletion_ = -1;
    std::int64_t decisions_ = 0;
    std::int64_t rejects_ = 0;
};

} // namespace agentsim::core

#endif // AGENTSIM_CORE_AUTOSCALER_HH
