/**
 * @file
 * One benchmark experiment, wired from the library's public
 * constructors the same way core::runExperiment() and
 * pcs::runPcsExperiment() wire it, with host-time boundaries between
 * set-up and the run phase, and an optional traced run that splits
 * the run phase across the simulator's modules.
 */

#ifndef MEDIAWORM_PERFBENCH_WIRED_RUN_HH
#define MEDIAWORM_PERFBENCH_WIRED_RUN_HH

#include <array>
#include <cstdint>
#include <vector>

#include "core/experiment.hh"
#include "pcs/pcs_experiment.hh"
#include "sim/pdes.hh"

namespace perfbench {

/** Module a traced dispatch is charged to. */
enum class Layer : std::uint8_t {
    Router, ///< router::WormholeRouter batches (arbiters, crossbar).
    Link,   ///< router::Link::deliverFlits / deliverCredits.
    Ni,     ///< network::NetworkInterface batches.
    Source, ///< traffic::FrameSource / BestEffortSource injections.
    Pcs,    ///< pcs::PcsNetwork multiplexer events.
    Other,  ///< Anything else (one-shot timers).
};
inline constexpr std::size_t kLayers = 6;

/** Host time and work of a traced run, per layer. */
struct LayerLedger
{
    /** Host seconds inside Simulator::step(), per layer. */
    std::array<double, kLayers> seconds{};
    /** Simulator::step() calls (one event or one batch), per layer. */
    std::array<std::uint64_t, kLayers> dispatches{};
    /** eventsFired() growth across those steps, per layer. */
    std::array<std::uint64_t, kLayers> events{};
    /** Events taken off the queue (eventsFired growth minus elided
     *  wakeups credited during the step), over all steps. */
    std::uint64_t popped = 0;
    /** Sum of queue().farSize() seen before each step. */
    double farPendingSum = 0.0;
    /** Host seconds of the whole step loop, classification, clock
     *  reads and the closing settleLazy() included. */
    double loopSeconds = 0.0;

    std::uint64_t
    steps() const
    {
        std::uint64_t n = 0;
        for (std::uint64_t d : dispatches)
            n += d;
        return n;
    }

    double
    share(Layer layer) const
    {
        return loopSeconds > 0.0
            ? seconds[static_cast<std::size_t>(layer)] / loopSeconds
            : 0.0;
    }
};

/** Everything one experiment reports to the benchmark. */
struct RunRecord
{
    /** qosDigest() of the run's QoS outputs. */
    std::uint64_t digest = 0;
    std::uint64_t eventsFired = 0;
    std::uint64_t elidedEvents = 0;
    std::uint64_t flitsDelivered = 0;
    bool truncated = false;

    /** Host seconds from the first constructor to the first event. */
    double setupSeconds = 0.0;
    /** Host seconds from the first event until the results and
     *  telemetry are gathered. */
    double wallSeconds = 0.0;

    // Set-up and run-phase parts, host seconds.
    double networkBuildSeconds = 0.0; ///< network::Network constructor.
    double planSeconds = 0.0;         ///< traffic::planMix.
    double boundsSeconds = 0.0;       ///< calculus::computeBounds.
    double obsFinishSeconds = 0.0;    ///< Telemetry finish + merge.

    /** PDES executor counters; empty on one shard. */
    std::vector<mediaworm::sim::ShardRunStats> shards;

    /** Filled by traced runs only. */
    LayerLedger ledger;
};

/**
 * FNV-1a digest of the behavioural outputs: d, sigma_d, best-effort
 * and real-time latencies and p99, interval, frame and message
 * counts, flits delivered and truncation. Work counters (events
 * fired or elided, idle ticks) are left out, so a change that
 * removes events but not behaviour keeps the digest.
 */
std::uint64_t qosDigest(const mediaworm::core::ExperimentResult& r);

/** As above for the PCS baseline: d, sigma_d, interval and frame
 *  counts, connection attempts, established and dropped, and
 *  truncation (flits are compared separately). */
std::uint64_t qosDigest(const mediaworm::pcs::PcsExperimentResult& r);

/**
 * Runs @p cfg to drain. Untraced, it runs on cfg.shards shards
 * through Simulator::run or PdesExecutor::run. Traced, it runs on
 * one shard, stepping the kernel and charging each step to a layer.
 */
RunRecord runWormhole(const mediaworm::core::ExperimentConfig& cfg,
                      bool traced);

/** As runWormhole() for the PCS baseline (always one shard). */
RunRecord runPcs(const mediaworm::pcs::PcsExperimentConfig& cfg,
                 bool traced);

} // namespace perfbench

#endif // MEDIAWORM_PERFBENCH_WIRED_RUN_HH
