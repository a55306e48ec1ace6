#include "wired_run.hh"

#include <bit>
#include <chrono>
#include <cmath>
#include <cstring>
#include <functional>
#include <memory>
#include <thread>

#include "calculus/oracle.hh"
#include "network/metrics.hh"
#include "network/network.hh"
#include "network/partition.hh"
#include "obs/telemetry.hh"
#include "pcs/pcs_network.hh"
#include "sim/event.hh"
#include "sim/simulator.hh"
#include "traffic/best_effort_source.hh"
#include "traffic/frame_source.hh"
#include "traffic/traffic_mix.hh"

namespace perfbench {

namespace mw = mediaworm;
using Clock = std::chrono::steady_clock;

namespace {

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

std::uint64_t
fnv1a64(std::uint64_t h, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i) {
        h ^= (v >> (8 * i)) & 0xff;
        h *= 1099511628211ULL;
    }
    return h;
}

std::uint64_t
fnv1a64(std::uint64_t h, double v)
{
    return fnv1a64(h, std::bit_cast<std::uint64_t>(v));
}

constexpr std::uint64_t kFnvBasis = 14695981039346656037ULL;

/**
 * Maps an event to its layer by the address of its name() string: a
 * handful of distinct pointers, each resolved with strcmp once and
 * then found by a short linear scan.
 */
class LayerClassifier
{
  public:
    explicit LayerClassifier(bool pcs) : pcs_(pcs) {}

    Layer
    classify(const mw::sim::Event& event)
    {
        const char* name = event.name();
        for (std::size_t i = 0; i < used_; ++i) {
            if (keys_[i] == name)
                return layers_[i];
        }
        const Layer layer = resolve(name);
        if (used_ < keys_.size()) {
            keys_[used_] = name;
            layers_[used_] = layer;
            ++used_;
        }
        return layer;
    }

  private:
    Layer
    resolve(const char* name) const
    {
        static constexpr struct {
            const char* name;
            Layer layer;
        } kKnown[] = {
            {"RouterPortEvent", Layer::Router},
            {"RouterVcEvent", Layer::Router},
            {"Link::deliverFlits", Layer::Link},
            {"Link::deliverCredits", Layer::Link},
            {"NetworkInterface::mux", Layer::Ni},
            {"FrameSource", Layer::Source},
            {"BestEffortSource", Layer::Source},
        };
        for (const auto& known : kKnown) {
            if (std::strcmp(known.name, name) == 0)
                return known.layer;
        }
        // PcsNetwork's multiplexers are unnamed CallbackEvents.
        if (pcs_ && std::strcmp(name, "CallbackEvent") == 0)
            return Layer::Pcs;
        return Layer::Other;
    }

    bool pcs_;
    std::array<const char*, 16> keys_{};
    std::array<Layer, 16> layers_{};
    std::size_t used_ = 0;
};

/**
 * Drives @p simulator to @p cap one Simulator::step() at a time,
 * peeking each dispatch first to charge its host time to a layer;
 * ends with the same lazy-wakeup settle Simulator::run(cap) does.
 */
void
tracedRun(mw::sim::Simulator& simulator, mw::sim::Tick cap, bool pcs,
          LayerLedger& ledger)
{
    LayerClassifier classifier(pcs);
    mw::sim::EventQueue& queue = simulator.queue();
    const Clock::time_point loop_start = Clock::now();
    for (;;) {
        const mw::sim::Event* next = queue.peekEarliest();
        if (next == nullptr || next->when() > cap)
            break;
        const auto layer =
            static_cast<std::size_t>(classifier.classify(*next));
        ledger.farPendingSum += static_cast<double>(queue.farSize());
        const std::uint64_t fired = simulator.eventsFired();
        const std::uint64_t elided = simulator.elidedEvents();
        const Clock::time_point t0 = Clock::now();
        simulator.step();
        const Clock::time_point t1 = Clock::now();
        const std::uint64_t fired_now = simulator.eventsFired() - fired;
        ledger.seconds[layer] +=
            std::chrono::duration<double>(t1 - t0).count();
        ++ledger.dispatches[layer];
        ledger.events[layer] += fired_now;
        ledger.popped += fired_now - (simulator.elidedEvents() - elided);
    }
    simulator.settleLazy(cap);
    ledger.loopSeconds = secondsSince(loop_start);
}

} // namespace

std::uint64_t
qosDigest(const mw::core::ExperimentResult& r)
{
    std::uint64_t h = kFnvBasis;
    h = fnv1a64(h, r.meanIntervalMs);
    h = fnv1a64(h, r.stddevIntervalMs);
    h = fnv1a64(h, r.beLatencyUs);
    h = fnv1a64(h, r.beNetworkLatencyUs);
    h = fnv1a64(h, r.beLatencyP99Us);
    h = fnv1a64(h, r.rtMessageLatencyUs);
    h = fnv1a64(h, r.intervalSamples);
    h = fnv1a64(h, r.framesDelivered);
    h = fnv1a64(h, r.beMessages);
    h = fnv1a64(h, r.flitsDelivered);
    h = fnv1a64(h, std::uint64_t{r.truncated});
    return h;
}

std::uint64_t
qosDigest(const mw::pcs::PcsExperimentResult& r)
{
    std::uint64_t h = kFnvBasis;
    h = fnv1a64(h, r.meanIntervalMs);
    h = fnv1a64(h, r.stddevIntervalMs);
    h = fnv1a64(h, r.intervalSamples);
    h = fnv1a64(h, r.framesDelivered);
    h = fnv1a64(h, r.attempts);
    h = fnv1a64(h, r.established);
    h = fnv1a64(h, r.dropped);
    h = fnv1a64(h, std::uint64_t{r.truncated});
    return h;
}

RunRecord
runWormhole(const mw::core::ExperimentConfig& cfg, bool traced)
{
    RunRecord rec;
    const Clock::time_point setup_start = Clock::now();

    // Time-scale compression, exactly as runExperiment() applies it.
    mw::config::TrafficConfig traffic = cfg.traffic;
    traffic.frameBytesMean *= cfg.timeScale;
    traffic.frameBytesStddev *= cfg.timeScale;
    traffic.frameInterval = static_cast<mw::sim::Tick>(
        static_cast<double>(traffic.frameInterval) * cfg.timeScale);
    cfg.router.validate();
    traffic.validate();
    cfg.network.validate(cfg.router.numPorts);

    const mw::network::ShardPlan plan_shards = traced
        ? mw::network::ShardPlan{}
        : mw::network::planShards(cfg.network, cfg.shards,
                                  std::thread::hardware_concurrency());

    mw::sim::Simulator simulator(cfg.seed);
    std::vector<std::unique_ptr<mw::sim::Simulator>> extra_sims;
    std::vector<mw::sim::Simulator*> sims{&simulator};
    for (int s = 1; s < plan_shards.numShards; ++s) {
        extra_sims.push_back(std::make_unique<mw::sim::Simulator>(
            cfg.seed
            ^ (0x9e3779b97f4a7c15ULL * static_cast<std::uint64_t>(s))));
        sims.push_back(extra_sims.back().get());
    }
    for (mw::sim::Simulator* shard : sims) {
        shard->setBatchedDispatch(cfg.batchedDispatch);
        shard->setFastForward(cfg.fastForward);
    }

    mw::network::MetricsHub metrics;
    Clock::time_point part = Clock::now();
    mw::sim::Rng net_rng = simulator.rng().split();
    mw::network::Network net(sims, plan_shards, cfg.router, cfg.network,
                             metrics, net_rng);
    rec.networkBuildSeconds = secondsSince(part);

    part = Clock::now();
    mw::sim::Rng mix_rng = simulator.rng().split();
    const mw::traffic::MixPlan plan = mw::traffic::planMix(
        cfg.router, traffic, net.numNodes(), mix_rng);
    rec.planSeconds = secondsSince(part);

    if (cfg.calculus.enabled) {
        part = Clock::now();
        const mw::calculus::BoundsReport bounds =
            mw::calculus::computeBounds(cfg.router, traffic, cfg.network,
                                        plan.streams, cfg.calculus);
        rec.boundsSeconds = secondsSince(part);
    }

    std::vector<std::unique_ptr<mw::traffic::FrameSource>> rt_sources;
    rt_sources.reserve(plan.streams.size());
    for (const mw::traffic::Stream& stream : plan.streams) {
        rt_sources.push_back(std::make_unique<mw::traffic::FrameSource>(
            net.simOfNode(stream.src.value()), stream, traffic,
            cfg.router.flitSizeBits, net.ni(stream.src.value()),
            simulator.rng().split()));
    }
    const int total_frames =
        traffic.warmupFrames + traffic.measuredFrames;
    const mw::sim::Tick horizon =
        static_cast<mw::sim::Tick>(total_frames + 1)
        * traffic.frameInterval;
    std::vector<std::unique_ptr<mw::traffic::BestEffortSource>> be_sources;
    if (plan.beInterval != mw::sim::kTickNever) {
        be_sources.reserve(static_cast<std::size_t>(net.numNodes()));
        for (int node = 0; node < net.numNodes(); ++node) {
            be_sources.push_back(
                std::make_unique<mw::traffic::BestEffortSource>(
                    net.simOfNode(node),
                    mw::sim::StreamId(1000000 + node),
                    mw::sim::NodeId(node), net.numNodes(),
                    traffic.beMessageFlits, plan.beInterval, horizon,
                    plan.partition.beFirst, plan.partition.beCount,
                    net.ni(node), simulator.rng().split()));
        }
    }
    for (auto& source : rt_sources)
        source->start();
    for (auto& source : be_sources)
        source->start();

    const mw::sim::Tick warm =
        static_cast<mw::sim::Tick>(traffic.warmupFrames + 1)
        * traffic.frameInterval;
    metrics.enable(warm);

    std::vector<std::unique_ptr<mw::obs::StreamTelemetry>> telemetry;
    if (cfg.obs.telemetry.enabled) {
        mw::obs::TelemetryConfig tcfg = cfg.obs.telemetry;
        if (tcfg.window <= 0)
            tcfg.window = 4 * traffic.frameInterval;
        if (tcfg.measureFrom == 0)
            tcfg.measureFrom = warm;
        tcfg.flitSizeBits = cfg.router.flitSizeBits;
        for (int s = 0; s < plan_shards.numShards; ++s)
            telemetry.push_back(
                std::make_unique<mw::obs::StreamTelemetry>(tcfg));
        for (int node = 0; node < net.numNodes(); ++node) {
            metrics.lane(node).attachTelemetry(
                telemetry[static_cast<std::size_t>(
                              net.shardOfNode(node))]
                    .get());
        }
    }

    const mw::sim::Tick cap = cfg.maxSimTime > 0
        ? cfg.maxSimTime
        : horizon * 8 + 100 * mw::sim::kMillisecond;
    std::unique_ptr<mw::sim::PdesExecutor> executor;
    if (!plan_shards.trivial()) {
        executor = std::make_unique<mw::sim::PdesExecutor>(
            sims, net.minCrossShardDelay());
        for (const auto& channel : net.crossChannels()) {
            mw::router::Link* link = channel.link;
            executor->addMailbox(
                channel.consumerShard,
                channel.isFlit
                    ? std::function<std::uint64_t()>(
                          [link] { return link->flushFlitOutbox(); })
                    : std::function<std::uint64_t()>(
                          [link] { return link->flushCreditOutbox(); }));
        }
    }
    rec.setupSeconds = secondsSince(setup_start);

    // ---- run phase ------------------------------------------------
    const Clock::time_point run_start = Clock::now();
    if (traced)
        tracedRun(simulator, cap, false, rec.ledger);
    else if (executor == nullptr)
        simulator.run(cap);
    else
        executor->run(cap);

    mw::core::ExperimentResult result;
    for (mw::sim::Simulator* shard : sims) {
        result.truncated |=
            !shard->queue().empty() || shard->lazyTickPending();
    }
    if (result.truncated) {
        for (mw::sim::Simulator* shard : sims)
            shard->queue().clear();
    }
    const auto& frames = metrics.frames();
    result.meanIntervalMs = frames.meanIntervalMs();
    result.stddevIntervalMs = frames.stddevIntervalMs();
    result.beLatencyUs = metrics.beLatency().mean();
    result.beNetworkLatencyUs = metrics.beNetworkLatency().mean();
    result.beLatencyP99Us = metrics.beLatencyHistogram().quantile(0.99);
    result.rtMessageLatencyUs = metrics.rtMessageLatency().mean();
    result.intervalSamples = frames.sampleCount();
    result.framesDelivered = frames.framesDelivered();
    result.beMessages = metrics.beMessages();
    result.flitsDelivered = metrics.flitsDelivered();
    for (mw::sim::Simulator* shard : sims) {
        rec.eventsFired += shard->eventsFired();
        rec.elidedEvents += shard->elidedEvents();
    }
    if (!telemetry.empty()) {
        const Clock::time_point finish_start = Clock::now();
        std::vector<mw::obs::TelemetryReport> reports;
        reports.reserve(telemetry.size());
        for (auto& collector : telemetry)
            reports.push_back(collector->finish(cap));
        const mw::obs::TelemetryReport merged =
            mw::obs::StreamTelemetry::merge(std::move(reports));
        rec.obsFinishSeconds = secondsSince(finish_start);
    }
    if (executor != nullptr)
        rec.shards = executor->stats();
    rec.wallSeconds = secondsSince(run_start);

    rec.truncated = result.truncated;
    rec.flitsDelivered = result.flitsDelivered;
    rec.digest = qosDigest(result);
    return rec;
}

RunRecord
runPcs(const mw::pcs::PcsExperimentConfig& cfg, bool traced)
{
    RunRecord rec;
    const Clock::time_point setup_start = Clock::now();

    // Time-scale compression, exactly as runPcsExperiment() applies it.
    mw::config::TrafficConfig traffic = cfg.traffic;
    traffic.frameBytesMean *= cfg.timeScale;
    traffic.frameBytesStddev *= cfg.timeScale;
    traffic.frameInterval = static_cast<mw::sim::Tick>(
        static_cast<double>(traffic.frameInterval) * cfg.timeScale);
    cfg.pcs.validate();
    traffic.validate();

    mw::sim::Simulator simulator(cfg.seed);
    mw::network::MetricsHub metrics;
    Clock::time_point part = Clock::now();
    mw::pcs::PcsNetwork net(simulator, cfg.pcs, metrics);
    rec.networkBuildSeconds = secondsSince(part);

    part = Clock::now();
    const double per_link = cfg.traffic.inputLoad
        * static_cast<double>(cfg.pcs.linkBandwidthMbps)
        / cfg.traffic.streamRateMbps();
    const int target = static_cast<int>(
        std::lround(per_link * static_cast<double>(cfg.pcs.numPorts)));
    mw::pcs::PcsExperimentResult result;
    result.connectionsRequested = target;
    const mw::sim::Tick vtick =
        traffic.streamVtick(cfg.pcs.flitSizeBits);
    mw::sim::Rng setup_rng = simulator.rng().split();
    std::vector<mw::pcs::Connection> circuits;
    circuits.reserve(static_cast<std::size_t>(target));
    for (int k = 0; k < target; ++k) {
        const mw::sim::NodeId src(k % cfg.pcs.numPorts);
        auto connection = net.table().establish(src, vtick, setup_rng);
        if (connection.has_value()) {
            net.registerConnection(*connection);
            circuits.push_back(*connection);
        }
    }
    rec.planSeconds = secondsSince(part);

    mw::sim::Rng stream_rng = simulator.rng().split();
    std::vector<std::unique_ptr<mw::traffic::FrameSource>> sources;
    sources.reserve(circuits.size());
    for (const mw::pcs::Connection& connection : circuits) {
        const mw::traffic::Stream stream =
            net.makeStream(connection, traffic, stream_rng);
        sources.push_back(std::make_unique<mw::traffic::FrameSource>(
            simulator, stream, traffic, cfg.pcs.flitSizeBits, net,
            simulator.rng().split()));
        sources.back()->start();
    }

    const mw::sim::Tick warm =
        static_cast<mw::sim::Tick>(traffic.warmupFrames + 1)
        * traffic.frameInterval;
    mw::sim::CallbackEvent enable_event(
        [&] { metrics.enable(simulator.now()); }, "enableMetrics");
    simulator.schedule(enable_event, warm);
    const mw::sim::Tick horizon =
        static_cast<mw::sim::Tick>(traffic.warmupFrames
                                   + traffic.measuredFrames + 1)
        * traffic.frameInterval;
    const mw::sim::Tick cap = horizon * 8 + 100 * mw::sim::kMillisecond;
    rec.setupSeconds = secondsSince(setup_start);

    // ---- run phase ------------------------------------------------
    const Clock::time_point run_start = Clock::now();
    if (traced)
        tracedRun(simulator, cap, true, rec.ledger);
    else
        simulator.run(cap);

    result.truncated = !simulator.queue().empty();
    if (result.truncated)
        simulator.queue().clear();
    const auto& frames = metrics.frames();
    result.meanIntervalMs = frames.meanIntervalMs();
    result.stddevIntervalMs = frames.stddevIntervalMs();
    result.intervalSamples = frames.sampleCount();
    result.framesDelivered = frames.framesDelivered();
    result.attempts = net.table().attempts();
    result.established = net.table().established();
    result.dropped = net.table().dropped();
    rec.wallSeconds = secondsSince(run_start);

    rec.eventsFired = simulator.eventsFired();
    rec.elidedEvents = simulator.elidedEvents();
    rec.flitsDelivered = net.flitsDelivered();
    rec.truncated = result.truncated;
    rec.digest = qosDigest(result);
    return rec;
}

} // namespace perfbench
