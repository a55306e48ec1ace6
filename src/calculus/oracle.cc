#include "calculus/oracle.hh"

#include <algorithm>
#include <cmath>
#include <map>
#include <utility>

#include "calculus/route_model.hh"
#include "sim/logging.hh"
#include "sim/time.hh"

namespace mediaworm::calculus {

namespace {

/**
 * Largest GoP frame-size multiplier of the IBBPBB... pattern in
 * traffic/frame_source.cc (the I frame). The pattern is normalised
 * to mean 1.0, and its worst k-frame window never exceeds
 * kGopPeakMultiplier + (k - 1) x mean, so a burst covering one I
 * frame needs no extra sustained-rate margin for the pattern itself.
 */
constexpr double kGopPeakMultiplier = 2.4;

/** True for disciplines whose saturated best-effort stamps give
 *  real-time traffic strict priority. */
bool
strictPriority(config::SchedulerKind kind)
{
    return kind == config::SchedulerKind::VirtualClock
        || kind == config::SchedulerKind::WeightedRoundRobin;
}

/** One analysed flow: a real-time stream or a best-effort
 *  source->destination pair-flow. */
struct Flow
{
    Route route;
    ArrivalCurve source;
    double stampRateFlitsPerUs = 0.0; ///< 1/Vtick; 0 for best-effort.
    int vcLane = -1;
    /** True when vcLane identifies the physical VC FIFO. Multi-class
     *  routing folds lanes (out_vc = class x lanes + lane % lanes),
     *  so distinct lanes may share a FIFO and the lane-exact
     *  stamp-rate argument no longer applies. */
    bool laneExact = true;
    bool rt = false;
    int streamIndex = -1; ///< Into the input stream table; -1 for BE.

    /** cum[h]: delay bound accumulated before hop h (TFA state). */
    std::vector<double> cum;
};

/** A contention point with its member (flow, hop) pairs. */
struct PointData
{
    ContentionPoint info;
    std::vector<std::pair<int, int>> members;
};

/** Flow @p f's envelope after @p cum_delay_us of upstream jitter:
 *  sigma grows by rho x delay (burstiness propagation). */
ArrivalCurve
envelopeAfter(const Flow& f, double cum_delay_us)
{
    if (cum_delay_us >= kUnbounded)
        return {kUnbounded, f.source.rhoFlitsPerUs};
    return {f.source.sigmaFlits
                + f.source.rhoFlitsPerUs * cum_delay_us,
            f.source.rhoFlitsPerUs};
}

/**
 * The two candidate service curves flow @p i can claim at point
 * @p pd, evaluated against the competitors' current TFA state:
 *
 *   [0] blind-multiplexing residual - capacity minus every
 *       competitor's envelope; under strict priority, best-effort
 *       competitors collapse to one non-preemptable blocking flit.
 *   [1] stamp-rate curve (strict-priority points, RT flows only) -
 *       the Virtual Clock lane drains at its stamp rate 1/Vtick
 *       whenever the stamp rates of all lanes at the point fit the
 *       capacity; the lane's FIFO is shared with its other members.
 *       none() when infeasible or not applicable.
 *
 * Both are valid guarantees; callers keep whichever bounds the
 * target's delay tighter.
 */
void
candidateCurves(const std::vector<Flow>& flows, int i,
                const PointData& pd, ServiceCurve out[2])
{
    const ContentionPoint& point = pd.info;
    const Flow& target = flows[i];
    const bool drop_be =
        strictPriority(point.discipline) && target.rt;

    ArrivalCurve blind{0.0, 0.0};
    ArrivalCurve lane_others{0.0, 0.0};
    for (const auto& [j, h] : pd.members) {
        if (j == i)
            continue;
        const Flow& other = flows[j];
        if (drop_be && !other.rt)
            continue;
        const ArrivalCurve env = envelopeAfter(other, other.cum[h]);
        blind = aggregate(blind, env);
        if (drop_be && other.rt && other.vcLane == target.vcLane)
            lane_others = aggregate(lane_others, env);
    }
    if (drop_be)
        blind = aggregate(blind, {1.0, 0.0});

    out[0] = residual(point.capacityFlitsPerUs, blind,
                      point.fixedLatencyUs);
    out[1] = ServiceCurve::none();
    if (!drop_be || !target.laneExact)
        return;

    // Stamp-rate branch: per-lane stamp rates must fit the capacity
    // (checked with each lane's largest member rate, guaranteed with
    // the target lane's smallest - identical in practice, since every
    // planned stream advertises the same Vtick).
    std::map<int, double> lane_rate_max;
    double lane_rate_min = target.stampRateFlitsPerUs;
    for (const auto& [j, h] : pd.members) {
        const Flow& other = flows[j];
        if (!other.rt)
            continue;
        double& rate = lane_rate_max[other.vcLane];
        rate = std::max(rate, other.stampRateFlitsPerUs);
        if (other.vcLane == target.vcLane)
            lane_rate_min =
                std::min(lane_rate_min, other.stampRateFlitsPerUs);
    }
    double stamp_sum = 0.0;
    for (const auto& [lane, rate] : lane_rate_max)
        stamp_sum += rate;
    if (stamp_sum > point.capacityFlitsPerUs)
        return;
    // One blocked flit of another lane or class may be in service.
    out[1] = residual(lane_rate_min, lane_others,
                      point.fixedLatencyUs
                          + 1.0 / point.capacityFlitsPerUs);
}

/** Flow @p i's sojourn bound at the point @p pd given its entry
 *  delay @p entry_delay_us: the better candidate's horizontal
 *  deviation. */
double
sojournAt(const std::vector<Flow>& flows, int i, const PointData& pd,
          double entry_delay_us)
{
    if (entry_delay_us >= kUnbounded)
        return kUnbounded;
    ServiceCurve cand[2];
    candidateCurves(flows, i, pd, cand);
    const ArrivalCurve entry =
        envelopeAfter(flows[i], entry_delay_us);
    return std::min(delayBoundUs(entry, cand[0]),
                    delayBoundUs(entry, cand[1]));
}

} // namespace

StreamEnvelope
rtStreamEnvelope(const config::RouterConfig& router,
                 const config::TrafficConfig& traffic,
                 const OracleConfig& oracle)
{
    // Header flits carry no payload (frame_source.cc).
    const double flit_bytes = router.flitSizeBits / 8.0;
    const double payload_bytes =
        (traffic.messageFlits - 1) * flit_bytes;
    const double interval_us =
        sim::toMicroseconds(traffic.frameInterval);
    MW_ASSERT(payload_bytes > 0.0 && interval_us > 0.0);

    double worst_bytes = traffic.frameBytesMean;
    double margin = 0.0;
    switch (traffic.realTimeKind) {
      case config::RealTimeKind::Cbr:
        break;
      case config::RealTimeKind::Vbr:
        worst_bytes += oracle.burstSigmas * traffic.frameBytesStddev;
        margin = traffic.frameBytesStddev / traffic.frameBytesMean;
        break;
      case config::RealTimeKind::MpegGop:
        worst_bytes =
            (traffic.frameBytesMean
             + oracle.burstSigmas * traffic.frameBytesStddev)
            * kGopPeakMultiplier;
        margin = traffic.frameBytesStddev / traffic.frameBytesMean;
        break;
    }
    if (oracle.rateMargin >= 0.0)
        margin = oracle.rateMargin;

    const double mean_messages =
        std::ceil(traffic.frameBytesMean / payload_bytes);
    const double max_messages =
        std::max(1.0, std::ceil(worst_bytes / payload_bytes));

    StreamEnvelope env;
    env.maxMessageFlits = traffic.messageFlits;
    env.meanRateFlitsPerUs =
        mean_messages * traffic.messageFlits / interval_us;
    env.curve = {max_messages * traffic.messageFlits,
                 env.meanRateFlitsPerUs * (1.0 + margin)};
    return env;
}

const StreamBound*
BoundsReport::find(sim::StreamId id) const
{
    const auto it = std::lower_bound(
        streams.begin(), streams.end(), id,
        [](const StreamBound& b, sim::StreamId key) {
            return b.stream < key;
        });
    if (it == streams.end() || !(it->stream == id))
        return nullptr;
    return &*it;
}

BoundsReport
computeBounds(const config::RouterConfig& router,
              const config::TrafficConfig& traffic,
              const config::NetworkConfig& net,
              const std::vector<traffic::Stream>& streams,
              const OracleConfig& oracle)
{
    BoundsReport report;
    if (streams.empty())
        return report;

    const int num_nodes = net.totalNodes(router.numPorts);
    const StreamEnvelope envelope =
        rtStreamEnvelope(router, traffic, oracle);
    const RouteModel model(router, net);

    // Adaptive routing has no static path to analyse: report every
    // stream unbounded (hop counts stay exact - minimal routing).
    if (!model.analyzable()) {
        report.streams.reserve(streams.size());
        for (const traffic::Stream& s : streams) {
            StreamBound b;
            b.stream = s.id;
            b.src = s.src;
            b.dst = s.dst;
            b.hops = model.routerHops(s.src.value(), s.dst.value());
            b.sigmaFlits = envelope.curve.sigmaFlits;
            b.rhoFlitsPerUs = envelope.curve.rhoFlitsPerUs;
            b.reservedFlitsPerUs =
                static_cast<double>(sim::kMicrosecond)
                / static_cast<double>(s.vtick);
            b.boundUs = kUnbounded;
            b.bounded = false;
            report.streams.push_back(b);
        }
        std::sort(report.streams.begin(), report.streams.end(),
                  [](const StreamBound& a, const StreamBound& b) {
                      return a.stream < b.stream;
                  });
        report.unboundedStreams =
            static_cast<int>(report.streams.size());
        return report;
    }

    const bool lane_exact = model.vcClasses() == 1;
    std::vector<Flow> flows;
    flows.reserve(streams.size());
    for (std::size_t i = 0; i < streams.size(); ++i) {
        const traffic::Stream& s = streams[i];
        Flow f;
        f.route = model.routeOf(s.src.value(), s.dst.value());
        f.source = envelope.curve;
        f.stampRateFlitsPerUs = static_cast<double>(sim::kMicrosecond)
            / static_cast<double>(s.vtick);
        f.vcLane = s.vcLane;
        f.laneExact = lane_exact;
        f.rt = true;
        f.streamIndex = static_cast<int>(i);
        flows.push_back(std::move(f));
    }

    // Best-effort component: each node injects at be_load x link rate
    // with uniform destinations; model it as (n - 1) pair-flows per
    // node, each carrying the per-destination rate share but the full
    // message burst (the source may aim any burst anywhere).
    const double be_load =
        traffic.inputLoad * (1.0 - traffic.realTimeFraction);
    if (be_load > 0.0 && num_nodes >= 2) {
        const double pair_rate = be_load
            * linkCapacityFlitsPerUs(router)
            / static_cast<double>(num_nodes - 1);
        for (int src = 0; src < num_nodes; ++src) {
            for (int dst = 0; dst < num_nodes; ++dst) {
                if (dst == src)
                    continue;
                Flow f;
                f.route = model.routeOf(src, dst);
                f.source = {
                    static_cast<double>(traffic.beMessageFlits),
                    pair_rate};
                flows.push_back(std::move(f));
            }
        }
    }

    // Contention-point table: who meets whom, where.
    std::map<int, PointData> points;
    std::size_t max_route_len = 0;
    for (std::size_t i = 0; i < flows.size(); ++i) {
        Flow& f = flows[i];
        max_route_len = std::max(max_route_len, f.route.size());
        f.cum.assign(f.route.size() + 1, 0.0);
        for (std::size_t h = 0; h < f.route.size(); ++h) {
            PointData& pd = points[f.route[h].key];
            pd.info = f.route[h];
            pd.members.emplace_back(static_cast<int>(i),
                                    static_cast<int>(h));
        }
    }

    // TFA burstiness propagation. XY routing is feed-forward, so the
    // in-place (Gauss-Seidel) iteration reaches its fixed point
    // within max-route-length sweeps; one extra sweep verifies.
    const int passes = oracle.tfaPasses > 0
        ? oracle.tfaPasses
        : static_cast<int>(max_route_len) + 1;
    for (int pass = 0; pass < passes; ++pass) {
        bool changed = false;
        for (std::size_t i = 0; i < flows.size(); ++i) {
            Flow& f = flows[i];
            double total = 0.0;
            for (std::size_t h = 0; h < f.route.size(); ++h) {
                const PointData& pd = points.at(f.route[h].key);
                total +=
                    sojournAt(flows, static_cast<int>(i), pd, total);
                if (f.cum[h + 1] != total) {
                    f.cum[h + 1] = total;
                    changed = true;
                }
            }
        }
        if (!changed)
            break;
    }

    // Final per-stream bounds: SFA convolution along the route with
    // the propagated interference state ("pay bursts only once"),
    // never worse than the plain TFA per-hop sum.
    report.streams.reserve(streams.size());
    for (std::size_t i = 0; i < flows.size(); ++i) {
        const Flow& f = flows[i];
        if (!f.rt)
            continue;
        ServiceCurve e2e{kUnbounded, 0.0};
        for (std::size_t h = 0; h < f.route.size(); ++h) {
            const PointData& pd = points.at(f.route[h].key);
            ServiceCurve cand[2];
            candidateCurves(flows, static_cast<int>(i), pd, cand);
            const ArrivalCurve entry = envelopeAfter(f, f.cum[h]);
            const ServiceCurve chosen =
                delayBoundUs(entry, cand[0])
                        <= delayBoundUs(entry, cand[1])
                    ? cand[0]
                    : cand[1];
            e2e = convolve(e2e, chosen);
        }
        const double bound =
            std::min(delayBoundUs(f.source, e2e),
                     f.cum[f.route.size()]);

        const traffic::Stream& s =
            streams[static_cast<std::size_t>(f.streamIndex)];
        StreamBound b;
        b.stream = s.id;
        b.src = s.src;
        b.dst = s.dst;
        // The walked route: injection point plus one per router.
        b.hops = static_cast<int>(f.route.size()) - 1;
        b.sigmaFlits = f.source.sigmaFlits;
        b.rhoFlitsPerUs = f.source.rhoFlitsPerUs;
        b.reservedFlitsPerUs = f.stampRateFlitsPerUs;
        b.boundUs = bound;
        b.bounded = bound < kUnbounded;
        report.streams.push_back(b);
    }

    std::sort(report.streams.begin(), report.streams.end(),
              [](const StreamBound& a, const StreamBound& b) {
                  return a.stream < b.stream;
              });
    for (const StreamBound& b : report.streams) {
        if (b.bounded)
            report.maxBoundUs = std::max(report.maxBoundUs, b.boundUs);
        else
            ++report.unboundedStreams;
    }
    return report;
}

} // namespace mediaworm::calculus
