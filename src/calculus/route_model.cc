#include "calculus/route_model.hh"

#include <cmath>

#include "sim/logging.hh"
#include "sim/time.hh"

namespace mediaworm::calculus {

namespace {

/** Cycle time in microseconds. */
double
cycleUs(const config::RouterConfig& router)
{
    return sim::toMicroseconds(router.cycleTime());
}

/** Fixed latency behind a router output port: the header pipeline,
 *  crossbar and output stages plus downstream link propagation. */
double
routerHopLatencyUs(const config::RouterConfig& router)
{
    return static_cast<double>(router.headerPipelineCycles
                               + router.crossbarCycles
                               + router.outputCycles
                               + router.linkDelayCycles)
        * cycleUs(router);
}

/** Identity key for output @p port of switch @p switch_index. */
int
outputKey(int switch_index, int port)
{
    return switch_index * 4096 + port;
}

/** Ring distance between columns/rows @p a and @p b on a wrapped
 *  dimension of size @p k. */
int
ringDistance(int a, int b, int k)
{
    const int fwd = (b - a + k) % k;
    return std::min(fwd, k - fwd);
}

/** Router at the far end of output @p port of @p router. */
int
nextRouter(const network::Topology& topo, int router, int port)
{
    const int chan = topo.outChannelAt(router, port);
    MW_ASSERT(chan >= 0);
    return topo.channels()[static_cast<std::size_t>(chan)].dstRouter;
}

} // namespace

double
linkCapacityFlitsPerUs(const config::RouterConfig& router)
{
    return router.flitsPerSecond() / 1e6;
}

RouteModel::RouteModel(const config::RouterConfig& router,
                       const config::NetworkConfig& net)
    : router_(router), net_(net),
      topo_(network::Topology::build(net, router.numPorts)),
      tables_(network::buildRouting(topo_, net.effectiveRouting(),
                                    net.fatLinkPolicy)),
      // Adaptive paths depend on run-time load; no static route to
      // analyse. (Their hop counts are closed-form: minimal routing.)
      analyzable_(!tables_.adaptive)
{
}

int
RouteModel::routerHops(int src, int dst) const
{
    if (analyzable_)
        return static_cast<int>(routeOf(src, dst).size()) - 1;
    // Adaptive routing (mesh, torus, Clos) has no static path, but it
    // is minimal, so its hop count has a closed form.
    if (net_.topology == config::TopologyKind::Clos)
        return src / net_.closN == dst / net_.closN ? 1 : 3;
    const int eps = net_.endpointsPerSwitch;
    const int ss = src / eps;
    const int ds = dst / eps;
    const int sx = ss % net_.meshWidth;
    const int sy = ss / net_.meshWidth;
    const int dx = ds % net_.meshWidth;
    const int dy = ds / net_.meshWidth;
    if (net_.topology == config::TopologyKind::Torus) {
        return 1 + ringDistance(sx, dx, net_.meshWidth)
            + ringDistance(sy, dy, net_.meshHeight);
    }
    return 1 + std::abs(sx - dx) + std::abs(sy - dy);
}

Route
RouteModel::routeOf(int src, int dst) const
{
    MW_ASSERT(src != dst);
    MW_ASSERT(analyzable_);

    const double cap = linkCapacityFlitsPerUs(router_);
    const double hop_latency = routerHopLatencyUs(router_);

    Route route;
    // Injection multiplexer: the source end of the injection link.
    route.push_back({-(src + 1), cap, router_.injectionScheduler,
                     static_cast<double>(router_.linkDelayCycles)
                         * cycleUs(router_)});

    int cur = topo_.routerOfNode(src);
    const int dest_r = topo_.routerOfNode(dst);
    int guard = 0;
    while (cur != dest_r) {
        const router::RouteCandidates& rc =
            tables_.perRouter[static_cast<std::size_t>(cur)]
                             [static_cast<std::size_t>(dst)];
        MW_ASSERT(rc.count >= 1);
        // A multi-candidate entry spreads a flow over all its
        // candidates (least-loaded or random pick): one aggregate
        // server of count x rate, keyed by the first candidate.
        const double rate = cap * static_cast<double>(rc.count);
        route.push_back({outputKey(cur, rc.ports[0]), rate,
                         router_.scheduler, hop_latency});
        const int next = nextRouter(topo_, cur, rc.ports[0]);
        bool parallel = true;
        for (int i = 1; i < rc.count; ++i) {
            parallel = parallel
                && nextRouter(topo_, cur,
                              rc.ports[static_cast<std::size_t>(i)])
                    == next;
        }
        if (!parallel) {
            // Up-phase over distinct spines (the Clos): the
            // symmetric spine->leaf down links form the same bundle,
            // keyed by the first spine's down port, which every flow
            // into that leaf shares.
            const router::RouteCandidates& down =
                tables_.perRouter[static_cast<std::size_t>(next)]
                                 [static_cast<std::size_t>(dst)];
            MW_ASSERT(nextRouter(topo_, next, down.ports[0]) == dest_r);
            route.push_back({outputKey(next, down.ports[0]), rate,
                             router_.scheduler, hop_latency});
            break;
        }
        cur = next;
        MW_ASSERT(++guard <= topo_.numRouters());
    }

    // Ejection: the destination router's endpoint port.
    route.push_back(
        {outputKey(dest_r,
                   topo_.endpoints()[static_cast<std::size_t>(dst)]
                       .port),
         cap, router_.scheduler, hop_latency});
    return route;
}

Route
routeOf(const config::RouterConfig& router,
        const config::NetworkConfig& net, int src, int dst)
{
    return RouteModel(router, net).routeOf(src, dst);
}

int
routerHops(const config::NetworkConfig& net, int src, int dst)
{
    return RouteModel(config::RouterConfig{}, net)
        .routerHops(src, dst);
}

} // namespace mediaworm::calculus
