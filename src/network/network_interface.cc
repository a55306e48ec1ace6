#include "network/network_interface.hh"

#include "sim/logging.hh"

namespace mediaworm::network {

NetworkInterface::NetworkInterface(sim::Simulator& simulator,
                                   sim::NodeId node,
                                   const config::RouterConfig& cfg,
                                   MetricsHub& metrics, std::string name)
    : simulator_(simulator), node_(node), cfg_(cfg),
      lane_(&metrics.lane(node.value())), name_(std::move(name)),
      cycleTime_(cfg.cycleTime()),
      vcs_(static_cast<std::size_t>(cfg.numVcs)),
      credits_(static_cast<std::size_t>(cfg.numVcs), 0),
      vclock_(static_cast<std::size_t>(cfg.numVcs)),
      muxEvent_(this, "NetworkInterface::mux")
{
    arb_.init(cfg.injectionScheduler, 1, cfg.numVcs, cfg.simdArbiter);
    muxEvent_.setBatchSink(this, 0);
    simulator_.addLazyDrain(this);
}

void
NetworkInterface::muxFired()
{
    mux_.fired();
    serveMux();
}

void
NetworkInterface::fireBatch(sim::Event& first)
{
    // The mux event is this sink's only member type; pull same-tick
    // members straight from the live queue (see
    // WormholeRouter::fireBatch for the ordering argument).
    sim::Event* e = &first;
    do {
        muxFired();
        e = simulator_.nextBatchMember(this);
    } while (e != nullptr);
}

std::uint64_t
NetworkInterface::flushLazy(sim::Tick until)
{
    return mux_.flush(until);
}

bool
NetworkInterface::lazyPending() const
{
    return mux_.pending();
}

void
NetworkInterface::connectInjectionLink(router::Link& link,
                                       int router_buffer_depth)
{
    MW_ASSERT(router_buffer_depth > 0);
    injectionLink_ = &link;
    routerBufferDepth_ = router_buffer_depth;
    link.connectCreditReceiver(this);
    for (int& c : credits_)
        c = router_buffer_depth;
}

void
NetworkInterface::connectEjectionLink(router::Link& link)
{
    link.connectReceiver(this);
}

void
NetworkInterface::injectMessage(const traffic::MessageDesc& message)
{
    MW_ASSERT(message.numFlits >= 2);
    MW_ASSERT(message.vcLane >= 0 && message.vcLane < cfg_.numVcs);
    MW_ASSERT(message.dest.valid() && message.dest != node_);
    if (cfg_.switching == config::SwitchingKind::VirtualCutThrough
        && routerBufferDepth_ > 0
        && message.numFlits > routerBufferDepth_) {
        sim::fatal("virtual cut-through requires messages (%d flits) "
                   "to fit the %d-flit router buffers",
                   message.numFlits, routerBufferDepth_);
    }

    InjectionVc& vc = vcs_[static_cast<std::size_t>(message.vcLane)];
    const sim::Tick now = simulator_.now();

    if (tracer_ != nullptr && tracer_->accepts(message.stream)) {
        tracer_->record({now, sim::TracePoint::HostInject,
                         message.stream, message.seq, -1,
                         node_.value(), -1, message.vcLane});
    }

    // The injection multiplexer is a scheduling point like the
    // router's stage 5: stamp every flit with the Virtual Clock of
    // this VC lane (header installs the message's Vtick).
    router::VirtualClockState& vclock =
        vclock_[static_cast<std::size_t>(message.vcLane)];
    vclock.beginMessage(message.vtick);

    router::Flit flit;
    flit.cls = message.cls;
    flit.stream = message.stream;
    flit.message = message.seq;
    flit.messageFlits = message.numFlits;
    flit.dest = message.dest;
    flit.vcLane = message.vcLane;
    flit.vtick = message.vtick;
    flit.frame = message.frame;
    flit.injectTime = now;

    for (int i = 0; i < message.numFlits; ++i) {
        flit.index = i;
        flit.type = i == 0 ? router::FlitType::Header
            : i == message.numFlits - 1 ? router::FlitType::Tail
                                        : router::FlitType::Body;
        flit.endOfFrame =
            message.endOfFrame && flit.type == router::FlitType::Tail;
        flit.stamp = vclock.tick(now);
        flit.arrivalSeq = nextArrivalSeq_++;
        vc.queue.push(flit);
    }
    refreshEligibility(message.vcLane);
    kickMux();
}

void
NetworkInterface::receiveFlit(const router::Flit& flit, int vc)
{
    const sim::Tick now = simulator_.now();
    if (tracer_ != nullptr && tracer_->accepts(flit.stream)) {
        tracer_->record({now, sim::TracePoint::Eject, flit.stream,
                         flit.message, flit.index, node_.value(), -1,
                         vc});
    }
    lane_->recordFlit(flit.stream, now);
    if (!flit.isTail())
        return;
    if (flit.cls == router::TrafficClass::BestEffort) {
        lane_->recordBeMessage(flit.injectTime,
                               flit.networkEnterTime, now);
        return;
    }
    lane_->recordRtMessage(flit.stream, flit.injectTime, now);
    if (flit.endOfFrame)
        lane_->recordFrameDelivery(flit.stream, now);
}

void
NetworkInterface::creditReturned(int vc)
{
    ++credits_[static_cast<std::size_t>(vc)];
    refreshEligibility(vc);
    kickMux();
}

std::uint64_t
NetworkInterface::backlogFlits() const
{
    std::uint64_t total = 0;
    for (const InjectionVc& vc : vcs_)
        total += vc.queue.size();
    return total;
}

void
NetworkInterface::refreshEligibility(int vc_index)
{
    InjectionVc& vc = vcs_[static_cast<std::size_t>(vc_index)];
    const int credits = credits_[static_cast<std::size_t>(vc_index)];
    bool ready = !vc.queue.empty() && credits > 0;
    if (ready
        && cfg_.switching == config::SwitchingKind::VirtualCutThrough) {
        // Virtual cut-through gates message launch on the router
        // input buffer holding the whole message.
        const router::Flit& head = vc.queue.front();
        if (head.isHeader() && credits < head.messageFlits)
            ready = false;
    }
    if (ready)
        arb_.setEligible(0, vc_index, vc.queue.front());
    else
        arb_.clearEligible(0, vc_index);
}

void
NetworkInterface::kickMux()
{
    if (mux_.kick(simulator_, muxEvent_))
        serveMux();
}

void
NetworkInterface::serveMux()
{
    MW_DEBUG_ASSERT(!mux_.busy());
    MW_DEBUG_ASSERT(injectionLink_ != nullptr);

    if (!arb_.anyEligible(0))
        return;

    const int v = arb_.pick(0);
    InjectionVc& vc = vcs_[static_cast<std::size_t>(v)];

    // Stamp the launch time in place and send straight from the
    // queue head; the link copies the flit, so no stack copy.
    router::Flit& flit = vc.queue.front();
    flit.networkEnterTime = simulator_.now();
    injectionLink_->sendFlit(flit, v);
    ++flitsInjected_;
    if (tracer_ != nullptr && tracer_->accepts(flit.stream)) {
        tracer_->record({simulator_.now(),
                         sim::TracePoint::NetworkLaunch, flit.stream,
                         flit.message, flit.index, node_.value(), -1,
                         v});
    }
    vc.queue.dropFront();
    --credits_[static_cast<std::size_t>(v)];
    refreshEligibility(v);

    // Nothing eligible next cycle means a provably-idle wakeup (the
    // anyEligible() gate above has no side effects): elide it.
    mux_.arm(simulator_, muxEvent_, cycleTime_, !arb_.anyEligible(0));
}

} // namespace mediaworm::network
