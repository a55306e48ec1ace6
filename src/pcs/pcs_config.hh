/**
 * @file
 * Pipelined Circuit Switching router configuration (Sections 3.5 and
 * 5.6 of the paper).
 *
 * The paper's PCS comparison uses an 8x8 switch with 100 Mbps links
 * and 24 VCs per physical channel, one VC per established connection
 * (so 24-25 concurrent 4 Mbps streams saturate a link).
 */

#ifndef MEDIAWORM_PCS_PCS_CONFIG_HH
#define MEDIAWORM_PCS_PCS_CONFIG_HH

#include <string>

#include "config/router_config.hh"
#include "sim/time.hh"

namespace mediaworm::pcs {

/** Static configuration of the PCS system. */
struct PcsConfig
{
    int numPorts = 8;            ///< Switch size (= endpoints).
    /** VCs per PC, one per connection; at most 64 (one bit of a
     *  link multiplexer's eligibility mask each). */
    int numVcs = 24;
    int flitBufferDepth = 20;    ///< Per-connection router buffer.
    int flitSizeBits = 32;       ///< Flit width.
    int linkBandwidthMbps = 100; ///< PC bandwidth (paper's Fig 8).

    /** Discipline multiplexing connections onto a link. Connections
     *  have reserved rates, so a rate-proportional scheduler keeps
     *  them jitter-free; Virtual Clock is the natural choice. */
    static constexpr config::SchedulerKind kLinkScheduler =
        config::SchedulerKind::VirtualClock;

    /** Path latency a flit pays traversing the switch, in cycles
     *  (the reserved circuit has no per-hop arbitration). */
    int pathCycles = 3;

    /** Attempts allowed per connection before giving up entirely. */
    int maxAttemptsPerConnection = 64;

    /** Flit serialization time on the physical channel. */
    sim::Tick cycleTime() const;

    /** Link payload bandwidth in flits per second. */
    double flitsPerSecond() const;

    /** Aborts via fatal() on out-of-range parameters. */
    void validate() const;

    /** One-line summary. */
    std::string describe() const;
};

} // namespace mediaworm::pcs

#endif // MEDIAWORM_PCS_PCS_CONFIG_HH
