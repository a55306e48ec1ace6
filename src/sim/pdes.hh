/**
 * @file
 * Conservative parallel discrete-event execution (Chandy-Misra-Bryant
 * style) over a set of shard Simulators.
 *
 * Each shard owns a disjoint set of model components with their own
 * two-tier event queue and clock. Shards interact only through
 * registered mailboxes (cross-shard link channels): during an epoch a
 * producer appends into a mailbox without scheduling anything on the
 * consumer; at the epoch boundary the consumer drains its mailboxes
 * and schedules the resulting delivery events on its own queue.
 *
 * Epoch protocol (two barrier crossings per epoch):
 *
 *   1. Every shard runs its local events in the window [T, T+W-1]
 *      where W is the lookahead - the minimum cross-shard link
 *      delay. Anything a shard sends in this window arrives at or
 *      after T+W, so no shard can receive an event inside the window
 *      it is currently executing: local order is safe.
 *   2. Barrier. Each shard flushes the mailboxes it consumes,
 *      scheduling arrivals (all at >= T+W) on its queue.
 *   3. Barrier, carrying each shard's next pending event time. All
 *      shards adopt T' = min over shards of those times (fast-forward
 *      over idle gaps) and start the next epoch, or terminate when no
 *      events remain or T' exceeds the cap.
 *
 * Both crossings go through one EpochBarrier, which spins briefly
 * before it parks, so that short epochs do not pay a futex sleep and
 * wake-up per crossing.
 *
 * Determinism: mailbox delivery events carry canonical tie-break
 * keys (Event::setCanonicalSeq), so each shard's (when, seq) order
 * over its own events is identical to the single-threaded kernel's
 * order restricted to that shard - sharded runs reproduce the
 * single-threaded deterministicHash bit for bit (see DESIGN.md
 * section 12 for the induction argument).
 */

#ifndef MEDIAWORM_SIM_PDES_HH
#define MEDIAWORM_SIM_PDES_HH

#include <atomic>
#include <cstdint>
#include <functional>
#include <vector>

#include "sim/simulator.hh"
#include "sim/time.hh"

namespace mediaworm::sim {

/** Per-shard execution counters from one PdesExecutor::run(). */
struct ShardRunStats
{
    /** Synchronization epochs this shard participated in. */
    std::uint64_t epochs = 0;
    /** Events fired by this shard during the run. */
    std::uint64_t eventsFired = 0;
    /** Largest pending-queue size observed at an epoch boundary. */
    std::uint64_t maxQueueDepth = 0;
    /** Near-tier share of maxQueueDepth's snapshot. */
    std::uint64_t maxNearDepth = 0;
    /** Items this shard's consumed mailboxes delivered to it. */
    std::uint64_t mailboxItems = 0;
    /** Epoch transitions that jumped past at least one fully idle
     *  lookahead window (global next event beyond window_end + 1). */
    std::uint64_t fastForwardEpochs = 0;
    /** Ticks skipped by those jumps; intra-window idle ticks are
     *  counted by each shard's Simulator::idleTicksSkipped(). */
    std::uint64_t fastForwardTicks = 0;
    /** Wall time spent executing local events. */
    double runSeconds = 0.0;
    /** Wall time spent blocked on the epoch barriers (waiting for
     *  slower shards - the conservative-sync overhead). */
    double blockedSeconds = 0.0;
};

/**
 * Reusable centralized barrier whose crossings also min-reduce one
 * Tick per party.
 *
 * Sense-reversing on a phase counter: each party stores its value in
 * its own slot and decrements the arrival count; the last arriver
 * reduces the slots, resets the count and bumps the phase, which
 * releases everyone. A waiter spins on the phase word (with a CPU
 * pause) for a bounded budget, then parks in std::atomic::wait until
 * the last arriver's notify_all. Spinning is enabled only when every
 * party can have a CPU of its own (parties <= availableCpus());
 * otherwise waiters park at once, so an oversubscribed run does not
 * burn the time slices of the shard it is waiting for.
 */
class EpochBarrier
{
  public:
    /** @param parties Threads crossing each phase (>= 1). */
    explicit EpochBarrier(int parties);

    /**
     * Blocks until all parties have arrived in this phase.
     *
     * @param party Caller's index in [0, parties); one thread each.
     * @param next  Caller's contribution to the reduction, kTickNever
     *              for none.
     * @return Minimum over the phase's non-kTickNever contributions,
     *         or kTickNever when every party passed kTickNever.
     */
    Tick arriveAndWait(int party, Tick next = kTickNever);

    /** True when waiters spin before parking. */
    bool spins() const { return spin_; }

  private:
    /** One party's reduction input, on its own cache line. */
    struct alignas(64) Party
    {
        /** Contribution to the current phase; read by the last
         *  arriver only. */
        Tick next = kTickNever;
    };

    /** Spins until the phase moves past @p phase or the budget runs
     *  out; true when it moved. */
    bool spinUntilReleased(std::uint32_t phase) const;

    const int numParties_;
    const bool spin_;
    std::vector<Party> parties_;
    alignas(64) std::atomic<int> remaining_;
    /** Phase counter plus the reduction it published, on one line
     *  so a released waiter takes a single cache miss. */
    alignas(64) std::atomic<std::uint32_t> phase_{0};
    Tick result_ = kTickNever;
};

/**
 * Runs N shard Simulators to a time cap under conservative
 * lookahead synchronization. The executor does not own the shards
 * or the model; it only drives their queues.
 */
class PdesExecutor
{
  public:
    /**
     * @param shards One Simulator per shard; index is the shard id.
     * @param lookahead Minimum cross-shard event latency W (> 0).
     *        Pass kTickNever when no mailboxes exist: shards are
     *        then independent and run straight to the cap.
     */
    PdesExecutor(std::vector<Simulator*> shards, Tick lookahead);

    /**
     * Registers a mailbox drained by @p consumer_shard. @p flush
     * moves everything its producer appended into the consumer's
     * queue and returns the number of items moved. It is called only
     * from the consumer's worker thread, between epoch barriers.
     */
    void addMailbox(int consumer_shard,
                    std::function<std::uint64_t()> flush);

    /**
     * Runs all shards until their queues drain or the next event
     * would fire after @p cap (events exactly at the cap still
     * fire, matching Simulator::run semantics). Single entry, joins
     * all workers before returning.
     */
    void run(Tick cap);

    /** Per-shard counters from the last run(). */
    const std::vector<ShardRunStats>& stats() const { return stats_; }

  private:
    struct Mailbox
    {
        int consumerShard;
        std::function<std::uint64_t()> flush;
    };

    std::vector<Simulator*> shards_;
    Tick lookahead_;
    std::vector<Mailbox> mailboxes_;
    std::vector<ShardRunStats> stats_;
};

} // namespace mediaworm::sim

#endif // MEDIAWORM_SIM_PDES_HH
