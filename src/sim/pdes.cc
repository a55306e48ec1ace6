#include "sim/pdes.hh"

#include <algorithm>
#include <chrono>
#include <thread>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif

#include "sim/cpus.hh"
#include "sim/logging.hh"

namespace mediaworm::sim {

namespace {

/** Upper bound on an EpochBarrier spin before the waiter parks. */
constexpr double kSpinSeconds = 50e-6;

double
secondsSince(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - start)
        .count();
}

/** Spin-wait hint: lets the sibling hyperthread run and keeps the
 *  exit from the loop free of a memory-order mis-speculation. */
inline void
cpuRelax()
{
#if defined(__x86_64__) || defined(__i386__)
    _mm_pause();
#elif defined(__aarch64__) || defined(__arm__)
    asm volatile("yield" ::: "memory");
#endif
}

} // namespace

EpochBarrier::EpochBarrier(int parties)
    : numParties_(parties),
      spin_(parties <= availableCpus()),
      parties_(static_cast<std::size_t>(parties)),
      remaining_(parties)
{
    MW_ASSERT(parties >= 1);
}

bool
EpochBarrier::spinUntilReleased(std::uint32_t phase) const
{
    const auto deadline = std::chrono::steady_clock::now()
        + std::chrono::duration<double>(kSpinSeconds);
    do {
        for (int i = 0; i < 64; ++i) {
            if (phase_.load(std::memory_order_acquire) != phase)
                return true;
            cpuRelax();
        }
    } while (std::chrono::steady_clock::now() < deadline);
    return false;
}

Tick
EpochBarrier::arriveAndWait(int party, Tick next)
{
    // Read before arriving: the phase cannot advance until this
    // party has arrived, so the value read is the current phase.
    const std::uint32_t phase = phase_.load(std::memory_order_acquire);
    parties_[static_cast<std::size_t>(party)].next = next;

    // acq_rel chains every arriver's contribution to the last arriver.
    if (remaining_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        Tick min = kTickNever;
        for (const Party& p : parties_) {
            if (p.next != kTickNever && (min == kTickNever || p.next < min))
                min = p.next;
        }
        result_ = min;
        remaining_.store(numParties_, std::memory_order_relaxed);
        phase_.store(phase + 1, std::memory_order_release);
        phase_.notify_all();
        return min;
    }

    if (spin_ && spinUntilReleased(phase))
        return result_;
    while (phase_.load(std::memory_order_acquire) == phase)
        phase_.wait(phase, std::memory_order_acquire);
    return result_;
}

PdesExecutor::PdesExecutor(std::vector<Simulator*> shards,
                           Tick lookahead)
    : shards_(std::move(shards)), lookahead_(lookahead)
{
    MW_ASSERT(!shards_.empty());
    MW_ASSERT(lookahead_ == kTickNever || lookahead_ > 0);
    stats_.resize(shards_.size());
}

void
PdesExecutor::addMailbox(int consumer_shard,
                         std::function<std::uint64_t()> flush)
{
    MW_ASSERT(consumer_shard >= 0
              && consumer_shard < static_cast<int>(shards_.size()));
    mailboxes_.push_back({consumer_shard, std::move(flush)});
}

void
PdesExecutor::run(Tick cap)
{
    stats_.assign(shards_.size(), ShardRunStats{});

    if (shards_.size() == 1) {
        const auto start = std::chrono::steady_clock::now();
        const std::uint64_t before = shards_[0]->eventsFired();
        shards_[0]->run(cap);
        ShardRunStats& s = stats_[0];
        s.epochs = 1;
        s.eventsFired = shards_[0]->eventsFired() - before;
        s.runSeconds = secondsSince(start);
        return;
    }

    // Starting epoch: the earliest pending event anywhere.
    Tick start_time = kTickNever;
    for (Simulator* shard : shards_) {
        const Tick next = shard->queue().nextTime();
        if (next != kTickNever
            && (start_time == kTickNever || next < start_time))
            start_time = next;
    }
    if (start_time == kTickNever || start_time > cap) {
        // No queued work, but elided wakeups at or before the cap
        // would have fired as no-ops in the legacy path; settle them
        // so eventsFired matches.
        for (std::size_t i = 0; i < shards_.size(); ++i)
            stats_[i].eventsFired += shards_[i]->settleLazy(cap);
        return;
    }

    const int n = static_cast<int>(shards_.size());
    EpochBarrier barrier(n);

    auto worker = [&](int index) {
        Simulator& shard = *shards_[index];
        ShardRunStats& stat = stats_[index];
        Tick epoch_start = start_time;

        for (;;) {
            const Tick window_end = lookahead_ == kTickNever
                ? cap
                : std::min(epoch_start + lookahead_ - 1, cap);

            auto t0 = std::chrono::steady_clock::now();
            const std::uint64_t before = shard.eventsFired();
            shard.run(window_end);
            stat.eventsFired += shard.eventsFired() - before;
            stat.runSeconds += secondsSince(t0);

            t0 = std::chrono::steady_clock::now();
            barrier.arriveAndWait(index);
            stat.blockedSeconds += secondsSince(t0);

            for (const Mailbox& mailbox : mailboxes_) {
                if (mailbox.consumerShard == index)
                    stat.mailboxItems += mailbox.flush();
            }
            stat.maxQueueDepth = std::max(
                stat.maxQueueDepth,
                static_cast<std::uint64_t>(shard.queue().size()));
            stat.maxNearDepth = std::max(
                stat.maxNearDepth,
                static_cast<std::uint64_t>(shard.queue().nearSize()));

            t0 = std::chrono::steady_clock::now();
            const Tick global_next =
                barrier.arriveAndWait(index, shard.queue().nextTime());
            stat.blockedSeconds += secondsSince(t0);
            ++stat.epochs;

            if (global_next == kTickNever || global_next > cap)
                break;
            // Conservative invariant: everything at or before the
            // window end fired, and mailbox arrivals land at least
            // one lookahead past the epoch start.
            MW_ASSERT(global_next > window_end);
            if (global_next > window_end + 1) {
                // The min-reduction already fast-forwards: the next
                // epoch starts at the global next event, not at
                // window_end + 1, so every fully idle window in
                // between is never entered. Count the jump.
                ++stat.fastForwardEpochs;
                stat.fastForwardTicks += static_cast<std::uint64_t>(
                    global_next - (window_end + 1));
            }
            epoch_start = global_next;
        }

        // The loop stops once no *queued* event remains at or before
        // the cap, but elided no-op wakeups (sim::LazyTick) between
        // the final window and the cap are invisible to the
        // min-reduction; the legacy path would have kept running
        // epochs to fire them. Settle them here so per-shard stats
        // and eventsFired stay bit-identical.
        stat.eventsFired += shard.settleLazy(cap);
    };

    std::vector<std::thread> threads;
    threads.reserve(static_cast<std::size_t>(n - 1));
    for (int i = 1; i < n; ++i)
        threads.emplace_back(worker, i);
    worker(0);
    for (std::thread& thread : threads)
        thread.join();
}

} // namespace mediaworm::sim
