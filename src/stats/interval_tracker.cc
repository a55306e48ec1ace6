#include "stats/interval_tracker.hh"

namespace mediaworm::stats {

sim::Tick
IntervalTracker::recordDelivery(sim::StreamId stream, sim::Tick now,
                                bool measured)
{
    ++framesDelivered_;
    const auto [it, first] = lastDelivery_.try_emplace(stream, now);
    if (first)
        return sim::kTickNever;
    const sim::Tick interval = now - it->second;
    if (measured)
        intervals_.add(static_cast<double>(interval));
    it->second = now;
    return interval;
}

void
IntervalTracker::mergeFrom(const IntervalTracker& other)
{
    intervals_.merge(other.intervals_);
    framesDelivered_ += other.framesDelivered_;
}

double
IntervalTracker::meanIntervalMs() const
{
    return intervals_.mean() / static_cast<double>(sim::kMillisecond);
}

double
IntervalTracker::stddevIntervalMs() const
{
    return intervals_.stddev() / static_cast<double>(sim::kMillisecond);
}

} // namespace mediaworm::stats
