/**
 * @file
 * mwbench: the repository benchmark's measuring program.
 *
 *   mwbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
 *   mwbench --self-test
 *   mwbench --golden <name>
 *
 * Each workload is one simulated experiment run to drain at a fixed
 * size, repeated for --seconds. With --trace 0 a run prints the
 * end-to-end metrics (best run-phase time, median set-up time), with
 * --trace 1 the per-layer metrics of a separate traced run. The last
 * line of standard output is the result object; see README.md.
 */

#include <sched.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "build_info.hh"
#include "core/experiment.hh"
#include "pcs/pcs_experiment.hh"
#include "router/simd.hh"
#include "wired_run.hh"

namespace {

namespace mw = mediaworm;
using perfbench::Layer;
using perfbench::RunRecord;
using Clock = std::chrono::steady_clock;

constexpr std::uint64_t kDefaultSeed = 1;

/** One benchmark workload at a fixed input size. */
struct Workload
{
    std::string name;
    bool pcs = false;
    mw::core::ExperimentConfig cfg;
    mw::pcs::PcsExperimentConfig pcsCfg;
    /** qosDigest() of the full-size run at kDefaultSeed. */
    std::uint64_t golden = 0;
};

const char* const kWorkloads[] = {"switch-fig3", "torus-dor",
                                  "fatmesh-pdes4", "pcs-switch"};

/** Table-1 router: 8 ports, 16 VCs, 20-flit buffers, 32-bit flits,
 *  400 Mbps, multiplexed crossbar, Virtual Clock (the defaults). */
mw::core::ExperimentConfig
paperRouter()
{
    mw::core::ExperimentConfig cfg;
    cfg.router.numPorts = 8;
    cfg.router.numVcs = 16;
    cfg.router.flitBufferDepth = 20;
    cfg.router.flitSizeBits = 32;
    cfg.router.linkBandwidthMbps = 400;
    cfg.traffic.realTimeFraction = 0.8;
    cfg.traffic.warmupFrames = 1;
    cfg.traffic.measuredFrames = 2;
    return cfg;
}

/**
 * The named workload; @p tiny shrinks it to a fraction of a second
 * for the self-test (same shape, fewer simulated frames).
 */
std::optional<Workload>
makeWorkload(const std::string& name, bool tiny)
{
    Workload w;
    w.name = name;
    w.cfg = paperRouter();
    if (name == "switch-fig3") {
        w.cfg.traffic.inputLoad = 0.9;
        w.cfg.timeScale = 0.025;
        w.golden = 0xf1c4c84055b28427ULL;
    } else if (name == "torus-dor") {
        w.cfg.network.topology = mw::config::TopologyKind::Torus;
        w.cfg.network.routing = mw::config::RoutingKind::DimensionOrder;
        w.cfg.network.meshWidth = 8;
        w.cfg.network.meshHeight = 8;
        w.cfg.network.endpointsPerSwitch = 1;
        w.cfg.traffic.inputLoad = 0.6;
        w.cfg.obs.telemetry.enabled = true;
        w.cfg.calculus.enabled = true;
        w.cfg.traffic.measuredFrames = 1;
        w.cfg.timeScale = 0.0025;
        w.golden = 0xfd32c2b63ea57759ULL;
    } else if (name == "fatmesh-pdes4") {
        w.cfg.network.topology = mw::config::TopologyKind::FatMesh;
        w.cfg.network.meshWidth = 2;
        w.cfg.network.meshHeight = 2;
        w.cfg.network.fatFactor = 2;
        w.cfg.network.fatLinkPolicy =
            mw::config::FatLinkPolicy::LeastLoaded;
        w.cfg.network.endpointsPerSwitch = 4;
        w.cfg.traffic.inputLoad = 0.8;
        w.cfg.shards = 4;
        w.cfg.timeScale = 0.02;
        w.golden = 0x61720227189a5b80ULL;
    } else if (name == "pcs-switch") {
        w.pcs = true;
        w.pcsCfg.traffic.inputLoad = 0.9;
        w.pcsCfg.traffic.warmupFrames = 2;
        w.pcsCfg.traffic.measuredFrames = 6;
        w.pcsCfg.timeScale = 0.05;
        w.golden = 0x919c25f6c5c6f375ULL;
    } else {
        return std::nullopt;
    }
    if (tiny) {
        w.cfg.timeScale /= 4;
        w.cfg.traffic.measuredFrames = 1;
        w.pcsCfg.timeScale /= 4;
        w.pcsCfg.traffic.measuredFrames = 2;
    }
    return w;
}

/**
 * Pins a single-threaded repetition to the next CPU this process may
 * use, round robin; a multi-threaded one gets every CPU back. On a
 * shared host each virtual CPU is slowed, by up to 1.6x, by whatever
 * its physical core also runs, and that changes over tens of
 * seconds. Rotating puts every few repetitions on a CPU that is quiet
 * at the time, which is what best-of-N then reports.
 */
void
placeRepetition(bool single_threaded)
{
    static const cpu_set_t allowed = [] {
        cpu_set_t set;
        CPU_ZERO(&set);
        sched_getaffinity(0, sizeof(set), &set);
        return set;
    }();
    static int turn = 0;
    const int count = CPU_COUNT(&allowed);
    if (!single_threaded || count <= 1) {
        sched_setaffinity(0, sizeof(allowed), &allowed);
        return;
    }
    int skip = turn++ % count;
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
        if (CPU_ISSET(cpu, &allowed) && skip-- == 0) {
            cpu_set_t one;
            CPU_ZERO(&one);
            CPU_SET(cpu, &one);
            sched_setaffinity(0, sizeof(one), &one);
            return;
        }
    }
}

RunRecord
runOnce(const Workload& w, std::uint64_t seed, bool traced,
        int shards = 0)
{
    const int effective = traced || w.pcs   ? 1
                          : shards > 0          ? shards
                                                : w.cfg.shards;
    placeRepetition(effective == 1);
    if (w.pcs) {
        mw::pcs::PcsExperimentConfig cfg = w.pcsCfg;
        cfg.seed = seed;
        return perfbench::runPcs(cfg, traced);
    }
    mw::core::ExperimentConfig cfg = w.cfg;
    cfg.seed = seed;
    if (shards > 0)
        cfg.shards = shards;
    return perfbench::runWormhole(cfg, traced);
}

/** Digest of the library's own one-call runner on one shard. */
std::uint64_t
libraryDigest(const Workload& w, std::uint64_t seed, int shards = 1)
{
    placeRepetition(w.pcs || shards == 1);
    if (w.pcs) {
        mw::pcs::PcsExperimentConfig cfg = w.pcsCfg;
        cfg.seed = seed;
        return perfbench::qosDigest(mw::pcs::runPcsExperiment(cfg));
    }
    mw::core::ExperimentConfig cfg = w.cfg;
    cfg.seed = seed;
    cfg.shards = shards;
    return perfbench::qosDigest(mw::core::runExperiment(cfg));
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

/** Counts experiments run and those whose checks failed. */
struct Tally
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;

    void
    check(bool ok, const char* what, const RunRecord* rec = nullptr)
    {
        ++attempted;
        if (ok)
            return;
        ++failed;
        std::fprintf(stderr, "mwbench: check failed: %s", what);
        if (rec != nullptr)
            std::fprintf(stderr, " (digest %016llx%s)",
                         static_cast<unsigned long long>(rec->digest),
                         rec->truncated ? ", truncated" : "");
        std::fprintf(stderr, "\n");
    }
};

struct Metric
{
    std::string name;
    double value;
    const char* unit;
};
using Metrics = std::vector<Metric>;

std::string
resultJson(const Tally& tally, const Metrics& metrics)
{
    std::string out = "{\"correct\": ";
    out += tally.failed == 0 ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(tally.attempted);
    out += ", \"failed\": " + std::to_string(tally.failed);
    out += ", \"metrics\": {";
    bool first = true;
    for (const Metric& m : metrics) {
        char buf[160];
        std::snprintf(buf, sizeof(buf),
                      "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                      first ? "" : ", ", m.name.c_str(), m.value, m.unit);
        out += buf;
        first = false;
    }
    return out + "}}";
}

/** Repeats @p body until @p seconds of host time have passed and it
 *  ran at least @p min_reps times. */
void
repeatFor(double seconds, int min_reps, const std::function<void()>& body)
{
    const Clock::time_point start = Clock::now();
    for (int reps = 0;; ++reps) {
        const double elapsed =
            std::chrono::duration<double>(Clock::now() - start).count();
        if (reps >= min_reps && elapsed >= seconds)
            return;
        body();
    }
}

/**
 * This process's peak resident set, from VmHWM. getrusage()'s
 * ru_maxrss is no substitute: Linux carries it across execve(), so a
 * harness started from a larger parent would report the parent's.
 */
double
peakRssMb()
{
    std::FILE* status = std::fopen("/proc/self/status", "r");
    if (status == nullptr)
        return 0.0;
    char line[256];
    double kib = 0.0;
    while (std::fgets(line, sizeof(line), status) != nullptr) {
        if (std::strncmp(line, "VmHWM:", 6) == 0) {
            kib = std::strtod(line + 6, nullptr);
            break;
        }
    }
    std::fclose(status);
    return kib / 1024.0;
}

/**
 * End-to-end metrics: untraced repetitions at the workload's seed.
 * The run-phase figures are best-of-N: the memory system of a shared
 * host slows whole stretches of repetitions, by up to 2x, and the
 * fastest repetition is the one such contention touched least. Set-up
 * is the median.
 */
Metrics
measureEndToEnd(const Workload& w, std::uint64_t seed, double seconds,
                Tally& tally)
{
    // The library's own runner (one shard) fixes what every timed
    // repetition must reproduce.
    const std::uint64_t reference = libraryDigest(w, seed);
    std::vector<double> wall, setup;
    std::optional<RunRecord> first;
    repeatFor(seconds, 3, [&] {
        const RunRecord rec = runOnce(w, seed, false);
        if (!first)
            first = rec;
        tally.check(!rec.truncated && rec.digest == reference
                        && rec.eventsFired == first->eventsFired,
                    "timed run differs from the library's runner", &rec);
        wall.push_back(rec.wallSeconds);
        setup.push_back(rec.setupSeconds);
    });
    const double best = *std::min_element(wall.begin(), wall.end());
    std::fprintf(stderr, "mwbench: %zu timed runs, %llu flits each; "
                 "wall_s min %.4f median %.4f max %.4f\n",
                 wall.size(),
                 static_cast<unsigned long long>(first->flitsDelivered),
                 best, median(wall),
                 *std::max_element(wall.begin(), wall.end()));
    return {
        {"wall_s", best, "s"},
        {"setup_s", median(setup), "s"},
        {"ns_per_flit",
         ratio(best * 1e9, static_cast<double>(first->flitsDelivered)),
         "ns"},
        {"peak_rss_mb", peakRssMb(), "MB"},
    };
}

/** Per-layer metrics of one traced repetition. */
Metrics
layerMetrics(const RunRecord& t, bool pcs)
{
    const perfbench::LayerLedger& l = t.ledger;
    const auto at = [](const auto& a, Layer layer) {
        return static_cast<double>(a[static_cast<std::size_t>(layer)]);
    };
    const double flits = static_cast<double>(t.flitsDelivered);
    const double events = static_cast<double>(t.eventsFired);
    const double steps = static_cast<double>(l.steps());
    const auto ns_per = [&](Layer layer) {
        return ratio(at(l.seconds, layer) * 1e9, at(l.dispatches, layer));
    };
    double attributed = 0.0;
    for (Layer layer : {Layer::Router, Layer::Link, Layer::Ni,
                        Layer::Source, Layer::Pcs})
        attributed += l.share(layer);
    return {
        {"sim.events_per_flit", ratio(events, flits), "events/flit"},
        {"sim.far_pending_mean", ratio(l.farPendingSum, steps), "events"},
        {"sim.elided_per_flit",
         ratio(static_cast<double>(t.elidedEvents), flits), "events/flit"},
        {"sim.events_per_dispatch",
         ratio(static_cast<double>(l.popped), steps), "events"},
        {"sim.unattributed_share", 1.0 - attributed, "fraction"},
        {"router.share", l.share(Layer::Router), "fraction"},
        {"router.ns_per_batch", ns_per(Layer::Router), "ns"},
        {"router.batches_per_flit",
         ratio(at(l.dispatches, Layer::Router), flits), "batches/flit"},
        {"router.link.deliveries_per_flit",
         ratio(at(l.dispatches, Layer::Link), flits), "calls/flit"},
        {"router.link.ns_per_delivery", ns_per(Layer::Link), "ns"},
        {"router.link.share", l.share(Layer::Link), "fraction"},
        {"network.ni.share", l.share(Layer::Ni), "fraction"},
        {"network.ni.ns_per_batch", ns_per(Layer::Ni), "ns"},
        {"network.build_s", t.networkBuildSeconds, "s"},
        {"traffic.plan_s", t.planSeconds, "s"},
        {"traffic.source_ns_per_fire", ns_per(Layer::Source), "ns"},
        {"traffic.source_fires_per_flit",
         ratio(at(l.dispatches, Layer::Source), flits), "fires/flit"},
        {"calculus.bounds_s", t.boundsSeconds, "s"},
        {"obs.finish_s", t.obsFinishSeconds, "s"},
        {"pcs.events_per_flit",
         pcs ? ratio(events, flits) : 0.0, "events/flit"},
        {"pcs.ns_per_event",
         ratio(at(l.seconds, Layer::Pcs) * 1e9, at(l.events, Layer::Pcs)),
         "ns"},
    };
}

/** PDES metrics of one untraced repetition (zero on one shard). */
Metrics
pdesMetrics(const RunRecord& r)
{
    double run = 0.0, blocked = 0.0, mailbox = 0.0, max_events = 0.0,
           total_events = 0.0, epochs = 0.0;
    for (const mw::sim::ShardRunStats& s : r.shards) {
        run += s.runSeconds;
        blocked += s.blockedSeconds;
        mailbox += static_cast<double>(s.mailboxItems);
        max_events = std::max(max_events,
                              static_cast<double>(s.eventsFired));
        total_events += static_cast<double>(s.eventsFired);
        epochs = std::max(epochs, static_cast<double>(s.epochs));
    }
    const double shards = static_cast<double>(r.shards.size());
    return {
        {"pdes.blocked_frac", ratio(blocked, run + blocked), "fraction"},
        {"pdes.epochs", epochs, "count"},
        {"pdes.events_per_epoch", ratio(total_events, epochs), "events"},
        {"pdes.mailbox_items_per_flit",
         ratio(mailbox, static_cast<double>(r.flitsDelivered)),
         "items/flit"},
        {"pdes.imbalance",
         ratio(max_events, ratio(total_events, shards)), "ratio"},
    };
}

/** Per-metric medians over several repetitions' metric lists. */
Metrics
medians(const std::vector<Metrics>& runs)
{
    Metrics out = runs.front();
    for (std::size_t i = 0; i < out.size(); ++i) {
        std::vector<double> values;
        for (const Metrics& m : runs)
            values.push_back(m[i].value);
        out[i].value = median(values);
    }
    return out;
}

/**
 * Per-layer metrics: untraced repetitions, then traced single-shard
 * repetitions, each checked against the untraced run's event,
 * elided-event and flit counts and its digest. A sharded workload
 * also runs untraced on one shard, the baseline the tracing overhead
 * is taken against.
 */
Metrics
measureLayers(const Workload& w, std::uint64_t seed, double seconds,
              Tally& tally)
{
    const bool sharded = !w.pcs && w.cfg.shards > 1;
    const double budget = seconds / (sharded ? 3 : 2);
    std::vector<double> one_shard_wall, traced_wall;
    std::vector<Metrics> pdes, layers;
    std::optional<RunRecord> base;
    const auto untraced = [&](int shards) {
        const RunRecord rec = runOnce(w, seed, false, shards);
        if (!base)
            base = rec;
        tally.check(!rec.truncated && rec.digest == base->digest
                        && rec.eventsFired == base->eventsFired,
                    "untraced runs disagree", &rec);
        return rec;
    };
    if (sharded) {
        repeatFor(budget, 2,
                  [&] { pdes.push_back(pdesMetrics(untraced(0))); });
    }
    repeatFor(budget, 2, [&] {
        const RunRecord rec = untraced(1);
        one_shard_wall.push_back(rec.wallSeconds);
        if (!sharded)
            pdes.push_back(pdesMetrics(rec));
    });
    repeatFor(budget, 1, [&] {
        const RunRecord rec = runOnce(w, seed, true);
        tally.check(!rec.truncated && rec.digest == base->digest
                        && rec.eventsFired == base->eventsFired
                        && rec.elidedEvents == base->elidedEvents
                        && rec.flitsDelivered == base->flitsDelivered,
                    "traced run differs from the untraced run", &rec);
        traced_wall.push_back(rec.wallSeconds);
        layers.push_back(layerMetrics(rec, w.pcs));
    });
    Metrics out = medians(layers);
    const Metrics pdes_out = medians(pdes);
    out.insert(out.end(), pdes_out.begin(), pdes_out.end());
    out.push_back({"bench.trace_overhead",
                   ratio(median(traced_wall), median(one_shard_wall)),
                   "ratio"});
    return out;
}

/** One benchmark run; @p golden is the digest expected at the
 *  default seed (the self-test passes a wrong one). */
std::pair<Tally, Metrics>
measure(const Workload& w, std::uint64_t seed, double seconds,
        bool trace, std::uint64_t golden)
{
    Tally tally;
    // The default seed's recorded digest; also warms caches and the
    // allocator before anything is timed.
    const RunRecord warm = runOnce(w, kDefaultSeed, false);
    tally.check(!warm.truncated && warm.digest == golden,
                "default-seed digest differs from the recorded one",
                &warm);
    Metrics metrics = trace ? measureLayers(w, seed, seconds, tally)
                            : measureEndToEnd(w, seed, seconds, tally);
    return {tally, metrics};
}

/** Fast correctness self-test on one non-default seed, tiny sizes. */
int
selfTest()
{
    constexpr std::uint64_t kSeed = 7;
    int failures = 0;
    const auto expect = [&](bool ok, const std::string& what) {
        std::fprintf(stderr, "self-test: %s: %s\n", ok ? "ok" : "FAIL",
                     what.c_str());
        failures += ok ? 0 : 1;
    };
    for (const char* name : kWorkloads) {
        const Workload w = *makeWorkload(name, true);
        const RunRecord plain = runOnce(w, kSeed, false);
        const RunRecord traced = runOnce(w, kSeed, true);
        expect(!plain.truncated && plain.flitsDelivered > 0,
               std::string(name) + " drains and delivers");
        expect(traced.digest == plain.digest
                   && traced.eventsFired == plain.eventsFired
                   && traced.elidedEvents == plain.elidedEvents
                   && traced.flitsDelivered == plain.flitsDelivered,
               std::string(name) + " traced run equals untraced run");
        expect(plain.digest == libraryDigest(w, kSeed),
               std::string(name) + " wiring equals the library runner");
        if (!w.pcs && w.cfg.shards > 1) {
            expect(runOnce(w, kSeed, false, 1).digest == plain.digest
                       && libraryDigest(w, kSeed, w.cfg.shards)
                           == plain.digest,
                   std::string(name) + " 1-shard and "
                       + std::to_string(w.cfg.shards)
                       + "-shard digests agree");
        }
    }
    const Workload w = *makeWorkload("switch-fig3", true);
    const std::uint64_t golden = libraryDigest(w, kDefaultSeed);
    const Tally good = measure(w, kSeed, 0.0, false, golden).first;
    expect(good.failed == 0 && good.attempted > 0,
           "a correct digest passes");
    const Tally bad = measure(w, kSeed, 0.0, false, golden ^ 1).first;
    expect(bad.failed == 1 && bad.attempted == good.attempted,
           "an injected wrong digest counts as one failed run");
    std::printf("self-test: %s\n", failures == 0 ? "passed" : "FAILED");
    return failures == 0 ? 0 : 1;
}

int
usage()
{
    std::fprintf(stderr,
                 "usage: mwbench --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1>\n"
                 "       mwbench --self-test | --golden <name>\n"
                 "workloads: switch-fig3 torus-dor fatmesh-pdes4 "
                 "pcs-switch\n");
    return 2;
}

void
printBuildInfo(const Workload& w, std::uint64_t seed, bool trace)
{
    std::printf("{\"build\": {\"type\": \"%s\", \"flags\": \"%s\", "
                "\"compiler\": \"%s\", \"MEDIAWORM_SIMD\": \"%s\", "
                "\"simd_compiled\": %d}, \"workload\": \"%s\", "
                "\"seed\": %llu, \"trace\": %d, \"shards\": %d, "
                "\"hardware_threads\": %u}\n",
                MWBENCH_BUILD_TYPE, MWBENCH_CXX_FLAGS, MWBENCH_COMPILER,
                MWBENCH_SIMD, MW_SIMD_COMPILED, w.name.c_str(),
                static_cast<unsigned long long>(seed), trace ? 1 : 0,
                w.pcs ? 1 : w.cfg.shards,
                std::thread::hardware_concurrency());
}

} // namespace

int
main(int argc, char** argv)
{
#ifndef NDEBUG
    std::fprintf(stderr, "mwbench: refusing to measure a build with "
                         "assertions on (build type %s); configure "
                         "with -DCMAKE_BUILD_TYPE=Release\n",
                 MWBENCH_BUILD_TYPE);
    return 2;
#endif
    if (std::strcmp(MWBENCH_BUILD_TYPE, "Release") != 0) {
        std::fprintf(stderr, "mwbench: refusing to measure a %s build; "
                             "configure with -DCMAKE_BUILD_TYPE=Release\n",
                     MWBENCH_BUILD_TYPE);
        return 2;
    }

    std::string workload;
    std::uint64_t seed = kDefaultSeed;
    double seconds = 20.0;
    int trace = 0;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--self-test")
            return selfTest();
        if (i + 1 >= argc)
            return usage();
        const char* value = argv[++i];
        if (arg == "--golden") {
            const std::optional<Workload> w = makeWorkload(value, false);
            if (!w)
                return usage();
            std::printf("%s 0x%016llxULL\n", value,
                        static_cast<unsigned long long>(
                            runOnce(*w, kDefaultSeed, false).digest));
            return 0;
        }
        char* end = nullptr;
        if (arg == "--workload") {
            workload = value;
        } else if (arg == "--seed") {
            seed = std::strtoull(value, &end, 10);
        } else if (arg == "--seconds") {
            seconds = std::strtod(value, &end);
        } else if (arg == "--trace") {
            trace = static_cast<int>(std::strtol(value, &end, 10));
        } else {
            return usage();
        }
        if (end != nullptr && (*end != '\0' || end == value))
            return usage();
    }
    const std::optional<Workload> w = makeWorkload(workload, false);
    if (!w || seconds < 0.0 || seconds > 120.0
        || (trace != 0 && trace != 1)) {
        return usage();
    }

    printBuildInfo(*w, seed, trace == 1);
    const auto [tally, metrics] =
        measure(*w, seed, seconds, trace == 1, w->golden);
    std::printf("%s\n", resultJson(tally, metrics).c_str());
    return 0;
}
