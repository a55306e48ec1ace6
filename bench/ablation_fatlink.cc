/**
 * @file
 * Ablation: fat-channel link-selection policy in the 2x2 fat-mesh.
 *
 * The paper routes over "any one of the two links ... based on the
 * current load". This sweep compares that least-loaded choice with
 * a static assignment (link dest % fat) and a random pick.
 */

#include "bench_common.hh"

int
main()
{
    using namespace mediaworm;
    bench::banner("Ablation: fat-link policy",
                  "2x2 fat-mesh at 80:20, Virtual Clock");

    const double loads[] = {0.70, 0.90};
    const config::FatLinkPolicy policies[] = {
        config::FatLinkPolicy::LeastLoaded,
        config::FatLinkPolicy::Static,
        config::FatLinkPolicy::Random,
    };

    campaign::Campaign camp(bench::campaignConfig());
    for (double load : loads) {
        for (auto policy : policies) {
            core::ExperimentConfig cfg = bench::paperConfig();
            cfg.network.topology = config::TopologyKind::FatMesh;
            cfg.network.fatLinkPolicy = policy;
            cfg.traffic.inputLoad = load;
            cfg.traffic.realTimeFraction = 0.8;
            camp.addPoint(core::Table::num(load, 2) + "/"
                              + toString(policy),
                          cfg);
        }
    }
    const auto& results =
        bench::runCampaign("ablation_fatlink", camp);

    core::Table table({"load", "policy", "d (ms)", "sigma_d (ms)",
                       "BE total (us)"});
    std::size_t i = 0;
    for (double load : loads) {
        for (auto policy : policies) {
            const campaign::PointSummary& r = results[i++];
            table.addRow(
                {core::Table::num(load, 2), toString(policy),
                 core::Table::num(r.mean("mean_interval_norm_ms"), 2),
                 core::Table::num(r.mean("stddev_interval_norm_ms"),
                                  3),
                 core::Table::num(r.mean("be_latency_us"), 1)});
        }
    }

    std::printf("%s\n", table.toString().c_str());
    return 0;
}
