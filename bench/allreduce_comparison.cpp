// All-reduce architecture extension (the paper's Sec. 6.1 cites PACE's
// preemptive all-reduce scheduling; Sec. 7 leaves non-PS architectures to
// future work): the same six communication strategies driving ring
// all-reduce collectives instead of PS push/pull. Per-tensor collectives
// pay 2(W-1) round setups each — the effect that makes tensor fusion
// (Horovod) indispensable — so consolidation strategies dominate and
// Prophet's predictive blocks transfer over unchanged.
#include <cstdio>
#include <iostream>

#include "allreduce/cluster.hpp"
#include "bench_common.hpp"

namespace prophet::bench {
namespace {

int run() {
  banner("Extension — ring all-reduce architecture, six strategies",
         "ResNet50 b64, 4 workers in a ring; collective scheduling via the "
         "same CommScheduler implementations");

  auto contenders = all_contenders();
  contenders.insert(contenders.begin() + 2,
                    {Contender{"TicTac", ps::StrategyConfig::tictac()},
                     Contender{"MG-WFBP", ps::StrategyConfig::mg_wfbp()}});

  auto csv = make_csv("allreduce_comparison", {"gbps", "strategy", "rate", "util"});
  for (double gbps : {1.0, 3.0, 10.0}) {
    std::printf("\n--- ring bandwidth %.0f Gbps ---\n", gbps);
    TextTable table{{"strategy", "rate (samples/s)", "GPU util"}};
    for (const auto& contender : contenders) {
      ps::ClusterConfig cfg;
      cfg.model = dnn::resnet50();
      cfg.num_workers = 4;
      cfg.batch = 64;
      cfg.iterations = 30;
      cfg.topology = net::TopologySpec::star(Bandwidth::gbps(gbps), Bandwidth::gbps(10));
      cfg.strategy = contender.strategy;
      cfg.strategy.prophet_config.profile_iterations = 8;
      const auto result = ar::run_allreduce(cfg);
      table.add_row({contender.label, TextTable::num(result.mean_rate(), 4),
                     TextTable::pct(result.mean_utilization())});
      csv.write_row({TextTable::num(gbps, 3), contender.label,
                     TextTable::num(result.mean_rate(), 6),
                     TextTable::num(result.mean_utilization(), 4)});
    }
    table.print(std::cout);
  }
  std::printf("\nPer-tensor collectives (FIFO, TicTac, P3) drown in round "
              "setups; fused strategies (MG-WFBP, ByteScheduler, Prophet) "
              "recover the 2S/B * (W-1)/W ring bound. Prophet's blocks need "
              "no static fusion threshold.\n");
  return 0;
}

}  // namespace
}  // namespace prophet::bench

int main() { return prophet::bench::run(); }
