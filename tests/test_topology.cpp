// TopologySpec / BuiltTopology / link-level routing and contention, plus the
// back-compat guarantees of the redesigned network API: a TopologySpec::star
// run is bit-identical to the legacy flat-bandwidth configuration, and
// ClusterConfig::validate rejects fabrics that cannot seat the job or
// ambiguous per-worker overrides on non-star fabrics.
#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "dnn/model_zoo.hpp"
#include "net/flow_network.hpp"
#include "net/topology.hpp"
#include "ps/cluster.hpp"
#include "ps/config.hpp"
#include "sim/simulator.hpp"

namespace prophet::net {
namespace {

using namespace prophet::literals;

TcpCostModel no_overhead_model() {
  TcpCostParams params;
  params.per_task_overhead = 0_ns;
  params.slow_start = false;
  return TcpCostModel{params};
}

struct Fixture {
  sim::Simulator sim;
  FlowNetwork net;
  explicit Fixture(TcpCostModel model = no_overhead_model()) : net{sim, model} {}
};

TEST(TopologySpec, LeafSpineDerivedQuantities) {
  const TopologySpec spec =
      TopologySpec::leaf_spine(2, 4, Bandwidth::gbps(10), 4.0);
  // 4 hosts x 10 Gbps at 4:1 oversubscription: a 10 Gbps uplink.
  EXPECT_NEAR(spec.uplink_bandwidth().to_gbps(), 10.0, 1e-9);
  EXPECT_EQ(spec.host_capacity(), 8u);
  EXPECT_STREQ(spec.kind_name(), "leaf-spine");

  const TopologySpec star = TopologySpec::star(Bandwidth::gbps(3),
                                               Bandwidth::gbps(10));
  EXPECT_STREQ(star.kind_name(), "star");
  EXPECT_NEAR(star.worker_bandwidth.to_gbps(), 3.0, 1e-9);
  EXPECT_NEAR(star.ps_bandwidth.to_gbps(), 10.0, 1e-9);
}

TEST(TopologySpec, CliParsing) {
  std::string error;
  auto star = TopologySpec::from_cli("star", &error);
  ASSERT_TRUE(star.has_value());
  EXPECT_EQ(star->kind, TopologySpec::Kind::kStar);

  auto ls = TopologySpec::from_cli("leaf-spine:3:8", &error);
  ASSERT_TRUE(ls.has_value());
  EXPECT_EQ(ls->kind, TopologySpec::Kind::kLeafSpine);
  EXPECT_EQ(ls->racks, 3u);
  EXPECT_EQ(ls->hosts_per_rack, 8u);

  auto defaults = TopologySpec::from_cli("leaf-spine", &error);
  ASSERT_TRUE(defaults.has_value());
  EXPECT_EQ(defaults->racks, 2u);

  EXPECT_FALSE(TopologySpec::from_cli("mesh", &error).has_value());
  EXPECT_NE(error.find("unknown topology"), std::string::npos);
  EXPECT_FALSE(TopologySpec::from_cli("leaf-spine:0", &error).has_value());
  EXPECT_FALSE(TopologySpec::from_cli("leaf-spine:2:x", &error).has_value());
}

TEST(TopologySpec, CliRejectsOverflowingCounts) {
  // strtol saturates these at LONG_MAX; the parser must report them rather
  // than hand the saturated count to the fabric builder.
  std::string error;
  EXPECT_FALSE(
      TopologySpec::from_cli("leaf-spine:99999999999999999999", &error).has_value());
  EXPECT_NE(error.find("bad rack count"), std::string::npos) << error;
  error.clear();
  EXPECT_FALSE(
      TopologySpec::from_cli("leaf-spine:2:99999999999999999999", &error).has_value());
  EXPECT_NE(error.find("bad hosts-per-rack"), std::string::npos) << error;
  error.clear();
  EXPECT_FALSE(
      TopologySpec::from_cli("leaf-spine:-99999999999999999999", &error).has_value());
  EXPECT_NE(error.find("bad rack count"), std::string::npos) << error;
}

TEST(TopologyRouting, IntraRackPathSkipsTheSpine) {
  Fixture f;
  BuiltTopology topo{f.net, TopologySpec::leaf_spine(2, 2, Bandwidth::gbps(10), 4.0)};
  const NodeId a = topo.add_host("a", Bandwidth::gbps(10), 0);
  const NodeId b = topo.add_host("b", Bandwidth::gbps(10), 0);
  const auto path = f.net.route(a, b);
  ASSERT_EQ(path.size(), 2u);
  EXPECT_EQ(f.net.link_name(path[0]), "a.tx");
  EXPECT_EQ(f.net.link_name(path[1]), "b.rx");
}

TEST(TopologyRouting, CrossRackPathTraversesBothRackLinks) {
  Fixture f;
  BuiltTopology topo{f.net, TopologySpec::leaf_spine(2, 2, Bandwidth::gbps(10), 4.0)};
  const NodeId a = topo.add_host("a", Bandwidth::gbps(10), 0);
  const NodeId c = topo.add_host("c", Bandwidth::gbps(10), 1);
  const auto path = f.net.route(a, c);
  ASSERT_EQ(path.size(), 4u);
  EXPECT_EQ(f.net.link_name(path[0]), "a.tx");
  EXPECT_EQ(f.net.link_name(path[1]), "rack0.up");
  EXPECT_EQ(f.net.link_name(path[2]), "rack1.down");
  EXPECT_EQ(f.net.link_name(path[3]), "c.rx");
}

TEST(TopologyRouting, SequentialFillPlacesHostsRackMajor) {
  Fixture f;
  BuiltTopology topo{f.net, TopologySpec::leaf_spine(2, 2, Bandwidth::gbps(10), 4.0)};
  const NodeId h0 = topo.add_host("h0", Bandwidth::gbps(10));
  const NodeId h1 = topo.add_host("h1", Bandwidth::gbps(10));
  const NodeId h2 = topo.add_host("h2", Bandwidth::gbps(10));
  EXPECT_EQ(f.net.rack_of(h0), f.net.rack_of(h1));
  EXPECT_NE(f.net.rack_of(h0), f.net.rack_of(h2));
}

// The satellite contention claim: a 4:1-oversubscribed spine caps two
// cross-rack flows at the shared-link fair share while an intra-rack flow
// keeps its full NIC rate.
TEST(TopologyContention, OversubscribedSpineCapsCrossRackFlows) {
  Fixture f;
  // 2 racks x 4 hosts of 10 Gbps behind 4:1 uplinks: uplink = 10 Gbps...
  // too wide to bind two flows. Use 8:1 so the uplink is 5 Gbps.
  BuiltTopology topo{f.net, TopologySpec::leaf_spine(2, 4, Bandwidth::gbps(10), 8.0)};
  EXPECT_NEAR(topo.spec().uplink_bandwidth().to_gbps(), 5.0, 1e-9);
  const NodeId a = topo.add_host("a", Bandwidth::gbps(10), 0);
  const NodeId b = topo.add_host("b", Bandwidth::gbps(10), 0);
  const NodeId e = topo.add_host("e", Bandwidth::gbps(10), 0);
  const NodeId g = topo.add_host("g", Bandwidth::gbps(10), 0);
  const NodeId c = topo.add_host("c", Bandwidth::gbps(10), 1);
  const NodeId d = topo.add_host("d", Bandwidth::gbps(10), 1);

  const FlowId cross1 = f.net.start_flow(a, c, Bytes::of(1'000'000'000), [](FlowId) {});
  const FlowId cross2 = f.net.start_flow(b, d, Bytes::of(1'000'000'000), [](FlowId) {});
  const FlowId intra = f.net.start_flow(e, g, Bytes::of(1'000'000'000), [](FlowId) {});
  // Let zero-overhead setup complete, then sample steady-state rates:
  // progressive filling splits the 5 Gbps rack0 uplink between the cross
  // flows (2.5 Gbps each) and leaves the intra-rack flow at its full
  // 10 Gbps NIC rate.
  f.sim.run_until(TimePoint::origin() + 1_ms);
  EXPECT_NEAR(f.net.flow_rate(cross1).to_gbps(), 2.5, 1e-9);
  EXPECT_NEAR(f.net.flow_rate(cross2).to_gbps(), 2.5, 1e-9);
  EXPECT_NEAR(f.net.flow_rate(intra).to_gbps(), 10.0, 1e-9);
  f.sim.run();
  // The spine counted exactly the cross-rack bytes, up and down.
  EXPECT_EQ(topo.spine_bytes(), 4'000'000'000);
}

TEST(TopologyLinks, NamedLookupAndTargetResolution) {
  Fixture f;
  BuiltTopology topo{f.net, TopologySpec::leaf_spine(2, 2, Bandwidth::gbps(10), 4.0)};
  const NodeId a = topo.add_host("a", Bandwidth::gbps(10), 0);
  (void)a;
  ASSERT_TRUE(f.net.find_link("rack0.up").has_value());
  ASSERT_TRUE(f.net.find_link("a.tx").has_value());
  EXPECT_FALSE(f.net.find_link("rack9.up").has_value());

  // Exact link name: one link. Rack name: both spine directions. Node name:
  // both access links (the back-compat mapping for old per-NIC plans).
  EXPECT_EQ(resolve_link_target(f.net, "rack0.up").size(), 1u);
  EXPECT_EQ(resolve_link_target(f.net, "rack0").size(), 2u);
  EXPECT_EQ(resolve_link_target(f.net, "rack0.uplink").size(), 2u);
  EXPECT_EQ(resolve_link_target(f.net, "a").size(), 2u);
  EXPECT_TRUE(resolve_link_target(f.net, "nope").empty());
}

// The API-redesign keystone: a ClusterConfig carrying an explicit
// TopologySpec::star must replay the legacy flat-bandwidth configuration bit
// for bit — same event count, same simulated time, same rate.
TEST(TopologyGolden, StarSpecMatchesLegacyGoldenTrace) {
  ps::ClusterConfig cfg;
  cfg.model = dnn::resnet50();
  cfg.num_workers = 3;
  cfg.batch = 64;
  cfg.iterations = 10;
  cfg.topology =
      TopologySpec::star(Bandwidth::gbps(3), Bandwidth::gbps(10));
  cfg.strategy = ps::StrategyConfig::fifo();
  cfg.strategy.prophet_config.profile_iterations = 4;
  const auto result = ps::run_cluster(cfg, 5);
  // Constants from GoldenCluster.FifoTrace (test_engine_perf_invariants.cpp).
  EXPECT_EQ(result.events_fired, 36038u);
  EXPECT_EQ(result.simulated_time.count_nanos(), 11089551302);
  EXPECT_EQ(static_cast<std::int64_t>(result.mean_rate() * 100.0), 5618);
}

TEST(TopologyValidation, RejectsFabricTooSmallForJob) {
  ps::ClusterConfig cfg;
  cfg.num_workers = 8;  // 8 workers + PS = 9 hosts > 2x4 fabric
  cfg.topology = TopologySpec::leaf_spine(2, 4, Bandwidth::gbps(10), 4.0);
  EXPECT_DEATH(cfg.validate(), "rack capacity cannot hold");
}

TEST(TopologyValidation, RejectsWorkerOverrideOnNonStarTopology) {
  ps::ClusterConfig cfg;
  cfg.num_workers = 3;
  cfg.topology = TopologySpec::leaf_spine(2, 4, Bandwidth::gbps(10), 4.0);
  cfg.worker_bandwidth_override = {Bandwidth::gbps(1)};
  EXPECT_DEATH(cfg.validate(), "worker_bandwidth_override is ambiguous");
}

TEST(TopologyValidation, SpecRejectsMalformedParameters) {
  EXPECT_DEATH(TopologySpec::leaf_spine(0, 4, Bandwidth::gbps(10), 4.0).validate(),
               "at least one rack");
  EXPECT_DEATH(TopologySpec::leaf_spine(2, 4, Bandwidth::gbps(10), 0.0).validate(),
               "oversubscription");
}

}  // namespace
}  // namespace prophet::net
