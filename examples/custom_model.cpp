// Define a custom DNN with the ModelBuilder API, inspect its stepwise
// gradient-generation pattern, and see the gradient blocks Algorithm 1
// assembles for it — the workflow a user follows to bring their own model.
//
//   ./build/examples/custom_model
#include <cstdio>

#include "core/block_planner.hpp"
#include "dnn/iteration_model.hpp"
#include "dnn/model_builder.hpp"
#include "dnn/stepwise.hpp"
#include "ps/cluster.hpp"

int main() {
  using namespace prophet;

  // A small VGG-ish network for 64x64 inputs: three conv stages + a head.
  dnn::ModelBuilder builder{"mini_vgg", 64, 3};
  builder.conv("stage0.conv0", 32, 3).conv("stage0.conv1", 32, 3).pool(2, 2);
  builder.begin_stage();
  builder.conv("stage1.conv0", 64, 3).conv("stage1.conv1", 64, 3).pool(2, 2);
  builder.begin_stage();
  builder.conv("stage2.conv0", 128, 3).conv("stage2.conv1", 128, 3).pool(2, 2);
  builder.begin_stage();
  builder.global_pool();
  builder.fc("head", 100);
  const dnn::ModelSpec model = std::move(builder).build();

  std::printf("%s: %.2f M parameters in %zu tensors, %.2f GFLOPs forward\n",
              model.name().c_str(),
              static_cast<double>(model.parameter_count()) / 1e6,
              model.tensor_count(), model.total_fwd_gflops());

  // The stepwise pattern this model produces on the calibrated GPU.
  const dnn::IterationModel iteration{model, dnn::tesla_m60_pair(), 128};
  const auto timing = iteration.nominal();
  const auto blocks = dnn::detect_blocks(timing.ready_offset);
  std::printf("\nStepwise generation pattern (batch 128):\n");
  for (const auto& block : blocks) {
    std::printf("  gradients {%zu - %zu} ready at %.2f ms\n", block.first,
                block.last, block.ready.to_millis());
  }

  // The blocks Algorithm 1 would assemble at 1 Gbps.
  core::GradientProfile profile;
  profile.ready = timing.ready_offset;
  for (const auto& tensor : model.tensors()) profile.sizes.push_back(tensor.bytes);
  profile.intervals = dnn::transfer_intervals(profile.ready);
  profile.iterations_profiled = 1;
  const auto plan =
      core::BlockPlanner{net::TcpCostModel{}}.plan(profile, Bandwidth::gbps(1));
  std::printf("\nAlgorithm 1 plan at 1 Gbps (%zu transfer tasks):\n",
              plan.tasks.size());
  for (const auto& task : plan.tasks) {
    std::printf("  t=%7.2f ms  block of %zu gradient(s): ", task.start.to_millis(),
                task.grads.size());
    Bytes bytes{};
    for (std::size_t g : task.grads) bytes += profile.sizes[g];
    std::printf("g%zu..g%zu (%s)\n", task.grads.front(), task.grads.back(),
                format_bytes(bytes).c_str());
  }

  // And a full training simulation of the custom model with Prophet.
  ps::ClusterConfig cfg;
  cfg.model = model;
  cfg.batch = 128;
  cfg.num_workers = 2;
  cfg.topology = net::TopologySpec::star(Bandwidth::gbps(1), Bandwidth::gbps(10));
  cfg.iterations = 30;
  cfg.strategy = ps::StrategyConfig::prophet();
  cfg.strategy.prophet_config.profile_iterations = 6;
  const auto result = ps::run_cluster(cfg);
  std::printf("\nSimulated training: %.1f samples/s per worker at %.1f%% GPU "
              "utilization\n",
              result.mean_rate(), 100.0 * result.mean_utilization());
  return 0;
}
