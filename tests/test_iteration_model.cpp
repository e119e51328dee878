#include <gtest/gtest.h>

#include "dnn/iteration_model.hpp"
#include "dnn/model_zoo.hpp"
#include "dnn/stepwise.hpp"

namespace prophet::dnn {
namespace {

using namespace prophet::literals;

TEST(GpuSpec, LayerTimesScaleWithBatch) {
  const GpuSpec gpu = tesla_m60_pair();
  const ModelSpec m = resnet50();
  const TensorSpec& conv = m.tensor(0);
  const Duration b16 = gpu.fwd_time(conv, 16);
  const Duration b64 = gpu.fwd_time(conv, 64);
  EXPECT_GT(b64, b16);
  // Sub-linear because of the fixed per-tensor overhead.
  EXPECT_LT(b64.to_seconds(), 4.0 * b16.to_seconds());
}

TEST(GpuSpec, BackwardCostsMoreThanForward) {
  const GpuSpec gpu = tesla_m60_pair();
  const ModelSpec m = resnet50();
  for (std::size_t i = 0; i < m.tensor_count(); i += 17) {
    EXPECT_GE(gpu.bwd_time(m.tensor(i), 32), gpu.fwd_time(m.tensor(i), 32));
  }
}

TEST(IterationModel, NominalIsDeterministic) {
  const ModelSpec m = toy_cnn();
  const IterationModel im{m, tesla_m60_pair(), 32};
  const IterationTiming a = im.nominal();
  const IterationTiming b = im.nominal();
  EXPECT_EQ(a.ready_offset, b.ready_offset);
  EXPECT_EQ(a.fwd, b.fwd);
}

TEST(IterationModel, SampleIsJitteredButClose) {
  const ModelSpec m = resnet50();
  const IterationModel im{m, tesla_m60_pair(), 64, {}, 0.02};
  Rng rng{7};
  const IterationTiming nominal = im.nominal();
  IterationTiming sampled;
  im.sample(rng, sampled);
  EXPECT_NE(sampled.ready_offset, nominal.ready_offset);
  EXPECT_NEAR(sampled.backward_total().to_seconds(),
              nominal.backward_total().to_seconds(),
              0.1 * nominal.backward_total().to_seconds());

  // Resampling into the same buffer overwrites every entry: the same draws
  // reproduce the same timing.
  const IterationTiming first = sampled;
  im.sample(rng, sampled);
  EXPECT_NE(sampled.fwd, first.fwd);
  Rng replay{7};
  im.sample(replay, sampled);
  EXPECT_EQ(sampled.fwd, first.fwd);
  EXPECT_EQ(sampled.bwd, first.bwd);
  EXPECT_EQ(sampled.ready_offset, first.ready_offset);
}

TEST(IterationModel, ZeroJitterSampleEqualsNominal) {
  const ModelSpec m = toy_cnn();
  const IterationModel im{m, tesla_m60_pair(), 32, {}, 0.0};
  Rng rng{7};
  IterationTiming sampled;
  im.sample(rng, sampled);
  EXPECT_EQ(sampled.ready_offset, im.nominal().ready_offset);
}

TEST(IterationModel, ReadyOffsetsAreStepwiseNonIncreasing) {
  // c^(i) non-increasing in i: gradient 0 is generated last.
  const IterationModel im{resnet50(), tesla_m60_pair(), 64};
  const IterationTiming t = im.nominal();
  for (std::size_t i = 1; i < t.ready_offset.size(); ++i) {
    EXPECT_GE(t.ready_offset[i - 1], t.ready_offset[i]);
  }
  EXPECT_GT(t.ready_offset[0], Duration::zero());
}

TEST(IterationModel, StageFlushingGroupsGradients) {
  const IterationModel im{resnet50(), tesla_m60_pair(), 64};
  const IterationTiming t = im.nominal();
  const auto blocks = detect_blocks(t.ready_offset);
  // One flush per stage (18 stages), possibly more from the byte threshold.
  EXPECT_GE(blocks.size(), 18u);
  EXPECT_LE(blocks.size(), 30u);
  // Blocks tile the index space contiguously in generation order.
  std::size_t expected_last = t.ready_offset.size() - 1;
  for (const auto& b : blocks) {
    EXPECT_EQ(b.last, expected_last);
    EXPECT_GE(b.last, b.first);
    if (b.first > 0) expected_last = b.first - 1;
  }
  EXPECT_EQ(blocks.back().first, 0u);
}

TEST(IterationModel, ByteThresholdFlushingYieldsCoarserBlocks) {
  // TF-style config (the paper sees only 4 blocks for VGG19): no stage
  // flushing, large byte threshold.
  KvStoreConfig kv;
  kv.flush_on_stage_boundary = false;
  kv.flush_threshold = Bytes::mib(48);
  const IterationModel im{vgg19(), tesla_m60_pair(), 32, kv};
  const auto blocks = detect_blocks(im.nominal().ready_offset);
  EXPECT_GE(blocks.size(), 3u);
  EXPECT_LE(blocks.size(), 8u);
}

TEST(IterationModel, BackwardTotalIsLastReadyOffset) {
  const IterationModel im{toy_cnn(), tesla_m60_pair(), 32};
  const IterationTiming t = im.nominal();
  EXPECT_EQ(t.backward_total(), t.ready_offset[0]);
}

TEST(IterationModel, ForwardTotalSumsLayers) {
  const IterationModel im{toy_cnn(), tesla_m60_pair(), 32};
  const IterationTiming t = im.nominal();
  Duration sum{};
  for (Duration d : t.fwd) sum += d;
  EXPECT_EQ(t.forward_total(), sum);
}

TEST(IterationModel, CalibratedComputeRatesInPaperRange) {
  // Anchors the Tesla-M60-pair calibration: compute-only rates should be in
  // the ballpark the paper measures at 10 Gbps (where communication hides).
  const GpuSpec gpu = tesla_m60_pair();
  auto rate = [&](const ModelSpec& m, int batch) {
    const IterationModel im{m, gpu, batch};
    const IterationTiming t = im.nominal();
    return batch / (t.backward_total() + t.forward_total()).to_seconds();
  };
  EXPECT_NEAR(rate(resnet50(), 64), 73.0, 8.0);    // paper: ~70.6
  EXPECT_NEAR(rate(resnet18(), 64), 200.0, 30.0);  // paper: ~220
  EXPECT_GT(rate(resnet50(), 64), rate(resnet152(), 64));
}

}  // namespace
}  // namespace prophet::dnn
