// Per-iteration timing model: how long each layer computes, and — through the
// KVStore aggregation model — *when each gradient becomes available for
// network transfer*. This is where the paper's stepwise pattern (Sec. 2.2,
// Fig. 4) is produced, by the same mechanism the paper identifies:
// GroupKVPairsPush-style aggregation plus copyD2H / send-buffer batching
// release gradients in groups, not one by one.
#pragma once

#include <vector>

#include "common/rng.hpp"
#include "common/time.hpp"
#include "dnn/gpu.hpp"
#include "dnn/tensor.hpp"

namespace prophet::dnn {

struct KvStoreConfig {
  // Flush the aggregation buffer when backward crosses an architectural
  // stage boundary (residual block / inception module).
  bool flush_on_stage_boundary = true;
  // ... or when the buffer holds at least this many bytes (send-buffer
  // batching). Stage flushing off + a large threshold yields the coarser
  // "4 blocks for VGG19" grouping the paper sees under TensorFlow.
  Bytes flush_threshold = Bytes::mib(16);
  // Fixed cost per flush (GroupKVPairsPush bookkeeping).
  Duration flush_fixed = Duration::micros(150);
  // Device-to-host copy bandwidth applied to flushed bytes.
  double copy_bandwidth = 6e9;
};

// One sampled training iteration.
struct IterationTiming {
  // T_fp^(i): forward compute time attributed to tensor i's layer.
  std::vector<Duration> fwd;
  // T_bp^(i): backward compute time attributed to tensor i's layer.
  std::vector<Duration> bwd;
  // c^(i): offset from backward-propagation start at which gradient i is
  // ready for transfer (post-aggregation). Stepwise: a flush group is a
  // contiguous index range whose members share a ready time. Not monotone in
  // i: a large flush's copy can land after the next, smaller flush's.
  std::vector<Duration> ready_offset;

  [[nodiscard]] Duration forward_total() const;
  // Backward ends when the final flush (containing gradient 0) lands.
  [[nodiscard]] Duration backward_total() const;
};

class IterationModel {
 public:
  IterationModel(const ModelSpec& model, GpuSpec gpu, int batch,
                 KvStoreConfig kv = {}, double jitter_sigma = 0.02);

  [[nodiscard]] const ModelSpec& model() const { return model_; }
  [[nodiscard]] int batch() const { return batch_; }
  [[nodiscard]] const GpuSpec& gpu() const { return gpu_; }

  // Noise-free timing (profiler ground truth, offline planners).
  [[nodiscard]] IterationTiming nominal() const;
  // One jittered iteration, written into `out`; consumes draws from `rng`.
  // The storage of `out` is reused, so a per-iteration resample allocates
  // nothing once warm.
  void sample(Rng& rng, IterationTiming& out) const;

 private:
  void generate(Rng* rng, IterationTiming& out) const;

  ModelSpec model_;
  GpuSpec gpu_;
  int batch_;
  KvStoreConfig kv_;
  double jitter_sigma_;
};

}  // namespace prophet::dnn
