#include "dnn/iteration_model.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace prophet::dnn {

Duration IterationTiming::forward_total() const {
  Duration total{};
  for (Duration d : fwd) total += d;
  return total;
}

Duration IterationTiming::backward_total() const {
  Duration last{};
  for (Duration d : ready_offset) last = std::max(last, d);
  return last;
}

IterationModel::IterationModel(const ModelSpec& model, GpuSpec gpu, int batch,
                               KvStoreConfig kv, double jitter_sigma)
    : model_{model}, gpu_{std::move(gpu)}, batch_{batch}, kv_{kv},
      jitter_sigma_{jitter_sigma} {
  PROPHET_CHECK(batch_ > 0);
  PROPHET_CHECK(jitter_sigma_ >= 0.0);
  PROPHET_CHECK(kv_.copy_bandwidth > 0.0);
}

IterationTiming IterationModel::nominal() const {
  IterationTiming out;
  generate(nullptr, out);
  return out;
}

void IterationModel::sample(Rng& rng, IterationTiming& out) const { generate(&rng, out); }

void IterationModel::generate(Rng* rng, IterationTiming& out) const {
  const auto& tensors = model_.tensors();
  const std::size_t n = tensors.size();
  out.fwd.resize(n);
  out.bwd.resize(n);
  out.ready_offset.assign(n, Duration::zero());

  auto jitter = [&]() -> double {
    return rng != nullptr ? rng->lognormal_median(1.0, jitter_sigma_) : 1.0;
  };

  for (std::size_t i = 0; i < n; ++i) {
    out.fwd[i] = gpu_.fwd_time(tensors[i], batch_) * jitter();
    out.bwd[i] = gpu_.bwd_time(tensors[i], batch_) * jitter();
  }

  // Backward walk: highest index first. Gradients enter the KVStore buffer
  // as their layer's backward kernel finishes; the buffer flushes at stage
  // boundaries / byte thresholds, releasing every buffered gradient at the
  // flush completion instant (the stepwise pattern). The buffer always holds
  // the contiguous index range [lo, hi).
  Duration clock{};
  std::size_t lo = n;
  std::size_t hi = n;
  Bytes buffered_bytes{};
  auto flush = [&]() {
    if (lo == hi) return;
    const Duration copy = Duration::from_seconds(
        static_cast<double>(buffered_bytes.count()) / kv_.copy_bandwidth);
    const Duration ready = clock + kv_.flush_fixed + copy;
    for (std::size_t idx = lo; idx < hi; ++idx) out.ready_offset[idx] = ready;
    hi = lo;
    buffered_bytes = Bytes::zero();
  };

  for (std::size_t step = 0; step < n; ++step) {
    const std::size_t i = n - 1 - step;
    clock += out.bwd[i];
    lo = i;
    buffered_bytes += tensors[i].bytes;
    const bool stage_edge =
        kv_.flush_on_stage_boundary &&
        (i == 0 || tensors[i - 1].stage != tensors[i].stage);
    if (stage_edge || buffered_bytes >= kv_.flush_threshold) flush();
  }
  flush();
}

}  // namespace prophet::dnn
