// Reference kernel for machine-speed calibration (see bench.hpp).
#include <array>
#include <memory>
#include <queue>

#include "bench.hpp"

namespace prophet::perfbench {

double calibration_kernel_ms() {
  static std::uint64_t sink = 0;
  std::vector<std::uint64_t> table(std::size_t{16} << 20);  // 128 MiB
  for (std::size_t i = 0; i < table.size(); ++i) table[i] = i * 2654435761ULL;

  // The engine's access pattern in miniature: a timed-event heap, random
  // reads and writes over a table larger than the caches, small-object
  // allocation churn and floating-point rate arithmetic.
  const double t0 = now_ms();
  std::priority_queue<std::pair<std::uint64_t, std::uint32_t>> heap;
  std::vector<std::unique_ptr<std::array<std::uint64_t, 8>>> objects(4096);
  double rate = 1.0;
  std::uint64_t x = 88172645463325252ULL;
  for (std::uint32_t i = 0; i < 400000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    const std::uint64_t v = table[x % table.size()];
    heap.emplace(v ^ x, i);
    if (heap.size() > (1u << 15)) {
      sink += heap.top().first;
      heap.pop();
    }
    table[(x >> 17) % table.size()] += v;
    auto& slot = objects[i % objects.size()];
    slot = std::make_unique<std::array<std::uint64_t, 8>>();
    (*slot)[v % 8] = x;
    rate = rate * 0.999 + static_cast<double>(v & 0xff) / (1.0 + rate);
  }
  sink += static_cast<std::uint64_t>(rate);
  return now_ms() - t0;
}

}  // namespace prophet::perfbench
