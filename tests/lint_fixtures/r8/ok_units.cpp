// fixture-path: src/sched/ok_units.cpp
// R8 negative cases: same-unit arithmetic, rate formation through * and /
// (dividing bytes by seconds IS how rates are made), untagged identifiers,
// and explicit conversion at the assignment boundary. No diagnostics.
namespace prophet::sched {

std::int64_t fixture_same_unit(std::int64_t start_ns, std::int64_t end_ns) {
  return end_ns - start_ns;
}

std::int64_t fixture_rate(std::int64_t moved_bytes, std::int64_t window_s) {
  return moved_bytes / window_s;  // * and / are exempt: this forms a rate
}

std::int64_t fixture_untagged(std::int64_t count, std::int64_t total) {
  return count + total;  // no unit tags, nothing to mix
}

void fixture_converted(std::int64_t span_ns) {
  const std::int64_t span_ms = to_millis(span_ns);  // conversion call, not a mix
  (void)span_ms;
}

std::int64_t fixture_quanta(std::int64_t drained_qb, std::int64_t rate_qbpns,
                            std::int64_t span_ns) {
  return drained_qb + (rate_qbpns * span_ns);  // a product is untagged
}

}  // namespace prophet::sched
