// fixture-path: src/sched/bad_units.cpp
// R8 positive cases: cross-unit arithmetic, comparison and assignment between
// unit-suffixed identifiers. Every mix here silently misweights a magnitude
// by 10^3 or worse.
namespace prophet::sched {

std::int64_t fixture_mixed_sum(std::int64_t window_ns, std::int64_t budget_ms) {
  return window_ns + budget_ms;  // expect(R8)
}

void fixture_mixed_assign(std::int64_t deadline_ms, std::int64_t timeout_ns) {
  deadline_ms = timeout_ns;  // expect(R8)
}

bool fixture_mixed_compare(std::int64_t elapsed_us, std::int64_t limit_s) {
  return elapsed_us < limit_s;  // expect(R8)
}

void fixture_mixed_compound(std::int64_t total_bytes, std::int64_t rate_bps) {
  total_bytes += rate_bps;  // expect(R8)
}

void fixture_mixed_quanta(std::int64_t drained_qb, std::int64_t rate_qbpns,
                          std::int64_t moved_bytes) {
  drained_qb += rate_qbpns;  // expect(R8)
  moved_bytes = drained_qb;  // expect(R8)
}

}  // namespace prophet::sched
