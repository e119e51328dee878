#include "net/flow_network.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/check.hpp"

namespace prophet::net {

FlowNetwork::FlowNetwork(sim::Simulator& sim, TcpCostModel cost_model,
                         RebalanceMode mode)
    : sim_{sim}, cost_model_{cost_model}, mode_{mode} {}

FlowNetwork::~FlowNetwork() {
  for (RateGroup& g : groups_) g.completion.cancel();
  if (flush_pending_) sim_.cancel_instant_end(flush_hook_);
  for (const std::uint32_t slot : active_) slots_[slot].flow.completion.cancel();
}

LinkId FlowNetwork::add_link(std::string name, Bandwidth cap) {
  PROPHET_CHECK(!cap.is_zero());
  links_.push_back(Link{std::move(name), cap});
  fill_.emplace_back();
  link_flows_.emplace_back();
  link_epoch_.push_back(0);
  return static_cast<LinkId>(links_.size() - 1);
}

NodeId FlowNetwork::add_node(std::string name, Bandwidth egress, Bandwidth ingress) {
  PROPHET_CHECK(!egress.is_zero() && !ingress.is_zero());
  const LinkId tx = add_link(name + ".tx", egress);
  const LinkId rx = add_link(name + ".rx", ingress);
  nodes_.push_back(Node{std::move(name), tx, rx});
  return static_cast<NodeId>(nodes_.size() - 1);
}

RackId FlowNetwork::add_rack(std::string name, Bandwidth uplink, Bandwidth downlink) {
  const LinkId up = add_link(name + ".up", uplink);
  const LinkId down = add_link(name + ".down", downlink);
  racks_.push_back(Rack{std::move(name), up, down});
  return static_cast<RackId>(racks_.size() - 1);
}

void FlowNetwork::assign_rack(NodeId node, RackId rack) {
  PROPHET_CHECK(node < nodes_.size());
  PROPHET_CHECK(rack < racks_.size() || rack == kNoRack);
  nodes_[node].rack = rack;
}

RackId FlowNetwork::rack_of(NodeId node) const {
  PROPHET_CHECK(node < nodes_.size());
  return nodes_[node].rack;
}

const std::string& FlowNetwork::rack_name(RackId id) const {
  PROPHET_CHECK(id < racks_.size());
  return racks_[id].name;
}

LinkId FlowNetwork::rack_link(RackId id, Direction dir) const {
  PROPHET_CHECK(id < racks_.size());
  return dir == Direction::kTx ? racks_[id].up : racks_[id].down;
}

const std::string& FlowNetwork::node_name(NodeId id) const {
  PROPHET_CHECK(id < nodes_.size());
  return nodes_[id].name;
}

const std::string& FlowNetwork::link_name(LinkId id) const {
  PROPHET_CHECK(id < links_.size());
  return links_[id].name;
}

std::optional<LinkId> FlowNetwork::find_link(std::string_view name) const {
  for (std::size_t l = 0; l < links_.size(); ++l) {
    if (links_[l].name == name) return static_cast<LinkId>(l);
  }
  return std::nullopt;
}

LinkId FlowNetwork::node_link(NodeId id, Direction dir) const {
  PROPHET_CHECK(id < nodes_.size());
  return dir == Direction::kTx ? nodes_[id].tx : nodes_[id].rx;
}

FlowNetwork::Link& FlowNetwork::link(LinkId id) {
  PROPHET_CHECK(id < links_.size());
  return links_[id];
}

const FlowNetwork::Link& FlowNetwork::link(LinkId id) const {
  PROPHET_CHECK(id < links_.size());
  return links_[id];
}

const FlowNetwork::Link& FlowNetwork::access_link(NodeId id, Direction dir) const {
  return link(node_link(id, dir));
}

std::ptrdiff_t FlowNetwork::find_slot(FlowId id) const {
  const auto slot = static_cast<std::uint32_t>(id & 0xffffffffu);
  const auto generation = static_cast<std::uint32_t>(id >> 32);
  if (slot >= slots_.size()) return -1;
  const FlowSlot& s = slots_[slot];
  if (!s.occupied || s.generation != generation) return -1;
  return static_cast<std::ptrdiff_t>(slot);
}

void FlowNetwork::set_link_capacity(LinkId id, Bandwidth cap) {
  PROPHET_CHECK(!cap.is_zero());
  if (mode_ == RebalanceMode::kFull) {
    advance_to_now();
    link(id).cap = cap;
    reassign_rates();
    return;
  }
  // Settlement credits bytes at the rates in force before the change, which
  // are stored per flow (or in the group's live segment) — safe to mutate
  // the capacity first.
  link(id).cap = cap;
  const std::uint32_t gid = group_of_link(id);
  if (gid != kNoGroup && group_capacity_change(gid, id)) return;
  invalidate(&id, 1);
}

Bandwidth FlowNetwork::link_capacity(LinkId id) const { return link(id).cap; }

void FlowNetwork::set_link_state(LinkId id, bool up) {
  if (link(id).up == up) return;
  if (mode_ == RebalanceMode::kFull) {
    advance_to_now();
    link(id).up = up;
    reassign_rates();
    return;
  }
  link(id).up = up;
  invalidate(&id, 1);
}

bool FlowNetwork::link_state(LinkId id) const { return link(id).up; }

std::int64_t FlowNetwork::link_total_bytes(LinkId id) {
  if (mode_ == RebalanceMode::kFull) {
    advance_to_now();
    return link(id).total_bytes;
  }
  const TimePoint now = sim_.now();
  // Settling only this link's flows suffices for its byte/busy counters (the
  // rest of the component keeps draining at unchanged rates). Credits are
  // integers, so the settlement order is immaterial.
  for (const std::uint32_t slot : link_flows_[id]) settle_flow(slot, now);
  settle_link_busy(id, now);
  return link(id).total_bytes;
}

Duration FlowNetwork::link_busy_time(LinkId id) {
  if (mode_ == RebalanceMode::kFull) {
    advance_to_now();
  } else {
    settle_link_busy(id, sim_.now());
  }
  return link(id).busy;
}

void FlowNetwork::attach_link_tracker(LinkId id, BinnedSeries* series) {
  PROPHET_CHECK_MSG(link_flows_[id].empty(),
                    "attach trackers before the link carries traffic");
  link(id).tracker = series;
  if (series == nullptr) return;
  const std::int64_t bin_ns = series->bin_width().count_nanos();
  const bool same_grid = tracker_bin_ns_ == 0 || tracker_bin_ns_ == bin_ns;
  tracker_bin_ns_ = same_grid ? bin_ns : kMixedTrackerWidths;
}

void FlowNetwork::set_capacity(NodeId id, Direction dir, Bandwidth cap) {
  PROPHET_CHECK(!cap.is_zero());
  set_link_capacity(node_link(id, dir), cap);
}

Bandwidth FlowNetwork::capacity(NodeId id, Direction dir) const {
  return access_link(id, dir).cap;
}

void FlowNetwork::set_link_up(NodeId id, bool up) {
  PROPHET_CHECK(id < nodes_.size());
  if (links_[nodes_[id].tx].up == up && links_[nodes_[id].rx].up == up) return;
  if (mode_ == RebalanceMode::kFull) {
    advance_to_now();
    links_[nodes_[id].tx].up = up;
    links_[nodes_[id].rx].up = up;
    reassign_rates();
    return;
  }
  links_[nodes_[id].tx].up = up;
  links_[nodes_[id].rx].up = up;
  const LinkId changed[2] = {nodes_[id].tx, nodes_[id].rx};
  invalidate(changed, 2);
}

bool FlowNetwork::link_up(NodeId id) const {
  PROPHET_CHECK(id < nodes_.size());
  return links_[nodes_[id].tx].up && links_[nodes_[id].rx].up;
}

std::uint8_t FlowNetwork::compute_path(
    NodeId src, NodeId dst, std::array<LinkId, kMaxPathLinks>& out) const {
  std::uint8_t n = 0;
  out[n++] = nodes_[src].tx;
  const RackId sr = nodes_[src].rack;
  const RackId dr = nodes_[dst].rack;
  if (sr != dr) {
    // Different racks — or one endpoint on the spine: traffic leaves the
    // source rack through its uplink and enters the destination rack through
    // its downlink; whichever endpoint is unracked sits at the spine and
    // contributes no shared link.
    if (sr != kNoRack) out[n++] = racks_[sr].up;
    if (dr != kNoRack) out[n++] = racks_[dr].down;
  }
  out[n++] = nodes_[dst].rx;
  return n;
}

std::vector<LinkId> FlowNetwork::route(NodeId src, NodeId dst) const {
  PROPHET_CHECK(src < nodes_.size() && dst < nodes_.size());
  std::array<LinkId, kMaxPathLinks> path{};
  const std::uint8_t n = compute_path(src, dst, path);
  return std::vector<LinkId>{path.begin(), path.begin() + n};
}

FlowId FlowNetwork::start_flow(NodeId src, NodeId dst, Bytes size,
                               std::function<void(FlowId)> on_complete) {
  PROPHET_CHECK(src < nodes_.size() && dst < nodes_.size());
  PROPHET_CHECK_MSG(src != dst, "loopback flows are not modeled");
  PROPHET_CHECK(size.count() >= 0);
  std::uint32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
  } else {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
    slot_epoch_.push_back(0);
  }
  FlowSlot& s = slots_[slot];
  s.occupied = true;
  s.flow.src = src;
  s.flow.dst = dst;
  s.flow.size_qb = static_cast<Quanta>(size.count()) << kQuantumBits;
  s.flow.drained_qb = 0;
  s.flow.draining = false;
  s.flow.rate = 0.0;
  s.flow.rate_qbpns = 0;
  s.flow.path_len = compute_path(src, dst, s.flow.path);
  s.flow.admission = next_admission_++;
  s.flow.last_settled = sim_.now();
  s.flow.on_complete = std::move(on_complete);
  s.active_pos = static_cast<std::uint32_t>(active_.size());
  active_.push_back(slot);
  const FlowId id = make_id(s.generation, slot);

  // The setup ramp is computed against the path's solo line rate: the best
  // the congestion window could hope for, matching how slow start probes.
  Bandwidth line_rate = links_[s.flow.path[0]].cap;
  for (std::uint8_t i = 1; i < s.flow.path_len; ++i) {
    line_rate = std::min(line_rate, links_[s.flow.path[i]].cap);
  }
  const Duration setup = cost_model_.setup_delay(size, line_rate);
  s.flow.completion = sim_.schedule_after(setup, [this, id] { enter_drain(id); });
  return id;
}

Bandwidth FlowNetwork::flow_rate(FlowId id) const {
  const std::ptrdiff_t slot = find_slot(id);
  PROPHET_CHECK_MSG(slot >= 0, "flow_rate on unknown flow");
  PROPHET_CHECK_MSG(!flush_pending_,
                    "flow_rate read mid-instant, before the pending rebalance ran");
  const Flow& f = slots_[static_cast<std::size_t>(slot)].flow;
  // A grouped member's own rate field is lazily maintained; the group holds
  // the live share.
  if (f.group != kNoGroup) return Bandwidth::bytes_per_sec(groups_[f.group].rate);
  return Bandwidth::bytes_per_sec(f.rate);
}

void FlowNetwork::attach_tracker(NodeId id, Direction dir, BinnedSeries* series) {
  attach_link_tracker(node_link(id, dir), series);
}

std::int64_t FlowNetwork::total_bytes(NodeId id, Direction dir) {
  return link_total_bytes(node_link(id, dir));
}

Duration FlowNetwork::busy_time(NodeId id, Direction dir) {
  return link_busy_time(node_link(id, dir));
}

// --- incremental engine -----------------------------------------------------

void FlowNetwork::graph_insert(std::uint32_t slot) {
  Flow& f = slots_[slot].flow;
  for (std::uint8_t i = 0; i < f.path_len; ++i) {
    std::vector<std::uint32_t>& flows = link_flows_[f.path[i]];
    f.link_pos[i] = static_cast<std::uint32_t>(flows.size());
    flows.push_back(slot);
  }
}

void FlowNetwork::graph_remove(std::uint32_t slot) {
  Flow& f = slots_[slot].flow;
  for (std::uint8_t i = 0; i < f.path_len; ++i) {
    const LinkId l = f.path[i];
    std::vector<std::uint32_t>& flows = link_flows_[l];
    const std::uint32_t pos = f.link_pos[i];
    const std::uint32_t moved = flows.back();
    flows[pos] = moved;
    flows.pop_back();
    if (moved != slot) {
      Flow& mf = slots_[moved].flow;
      for (std::uint8_t j = 0; j < mf.path_len; ++j) {
        if (mf.path[j] == l) {
          mf.link_pos[j] = pos;
          break;
        }
      }
    }
  }
}

void FlowNetwork::collect_component(LinkId seed) {
  comp_flows_.clear();
  comp_links_.assign(1, seed);
  link_epoch_[seed] = epoch_;
  // Frontier expansion: a link pulls in its draining flows, a flow pulls in
  // every link on its path.
  for (std::size_t i = 0; i < comp_links_.size(); ++i) {
    const LinkId l = comp_links_[i];
    for (const std::uint32_t slot : link_flows_[l]) {
      if (slot_epoch_[slot] == epoch_) continue;
      slot_epoch_[slot] = epoch_;
      comp_flows_.push_back(slot);
      const Flow& f = slots_[slot].flow;
      for (std::uint8_t p = 0; p < f.path_len; ++p) {
        const LinkId pl = f.path[p];
        if (link_epoch_[pl] == epoch_) continue;
        link_epoch_[pl] = epoch_;
        comp_links_.push_back(pl);
      }
    }
  }
  // Admission order is the deterministic walk order everywhere (it is what
  // the full algorithm uses), independent of discovery order.
  std::sort(comp_flows_.begin(), comp_flows_.end(), by_admission());
}

std::int64_t FlowNetwork::quantize_rate(double rate) {
  if (rate <= 0.0) return 0;
  // 2^kQuantumBits quanta per byte, 1e9 ns per second.
  constexpr double kQbpnsPerBps = 4503599627370496.0 / 1e9;
  const double q = rate * kQbpnsPerBps;
  PROPHET_CHECK_MSG(q < 9.0e18, "link rate exceeds the fixed-point range");
  return std::max<std::int64_t>(1, static_cast<std::int64_t>(q + 0.5));
}

void FlowNetwork::set_flow_rate(Flow& f, double rate) {
  const std::int64_t rate_qbpns = quantize_rate(rate);
  f.rerated = rate_qbpns != f.rate_qbpns;
  f.rate = rate;
  f.rate_qbpns = rate_qbpns;
}

void FlowNetwork::rerate_flow(std::uint32_t slot, double rate, TimePoint now) {
  Flow& f = slots_[slot].flow;
  // A group spans its whole component, and dirtying a link dissolves the
  // group on it, so a flushed component holds no member.
  PROPHET_CHECK(f.group == kNoGroup);
  if (quantize_rate(rate) != f.rate_qbpns) settle_flow(slot, now);
  set_flow_rate(f, rate);
}

Duration FlowNetwork::drain_time(Quanta remaining_qb, std::int64_t rate_qbpns) {
  Quanta ns = remaining_qb / rate_qbpns;
  if (remaining_qb > ns * rate_qbpns) ++ns;
  PROPHET_CHECK_MSG(ns < (Quanta{1} << 62), "flow drain time overflows the clock");
  return Duration::nanos(static_cast<std::int64_t>(ns));
}

Bytes FlowNetwork::unsent_bytes(const Flow& f) {
  const Quanta left_qb = f.size_qb - f.drained_qb;
  return Bytes::of(whole_bytes(left_qb + ((Quanta{1} << kQuantumBits) - 1)));
}

template <typename WorkAt>
void FlowNetwork::credit_links(const Flow& f, TimePoint from, TimePoint to,
                               Quanta from_qb, Quanta to_qb, WorkAt&& work_at) {
  const std::int64_t from_bytes = whole_bytes(from_qb);
  const std::int64_t to_bytes = whole_bytes(to_qb);
  if (to_bytes == from_bytes) return;
  for (std::uint8_t i = 0; i < f.path_len; ++i) {
    Link& l = links_[f.path[i]];
    l.total_bytes += to_bytes - from_bytes;
    if (l.tracker == nullptr) continue;
    // Bin k owns the work drained in (k * width, (k + 1) * width]. Each bin
    // gets the whole bytes crossed between its edges, so bins stay exact
    // integers and any settlement split credits them identically.
    BinnedSeries& series = *l.tracker;
    const std::int64_t width_ns = series.bin_width().count_nanos();
    const auto bins = static_cast<std::int64_t>(series.bin_count());
    const std::int64_t end_ns = to.count_nanos();
    std::int64_t credited_bytes = from_bytes;
    for (std::int64_t bin = from.count_nanos() / width_ns; bin < bins; ++bin) {
      const std::int64_t edge_ns = (bin + 1) * width_ns;
      const bool last = edge_ns >= end_ns;
      const std::int64_t at_edge_bytes = last ? to_bytes : whole_bytes(work_at(edge_ns));
      if (at_edge_bytes != credited_bytes) {
        series.add_amount(TimePoint::from_nanos(bin * width_ns),
                          static_cast<double>(at_edge_bytes - credited_bytes));
        credited_bytes = at_edge_bytes;
      }
      if (last) break;
    }
  }
}

void FlowNetwork::settle_flow(std::uint32_t slot, TimePoint now) {
  Flow& f = slots_[slot].flow;
  if (f.last_settled >= now) return;
  const RateGroup* g = f.group != kNoGroup ? &groups_[f.group] : nullptr;
  if (g != nullptr || (f.draining && f.rate_qbpns > 0)) {
    ++stats_.flows_settled;
    // A grouped member drains in lockstep with its group's work clock since
    // its last settlement; any other flow at its own constant rate.
    const std::int64_t from_ns = f.last_settled.count_nanos();
    const Quanta from_qb = f.drained_qb;
    const Quanta mark_qb = f.group_mark_qb;
    const Quanta size_qb = f.size_qb;
    const Quanta rate = f.rate_qbpns;
    const auto work_at = [&](std::int64_t t_ns) {
      const Quanta moved = g != nullptr ? group_work_at(*g, t_ns) - mark_qb
                                        : rate * (t_ns - from_ns);
      return std::min(size_qb, from_qb + moved);
    };
    f.drained_qb = work_at(now.count_nanos());
    if (g != nullptr) f.group_mark_qb = group_work_at(*g, now.count_nanos());
    credit_links(f, f.last_settled, now, from_qb, f.drained_qb, work_at);
  }
  f.last_settled = now;
}

void FlowNetwork::settle_link_busy(LinkId id, TimePoint now) {
  Link& l = links_[id];
  if (l.busy_active) l.busy += now - l.busy_mark;
  l.busy_mark = now;
}

void FlowNetwork::invalidate(const LinkId* links, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    const LinkId l = links[i];
    // The flush re-derives this component's rates from scratch, so a group
    // on it stops being valid now, exactly as the flush's walk would find.
    const std::uint32_t gid = group_of_link(l);
    if (gid != kNoGroup) dissolve_group(gid);
    if (!links_[l].dirty) {
      links_[l].dirty = true;
      dirty_links_.push_back(l);
    }
  }
  if (flush_pending_) {
    ++stats_.coalesced;
    return;
  }
  flush_pending_ = true;
  flush_hook_ = sim_.at_instant_end([this] { flush(); });
}

void FlowNetwork::flush() {
  flush_pending_ = false;
  const TimePoint now = sim_.now();
  // One refill per component: a seed reached from an earlier seed already
  // carries this flush's epoch.
  ++epoch_;
  for (const LinkId seed : dirty_links_) {
    Link& l = links_[seed];
    l.dirty = false;
    if (link_epoch_[seed] == epoch_) continue;
    if (link_flows_[seed].empty()) {
      // Lost its last flow: nothing left to re-rate, only busy time to stop.
      settle_link_busy(seed, now);
      l.busy_active = false;
      continue;
    }
    // Emptied, then joined by a rate group's fast-path admission: the group
    // was checked against the link as it is now, so its rates are current.
    if (group_of_link(seed) != kNoGroup) continue;
    collect_component(seed);
    refill_component();
  }
  dirty_links_.clear();
  if (verify_rates_) verify_against_full();
}

template <typename SetRate>
void FlowNetwork::progressive_fill(const std::vector<std::uint32_t>& flow_slots,
                                   SetRate&& set_rate) {
  // Progressive filling: repeatedly saturate the link with the smallest fair
  // share, freeze its flows at that rate, remove the consumed capacity. Only
  // links that carry a draining flow participate; everything runs out of
  // persistent scratch, so steady-state reassignment allocates nothing.
  unfrozen_.clear();
  active_links_.clear();
  for (const std::uint32_t slot : flow_slots) {
    const Flow& flow = slots_[slot].flow;
    unfrozen_.push_back(slot);
    for (std::uint8_t i = 0; i < flow.path_len; ++i) {
      const LinkId l = flow.path[i];
      if (fill_[l].unfrozen == 0) {
        // First draining flow on this link: (re)load its capacity. A down
        // link offers no capacity: its flows freeze at rate zero below.
        fill_[l].cap = links_[l].up ? links_[l].cap.bytes_per_second() : 0.0;
        active_links_.push_back(l);
      }
      ++fill_[l].unfrozen;
    }
  }

  std::size_t remaining = unfrozen_.size();
  while (remaining > 0) {
    // Find the tightest link among those with unfrozen flows.
    double min_share = std::numeric_limits<double>::infinity();
    for (const LinkId l : active_links_) {
      if (fill_[l].unfrozen > 0) {
        min_share = std::min(min_share, fill_[l].cap / fill_[l].unfrozen);
      }
    }
    PROPHET_CHECK(min_share < std::numeric_limits<double>::infinity());
    // Floating-point residue in the capacity subtractions can push a nearly
    // exhausted link's share epsilon-negative; clamp so no flow ever gets a
    // negative rate.
    min_share = std::max(min_share, 0.0);
    // Freeze every flow touching a link whose fair share equals the minimum.
    // Tightness is decided on this round's shares before any capacity is
    // consumed: re-testing a link after each subtraction lets the rounding
    // residue of many subtractions push its last flows past the tolerance.
    for (const LinkId l : active_links_) {
      LinkFill& fl = fill_[l];
      fl.tight = fl.unfrozen > 0 && fl.cap / fl.unfrozen <= min_share * (1.0 + 1e-12);
    }
    const auto is_tight = [&](const Flow& f) {
      for (std::uint8_t i = 0; i < f.path_len; ++i) {
        if (fill_[f.path[i]].tight) return true;
      }
      return false;
    };
    bool froze_any = false;
    std::size_t kept = 0;
    for (std::size_t i = 0; i < remaining; ++i) {
      const std::uint32_t slot = unfrozen_[i];
      const Flow& f = slots_[slot].flow;
      if (is_tight(f)) {
        set_rate(slot, min_share);
        for (std::uint8_t p = 0; p < f.path_len; ++p) {
          fill_[f.path[p]].cap -= min_share;
          --fill_[f.path[p]].unfrozen;
        }
        froze_any = true;
      } else {
        unfrozen_[kept++] = slot;
      }
    }
    remaining = kept;
    PROPHET_CHECK_MSG(froze_any, "progressive filling made no progress");
  }
}

void FlowNetwork::reschedule_completion(std::uint32_t slot) {
  Flow& flow = slots_[slot].flow;
  // Work is exact, so a pending completion at an unchanged quantized rate
  // already sits at the right nanosecond.
  if (!flow.rerated && flow.completion.pending()) return;
  flow.completion.cancel();
  const FlowId fid = make_id(slots_[slot].generation, slot);
  // Refills settle every flow they re-rate and dissolve_group settles the
  // members it hands back, so a moving ETA is computed from a current mark
  // (a flow parked at zero before and after has drained nothing since).
  PROPHET_CHECK(flow.last_settled == sim_.now() || flow.rate_qbpns == 0);
  const Quanta left_qb = flow.size_qb - flow.drained_qb;
  if (left_qb == 0) {
    flow.completion =
        sim_.schedule_after(Duration::zero(), [this, fid] { complete_flow(fid); });
  } else if (flow.rate_qbpns > 0) {
    flow.completion = sim_.schedule_after(drain_time(left_qb, flow.rate_qbpns),
                                          [this, fid] { complete_flow(fid); });
  }
  // rate == 0 (fully starved link) leaves the flow parked until the next
  // rebalance; set_capacity / flow departures will wake it.
}

void FlowNetwork::refill_component() {
  const TimePoint now = sim_.now();
  ++stats_.rebalances;
  stats_.component_flows += comp_flows_.size();

  progressive_fill(comp_flows_,
                   [&](std::uint32_t slot, double r) { rerate_flow(slot, r, now); });

  // Busy flags: a component link is busy while any of its draining flows has
  // a positive rate; its busy time accrues at the old flag up to now.
  for (const LinkId l : comp_links_) {
    settle_link_busy(l, now);
    bool active = false;
    for (const std::uint32_t slot : link_flows_[l]) {
      if (slots_[slot].flow.rate > 0.0) {
        active = true;
        break;
      }
    }
    links_[l].busy_active = active;
  }

  // If the refreshed component is a single-bottleneck incast, promote it to
  // a rate group so subsequent events stay off this slow path entirely; its
  // one completion event then stands in for the members' own.
  if (maybe_form_group()) return;

  // Reschedule completions at the new rates (admission order, so same-instant
  // completions keep their deterministic tie-break).
  for (const std::uint32_t slot : comp_flows_) reschedule_completion(slot);
}

void FlowNetwork::gather_draining_by_admission(std::vector<std::uint32_t>& out) const {
  out.clear();
  for (const std::uint32_t slot : active_) {
    if (slots_[slot].flow.draining) out.push_back(slot);
  }
  std::sort(out.begin(), out.end(), by_admission());
}

template <typename SetRate>
void FlowNetwork::fill_all_components(SetRate&& set_rate) {
  gather_draining_by_admission(all_draining_);
  // Max-min allocations are component-local, so the whole-network filling
  // runs one component at a time: a single pass over every link would let a
  // share in one component near-tie (within the filling's 1e-12 tolerance)
  // a share in an unrelated one and freeze both at the smaller value.
  ++epoch_;
  for (const std::uint32_t root : all_draining_) {
    if (slot_epoch_[root] == epoch_) continue;
    collect_component(slots_[root].flow.path[0]);
    progressive_fill(comp_flows_, set_rate);
  }
}

void FlowNetwork::verify_against_full() {
  ++stats_.verify_checks;
  verify_rate_.assign(slots_.size(), 0.0);
  fill_all_components([&](std::uint32_t slot, double r) { verify_rate_[slot] = r; });
  for (const std::uint32_t slot : all_draining_) {
    const Flow& f = slots_[slot].flow;
    if (f.rate != verify_rate_[slot]) ++stats_.verify_mismatches;
    PROPHET_CHECK_MSG(f.rate == verify_rate_[slot],
                      "incremental rebalance diverged from full recompute");
  }
}

// --- rate-group engine ------------------------------------------------------
//
// Exactness contract: a group never invents a rate. Its rate is the same
// cap/int-count division progressive filling evaluates, quantized by the
// same quantize_rate; member settlement credits W(now) - W(mark), which is
// the sum of the per-segment integer products the eager path would credit;
// and the completion is scheduled with the same drain_time ceil-division as
// reschedule_completion. Because work is exact, that keeps verify mode and
// the cross-mode byte identities exact. See DESIGN.md §4d.

namespace {
// "later" ordering for the next-finisher heap: std:: heap helpers keep the
// smallest (vfinish, admission) pair at the front.
constexpr auto kGroupEntryLater = [](const auto& a, const auto& b) {
  if (a.vfinish_qb != b.vfinish_qb) return a.vfinish_qb > b.vfinish_qb;
  return a.admission > b.admission;
};
}  // namespace

std::uint32_t FlowNetwork::group_of_link(LinkId id) const {
  // All draining flows on a link belong to one component, and a group always
  // spans its whole component — any one of them knows the membership.
  if (link_flows_[id].empty()) return kNoGroup;
  return slots_[link_flows_[id][0]].flow.group;
}

void FlowNetwork::group_heap_push(RateGroup& g, const GroupEntry& e) {
  g.heap.push_back(e);
  std::push_heap(g.heap.begin(), g.heap.end(), kGroupEntryLater);
}

void FlowNetwork::group_heap_pop(RateGroup& g) {
  std::pop_heap(g.heap.begin(), g.heap.end(), kGroupEntryLater);
  g.heap.pop_back();
}

std::ptrdiff_t FlowNetwork::group_heap_head(std::uint32_t gid) {
  RateGroup& g = groups_[gid];
  while (!g.heap.empty()) {
    const GroupEntry& top = g.heap.front();
    const FlowSlot& s = slots_[top.slot];
    if (s.occupied && s.flow.draining && s.flow.group == gid &&
        s.flow.admission == top.admission) {
      return static_cast<std::ptrdiff_t>(top.slot);
    }
    group_heap_pop(g);  // lazily deleted (cancelled member / recycled slot)
  }
  return -1;
}

FlowNetwork::Quanta FlowNetwork::group_work_at(const RateGroup& g, std::int64_t t_ns) {
  const std::int64_t seg_ns = g.seg_start.count_nanos();
  if (t_ns >= seg_ns) {
    return g.seg_work_qb + static_cast<Quanta>(g.rate_qbpns) * (t_ns - seg_ns);
  }
  // A tracker-bin edge crossed by an earlier segment.
  const std::int64_t k = t_ns / g.edge_width_ns - g.first_edge;
  PROPHET_CHECK(k >= 0 && static_cast<std::size_t>(k) < g.edge_work_qb.size());
  return g.edge_work_qb[static_cast<std::size_t>(k)];
}

void FlowNetwork::group_set_rate(RateGroup& g, double rate, TimePoint now) {
  const std::int64_t now_ns = now.count_nanos();
  if (g.edge_width_ns > 0) {
    // Every edge up to the previous boundary is recorded, so the ones left
    // lie inside the closing segment.
    auto edge = g.first_edge + static_cast<std::int64_t>(g.edge_work_qb.size());
    for (; edge * g.edge_width_ns <= now_ns; ++edge) {
      g.edge_work_qb.push_back(group_work_at(g, edge * g.edge_width_ns));
    }
  }
  g.seg_work_qb = group_work_at(g, now_ns);
  g.seg_start = now;
  g.rate = rate;
  g.rate_qbpns = quantize_rate(rate);
}

bool FlowNetwork::maybe_form_group() {
  if (comp_flows_.size() < kMinGroupFlows) return false;
  const double rate = slots_[comp_flows_[0]].flow.rate;
  if (rate <= 0.0) return false;
  for (const std::uint32_t slot : comp_flows_) {
    if (slots_[slot].flow.rate != rate) return false;
  }
  // Anchor: a component link carrying every flow whose fair share is the
  // common rate bit-for-bit; every other populated link must keep a share
  // at or above it (true for any max-min allocation, but checked so a
  // numerically marginal component never gets promoted).
  const std::size_t n = comp_flows_.size();
  bool have_anchor = false;
  LinkId anchor = 0;
  double min_other = std::numeric_limits<double>::infinity();
  for (const LinkId l : comp_links_) {
    const std::size_t cnt = link_flows_[l].size();
    if (cnt == 0) continue;  // a seed link that carries no draining flow
    const double share = (links_[l].up ? links_[l].cap.bytes_per_second() : 0.0) /
                         static_cast<double>(cnt);
    if (!have_anchor && cnt == n && share == rate) {
      have_anchor = true;
      anchor = l;
    } else {
      if (share < rate) return false;
      min_other = std::min(min_other, share);
    }
  }
  // The group records its work clock on the one tracker bin grid.
  if (!have_anchor || tracker_bin_ns_ == kMixedTrackerWidths) return false;

  // The work clock starts at now, so every member must be settled to now
  // (the refill settled only the re-rated ones).
  const TimePoint now = sim_.now();
  for (const std::uint32_t slot : comp_flows_) settle_flow(slot, now);
  std::uint32_t gid;
  if (!free_groups_.empty()) {
    gid = free_groups_.back();
    free_groups_.pop_back();
  } else {
    gid = static_cast<std::uint32_t>(groups_.size());
    groups_.emplace_back();
  }
  RateGroup& g = groups_[gid];
  g.anchor = anchor;
  g.n = static_cast<std::uint32_t>(n);
  g.rate = rate;
  g.rate_qbpns = quantize_rate(rate);
  g.min_other_share = min_other;
  g.seg_start = now;
  g.seg_work_qb = 0;
  g.edge_width_ns = tracker_bin_ns_;
  g.first_edge = tracker_bin_ns_ > 0 ? now.count_nanos() / tracker_bin_ns_ + 1 : 0;
  g.edge_work_qb.clear();
  g.heap.clear();
  g.heap.reserve(n);
  for (const std::uint32_t slot : comp_flows_) {
    Flow& f = slots_[slot].flow;
    f.group = gid;
    f.group_mark_qb = 0;
    // The group's completion supersedes per-flow ones from here on.
    f.completion.cancel();
    f.completion = sim::EventHandle{};
    g.heap.push_back(GroupEntry{f.size_qb - f.drained_qb, f.admission, slot});
  }
  std::make_heap(g.heap.begin(), g.heap.end(), kGroupEntryLater);
  g.live = true;
  ++groups_live_;
  ++stats_.group_forms;
  group_rearm(gid, now);
  return true;
}

void FlowNetwork::group_rearm(std::uint32_t gid, TimePoint now) {
  RateGroup& g = groups_[gid];
  g.completion.cancel();
  if (group_heap_head(gid) < 0) return;
  // The head's work left is exactly what its eager settlement would leave,
  // so the event lands where reschedule_completion would put it, to the
  // nanosecond.
  const Quanta left_qb = g.heap.front().vfinish_qb - group_work_at(g, now.count_nanos());
  g.completion = sim_.schedule_at(
      left_qb <= 0 ? now : now + drain_time(left_qb, g.rate_qbpns),
      [this, gid] { group_head_finished(gid); });
}

void FlowNetwork::group_head_finished(std::uint32_t gid) {
  const std::ptrdiff_t head = group_heap_head(gid);
  PROPHET_CHECK_MSG(head >= 0, "group completion fired with no live member");
  group_heap_pop(groups_[gid]);
  finish_flow(static_cast<std::uint32_t>(head));
}

void FlowNetwork::group_remove_member(std::uint32_t gid, std::uint32_t slot,
                                      TimePoint now) {
  RateGroup& g = groups_[gid];
  Flow& f = slots_[slot].flow;
  f.group = kNoGroup;
  graph_remove(slot);
  // A link losing its last draining flow stops accruing busy time; the
  // anchor (and any link still shared with another member) stays busy.
  for (std::uint8_t i = 0; i < f.path_len; ++i) {
    const LinkId l = f.path[i];
    if (link_flows_[l].empty()) {
      settle_link_busy(l, now);
      links_[l].busy_active = false;
    }
  }
  release_slot(slot);
  PROPHET_CHECK(g.n > 0);
  g.n -= 1;
  if (g.n == 0) {
    ++stats_.group_fast_events;
    group_destroy(gid);
    return;
  }
  // The survivors' share, via the same cap/int-count division progressive
  // filling evaluates for the anchor's round.
  const double new_rate =
      links_[g.anchor].cap.bytes_per_second() / static_cast<double>(g.n);
  if (new_rate > g.min_other_share) {
    // The bottleneck may move off the anchor: dissolve and leave the
    // component to the instant's flush (which re-forms a group with a fresh
    // bound when the shape still qualifies).
    const LinkId anchor = g.anchor;
    invalidate(&anchor, 1);
    return;
  }
  ++stats_.group_fast_events;
  group_set_rate(g, new_rate, now);
  group_rearm(gid, now);
  if (verify_rates_) group_verify(gid);
}

bool FlowNetwork::group_try_admit(std::uint32_t slot, TimePoint now) {
  Flow& f = slots_[slot].flow;
  // The arrival qualifies iff its path touches exactly one group, includes
  // that group's anchor, crosses only up links, leaves every non-anchor
  // path link with a fair share at or above the group's post-arrival rate,
  // and the group records the network's current tracker grid.
  std::uint32_t gid = kNoGroup;
  for (std::uint8_t i = 0; i < f.path_len; ++i) {
    const LinkId l = f.path[i];
    if (!links_[l].up) return false;
    if (link_flows_[l].empty()) continue;
    const std::uint32_t lg = slots_[link_flows_[l][0]].flow.group;
    if (lg == kNoGroup) return false;  // touches an ungrouped component
    if (gid == kNoGroup) {
      gid = lg;
    } else if (gid != lg) {
      return false;  // would merge two groups
    }
  }
  if (gid == kNoGroup) return false;  // isolated arrival — slow path is O(1)
  RateGroup& g = groups_[gid];
  bool on_anchor = false;
  for (std::uint8_t i = 0; i < f.path_len; ++i) on_anchor |= f.path[i] == g.anchor;
  if (!on_anchor) return false;  // bridges into the group off its bottleneck
  if (g.edge_width_ns != tracker_bin_ns_) return false;
  const double new_rate =
      links_[g.anchor].cap.bytes_per_second() / static_cast<double>(g.n + 1);
  double min_other = g.min_other_share;
  for (std::uint8_t i = 0; i < f.path_len; ++i) {
    const LinkId l = f.path[i];
    if (l == g.anchor) continue;
    const double share = links_[l].cap.bytes_per_second() /
                         static_cast<double>(link_flows_[l].size() + 1);
    if (share < new_rate) return false;  // the arrival moves the bottleneck
    min_other = std::min(min_other, share);
  }
  // Commit: one boundary, one heap push, one completion reschedule.
  group_set_rate(g, new_rate, now);
  f.draining = true;
  f.last_settled = now;
  f.group = gid;
  f.group_mark_qb = g.seg_work_qb;
  graph_insert(slot);
  g.n += 1;
  g.min_other_share = min_other;
  for (std::uint8_t i = 0; i < f.path_len; ++i) {
    Link& l = links_[f.path[i]];
    if (!l.busy_active) {
      settle_link_busy(f.path[i], now);
      l.busy_active = true;
    }
  }
  group_heap_push(g, GroupEntry{g.seg_work_qb + (f.size_qb - f.drained_qb),
                                f.admission, slot});
  ++stats_.group_fast_events;
  group_rearm(gid, now);
  if (verify_rates_) group_verify(gid);
  return true;
}

bool FlowNetwork::group_capacity_change(std::uint32_t gid, LinkId id) {
  RateGroup& g = groups_[gid];
  const TimePoint now = sim_.now();
  if (id != g.anchor) {
    // A non-anchor member link: the group survives while the link's new fair
    // share still clears the group rate. No member's rate changes, so no
    // boundary is recorded.
    const double share = links_[id].cap.bytes_per_second() /
                         static_cast<double>(link_flows_[id].size());
    if (share < g.rate) return false;
    g.min_other_share = std::min(g.min_other_share, share);
    ++stats_.group_fast_events;
    if (verify_rates_) group_verify(gid);
    return true;
  }
  const double new_rate =
      links_[id].cap.bytes_per_second() / static_cast<double>(g.n);
  if (new_rate > g.min_other_share) return false;
  ++stats_.group_fast_events;
  group_set_rate(g, new_rate, now);
  group_rearm(gid, now);
  if (verify_rates_) group_verify(gid);
  return true;
}

void FlowNetwork::dissolve_group(std::uint32_t gid) {
  RateGroup& g = groups_[gid];
  const TimePoint now = sim_.now();
  // Settle every member exactly (they all sit on the anchor), hand its rate
  // back to the per-flow fields, and let the caller's slow-path rebalance
  // re-rate them and schedule fresh completion events.
  for (const std::uint32_t slot : link_flows_[g.anchor]) {
    settle_flow(slot, now);
    Flow& f = slots_[slot].flow;
    f.rate = g.rate;
    f.rate_qbpns = g.rate_qbpns;
    f.group = kNoGroup;
  }
  ++stats_.group_dissolves;
  group_destroy(gid);
}

void FlowNetwork::group_destroy(std::uint32_t gid) {
  RateGroup& g = groups_[gid];
  g.completion.cancel();
  g.edge_work_qb.clear();
  g.heap.clear();
  g.live = false;
  g.n = 0;
  PROPHET_CHECK(groups_live_ > 0);
  --groups_live_;
  free_groups_.push_back(gid);
}

void FlowNetwork::group_verify(std::uint32_t gid) {
  RateGroup& g = groups_[gid];
  // verify_against_full reads per-flow rate fields; refresh the members'
  // lazily-maintained copies first. Every group op in verify mode does this,
  // so the global check always sees current rates everywhere.
  for (const std::uint32_t slot : link_flows_[g.anchor]) {
    set_flow_rate(slots_[slot].flow, g.rate);
  }
  if (!flush_pending_) verify_against_full();
}

void FlowNetwork::remove_active(std::uint32_t slot) {
  const std::uint32_t pos = slots_[slot].active_pos;
  const std::uint32_t moved = active_.back();
  active_[pos] = moved;
  active_.pop_back();
  if (moved != slot) slots_[moved].active_pos = pos;
}

void FlowNetwork::release_slot(std::uint32_t slot) {
  FlowSlot& s = slots_[slot];
  s.flow.on_complete = nullptr;
  s.flow.completion = sim::EventHandle{};
  s.flow.draining = false;
  s.occupied = false;
  ++s.generation;
  free_slots_.push_back(slot);
  remove_active(slot);
}

// --- original full-recompute path -------------------------------------------

void FlowNetwork::advance_to_now() {
  const TimePoint now = sim_.now();
  if (now == last_update_) return;
  // Credits are exact integers, so the walk needs no deterministic order.
  for (const std::uint32_t slot : active_) {
    if (slots_[slot].flow.draining) settle_flow(slot, now);
  }
  const Duration elapsed = now - last_update_;
  for (Link& l : links_) {
    if (l.busy_active) l.busy += elapsed;
    l.busy_mark = now;
  }
  last_update_ = now;
}

void FlowNetwork::reassign_rates() {
  fill_all_components(
      [&](std::uint32_t slot, double r) { set_flow_rate(slots_[slot].flow, r); });
  ++stats_.rebalances;
  stats_.component_flows += all_draining_.size();
  for (Link& l : links_) l.busy_active = false;
  for (const std::uint32_t slot : all_draining_) {
    const Flow& flow = slots_[slot].flow;
    if (flow.rate <= 0.0) continue;
    for (std::uint8_t i = 0; i < flow.path_len; ++i) {
      links_[flow.path[i]].busy_active = true;
    }
  }
  // The reference algorithm re-arms every completion on every change.
  for (const std::uint32_t slot : all_draining_) {
    slots_[slot].flow.completion.cancel();
    reschedule_completion(slot);
  }
}

void FlowNetwork::enter_drain(FlowId id) {
  const std::ptrdiff_t found = find_slot(id);
  // Cancelling a flow in setup cancels its setup event (Flow::completion).
  PROPHET_CHECK_MSG(found >= 0, "setup event fired for a departed flow");
  const auto slot = static_cast<std::uint32_t>(found);
  if (mode_ == RebalanceMode::kFull) {
    advance_to_now();
    slots_[slot].flow.draining = true;
    slots_[slot].flow.last_settled = sim_.now();
    graph_insert(slot);
    reassign_rates();
    return;
  }
  const TimePoint now = sim_.now();
  // An arrival that lands squarely on one rate group's bottleneck joins it
  // in O(log n) without touching the rest of the component.
  if (group_try_admit(slot, now)) return;
  Flow& f = slots_[slot].flow;
  // The arrival may bridge previously independent components; its whole path
  // is dirty. It drains at rate zero until the flush rates it (zero time).
  invalidate(f.path.data(), f.path_len);
  f.draining = true;
  f.last_settled = now;
  graph_insert(slot);
}

Bytes FlowNetwork::cancel_flow(FlowId id) {
  const std::ptrdiff_t found = find_slot(id);
  if (found < 0) return Bytes::zero();
  return depart(static_cast<std::uint32_t>(found));
}

Bytes FlowNetwork::depart(std::uint32_t slot) {
  FlowSlot& s = slots_[slot];
  if (mode_ == RebalanceMode::kFull) {
    advance_to_now();
    const Bytes left = unsent_bytes(s.flow);
    s.flow.completion.cancel();
    if (s.flow.draining) graph_remove(slot);
    release_slot(slot);
    reassign_rates();
    return left;
  }
  const TimePoint now = sim_.now();
  if (!s.flow.draining) {
    // Still in setup: the flow held no capacity, so no rates change.
    const Bytes left = unsent_bytes(s.flow);
    s.flow.completion.cancel();
    release_slot(slot);
    return left;
  }
  if (s.flow.group != kNoGroup) {
    // Grouped member: settle it exactly, then detach — the group re-rates in
    // O(log n) or dissolves if the departure moves the bottleneck.
    settle_flow(slot, now);
    const Bytes left = unsent_bytes(s.flow);
    group_remove_member(s.flow.group, slot, now);
    return left;
  }
  // Only the departing flow is settled; the rest of its component keeps its
  // rates until the flush re-derives them.
  settle_flow(slot, now);
  const Bytes left = unsent_bytes(s.flow);
  s.flow.completion.cancel();
  const std::array<LinkId, kMaxPathLinks> path = s.flow.path;
  const std::uint8_t path_len = s.flow.path_len;
  graph_remove(slot);
  release_slot(slot);
  invalidate(path.data(), path_len);
  return left;
}

void FlowNetwork::finish_flow(std::uint32_t slot) {
  const FlowId id = make_id(slots_[slot].generation, slot);
  auto on_complete = std::move(slots_[slot].flow.on_complete);
  const Bytes left = depart(slot);
  PROPHET_CHECK_MSG(left == Bytes::zero(),
                    "flow completion fired with bytes still pending");
  if (on_complete) on_complete(id);
}

double FlowNetwork::flow_remaining_bytes(FlowId id) {
  const std::ptrdiff_t slot = find_slot(id);
  if (slot < 0) return 0.0;
  if (mode_ == RebalanceMode::kFull) {
    advance_to_now();
  } else {
    settle_flow(static_cast<std::uint32_t>(slot), sim_.now());
  }
  const Flow& f = slots_[static_cast<std::size_t>(slot)].flow;
  return std::ldexp(static_cast<double>(f.size_qb - f.drained_qb), -kQuantumBits);
}

void FlowNetwork::complete_flow(FlowId id) {
  const std::ptrdiff_t found = find_slot(id);
  if (found >= 0) finish_flow(static_cast<std::uint32_t>(found));
}

}  // namespace prophet::net
