// Flow-level network model: a set of nodes exchanging flows whose rates are
// assigned by progressive filling (max-min fairness) — the standard fluid
// approximation of TCP sharing a bottleneck.
//
// Capacity lives in *links*, the unit of contention. Every node owns two
// access links (egress and ingress — the NIC ports of the original
// star-topology model), and the network can additionally hold shared links:
// per-rack leaf-spine uplinks with a configurable capacity, which is where
// oversubscription and cross-job contention live. Each flow traverses a
// deterministic path of links:
//
//   intra-rack / star:  [src.tx, dst.rx]
//   cross-rack:         [src.tx, srcrack.up, dstrack.down, dst.rx]
//
// (a node not assigned to any rack attaches directly to the spine, so only
// its own access links appear on its paths). Progressive filling runs over
// whatever links carry draining flows, so an oversubscribed uplink shared by
// two jobs caps their aggregate rate without any scheduler involvement. A
// star network — no racks — reduces exactly to the original two-port model,
// bit for bit.
//
// This is the substrate under the PS architecture: worker->PS pushes share
// the PS ingress (incast), PS->worker pulls share the PS egress, and
// per-worker limits model heterogeneous clusters (Sec. 5.3).
//
// A flow passes through two phases:
//   1. setup  — latency-bound (per-task overhead + TCP slow-start ramp from
//               TcpCostModel); consumes no link capacity;
//   2. drain  — its bytes drain at the max-min fair rate; rates are
//               recomputed whenever a flow enters/leaves drain or a link
//               capacity changes.
//
// Flows live in a slab: each admitted flow occupies a reusable slot and its
// FlowId encodes {generation, slot}, so admission allocates nothing in
// steady state and stale ids are recognized cheaply.
//
// Rate maintenance is *incremental* and *coalesced per instant*: the network
// keeps the flow<->link contention graph explicit (per-link lists of draining
// flows). A flow arrival/departure or a link capacity/state change settles
// only the departing flow, mutates the graph and marks its links dirty; when
// the simulated instant ends (Simulator::at_instant_end) one flush re-runs
// progressive filling once per connected component reachable from the dirty
// links. A burst of same-instant changes — synchronized pushes finishing
// together, a block's pulls released to every worker at once — therefore
// costs one refill, not one per change: the rates in between would have
// lived for zero simulated time. Flows in other components keep their rates,
// their byte accounting (settled lazily, per flow, against piecewise-constant
// rates) and their already-scheduled completion events, and inside a flushed
// component only flows whose quantized rate changed are settled. Max-min
// allocations are component-local, so the rates are the ones a full
// recompute would produce — a property the differential verification mode
// (`set_verify_rates`) checks bit-for-bit against the retained full
// algorithm after every flush. `RebalanceMode::kFull` keeps the original
// whole-network path alive, eagerly re-rating on every change, as the
// reference baseline (bench/scale measures incremental speedup against it).
//
// Byte accounting is exact fixed point: progress is counted in quanta of
// 2^-kQuantumBits bytes and every rate is quantized once per assignment to
// whole quanta per nanosecond, so the work drained over an integer-ns span
// is an exact integer product. Settlements therefore telescope — crediting
// W(now) - W(mark) in any number of steps sums to one step — which makes
// every byte total, tracker bin and completion time a function of the rate
// trajectory alone, independent of when (or in which mode) settlement runs.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/time.hpp"
#include "common/time_series.hpp"
#include "common/units.hpp"
#include "net/cost_model.hpp"
#include "sim/simulator.hpp"

namespace prophet::net {

using NodeId = std::uint32_t;
using LinkId = std::uint32_t;
using RackId = std::uint32_t;
using FlowId = std::uint64_t;

// A node outside any rack attaches straight to the spine.
inline constexpr RackId kNoRack = 0xffffffffu;

enum class Direction { kTx, kRx };

// How rate reassignment reacts to a contention change. kIncremental re-rates
// only the affected connected components of the flow<->link graph, once per
// simulated instant; kFull re-runs progressive filling over the whole
// network on every change (the original algorithm, kept as the
// reference/bench baseline).
enum class RebalanceMode { kIncremental, kFull };

// Rebalance-engine observability counters, cumulative over the network's
// lifetime. Cheap enough to maintain unconditionally; surfaced through
// ClusterResult / MultiJobResult and the BENCH_scale.json writer so perf
// regressions can be triaged from recorded artifacts instead of reruns.
struct RebalanceStats {
  // Slow-path component rebalances (collect + progressive fill + completion
  // rescheduling); kIncremental runs at most one per component per instant.
  std::uint64_t rebalances = 0;
  // Contention changes absorbed into an already pending end-of-instant
  // flush (kIncremental): each would have been a rebalance of its own had
  // rates been re-derived eagerly.
  std::uint64_t coalesced = 0;
  // Flows walked by those slow-path rebalances (re-rated + their completions
  // rescheduled); rebalances/flows give the mean component size.
  std::uint64_t component_flows = 0;
  // Flow settlements: calls that advanced a draining flow's accounting mark
  // (each one O(1) plus the tracker bins the settled span crosses).
  std::uint64_t flows_settled = 0;
  // Rate-group lifecycle: formations, dissolutions back to the slow path,
  // and events (completion/admission/cancel/capacity change) absorbed by a
  // group in O(log n) without a component rebalance.
  std::uint64_t group_forms = 0;
  std::uint64_t group_dissolves = 0;
  std::uint64_t group_fast_events = 0;
  // Differential verification (set_verify_rates): full-recompute comparisons
  // run and rate mismatches observed. A mismatch aborts the run, so a
  // surviving artifact always records zero — the column exists so a future
  // soft-fail mode has somewhere to report.
  std::uint64_t verify_checks = 0;
  std::uint64_t verify_mismatches = 0;
};

class FlowNetwork {
 public:
  // Longest possible path: access tx, rack uplink, rack downlink, access rx.
  static constexpr std::size_t kMaxPathLinks = 4;

  FlowNetwork(sim::Simulator& sim, TcpCostModel cost_model,
              RebalanceMode mode = RebalanceMode::kIncremental);
  // Withdraws everything the network queued on the simulator — per-flow
  // setup and completion events, rate-group completion events, a pending
  // flush — so the simulator may keep running after the network is gone.
  // Destroy the network before its simulator.
  ~FlowNetwork();
  FlowNetwork(const FlowNetwork&) = delete;
  FlowNetwork& operator=(const FlowNetwork&) = delete;

  [[nodiscard]] RebalanceMode rebalance_mode() const { return mode_; }
  // When enabled (tests), every incremental flush is followed by a full
  // progressive-filling recompute over the whole network and each draining
  // flow's rate is checked bit-identical against it; aborts on divergence.
  void set_verify_rates(bool on) { verify_rates_ = on; }

  NodeId add_node(std::string name, Bandwidth egress, Bandwidth ingress);
  [[nodiscard]] std::size_t node_count() const { return nodes_.size(); }
  [[nodiscard]] const std::string& node_name(NodeId id) const;

  // --- topology: racks and shared links -----------------------------------
  // Adds a rack whose hosts reach the spine through a pair of directed
  // shared links ("<name>.up" / "<name>.down"). Oversubscription is simply
  // uplink < sum of member access rates.
  RackId add_rack(std::string name, Bandwidth uplink, Bandwidth downlink);
  // Places a node in a rack; flows between nodes of different racks (or
  // between a racked and an unracked node) traverse the rack uplinks.
  void assign_rack(NodeId node, RackId rack);
  [[nodiscard]] RackId rack_of(NodeId node) const;
  [[nodiscard]] std::size_t rack_count() const { return racks_.size(); }
  [[nodiscard]] const std::string& rack_name(RackId id) const;
  // kTx: the rack's uplink (toward the spine); kRx: its downlink.
  [[nodiscard]] LinkId rack_link(RackId id, Direction dir) const;

  // --- link-level API ------------------------------------------------------
  // Access links are named "<node>.tx" / "<node>.rx", rack links
  // "<rack>.up" / "<rack>.down".
  [[nodiscard]] std::size_t link_count() const { return links_.size(); }
  [[nodiscard]] const std::string& link_name(LinkId id) const;
  [[nodiscard]] std::optional<LinkId> find_link(std::string_view name) const;
  [[nodiscard]] LinkId node_link(NodeId id, Direction dir) const;
  void set_link_capacity(LinkId id, Bandwidth cap);
  [[nodiscard]] Bandwidth link_capacity(LinkId id) const;
  // A down link contributes zero capacity: its draining flows park at rate
  // zero (they stall without losing progress and resume, re-rated, when the
  // link comes back up). link_capacity() keeps reporting the configured rate.
  void set_link_state(LinkId id, bool up);
  [[nodiscard]] bool link_state(LinkId id) const;
  [[nodiscard]] std::int64_t link_total_bytes(LinkId id);
  [[nodiscard]] Duration link_busy_time(LinkId id);
  void attach_link_tracker(LinkId id, BinnedSeries* series);

  // The deterministic link path a flow from `src` to `dst` traverses now.
  [[nodiscard]] std::vector<LinkId> route(NodeId src, NodeId dst) const;

  // --- node-level shims over the access links ------------------------------
  // Dynamic capacity change (takes effect immediately; in-flight flows are
  // re-rated). Models the varying-bandwidth experiments of Sec. 5.3.
  void set_capacity(NodeId id, Direction dir, Bandwidth cap);
  [[nodiscard]] Bandwidth capacity(NodeId id, Direction dir) const;

  // Fault injection: takes both access links of the node down/up at once.
  // Setup-phase delays of already-started flows still elapse while down.
  void set_link_up(NodeId id, bool up);
  [[nodiscard]] bool link_up(NodeId id) const;

  // Starts a flow of `size` bytes from `src` to `dst`. `on_complete` fires
  // (once) when the last byte drains. Zero-size flows complete after setup.
  FlowId start_flow(NodeId src, NodeId dst, Bytes size,
                    std::function<void(FlowId)> on_complete);

  // Aborts a flow without firing its completion callback (transport loss or
  // a crashed endpoint). Returns the bytes that had not yet drained, rounded
  // up to whole bytes — what a byte-range-resuming retry would still have to
  // send. Stale ids are a no-op returning zero.
  Bytes cancel_flow(FlowId id);
  // Bytes not yet drained, settled to now(); zero for stale ids. Reported
  // with the fixed-point fraction so progress watchdogs see sub-byte movement.
  [[nodiscard]] double flow_remaining_bytes(FlowId id);

  [[nodiscard]] bool flow_active(FlowId id) const { return find_slot(id) >= 0; }
  [[nodiscard]] std::size_t active_flow_count() const { return active_.size(); }
  // Current drain rate; zero while in setup. Rates are re-derived when the
  // instant ends, so reading one mid-instant, after a contention change and
  // before the flush, is a checked error (the simulator's run, run_until
  // and step all return with the instant flushed).
  [[nodiscard]] Bandwidth flow_rate(FlowId id) const;

  // --- observability ------------------------------------------------------
  // Optional per-node throughput series: each bin receives the whole bytes
  // the link's flows drained during the bin's span, so a tracker's bin sum
  // equals the link's total_bytes (within the series horizon). Attach before
  // the link carries traffic.
  void attach_tracker(NodeId id, Direction dir, BinnedSeries* series);
  // Whole bytes moved through the access link up to the current simulation
  // time (each flow's drained quanta, truncated to bytes; a finished flow
  // counts its exact size). Not const: in-flight flows are settled first.
  [[nodiscard]] std::int64_t total_bytes(NodeId id, Direction dir);
  // Cumulative time the access link had at least one draining flow, to now().
  [[nodiscard]] Duration busy_time(NodeId id, Direction dir);
  [[nodiscard]] const RebalanceStats& rebalance_stats() const { return stats_; }
  // Live rate groups (see the RateGroup comment below); exposed for tests.
  [[nodiscard]] std::size_t rate_group_count() const { return groups_live_; }

 private:
  // Fixed-point work: quanta of 2^-kQuantumBits bytes (suffix _qb); rates
  // are whole quanta per nanosecond (suffix _qbpns). 52 fractional bits keep
  // a quantized rate within 1e-13 (relative) of its double even at a
  // 1024-way share of 10 Gbps, and cap a single link at 2^11 bytes/ns
  // (~16 Tbps). A work value is bytes * 2^52, hence the 128-bit type.
  __extension__ typedef __int128 Quanta;
  static constexpr int kQuantumBits = 52;

  // The unit of capacity and contention (an access port or a shared rack
  // uplink). `up` is per-link so a rack uplink can fail independently of the
  // hosts behind it. `busy_active`/`busy_mark` accrue busy time exactly
  // between contention changes (a link is busy while it carries at least one
  // positive-rate draining flow).
  struct Link {
    std::string name;
    Bandwidth cap;
    bool up = true;
    bool busy_active = false;
    // Queued in dirty_links_ for the pending flush.
    bool dirty = false;
    std::int64_t total_bytes = 0;
    Duration busy{};
    TimePoint busy_mark{};
    BinnedSeries* tracker = nullptr;
  };
  struct Node {
    std::string name;
    LinkId tx;
    LinkId rx;
    RackId rack = kNoRack;
  };
  struct Rack {
    std::string name;
    LinkId up;
    LinkId down;
  };
  struct Flow {
    NodeId src;
    NodeId dst;
    Quanta size_qb = 0;
    // Work drained up to `last_settled` (never above size_qb).
    Quanta drained_qb = 0;
    bool draining = false;
    double rate = 0.0;  // bytes/s from progressive filling, valid while draining
    // `rate` quantized at assignment; the only rate byte accounting reads.
    std::int64_t rate_qbpns = 0;
    // The last assignment changed rate_qbpns (its completion must move).
    bool rerated = false;
    // The link path, fixed at admission (src.tx first, dst.rx last).
    std::array<LinkId, kMaxPathLinks> path;
    std::uint8_t path_len = 0;
    // This flow's index inside link_flows_[path[i]] while draining, so the
    // contention graph supports O(1) swap-and-pop removal.
    std::array<std::uint32_t, kMaxPathLinks> link_pos;
    // Admission order, the deterministic tie-break every walk uses.
    std::uint64_t admission = 0;
    // Byte accounting is lazy: drained work and link totals are settled per
    // flow when its component is next touched.
    TimePoint last_settled{};
    // Rate-group membership (kIncremental only): while grouped, `rate` and
    // `rate_qbpns` may be stale — the live rate is the group's — and the
    // flow settles against the group's shared work clock, whose value at
    // `last_settled` is `group_mark_qb`.
    std::uint32_t group = kNoGroup;
    Quanta group_mark_qb = 0;
    std::function<void(FlowId)> on_complete;
    // The setup event while in setup, then the completion event (none while
    // grouped or parked at rate zero).
    sim::EventHandle completion;
  };
  // One slab entry; `generation` advances when the slot is recycled so stale
  // FlowIds stop resolving. `active_pos` is the slot's index in active_
  // (swap-and-pop slot->index map).
  struct FlowSlot {
    Flow flow;
    std::uint32_t generation = 1;
    std::uint32_t active_pos = 0;
    bool occupied = false;
  };
  // Per-link scratch for progressive filling (persistent across calls).
  struct LinkFill {
    double cap = 0.0;
    int unfrozen = 0;
    bool tight = false;  // saturates in the current filling round
  };

  // --- rate groups (kIncremental fast path) --------------------------------
  // When one link is the common bottleneck of an entire component — the PS
  // incast shape — progressive filling gives every flow the identical share
  // cap/n. Such a component is promoted to a *rate group*: members stop
  // carrying individual completion events and per-event settlement; instead
  // the group keeps (a) a shared per-member work clock W(t), the work each
  // member drained since formation, (b) a next-finisher heap ordered by
  // virtual finish (W at join + work remaining at join), and (c) one
  // simulator event at the head's completion. A member settles in O(1)
  // as W(now) - W(mark); W at each tracker-bin edge the group crosses is
  // recorded so tracker credits cost O(bins spanned). A completion/admission/
  // cancel costs O(log n) heap work plus O(1) bookkeeping; anything that can
  // change the bottleneck structure (a slow-path change dirtying one of its
  // links, a link going down, the risen share crossing another link's)
  // dissolves the group back to the slow path, whose flush re-forms it if
  // the shape still qualifies. A group always spans its whole component.
  //
  // Next-finisher heap entry; lazy deletion (an entry is live while its slot
  // still holds the same admission and membership).
  struct GroupEntry {
    Quanta vfinish_qb;
    std::uint64_t admission;
    std::uint32_t slot;
  };
  struct RateGroup {
    LinkId anchor = 0;
    std::uint32_t n = 0;  // live members
    double rate = 0.0;    // current per-member share, bit-equal to fill's cap/n
    std::int64_t rate_qbpns = 0;
    // Conservative lower bound on every non-anchor member-link fair share;
    // the group stays valid while its rate never exceeds this.
    double min_other_share = 0.0;
    // W(t) = seg_work_qb + rate_qbpns * (t - seg_start) for t >= seg_start.
    TimePoint seg_start{};
    Quanta seg_work_qb = 0;
    // The network's tracker bin grid at formation (0: no tracker), and W at
    // grid edges first_edge, first_edge + 1, ... up to seg_start.
    std::int64_t edge_width_ns = 0;
    std::int64_t first_edge = 0;
    std::vector<Quanta> edge_work_qb;
    sim::EventHandle completion;  // the head's finish
    std::vector<GroupEntry> heap;  // binary min-heap on (vfinish, admission)
    bool live = false;
  };
  static constexpr std::uint32_t kNoGroup = 0xffffffffu;
  // Components below this size stay on the slow path: tiny refills are cheap
  // and the small pinned-golden scenarios keep their exact event sequences.
  static constexpr std::size_t kMinGroupFlows = 8;
  // tracker_bin_ns_ once two trackers disagree on bin width (groups then
  // stay off: a group records its work clock on one bin grid).
  static constexpr std::int64_t kMixedTrackerWidths = -1;

  static constexpr FlowId make_id(std::uint32_t generation, std::uint32_t slot) {
    return (static_cast<FlowId>(generation) << 32) | slot;
  }
  // Slot index for a live id, or -1 if the id is stale/unknown.
  [[nodiscard]] std::ptrdiff_t find_slot(FlowId id) const;

  LinkId add_link(std::string name, Bandwidth cap);
  Link& link(LinkId id);
  [[nodiscard]] const Link& link(LinkId id) const;
  [[nodiscard]] const Link& access_link(NodeId id, Direction dir) const;
  // Writes the current path into `out`, returns its length.
  std::uint8_t compute_path(NodeId src, NodeId dst,
                            std::array<LinkId, kMaxPathLinks>& out) const;

  // --- incremental engine --------------------------------------------------
  // Contention-graph maintenance (draining flows only).
  void graph_insert(std::uint32_t slot);
  void graph_remove(std::uint32_t slot);
  // BFS over the contention graph from `seed` into comp_links_/comp_flows_
  // (flows sorted by admission). Links and flows are stamped with epoch_,
  // which the caller advances once per pass: one pass may collect several
  // components, and stamps from earlier ones are never revisited.
  void collect_component(LinkId seed);
  // Credits the flow's drained bytes to its links for [last_settled, now]:
  // O(1) plus the tracker bins the span crosses, grouped or not.
  void settle_flow(std::uint32_t slot, TimePoint now);
  // Credits work drained over [from, to] (drained_qb went `from_qb` ->
  // `to_qb`) to each path link's byte total and tracker; `work_at(t_ns)`
  // gives drained_qb at an interior tracker-bin edge.
  template <typename WorkAt>
  void credit_links(const Flow& f, TimePoint from, TimePoint to, Quanta from_qb,
                    Quanta to_qb, WorkAt&& work_at);
  // Assigns a filling rate and its quantized twin.
  static void set_flow_rate(Flow& f, double rate);
  // set_flow_rate for a refill: a flow whose quantized rate changes is first
  // settled to `now` at its old rate (unchanged ones need no settlement —
  // exact work telescopes across the instant).
  void rerate_flow(std::uint32_t slot, double rate, TimePoint now);
  // bytes/s -> whole quanta per ns (at least one for any positive rate).
  static std::int64_t quantize_rate(double rate);
  // Work truncated to whole bytes.
  static std::int64_t whole_bytes(Quanta work_qb) {
    return static_cast<std::int64_t>(work_qb >> kQuantumBits);
  }
  // Work the flow still has to drain, rounded up to whole bytes.
  static Bytes unsent_bytes(const Flow& f);
  // Whole nanoseconds until `remaining_qb` drains at `rate_qbpns` (> 0),
  // rounded up: the first instant at which the work is done.
  static Duration drain_time(Quanta remaining_qb, std::int64_t rate_qbpns);
  // Accrues the link's busy time to `now`.
  void settle_link_busy(LinkId id, TimePoint now);
  // Records a contention change on `links` (after the graph/capacity
  // mutation): dissolves any rate group on them, marks them dirty and
  // queues the end-of-instant flush if none is pending.
  void invalidate(const LinkId* links, std::size_t n);
  // End-of-instant hook: one collect + refill per component reachable from
  // the dirty links, then (verify mode) the full differential check.
  void flush();
  // Progressive filling over `flow_slots` (admission-sorted, draining);
  // set_rate(slot, rate) receives each flow's rate once. Uses fill_/scratch.
  template <typename SetRate>
  void progressive_fill(const std::vector<std::uint32_t>& flow_slots,
                        SetRate&& set_rate);
  // Progressive filling over every draining flow (gathered into
  // all_draining_), one connected component at a time.
  template <typename SetRate>
  void fill_all_components(SetRate&& set_rate);
  // Filling + busy-flag refresh for comp_flows_, then rate-group promotion
  // or, failing that, completion rescheduling.
  void refill_component();
  // Moves one draining flow's completion event to its ETA at the current
  // rate; a pending event at an unchanged quantized rate stays put.
  void reschedule_completion(std::uint32_t slot);
  // Asserts every draining flow's rate matches a full recompute bit-for-bit.
  void verify_against_full();

  // --- rate-group engine ---------------------------------------------------
  // The group (if any) owning link `id`'s draining flows.
  [[nodiscard]] std::uint32_t group_of_link(LinkId id) const;
  // Promotes comp_flows_/comp_links_ to a rate group when the shape
  // qualifies (returns whether it did); called by every slow-path refill
  // once the rates are written.
  bool maybe_form_group();
  // The group's work clock at `t`: from the live segment for t >= seg_start,
  // else from the recorded tracker-bin edges (t must be a grid edge then).
  [[nodiscard]] static Quanta group_work_at(const RateGroup& g, std::int64_t t_ns);
  // Boundary: record the bin edges the closing segment crossed, then start a
  // new segment at `rate`.
  static void group_set_rate(RateGroup& g, double rate, TimePoint now);
  void group_heap_push(RateGroup& g, const GroupEntry& e);
  void group_heap_pop(RateGroup& g);
  // Drops stale heap entries; returns the live head slot or -1 if empty.
  std::ptrdiff_t group_heap_head(std::uint32_t gid);
  // Reschedules the group's completion event at its head's finish.
  void group_rearm(std::uint32_t gid, TimePoint now);
  // Fast-path admission of a settled, not-yet-draining flow; returns false
  // (leaving all state untouched) when the arrival must take the slow path.
  bool group_try_admit(std::uint32_t slot, TimePoint now);
  // Fast-path member removal (completion and cancellation): detaches the
  // member, then re-rates, dissolves, or destroys the group as needed.
  void group_remove_member(std::uint32_t gid, std::uint32_t slot, TimePoint now);
  // Fast-path capacity change on a group link; false -> caller rebalances.
  bool group_capacity_change(std::uint32_t gid, LinkId id);
  // Settles every member to now, restores per-flow rates/completions being
  // managed eagerly again, and frees the group (members keep draining; the
  // caller has dirtied a link of theirs, so the flush re-rates them).
  void dissolve_group(std::uint32_t gid);
  void group_destroy(std::uint32_t gid);
  // Verify mode: refresh member rates, then run the full differential check
  // unless a flush is pending (other components' rates are stale until it
  // runs, for zero simulated time; the flush verifies them all).
  void group_verify(std::uint32_t gid);
  // Completion callback: the group head finished.
  void group_head_finished(std::uint32_t gid);
  // Slot ordering by admission, the deterministic walk order everywhere.
  auto by_admission() const {
    return [this](std::uint32_t a, std::uint32_t b) {
      return slots_[a].flow.admission < slots_[b].flow.admission;
    };
  }
  // All draining flow slots, in admission order (full/verify paths).
  void gather_draining_by_admission(std::vector<std::uint32_t>& out) const;
  void remove_active(std::uint32_t slot);

  // --- original full-recompute path (RebalanceMode::kFull) -----------------
  // Credits drained bytes / busy time for [last_update_, now] at current
  // rates for every flow, then sets last_update_ = now.
  void advance_to_now();
  // Recomputes max-min fair rates and reschedules completion events for the
  // whole network.
  void reassign_rates();

  void enter_drain(FlowId id);
  void complete_flow(FlowId id);
  // Settles and detaches a flow in either mode, re-rating whatever it shared
  // capacity with; returns its unsent bytes.
  Bytes depart(std::uint32_t slot);
  // depart() for a drained flow, then its completion callback.
  void finish_flow(std::uint32_t slot);
  void release_slot(std::uint32_t slot);

  sim::Simulator& sim_;
  TcpCostModel cost_model_;
  RebalanceMode mode_;
  bool verify_rates_ = false;
  std::vector<Node> nodes_;
  std::vector<Rack> racks_;
  std::vector<Link> links_;
  std::vector<FlowSlot> slots_;
  std::vector<std::uint32_t> free_slots_;
  // Slots of admitted flows, unordered (swap-and-pop via FlowSlot::active_pos;
  // deterministic walks sort by Flow::admission instead).
  std::vector<std::uint32_t> active_;
  std::uint64_t next_admission_ = 0;
  // Full-recompute mode's global settlement clock.
  TimePoint last_update_{};
  // Links whose contention changed during the current instant (each once),
  // and the queued flush that re-rates their components.
  std::vector<LinkId> dirty_links_;
  bool flush_pending_ = false;
  sim::HookId flush_hook_ = 0;

  // The explicit contention graph: draining flows on each link.
  std::vector<std::vector<std::uint32_t>> link_flows_;

  // Persistent scratch (sized to the link/flow counts, reused every call).
  std::vector<LinkFill> fill_;
  std::vector<std::uint32_t> unfrozen_;
  std::vector<LinkId> active_links_;
  // Component-BFS scratch: visited stamps + the collected component.
  std::uint64_t epoch_ = 0;
  std::vector<std::uint64_t> link_epoch_;
  std::vector<std::uint64_t> slot_epoch_;
  std::vector<LinkId> comp_links_;
  std::vector<std::uint32_t> comp_flows_;
  // Full/verify-path scratch.
  std::vector<std::uint32_t> all_draining_;
  std::vector<double> verify_rate_;
  // Rate-group slab (freed groups keep their vector capacity for reuse).
  std::vector<RateGroup> groups_;
  std::vector<std::uint32_t> free_groups_;
  std::size_t groups_live_ = 0;
  // Bin width shared by every attached tracker (0: none attached).
  std::int64_t tracker_bin_ns_ = 0;
  RebalanceStats stats_;
};

}  // namespace prophet::net
