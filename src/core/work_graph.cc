#include "core/work_graph.h"

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>

#include "common/check.h"
#include "common/simd.h"
#include "common/stopwatch.h"
#include "core/builder.h"
#include "core/successor.h"
#include "obs/explain.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace rfidclean::internal_core {

namespace {

// The backward sweep feeds the CSR records to simd::GatherProducts as
// strided typed arrays; these pin the layouts the strides encode.
constexpr std::size_t kEdgeStrideDoubles = sizeof(WorkEdge) / sizeof(double);
constexpr std::size_t kEdgeStrideInts =
    sizeof(WorkEdge) / sizeof(std::int32_t);
constexpr std::size_t kNodeStrideDoubles = sizeof(WorkNode) / sizeof(double);
static_assert(kEdgeStrideDoubles == 2 && kEdgeStrideInts == 4 &&
                  offsetof(WorkEdge, to) == 0 &&
                  offsetof(WorkEdge, probability) == sizeof(double),
              "GatherProducts strides assume this WorkEdge layout");
static_assert(kNodeStrideDoubles == 5 &&
                  offsetof(WorkNode, survived) == 3 * sizeof(double),
              "GatherProducts strides assume this WorkNode layout");

/// Folds the arena's per-build intern counters into the obs sinks.
/// ConditionAndCompact is the one place that sees every build's arena
/// (builder and streaming both funnel through it), so the arena itself
/// never needs thread-local access.
void FlushKeyArenaStats(const NodeKeyArena& keys) {
  const NodeKeyArena::InternStats arena = keys.intern_stats();
  obs::Add(obs::Counter::kForwardKeysInterned, keys.size());
  obs::Add(obs::Counter::kKeyInternCalls, arena.intern_calls);
  obs::Add(obs::Counter::kKeyProbeSteps, arena.probe_steps);
  obs::ObserveValue(obs::Dist::kKeyProbeMax, arena.probe_max);
  if (arena.persistent_capacity > 0) {
    obs::ObserveValue(obs::Dist::kKeyOccupancyPct,
                      100 * arena.persistent_entries /
                          arena.persistent_capacity);
  }
}

/// Retention cap of the per-tag killed-candidate list; overflow is counted
/// in killed_candidates_truncated instead of growing the summary without
/// bound on adversarial inputs.
constexpr std::size_t kMaxKilledCandidatesPerTag = 4096;

/// Carry-over of the attribution pass between the pre-sweep analysis and
/// the post-compaction finalization: the summary under assembly plus the
/// per-node a-priori forward mass A(n), which the compaction probe needs
/// after the sweep has overwritten the in-place labels.
struct ExplainPassState {
  obs::ExplainTagSummary summary;
  std::vector<double> prior;
};

/// The attribution pass (docs/ALGORITHM.md §14). Runs over the pristine
/// forward-phase graph — a-priori edge labels, untouched survival masses —
/// before the backward sweep mutates them in place, and only computes; the
/// graph is never written.
///
/// Quantities, all plain scalar arithmetic (this is a side computation, so
/// it does not need the sweep's bit-reproducible reduction order):
///   A(n)  a-priori forward mass: A(src) = q(src), A(k) = Σ_n A(n)·p(k).
///   L_t   layer total Σ_{n ∈ layer t} A(n), with L_{-1} := 1.
///   S(n)  unscaled surviving suffix mass: S = 1 at the last layer,
///         S(n) = Σ_k p(k)·S(k) below it.
///
/// Mass is attributed at the root cause. A preflight-pruned candidate
/// (t, l, q) removes q·L_{t-1}; a forward rejection of candidate (t, l, q)
/// by parent n removes A(n)·q — recorded per rejecting parent *group*
/// (all parents at one location in one δ-class reject identically, see the
/// forward-rejection loop) with the group's summed mass, so the per-layer
/// identity L_t = L_{t-1} − Σ(preflight) − Σ(forward) still telescopes
/// to attributed + surviving = 1. Backward kills (edges into S = 0 nodes)
/// and compaction strands carry informational masses but no root-cause
/// attribution: the mass they remove was already attributed to the later
/// forward/preflight decisions that emptied the suffix.
std::unique_ptr<ExplainPassState> RunExplainAttribution(
    const WorkGraph& work, const ExplainBuildContext& ctx) {
  auto state = std::make_unique<ExplainPassState>();
  obs::ExplainTagSummary& summary = state->summary;
  summary.tag = obs::ExplainCurrentTag();
  const long long tag = summary.tag;
  const std::vector<WorkNode>& nodes = work.nodes;
  const std::vector<WorkEdge>& edges = work.edges;
  const Timestamp length = work.num_layers();
  const std::size_t num_nodes = nodes.size();
  const std::size_t num_ticks =
      std::min(static_cast<std::size_t>(length), ctx.ticks.size());
  auto layer = [&work](Timestamp t) {
    return std::pair<std::int32_t, std::int32_t>(
        work.layer_begin[static_cast<std::size_t>(t)],
        work.layer_begin[static_cast<std::size_t>(t) + 1]);
  };
  // Per-node locations, resolved once: the tick and backward loops below
  // look locations up per node and per edge target, and chasing the
  // node -> key-arena indirection there costs more than this sequential
  // prefetch-friendly pass over the whole graph.
  // Key projections (location, δ = ⊥?), resolved per key id first and per
  // node id second. Fetching full NodeKeys in node order is a random read
  // of a fat struct per node — a cache miss each; streaming the arena once
  // in key-id order and indirecting through the resulting 4-byte tables
  // keeps every access either sequential or L2-resident.
  const std::size_t num_keys = work.keys.size();
  std::vector<LocationId> key_location(num_keys);
  std::vector<char> key_delta_bottom(num_keys);
  for (std::size_t kid = 0; kid < num_keys; ++kid) {
    const NodeKey& key = work.keys.key(static_cast<std::int32_t>(kid));
    key_location[kid] = key.location;
    key_delta_bottom[kid] = key.delta == kDeltaBottom ? 1 : 0;
  }
  std::vector<LocationId> node_location(num_nodes);
  std::vector<char> node_delta_bottom(num_nodes);
  auto location_of = [&node_location](std::int32_t id) {
    return node_location[static_cast<std::size_t>(id)];
  };
  std::vector<double>& prior = state->prior;
  prior.assign(num_nodes, 0.0);
  {
    const auto [begin, end] = layer(0);
    for (std::int32_t id = begin; id < end; ++id) {
      prior[static_cast<std::size_t>(id)] =
          nodes[static_cast<std::size_t>(id)].source_probability;
    }
  }
  // Filled by the main forward walk below; A(n) propagation rides on the
  // same edge slices that walk already traverses for kill detection.
  std::vector<double> layer_mass(static_cast<std::size_t>(length), 0.0);

  // S(n), unscaled. Same layer-slab gather the conditioning sweep below
  // uses (p(k)·S(k) over a contiguous CSR edge slice), so it borrows the
  // same SIMD kernel; the explain survival table is stride-1, which keeps
  // the 32-bit lane scaling of the gather trivially in range.
  std::vector<double> survival(num_nodes, 0.0);
  {
    const auto [begin, end] = layer(length - 1);
    for (std::int32_t id = begin; id < end; ++id) {
      const std::size_t i = static_cast<std::size_t>(id);
      const std::size_t kid = static_cast<std::size_t>(nodes[i].key_id);
      node_location[i] = key_location[kid];
      node_delta_bottom[i] = key_delta_bottom[kid];
      survival[i] = 1.0;
    }
  }
  std::vector<double> survival_products;
  for (Timestamp t = length - 2; t >= 0; --t) {
    const auto [begin, end] = layer(t);
    if (begin == end) continue;
    const std::size_t slab_begin = static_cast<std::size_t>(
        nodes[static_cast<std::size_t>(begin)].edge_begin);
    const WorkNode& last = nodes[static_cast<std::size_t>(end) - 1];
    const std::size_t slab_n = static_cast<std::size_t>(last.edge_begin) +
                               static_cast<std::size_t>(last.edge_count) -
                               slab_begin;
    survival_products.resize(slab_n);
    if (slab_n > 0) {
      simd::GatherProducts(&edges[slab_begin].probability, kEdgeStrideDoubles,
                           &edges[slab_begin].to, kEdgeStrideInts,
                           survival.data(), 1, slab_n,
                           survival_products.data());
    }
    for (std::int32_t id = begin; id < end; ++id) {
      const std::size_t i = static_cast<std::size_t>(id);
      const WorkNode& node = nodes[i];
      // Piggyback the key projections on this sweep: it is the one pass
      // that touches every remaining node before the forward walk needs
      // locations for edge targets one layer ahead.
      const std::size_t kid = static_cast<std::size_t>(node.key_id);
      node_location[i] = key_location[kid];
      node_delta_bottom[i] = key_delta_bottom[kid];
      survival[i] = simd::BlockedSumSkipZero4(
          survival_products.data() +
              (static_cast<std::size_t>(node.edge_begin) - slab_begin),
          static_cast<std::size_t>(node.edge_count));
    }
  }

  // Final survival: S > 0 and reachable from a source with A > 0 through
  // S > 0 targets — the pass's own mirror of the compaction criterion.
  // Only layer 0 is seeded here; each tick of the main loop below extends
  // the frontier one layer while it is already walking that layer's edge
  // slices, instead of paying a separate whole-graph propagation pass.
  std::vector<char> final_alive(num_nodes, 0);
  {
    const auto [begin, end] = layer(0);
    for (std::int32_t id = begin; id < end; ++id) {
      const std::size_t i = static_cast<std::size_t>(id);
      if (prior[i] > 0.0 && survival[i] > 0.0) final_alive[i] = 1;
      summary.surviving_mass += prior[i] * survival[i];
    }
  }

  const obs::ExplainOptions options = obs::ExplainSessionOptions();
  const std::size_t num_locations =
      ctx.successors != nullptr
          ? ctx.successors->constraints().num_locations()
          : 0;
  // Per-location scratch, stamped instead of cleared per tick/parent.
  std::vector<char> loc_alive(num_locations, 0);
  std::vector<double> loc_dead(num_locations, 0.0);
  std::vector<std::int32_t> loc_stamp(num_locations, -1);

  // Dead-edge aggregation per (from location, to location) pair, stamped
  // per tick. Quadratic in locations, but the constraint set already
  // stores two such tables, so this adds no new asymptotic footprint.
  std::vector<double> dead_mass(num_locations * num_locations, 0.0);
  std::vector<std::int32_t> dead_stamp(num_locations * num_locations, -1);
  std::vector<std::size_t> dead_slots;
  std::vector<double> reject_mass;
  std::vector<double> reject_best;
  std::vector<obs::ExplainConstraint> reject_cause;

  // Parent groups, one per location present at t-1, accumulated while the
  // main walk below traverses the parent layer (one iteration ahead of the
  // tick they serve) and consumed at tick t — hence the double buffer. A
  // Definition-3 rejection depends only on (parent location, candidate
  // location) for conditions 2 and the direct-TT completion, and only on
  // δ ≠ ⊥ for condition 4 — so all parents at a location fall into three
  // classes that reject (or emit) identically except for condition 5,
  // which reads the per-node TL. See the forward-rejection loop below.
  struct ParentGroups {
    std::int32_t built_for = -1;  // tick these groups serve, -1 = none
    std::size_t ncand = 0;
    std::vector<std::int32_t> grp_stamp;
    std::vector<double> grp_total;
    std::vector<double> grp_lat;
    std::vector<double> grp_bot;
    std::vector<std::uint32_t> grp_lat_count;
    std::vector<std::uint32_t> grp_bot_count;
    std::vector<std::int32_t> present;
    std::vector<std::int32_t> cand_index;
    std::vector<std::int32_t> cand_stamp;
    std::vector<double> emitted_bot;
    std::vector<std::uint32_t> emitted_bot_count;
  };
  ParentGroups group_buffers[2];
  for (ParentGroups& g : group_buffers) {
    g.grp_stamp.assign(num_locations, -1);
    g.grp_total.assign(num_locations, 0.0);
    g.grp_lat.assign(num_locations, 0.0);
    g.grp_bot.assign(num_locations, 0.0);
    g.grp_lat_count.assign(num_locations, 0);
    g.grp_bot_count.assign(num_locations, 0);
    g.cand_index.assign(num_locations, -1);
    g.cand_stamp.assign(num_locations, -1);
  }
  ParentGroups* cur = &group_buffers[0];
  ParentGroups* nxt = &group_buffers[1];

  // Top-K killed edges, maintained sorted under the ranking comparator
  // (mass descending, structural tie-break) with bounded insertion — the
  // result matches a full stable_sort + truncate of every recorded edge,
  // at O(log K + K) per insert instead of a million-entry sort.
  const auto edge_before =
      [](const obs::ExplainKilledEdge& a, const obs::ExplainKilledEdge& b) {
        if (a.mass != b.mass) return a.mass > b.mass;
        if (a.time != b.time) return a.time < b.time;
        if (a.from_location != b.from_location) {
          return a.from_location < b.from_location;
        }
        if (a.to_location != b.to_location) {
          return a.to_location < b.to_location;
        }
        return static_cast<int>(a.phase) < static_cast<int>(b.phase);
      };
  std::vector<obs::ExplainKilledEdge> top_edges;
  top_edges.reserve(options.top_edges + 1);
  const auto push_top_edge = [&](const obs::ExplainKilledEdge& e) {
    if (top_edges.size() >= options.top_edges) {
      // upper_bound inserts after equivalents, so an element that does not
      // strictly precede the current tail would sort at index >= K — skip.
      if (top_edges.empty() || !edge_before(e, top_edges.back())) return;
    }
    top_edges.insert(
        std::upper_bound(top_edges.begin(), top_edges.end(), e, edge_before),
        e);
    if (top_edges.size() > options.top_edges) top_edges.pop_back();
  };

  summary.ticks.resize(num_ticks);
  for (std::size_t t = 0; t < static_cast<std::size_t>(length); ++t) {
    // Layers past the context's ticks (never in practice — both builders
    // hand over one entry per layer) still need the walk below so no dead
    // edge goes unrecorded, but carry no candidate bookkeeping.
    const bool is_tick = t < num_ticks;
    // Parent groups for tick t+1 ride on this layer walk — this layer is
    // tick t+1's parent layer — and are consumed one iteration later.
    const bool grouping = ctx.successors != nullptr && t + 1 < num_ticks;
    const std::int32_t nstamp = static_cast<std::int32_t>(t) + 1;
    if (grouping) {
      const std::vector<ExplainTickCandidate>& next_candidates =
          ctx.ticks[t + 1];
      nxt->built_for = nstamp;
      nxt->ncand = next_candidates.size();
      nxt->present.clear();
      nxt->emitted_bot.assign(num_locations * nxt->ncand, 0.0);
      nxt->emitted_bot_count.assign(num_locations * nxt->ncand, 0);
      for (std::size_t i = 0; i < nxt->ncand; ++i) {
        const std::size_t l =
            static_cast<std::size_t>(next_candidates[i].location);
        if (l >= num_locations) continue;  // defensive: context mismatch
        nxt->cand_stamp[l] = nstamp;
        nxt->cand_index[l] = static_cast<std::int32_t>(i);
      }
    } else {
      nxt->built_for = -1;
    }

    // One walk over this layer's edge slices does all the forward work:
    // A(n) propagation into layer t+1 and the layer mass, per-location
    // node state for the killed-candidate resolution, the final_alive
    // frontier extension (seeded at layer 0 above), backward kills —
    // edges into nodes with no surviving suffix — aggregated per location
    // pair, and the parent-group masses for tick t+1, including the
    // emitted δ = ⊥ mass per candidate from the same edge slices.
    dead_slots.clear();
    double total = 0.0;
    const auto [begin, end] = layer(static_cast<Timestamp>(t));
    for (std::int32_t id = begin; id < end; ++id) {
      const std::size_t i = static_cast<std::size_t>(id);
      const std::size_t l = static_cast<std::size_t>(location_of(id));
      const double mass = prior[i];
      total += mass;
      if (is_tick && l < num_locations) {
        if (loc_stamp[l] != static_cast<std::int32_t>(t)) {
          loc_stamp[l] = static_cast<std::int32_t>(t);
          loc_alive[l] = 0;
          loc_dead[l] = 0.0;
        }
        if (final_alive[i] != 0) {
          loc_alive[l] = 1;
        } else {
          loc_dead[l] += mass;
        }
      }
      // δ = ⊥ parents additionally track emitted mass per candidate slot;
      // both sums accumulate in the same node order, so a fully emitting
      // group subtracts to exactly zero in the rejection analysis below.
      bool emit_bot = false;
      std::size_t emit_base = 0;
      if (grouping && l < num_locations) {
        if (nxt->grp_stamp[l] != nstamp) {
          nxt->grp_stamp[l] = nstamp;
          nxt->grp_total[l] = 0.0;
          nxt->grp_lat[l] = 0.0;
          nxt->grp_bot[l] = 0.0;
          nxt->grp_lat_count[l] = 0;
          nxt->grp_bot_count[l] = 0;
          nxt->present.push_back(static_cast<std::int32_t>(l));
        }
        nxt->grp_total[l] += mass;
        if (!node_delta_bottom[i]) {
          nxt->grp_lat[l] += mass;
          ++nxt->grp_lat_count[l];
        } else {
          nxt->grp_bot[l] += mass;
          ++nxt->grp_bot_count[l];
          emit_bot = true;
          emit_base = l * nxt->ncand;
        }
      }
      const WorkNode& node = nodes[i];
      const WorkEdge* out =
          edges.data() + static_cast<std::size_t>(node.edge_begin);
      const bool alive = final_alive[i] != 0;
      for (std::int32_t k = 0; k < node.edge_count; ++k) {
        const std::size_t to = static_cast<std::size_t>(out[k].to);
        prior[to] += mass * out[k].probability;
        if (emit_bot) {
          const std::size_t to_l =
              static_cast<std::size_t>(location_of(out[k].to));
          if (to_l < num_locations && nxt->cand_stamp[to_l] == nstamp) {
            const std::size_t slot =
                emit_base + static_cast<std::size_t>(nxt->cand_index[to_l]);
            nxt->emitted_bot[slot] += mass;
            ++nxt->emitted_bot_count[slot];
          }
        }
        if (survival[to] > 0.0) {
          if (alive && out[k].probability > 0.0) final_alive[to] = 1;
          continue;
        }
        const std::size_t to_l =
            static_cast<std::size_t>(location_of(out[k].to));
        if (l >= num_locations || to_l >= num_locations) continue;
        const std::size_t slot = l * num_locations + to_l;
        if (dead_stamp[slot] != static_cast<std::int32_t>(t)) {
          dead_stamp[slot] = static_cast<std::int32_t>(t);
          dead_mass[slot] = 0.0;
          dead_slots.push_back(slot);
        }
        dead_mass[slot] += mass * out[k].probability;
      }
    }
    layer_mass[t] = total;
    if (!is_tick) {
      // Tail layer: record backward kills only, then rotate the buffers.
      for (const std::size_t slot : dead_slots) {
        const obs::ExplainKilledEdge dead{
            static_cast<std::int32_t>(t) + 1,
            static_cast<LocationId>(slot / num_locations),
            static_cast<LocationId>(slot % num_locations),
            obs::ExplainPhase::kBackward, obs::ExplainConstraint::kPropagated,
            dead_mass[slot]};
        obs::RecordExplainEvent({tag, dead.time, dead.from_location,
                                 dead.to_location, dead.phase, dead.constraint,
                                 dead.mass});
        ++summary.phase_kills[static_cast<int>(obs::ExplainPhase::kBackward)];
        ++summary
              .constraints[static_cast<int>(
                  obs::ExplainConstraint::kPropagated)]
              .kills;
        push_top_edge(dead);
      }
      std::swap(cur, nxt);
      continue;
    }

    const std::vector<ExplainTickCandidate>& tick_candidates = ctx.ticks[t];
    obs::ExplainTickSummary& tick = summary.ticks[t];
    tick.time = static_cast<std::int32_t>(t);
    tick.candidates = static_cast<std::uint32_t>(tick_candidates.size());
    if (t < ctx.alpha_deltas.size()) tick.alpha_delta = ctx.alpha_deltas[t];
    if (tick.alpha_delta != 0.0) {
      // Informational: the streaming filter renormalized this much mass
      // away at this tick. Not a kill — excluded from every kill count.
      obs::RecordExplainEvent({tag, tick.time, -1, -1,
                               obs::ExplainPhase::kForward,
                               obs::ExplainConstraint::kRenormalized,
                               tick.alpha_delta});
    }
    // Backward kills, one event per (location pair, tick) with the summed
    // forward mass reaching the dead edges — informational, not
    // root-cause (see the header comment), so they feed the top-K ranking
    // but not the attributed totals.
    for (const std::size_t slot : dead_slots) {
      const obs::ExplainKilledEdge dead{
          tick.time + 1, static_cast<LocationId>(slot / num_locations),
          static_cast<LocationId>(slot % num_locations),
          obs::ExplainPhase::kBackward, obs::ExplainConstraint::kPropagated,
          dead_mass[slot]};
      obs::RecordExplainEvent({tag, dead.time, dead.from_location,
                               dead.to_location, dead.phase, dead.constraint,
                               dead.mass});
      ++summary.phase_kills[static_cast<int>(obs::ExplainPhase::kBackward)];
      ++summary
            .constraints[static_cast<int>(obs::ExplainConstraint::kPropagated)]
            .kills;
      push_top_edge(dead);
    }

    const double inflow =
        t == 0 ? 1.0 : layer_mass[static_cast<std::size_t>(t) - 1];
    reject_mass.assign(tick_candidates.size(), 0.0);
    reject_best.assign(tick_candidates.size(), 0.0);
    reject_cause.assign(tick_candidates.size(),
                        obs::ExplainConstraint::kInfeasible);

    // Preflight prunes: root mass q·L_{t-1}, emitted here (not in
    // analysis/feasibility.cc) because only this pass knows L_{t-1}.
    for (std::size_t i = 0; i < tick_candidates.size(); ++i) {
      const ExplainTickCandidate& candidate = tick_candidates[i];
      if (!candidate.pruned) continue;
      const double mass = candidate.probability * inflow;
      obs::RecordExplainEvent({tag, tick.time, -1, candidate.location,
                               obs::ExplainPhase::kPreflight,
                               obs::ExplainConstraint::kInfeasible, mass});
      ++summary.phase_kills[static_cast<int>(obs::ExplainPhase::kPreflight)];
      obs::ExplainConstraintTotal& total =
          summary
              .constraints[static_cast<int>(obs::ExplainConstraint::kInfeasible)];
      ++total.kills;
      total.mass += mass;
      summary.attributed_mass += mass;
      tick.mass_lost += mass;
    }

    // Forward rejections, aggregated by parent group. The Definition-3
    // checks read the parent only through (location, δ = ⊥?, TL): direct
    // unreachability (condition 2) and the direct-TT completion depend on
    // the location pair alone, the latency check (condition 4) fires for
    // exactly the δ ≠ ⊥ parents, and the TL scan (condition 5) — the only
    // per-node check — can only reject a δ = ⊥ parent, always as a
    // traveling-time violation. Every parent in a group therefore rejects
    // (or emits) a candidate identically, and one event per rejecting
    // (group, candidate) pair carries the group's total mass — the same
    // sum a per-parent ClassifyRejection walk would attribute, without
    // the quadratic pair scan. TL-dependent rejections fall out of a
    // subtraction: a δ = ⊥ parent at a reachable, direct-TT-admissible
    // location emits the candidate unless condition 5 refused it, so the
    // group's δ = ⊥ mass minus its emitted δ = ⊥ mass is exactly the
    // TL-rejected mass. Integer emit counts decide whether any parent
    // rejected, so float rounding can never invent or drop an event, and
    // both sums add the same priors in the same node order (the parent
    // walk above), so a fully emitting group subtracts to exactly zero.
    if (t >= 1 && ctx.successors != nullptr &&
        cur->built_for == static_cast<std::int32_t>(t)) {
      const ConstraintSet& cs = ctx.successors->constraints();
      const std::size_t ncand = cur->ncand;
      const auto record_group_reject = [&](LocationId from, std::size_t i,
                                           obs::ExplainConstraint cause,
                                           double group_mass) {
        const ExplainTickCandidate& candidate = tick_candidates[i];
        const double mass = group_mass * candidate.probability;
        obs::RecordExplainEvent({tag, tick.time, from, candidate.location,
                                 obs::ExplainPhase::kForward, cause, mass});
        ++summary.phase_kills[static_cast<int>(obs::ExplainPhase::kForward)];
        obs::ExplainConstraintTotal& total =
            summary.constraints[static_cast<int>(cause)];
        ++total.kills;
        total.mass += mass;
        summary.attributed_mass += mass;
        tick.mass_lost += mass;
        reject_mass[i] += mass;
        if (mass > reject_best[i]) {
          reject_best[i] = mass;
          reject_cause[i] = cause;
        }
        push_top_edge({tick.time, from, candidate.location,
                       obs::ExplainPhase::kForward, cause, mass});
      };
      for (const std::int32_t from : cur->present) {
        const std::size_t l1 = static_cast<std::size_t>(from);
        const LocationId from_location = static_cast<LocationId>(from);
        for (std::size_t i = 0; i < ncand; ++i) {
          const ExplainTickCandidate& candidate = tick_candidates[i];
          if (candidate.pruned) continue;
          const LocationId l2 = candidate.location;
          const std::size_t l2_idx = static_cast<std::size_t>(l2);
          if (l2_idx >= num_locations) continue;
          if (l2 == from_location) continue;  // stays are always admissible
          if (cs.IsUnreachable(from_location, l2)) {
            record_group_reject(from_location, i,
                                obs::ExplainConstraint::kUnreachable,
                                cur->grp_total[l1]);
            continue;
          }
          if (cur->grp_lat_count[l1] > 0) {
            record_group_reject(from_location, i,
                                obs::ExplainConstraint::kLatency,
                                cur->grp_lat[l1]);
          }
          if (cur->grp_bot_count[l1] == 0) continue;
          if (cs.MinTravelTicks(from_location, l2) > 1) {
            record_group_reject(from_location, i,
                                obs::ExplainConstraint::kTravelTime,
                                cur->grp_bot[l1]);
            continue;
          }
          const std::size_t slot =
              l1 * ncand + static_cast<std::size_t>(cur->cand_index[l2_idx]);
          if (cur->emitted_bot_count[slot] >= cur->grp_bot_count[l1]) {
            continue;
          }
          record_group_reject(
              from_location, i, obs::ExplainConstraint::kTravelTime,
              std::max(0.0, cur->grp_bot[l1] - cur->emitted_bot[slot]));
        }
      }
    }

    // Killed-candidate resolution: a candidate is killed iff no node at
    // (t, location) finally survives. The dominant cause compares the mass
    // the forward phase never let in against the mass that arrived but died
    // downstream.
    for (std::size_t i = 0; i < tick_candidates.size(); ++i) {
      const ExplainTickCandidate& candidate = tick_candidates[i];
      obs::ExplainKilledCandidate killed;
      killed.time = tick.time;
      killed.location = candidate.location;
      if (candidate.pruned) {
        killed.phase = obs::ExplainPhase::kPreflight;
        killed.constraint = obs::ExplainConstraint::kInfeasible;
        killed.mass = candidate.probability * inflow;
      } else {
        const std::size_t l = static_cast<std::size_t>(candidate.location);
        const bool stamped =
            l < num_locations &&
            loc_stamp[l] == static_cast<std::int32_t>(t);
        if (stamped && loc_alive[l] != 0) continue;  // survives
        const double dead = stamped ? loc_dead[l] : 0.0;
        killed.mass = reject_mass[i] + dead;
        if (dead > reject_mass[i]) {
          killed.phase = obs::ExplainPhase::kBackward;
          killed.constraint = obs::ExplainConstraint::kPropagated;
        } else {
          killed.phase = obs::ExplainPhase::kForward;
          killed.constraint = reject_cause[i];
        }
      }
      ++tick.killed;
      if (summary.killed_candidates.size() < kMaxKilledCandidatesPerTag) {
        summary.killed_candidates.push_back(killed);
      } else {
        ++summary.killed_candidates_truncated;
      }
    }
    std::swap(cur, nxt);
  }

  // push_top_edge kept the pool sorted (mass descending, structural
  // tie-break) and bounded at K throughout, so the ranking is already
  // final — and deterministic for any worker count.
  summary.top_edges = std::move(top_edges);
  return state;
}

}  // namespace

Status InfeasibleReadingsError() {
  return FailedPreconditionError(
      "the integrity constraints rule out every interpretation of the "
      "readings");
}

Result<CtGraph> ConditionAndCompact(WorkGraph&& work, BuildStats* stats,
                                    const ExplainBuildContext* explain) {
  Stopwatch stopwatch;
  obs::PhaseTimer phase_timer(obs::Phase::kBackward);
  FlushKeyArenaStats(work.keys);
  std::vector<WorkNode>& nodes = work.nodes;
  std::vector<WorkEdge>& edges = work.edges;
  const Timestamp length = work.num_layers();
  RFID_CHECK_GT(length, 0);
  // Attribution must read the pristine forward-phase labels: the sweep
  // below overwrites edge probabilities and survival masses in place.
  std::unique_ptr<ExplainPassState> explain_state;
  if (explain != nullptr && obs::ExplainArmed()) {
    explain_state = RunExplainAttribution(work, *explain);
  }
  auto layer_range = [&work](Timestamp t) {
    return std::pair<std::int32_t, std::int32_t>(
        work.layer_begin[static_cast<std::size_t>(t)],
        work.layer_begin[static_cast<std::size_t>(t) + 1]);
  };

  // --- Backward phase (Algorithm 1, lines 15-29), reformulated over
  // surviving masses: S(n) = Σ_k p(k) · S(k) with S(target) = 1, so the
  // conditioned probability of edge (n, k) is p(k)·S(k)/S(n) — the paper's
  // "divide by (1 - loss)" without subtractive cancellation. Layers are
  // rescaled by their maximum so S stays representable at any length, and
  // a node is dead iff S(n) = 0 (Proposition 1, detected structurally).
  // Both sweeps stream the layer's nodes and their CSR edge slices in
  // ascending id order — all memory access is sequential except the gather
  // of the next layer's `survived`.
  // Accumulated in locals over the whole sweep, flushed once after it: the
  // backward loops are the second-hottest path after interning.
  std::uint64_t stats_edges_kept = 0;
  std::uint64_t stats_nodes_dead = 0;
  {
    obs::TraceSpan sweep_span("backward", "backward_sweep");
    sweep_span.AddArg("renorm_passes", static_cast<std::uint64_t>(length - 1));
    // Per-edge p(k)·S(k) products of one layer's contiguous edge slab,
    // computed by the dispatched kernel and consumed by both passes.
    // Per-node masses use the fixed zero-skipping 4-lane blocked reduction
    // of simd.h — scalar, vector, and SIMD-off builds all sum in this one
    // order, so the emitted graph is bit-identical across them, and exact-
    // zero products (statically dead edges) do not shift lane assignment,
    // preserving preflight byte-identity (ALGORITHM.md §11, §13).
    std::vector<double> products;
    // The vector gather scales node ids in 32-bit lanes (simd.h).
    const bool gather_in_range =
        nodes.size() <=
        static_cast<std::size_t>(INT32_MAX) / kNodeStrideDoubles;
    for (Timestamp t = length - 2; t >= 0; --t) {
      const auto [begin, end] = layer_range(t);
      if (begin == end) continue;  // Empty layer: nothing to condition.
      const std::size_t slab_begin = static_cast<std::size_t>(
          nodes[static_cast<std::size_t>(begin)].edge_begin);
      const WorkNode& last = nodes[static_cast<std::size_t>(end) - 1];
      const std::size_t slab_end =
          static_cast<std::size_t>(last.edge_begin) +
          static_cast<std::size_t>(last.edge_count);
      const std::size_t slab_n = slab_end - slab_begin;
      products.resize(slab_n);
      if (slab_n > 0) {
        if (gather_in_range) {
          simd::GatherProducts(&edges[slab_begin].probability,
                               kEdgeStrideDoubles, &edges[slab_begin].to,
                               kEdgeStrideInts, &nodes[0].survived,
                               kNodeStrideDoubles, slab_n, products.data());
        } else {
          for (std::size_t k = 0; k < slab_n; ++k) {
            const WorkEdge& edge = edges[slab_begin + k];
            products[k] =
                edge.probability *
                nodes[static_cast<std::size_t>(edge.to)].survived;
          }
        }
      }
      double layer_max = 0.0;
      for (std::int32_t id = begin; id < end; ++id) {
        WorkNode& node = nodes[static_cast<std::size_t>(id)];
        const double mass = simd::BlockedSumSkipZero4(
            products.data() +
                (static_cast<std::size_t>(node.edge_begin) - slab_begin),
            static_cast<std::size_t>(node.edge_count));
        node.survived = mass;
        layer_max = std::max(layer_max, mass);
      }
      for (std::int32_t id = begin; id < end; ++id) {
        WorkNode& node = nodes[static_cast<std::size_t>(id)];
        if (node.survived <= 0.0) {
          // Dead node: its edges are never read again (the node is skipped
          // by reachability and compaction), so they keep their a-priori
          // labels.
          node.alive = false;
          ++stats_nodes_dead;
          continue;
        }
        WorkEdge* out =
            edges.data() + static_cast<std::size_t>(node.edge_begin);
        const double* node_products =
            products.data() +
            (static_cast<std::size_t>(node.edge_begin) - slab_begin);
        for (std::int32_t k = 0; k < node.edge_count; ++k) {
          // products[k] / S(n) evaluates bit-identically to the previous
          // left-to-right p(k)·S(k)/S(n) and skips re-gathering the
          // target's survived mass.
          const double conditioned =
              node_products[k] / node.survived;
          out[k].probability = conditioned > 0.0 ? conditioned : 0.0;
          stats_edges_kept += static_cast<std::uint64_t>(conditioned > 0.0);
        }
        node.survived /= layer_max;
      }
    }
    sweep_span.AddArg("edges_killed", edges.size() - stats_edges_kept);
    sweep_span.AddArg("nodes_dead", stats_nodes_dead);
  }
  // An edge is "kept" iff conditioning left it a positive probability on a
  // live owner; everything else (zeroed in place, or stranded on a dead
  // node) is killed. kept + killed == built by construction.
  obs::Add(obs::Counter::kBackwardEdgesBuilt, edges.size());
  obs::Add(obs::Counter::kBackwardEdgesKept, stats_edges_kept);
  obs::Add(obs::Counter::kBackwardEdgesKilled,
           edges.size() - stats_edges_kept);
  obs::Add(obs::Counter::kBackwardNodesDead, stats_nodes_dead);
  obs::Add(obs::Counter::kBackwardRenormPasses,
           static_cast<std::uint64_t>(length - 1));

  // Lines 30-31 with the source-weighting erratum fix (see DESIGN.md):
  // each surviving source is weighted by its surviving suffix mass.
  double source_mass = 0.0;
  {
    const auto [begin, end] = layer_range(0);
    for (std::int32_t id = begin; id < end; ++id) {
      WorkNode& node = nodes[static_cast<std::size_t>(id)];
      if (node.alive) {
        node.source_probability *= node.survived;
        source_mass += node.source_probability;
      }
    }
  }
  if (source_mass <= 0.0) {
    // Total death is booked entirely to the backward phase (compaction
    // never ran); both splits are sampled so their counts stay paired.
    obs::ObserveValue(obs::Dist::kMassLostBackwardPpb, 1000000000u);
    obs::ObserveValue(obs::Dist::kMassLostCompactionPpb, 0u);
    Status failure = InfeasibleReadingsError();
    if (explain_state != nullptr) {
      explain_state->summary.status = failure.message();
      explain_state->summary.mass_lost_backward_ppb = 1000000000u;
      obs::RecordTagExplain(std::move(explain_state->summary));
    }
    return failure;
  }
  // Source mass is the survival-weighted total; the complement is the
  // a-priori probability mass the constraints ruled out. Sampled in
  // parts-per-billion (clamped: rescaling can leave source_mass at 1+ε).
  // The explain summary carries the same integer — the two must reconcile
  // exactly (obs_stats_test).
  const double lost = 1.0 - source_mass;
  const std::uint64_t backward_ppb =
      lost > 0.0 ? static_cast<std::uint64_t>(lost * 1e9) : 0u;
  obs::ObserveValue(obs::Dist::kMassLostBackwardPpb, backward_ppb);

  // --- Compaction: alive nodes reachable from a surviving source through
  // live edges (explicit reachability: per-edge products can underflow to
  // zero under extreme probability ranges). A live edge is one whose
  // conditioned probability stayed positive.
  obs::TraceSpan compact_span("backward", "compact");
  std::vector<bool> reachable(nodes.size(), false);
  {
    const auto [begin, end] = layer_range(0);
    for (std::int32_t id = begin; id < end; ++id) {
      const WorkNode& node = nodes[static_cast<std::size_t>(id)];
      if (node.alive && node.source_probability > 0.0) {
        reachable[static_cast<std::size_t>(id)] = true;
      }
    }
  }
  for (Timestamp t = 0; t + 1 < length; ++t) {
    const auto [begin, end] = layer_range(t);
    for (std::int32_t id = begin; id < end; ++id) {
      if (!reachable[static_cast<std::size_t>(id)]) continue;
      const WorkNode& node = nodes[static_cast<std::size_t>(id)];
      const WorkEdge* out =
          edges.data() + static_cast<std::size_t>(node.edge_begin);
      for (std::int32_t k = 0; k < node.edge_count; ++k) {
        if (out[k].probability > 0.0 &&
            nodes[static_cast<std::size_t>(out[k].to)].alive) {
          reachable[static_cast<std::size_t>(out[k].to)] = true;
        }
      }
    }
  }

  std::size_t survivors = 0;
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    if (nodes[i].alive && reachable[i]) {
      ++survivors;
    } else if (explain_state != nullptr && nodes[i].alive) {
      // Stranded: the node survived the backward sweep but no surviving
      // source reaches it. Recorded at the real compaction decision point;
      // the mass is the node's forward a-priori inflow (informational —
      // the root cause was attributed to the decisions that killed its
      // ancestors).
      obs::RecordExplainEvent(
          {explain_state->summary.tag, nodes[i].time, -1,
           work.keys.key(nodes[i].key_id).location,
           obs::ExplainPhase::kCompaction, obs::ExplainConstraint::kStranded,
           explain_state->prior[i]});
      ++explain_state->summary
            .phase_kills[static_cast<int>(obs::ExplainPhase::kCompaction)];
      ++explain_state->summary
            .constraints[static_cast<int>(obs::ExplainConstraint::kStranded)]
            .kills;
    }
  }
  // Conditioned source mass compaction drops: surviving t = 0 sources no
  // longer reachable. Structurally zero (every parent of an alive node is
  // alive), but sampled honestly so the per-phase split is measured, not
  // asserted.
  double stranded_mass = 0.0;
  {
    const auto [begin, end] = layer_range(0);
    for (std::int32_t id = begin; id < end; ++id) {
      const WorkNode& node = nodes[static_cast<std::size_t>(id)];
      if (node.alive && !reachable[static_cast<std::size_t>(id)]) {
        stranded_mass += node.source_probability;
      }
    }
  }
  const std::uint64_t compaction_ppb =
      stranded_mass > 0.0
          ? static_cast<std::uint64_t>(stranded_mass * 1e9)
          : 0u;
  obs::ObserveValue(obs::Dist::kMassLostCompactionPpb, compaction_ppb);
  // The survivors, in work order (already layer order), are written
  // straight into the graph's sections. A first pass numbers them and counts
  // sources and live edges so the writer sizes every array exactly.
  std::vector<NodeId> remap(nodes.size(), kInvalidNode);
  std::size_t num_sources = 0;
  {
    NodeId next = 0;
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      if (!nodes[i].alive || !reachable[i]) continue;
      remap[i] = next++;
      if (nodes[i].time == 0) ++num_sources;
    }
  }
  const auto live = [&remap](const WorkEdge& edge) {
    return edge.probability > 0.0 &&
           remap[static_cast<std::size_t>(edge.to)] != kInvalidNode;
  };
  std::size_t live_edges_total = 0;
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    if (remap[i] == kInvalidNode) continue;
    const WorkEdge* out =
        edges.data() + static_cast<std::size_t>(nodes[i].edge_begin);
    for (std::int32_t k = 0; k < nodes[i].edge_count; ++k) {
      if (live(out[k])) ++live_edges_total;
    }
  }
  CtGraphWriter writer(length, survivors, num_sources, live_edges_total);
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    if (remap[i] == kInvalidNode) continue;
    const WorkNode& node = nodes[i];
    writer.AddNode(node.time, work.keys.key(node.key_id),
                   node.time == 0 ? node.source_probability / source_mass
                                  : 0.0);
    const WorkEdge* out =
        edges.data() + static_cast<std::size_t>(node.edge_begin);
    for (std::int32_t k = 0; k < node.edge_count; ++k) {
      if (live(out[k])) {
        writer.AddEdge(remap[static_cast<std::size_t>(out[k].to)],
                       out[k].probability);
      }
    }
  }
  compact_span.AddArg("nodes", static_cast<std::uint64_t>(survivors));
  compact_span.AddArg("edges", static_cast<std::uint64_t>(live_edges_total));
  Result<CtGraph> graph = std::move(writer).Finish();
  // Construction invariants guarantee validity.
  RFID_CHECK(graph.value().CheckConsistency().ok());
  if (stats != nullptr) {
    stats->backward_millis = stopwatch.ElapsedMillis();
    stats->final_nodes = graph.value().NumNodes();
    stats->final_edges = graph.value().NumEdges();
  }
  if (explain_state != nullptr) {
    explain_state->summary.status = "ok";
    explain_state->summary.mass_lost_backward_ppb = backward_ppb;
    explain_state->summary.mass_lost_compaction_ppb = compaction_ppb;
    obs::RecordTagExplain(std::move(explain_state->summary));
  }
  return graph;
}

}  // namespace rfidclean::internal_core
