#include "core/streaming.h"

#include <cmath>

#include "common/check.h"
#include "common/float_eq.h"
#include "common/simd.h"
#include "common/strings.h"
#include "core/work_graph.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace rfidclean {

using internal_core::WorkEdge;
using internal_core::WorkGraph;
using internal_core::WorkNode;

namespace {

Status ValidateCandidates(const std::vector<Candidate>& candidates) {
  if (candidates.empty()) {
    return InvalidArgumentError("tick has no candidate locations");
  }
  double sum = 0.0;
  for (const Candidate& candidate : candidates) {
    if (candidate.location < 0) {
      return InvalidArgumentError("invalid candidate location id");
    }
    if (candidate.probability <= 0.0) {
      return InvalidArgumentError("non-positive candidate probability");
    }
    sum += candidate.probability;
  }
  if (!ApproxOne(sum, kInputProbabilityEpsilon)) {
    return InvalidArgumentError(
        StrFormat("candidate probabilities sum to %f, not 1", sum));
  }
  return Status::Ok();
}

}  // namespace

StreamingCleaner::StreamingCleaner(const ConstraintSet& constraints,
                                   const SuccessorOptions& options)
    : owned_successors_(std::in_place, constraints, options),
      session_(*owned_successors_, internal_core::FailureMode::kEager) {}

StreamingCleaner::StreamingCleaner(const SuccessorGenerator& successors)
    : session_(successors, internal_core::FailureMode::kEager) {}

void StreamingCleaner::ReserveCapacity(std::size_t nodes, std::size_t edges,
                                       Timestamp ticks, std::size_t keys) {
  session_.ReserveCapacity(nodes, edges, ticks, keys);
}

void StreamingCleaner::SetPreflightPlan(const PreflightPlan* plan) {
  session_.AttachPlan(plan);
}

Status StreamingCleaner::Preflight(const FeasibilityOracle* oracle,
                                   const LSequence& sequence,
                                   BuildStats* stats) {
  return session_.Preflight(oracle, sequence, stats);
}

Status StreamingCleaner::Push(const std::vector<Candidate>& candidates) {
  obs::TraceSpan span("stream", "stream_push");
  span.AddArg("t", static_cast<std::uint64_t>(TicksSeen()));
  if (failed_) {
    return FailedPreconditionError(
        "a previous tick left no consistent interpretation");
  }
  obs::PhaseTimer phase_timer(obs::Phase::kForward);
  RFID_RETURN_IF_ERROR(ValidateCandidates(candidates));
  const bool first = TicksSeen() == 0;
  const Status pushed = session_.Push(candidates);
  if (!pushed.ok()) {
    // Every interpretation is now invalid; nothing was appended, so the
    // previous state remains intact for inspection.
    failed_ = true;
    return pushed;
  }

  const WorkGraph& work = session_.work();
  if (first) {
    // Source nodes, one per candidate, with the candidate probability as
    // the (unnormalized) filtered mass.
    frontier_alpha_.clear();
    const std::int32_t end = work.layer_begin[1];
    for (std::int32_t id = 0; id < end; ++id) {
      frontier_alpha_.push_back(
          work.nodes[static_cast<std::size_t>(id)].source_probability);
    }
    session_.RecordAlphaDelta(0.0);
    return Status::Ok();
  }

  const std::size_t layers = work.layer_begin.size();
  const std::int32_t frontier_begin = work.layer_begin[layers - 3];
  const std::int32_t frontier_end = work.layer_begin[layers - 2];

  // Forward-filter update: each fresh edge carries the a-priori mass of
  // its target, and the frontier's CSR slices enumerate successors in
  // generation order, so this reproduces the classical alpha recursion
  // term by term.
  const std::int32_t layer_begin = frontier_end;
  const std::int32_t layer_end = work.layer_begin.back();
  next_alpha_.assign(static_cast<std::size_t>(layer_end - layer_begin), 0.0);
  for (std::int32_t id = frontier_begin; id < frontier_end; ++id) {
    const WorkNode& node = work.nodes[static_cast<std::size_t>(id)];
    const double mass =
        frontier_alpha_[static_cast<std::size_t>(id - frontier_begin)];
    const WorkEdge* out =
        work.edges.data() + static_cast<std::size_t>(node.edge_begin);
    for (std::int32_t k = 0; k < node.edge_count; ++k) {
      next_alpha_[static_cast<std::size_t>(out[k].to - layer_begin)] +=
          mass * out[k].probability;
    }
  }
  const double total =
      simd::BlockedSum(next_alpha_.data(), next_alpha_.size());
  if (!(total > 0.0)) {
    // The tick was structurally consistent (the new layer is non-empty),
    // but the filtered mass of every surviving interpretation underflowed
    // to exact zero — reachable only with denormal-scale candidate
    // probabilities. An infeasible clean, not a crash: the structurally
    // valid layer stays appended, the frontier mass reads as all zeros,
    // and further Pushes are rejected.
    frontier_alpha_.swap(next_alpha_);
    failed_ = true;
    obs::Add(obs::Counter::kStreamAlphaUnderflows);
    session_.RecordAlphaDelta(1.0);
    return FailedPreconditionError(
        "the filtered probability mass of every remaining interpretation "
        "underflowed to zero");
  }
  // Renormalization delta: the filtered mass the constraint checks shaved
  // off this tick before the division restored a unit total.
  const double delta = 1.0 - total;
  session_.RecordAlphaDelta(delta > 0.0 ? delta : 0.0);
  simd::DivideInPlace(next_alpha_.data(), next_alpha_.size(), total);
  frontier_alpha_.swap(next_alpha_);
  return Status::Ok();
}

std::vector<std::pair<LocationId, double>>
StreamingCleaner::CurrentDistribution() const {
  RFID_CHECK_GT(TicksSeen(), 0);
  const WorkGraph& work = session_.work();
  const std::size_t layers = work.layer_begin.size();
  const std::int32_t frontier_begin = work.layer_begin[layers - 2];
  const std::int32_t frontier_end = work.layer_begin[layers - 1];
  // Location-indexed accumulation: one O(locations) clear plus O(1) per
  // frontier node, replacing the old O(frontier × locations) linear probe
  // of the output vector. The output keeps the historical first-encounter
  // order over ascending node ids, with bit-identical values — each
  // location's masses still accumulate in ascending node-id order (locked
  // by StreamingTest.CurrentDistributionKeepsFirstEncounterOrder).
  const std::size_t num_locations =
      session_.successors().constraints().num_locations();
  dist_mass_.assign(num_locations, 0.0);
  dist_seen_.assign(num_locations, 0);
  std::vector<LocationId> order;
  for (std::int32_t id = frontier_begin; id < frontier_end; ++id) {
    const LocationId location =
        work.keys.key(work.nodes[static_cast<std::size_t>(id)].key_id)
            .location;
    const std::size_t l = static_cast<std::size_t>(location);
    if (dist_seen_[l] == 0) {
      dist_seen_[l] = 1;
      order.push_back(location);
    }
    dist_mass_[l] +=
        frontier_alpha_[static_cast<std::size_t>(id - frontier_begin)];
  }
  std::vector<std::pair<LocationId, double>> distribution;
  distribution.reserve(order.size());
  for (const LocationId location : order) {
    distribution.emplace_back(location,
                              dist_mass_[static_cast<std::size_t>(location)]);
  }
  return distribution;
}

Result<CtGraph> StreamingCleaner::Finish(BuildStats* stats) && {
  obs::TraceSpan span("stream", "stream_finish");
  span.AddArg("ticks", static_cast<std::uint64_t>(TicksSeen()));
  RFID_CHECK_GT(TicksSeen(), 0);
  return session_.Finish(stats);
}

}  // namespace rfidclean
