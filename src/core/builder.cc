#include "core/builder.h"

#include <utility>

#include "common/check.h"
#include "common/stopwatch.h"
#include "core/forward.h"
#include "core/self_audit.h"
#include "core/work_graph.h"
#include "obs/explain.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace rfidclean {

CtGraphBuilder::CtGraphBuilder(const ConstraintSet& constraints,
                               const SuccessorOptions& options)
    : CtGraphBuilder(constraints, CleanOptions{options, /*preflight=*/true}) {}

CtGraphBuilder::CtGraphBuilder(const ConstraintSet& constraints,
                               const CleanOptions& options)
    : constraints_(&constraints), successors_(constraints, options.successor) {
  if (options.preflight) oracle_.emplace(constraints);
  if (options.forward_threads > 1) {
    pool_ = std::make_unique<ThreadPool>(options.forward_threads);
  }
}

Result<CtGraph> CtGraphBuilder::Build(const LSequence& sequence,
                                      BuildStats* stats) const {
  obs::TraceSpan span("core", "build");
  span.AddArg("ticks", static_cast<std::uint64_t>(sequence.length()));
  const Timestamp length = sequence.length();

  Stopwatch stopwatch;

  // Preflight: detect doomed sequences before materializing anything, and
  // drop statically dead candidates — both leave the (eventual) output
  // graph byte-identical (docs/ALGORITHM.md §11).
  std::optional<PreflightPlan> plan;
  if (oracle_.has_value()) {
    plan = oracle_->Analyze(sequence);
    if (stats != nullptr) {
      stats->preflight_millis = stopwatch.ElapsedMillis();
      stats->doomed_at = plan->doomed_at;
      stats->preflight_candidates_pruned = plan->candidates_pruned;
    }
    if (plan->doomed()) {
      // Must match ConditionAndCompact's failure verbatim: callers (and the
      // differential suite) treat the fast path as the same outcome.
      return FailedPreconditionError(
          "the integrity constraints rule out every interpretation of the "
          "readings");
    }
    if (!plan->any_pruned()) plan.reset();
    stopwatch = Stopwatch();
  }

  internal_core::ForwardEngine engine(constraints_->num_locations());
  engine.SetThreadPool(pool_.get());

  // Initialization (Algorithm 1, lines 1-4) and forward phase (lines 5-14):
  // see forward.h. Layers are always recorded, even when empty — candidate
  // continuations that are not successors are simply absent, and the
  // backward phase accounts for their mass implicitly.
  {
    obs::PhaseTimer phase_timer(obs::Phase::kForward);
    std::vector<Candidate> filtered;
    const auto candidates_at = [&](Timestamp t) -> const std::vector<Candidate>& {
      const std::vector<Candidate>& full = sequence.CandidatesAt(t);
      if (!plan.has_value() || !plan->PrunedAt(t)) return full;
      plan->FilterTick(t, full, &filtered);
      return filtered;
    };
    engine.BeginSources(successors_, candidates_at(0));
    for (Timestamp t = 0; t + 1 < length; ++t) {
      engine.AdvanceLayer(successors_, t, candidates_at(t + 1),
                          /*record_empty_layer=*/true);
    }
  }
  if (stats != nullptr) {
    stats->forward_millis = stopwatch.ElapsedMillis();
    stats->peak_nodes = engine.work().nodes.size();
    stats->peak_edges = engine.work().edges.size();
    stats->peak_keys = engine.num_keys();
  }

  // While an explain session is armed, hand the attribution pass the full
  // candidate lists (with the plan's pruned flags) and the successor
  // generator. Never perturbs the produced graph.
  internal_core::ExplainBuildContext explain_ctx;
  const internal_core::ExplainBuildContext* explain = nullptr;
  if (obs::ExplainArmed()) {
    explain_ctx.successors = &successors_;
    explain_ctx.ticks.resize(static_cast<std::size_t>(length));
    for (Timestamp t = 0; t < length; ++t) {
      const std::vector<Candidate>& full = sequence.CandidatesAt(t);
      std::vector<internal_core::ExplainTickCandidate>& tick =
          explain_ctx.ticks[static_cast<std::size_t>(t)];
      tick.reserve(full.size());
      for (std::size_t i = 0; i < full.size(); ++i) {
        tick.push_back(
            {full[i].location, full[i].probability,
             plan.has_value() &&
                 !plan->admissible[static_cast<std::size_t>(t)][i]});
      }
    }
    explain = &explain_ctx;
  }

  Result<CtGraph> graph =
      internal_core::ConditionAndCompact(engine.TakeWork(), stats, explain);
  if (graph.ok()) {
    RFID_RETURN_IF_ERROR(RunCtGraphAuditHook(graph.value()));
  }
  return graph;
}

}  // namespace rfidclean
