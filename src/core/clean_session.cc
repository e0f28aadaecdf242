#include "core/clean_session.h"

#include <string>
#include <utility>

#include "common/check.h"
#include "common/stopwatch.h"
#include "core/self_audit.h"
#include "obs/explain.h"

namespace rfidclean::internal_core {

namespace {

/// A doomed tag never reaches conditioning, so the preflight fast-fail is
/// the only place its kill decision can be explained: one preflight event
/// for the doomed tick plus a failure summary whose killed-candidate list
/// names every candidate of that tick (mass = its a-priori probability;
/// together they carry the whole unit of interpretation mass). The ppb
/// splits stay 0 — they measure conditioning loss, which never ran.
/// `status` is the failure the driver returns, so the report and the
/// outcome agree.
void RecordDoomedExplain(const PreflightPlan& plan, const LSequence& sequence,
                         const std::string& status) {
  if (!obs::ExplainArmed()) return;
  const long long tag = obs::ExplainCurrentTag();
  const std::int32_t doomed_at = static_cast<std::int32_t>(plan.doomed_at);
  obs::RecordExplainEvent({tag, doomed_at, -1, -1,
                           obs::ExplainPhase::kPreflight,
                           obs::ExplainConstraint::kInfeasible, 1.0});
  obs::ExplainTagSummary summary;
  summary.tag = tag;
  summary.status = status;
  summary.phase_kills[static_cast<int>(obs::ExplainPhase::kPreflight)] = 1;
  summary.constraints[static_cast<int>(obs::ExplainConstraint::kInfeasible)] =
      {1, 1.0};
  summary.attributed_mass = 1.0;
  const std::vector<Candidate>& candidates =
      sequence.CandidatesAt(plan.doomed_at);
  summary.killed_candidates.reserve(candidates.size());
  for (const Candidate& candidate : candidates) {
    summary.killed_candidates.push_back(
        {doomed_at, candidate.location, obs::ExplainPhase::kPreflight,
         obs::ExplainConstraint::kInfeasible, candidate.probability});
  }
  obs::RecordTagExplain(std::move(summary));
}

Status InconsistentTickError() {
  return FailedPreconditionError(
      "the new tick leaves no consistent interpretation of the readings");
}

}  // namespace

CleanSession::CleanSession(const SuccessorGenerator& successors,
                           FailureMode mode)
    : successors_(&successors),
      mode_(mode),
      engine_(successors.constraints().num_locations()) {
  explain_.successors = &successors;
}

Status CleanSession::Preflight(const FeasibilityOracle* oracle,
                               const LSequence& sequence, BuildStats* stats) {
  RFID_CHECK_EQ(engine_.num_layers(), 0);
  if (oracle == nullptr) return Status::Ok();
  const Stopwatch watch;
  PreflightPlan plan = oracle->Analyze(sequence);
  if (stats != nullptr) {
    stats->preflight_millis = watch.ElapsedMillis();
    stats->doomed_at = plan.doomed_at;
    stats->preflight_candidates_pruned = plan.candidates_pruned;
  }
  if (plan.doomed()) {
    // Fail fast. Deferred: conditioning would fail with exactly this
    // status after materializing every layer. Eager: if every Push
    // succeeded Finish could not fail, so a doomed sequence always dies in
    // some Push — the fast path only moves *when* the status surfaces.
    Status failure = mode_ == FailureMode::kDeferred
                         ? InfeasibleReadingsError()
                         : InconsistentTickError();
    RecordDoomedExplain(plan, sequence, failure.message());
    return failure;
  }
  if (plan.any_pruned()) AttachPlan(&owned_plan_.emplace(std::move(plan)));
  return Status::Ok();
}

void CleanSession::AttachPlan(const PreflightPlan* plan) {
  RFID_CHECK_EQ(engine_.num_layers(), 0);
  plan_ = plan;
}

Status CleanSession::Push(const std::vector<Candidate>& candidates) {
  const Stopwatch watch;
  const Timestamp t = engine_.num_layers();
  const std::size_t tick = static_cast<std::size_t>(t);
  // The plan indexes by position, so the pushed stream must be exactly the
  // candidate lists the plan was computed from.
  if (plan_ != nullptr) RFID_CHECK_LT(tick, plan_->admissible.size());
  // Explain capture: the attribution pass needs the *full* tick (with the
  // plan's pruned flags), not the filtered one the engine sees.
  if (obs::ExplainArmed()) {
    std::vector<ExplainTickCandidate>& captured = explain_.ticks.emplace_back();
    captured.reserve(candidates.size());
    for (std::size_t i = 0; i < candidates.size(); ++i) {
      const bool pruned = plan_ != nullptr && !plan_->admissible[tick][i];
      captured.push_back(
          {candidates[i].location, candidates[i].probability, pruned});
    }
  }

  // Static pruning: candidates the plan proved dead are dropped before the
  // engine does any work.
  const std::vector<Candidate>* effective = &candidates;
  if (plan_ != nullptr && plan_->PrunedAt(t)) {
    plan_->FilterTick(t, candidates, &filtered_);
    effective = &filtered_;
  }

  // Initialization (Algorithm 1, lines 1-4) and forward phase (lines
  // 5-14): see forward.h. A deferred session records every layer, even
  // empty ones — continuations that are not successors are simply absent,
  // and the backward phase accounts for their mass implicitly. An eager
  // one refuses the tick instead, appending nothing (no node of the
  // frontier admits a successor), so the previous state stays intact.
  Status status = Status::Ok();
  if (t == 0) {
    engine_.BeginSources(*successors_, *effective);
  } else if (!engine_.AdvanceLayer(*successors_, t - 1, *effective,
                                   mode_ == FailureMode::kDeferred) &&
             mode_ == FailureMode::kEager) {
    status = InconsistentTickError();
  }
  forward_millis_ += watch.ElapsedMillis();
  return status;
}

void CleanSession::RecordAlphaDelta(double delta) {
  if (obs::ExplainArmed()) explain_.alpha_deltas.push_back(delta);
}

Result<CtGraph> CleanSession::Finish(BuildStats* stats) {
  if (stats != nullptr) {
    stats->forward_millis = forward_millis_;
    stats->peak_nodes = engine_.work().nodes.size();
    stats->peak_edges = engine_.work().edges.size();
    stats->peak_keys = engine_.num_keys();
  }
  // The explain context never perturbs the produced graph.
  Result<CtGraph> graph = ConditionAndCompact(
      engine_.TakeWork(), stats, obs::ExplainArmed() ? &explain_ : nullptr);
  if (graph.ok()) {
    RFID_RETURN_IF_ERROR(RunCtGraphAuditHook(graph.value()));
  }
  return graph;
}

}  // namespace rfidclean::internal_core
