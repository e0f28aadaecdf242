#ifndef RFIDCLEAN_CORE_CLEAN_SESSION_H_
#define RFIDCLEAN_CORE_CLEAN_SESSION_H_

#include <optional>
#include <vector>

#include "analysis/feasibility.h"
#include "common/parallel.h"
#include "common/result.h"
#include "core/builder.h"
#include "core/forward.h"
#include "core/work_graph.h"
#include "model/lsequence.h"

namespace rfidclean::internal_core {

/// Where a clean reports readings no valid trajectory explains
/// (docs/ALGORITHM.md §11.3); successful cleans are identical in both.
enum class FailureMode {
  /// Algorithm 1 (CtGraphBuilder): empty layers are recorded and
  /// conditioning fails with InfeasibleReadingsError().
  kDeferred,
  /// Streaming and batch: the first tick without a consistent successor
  /// fails its Push ("the new tick leaves no consistent interpretation of
  /// the readings") and appends nothing.
  kEager,
};

/// The one cleaning pipeline of Algorithm 1 that every driver runs
/// (CtGraphBuilder::Build, StreamingCleaner, and through it BatchCleaner):
/// the preflight analysis and its doomed fast-fail, per-tick plan
/// filtering and explain capture, the forward engine, and the
/// conditioning + compaction + self-audit finish. Fills BuildStats'
/// preflight, forward and peak fields (conditioning fills the rest).
/// Use: Preflight or AttachPlan, Push per tick, then Finish once. One
/// session per clean; not thread-safe.
class CleanSession {
 public:
  /// The generator (and its constraint set) must outlive the session.
  CleanSession(const SuccessorGenerator& successors, FailureMode mode);
  // Not copyable or movable: plan_ may point into owned_plan_.
  CleanSession(const CleanSession&) = delete;
  CleanSession& operator=(const CleanSession&) = delete;

  void SetThreadPool(ThreadPool* pool) { engine_.SetThreadPool(pool); }
  void ReserveCapacity(std::size_t nodes, std::size_t edges, Timestamp ticks,
                       std::size_t keys) {
    engine_.ReserveCapacity(nodes, edges, ticks, keys);
  }

  /// Analyzes `sequence` (exactly the stream that will be pushed) with
  /// `oracle` and keeps the plan when it prunes anything; a null oracle is
  /// a no-op. A doomed sequence fails with this mode's failure, which is
  /// also the status of the doomed explain summary recorded here.
  Status Preflight(const FeasibilityOracle* oracle, const LSequence& sequence,
                   BuildStats* stats);

  /// Uses a plan computed elsewhere over the exact candidate lists that
  /// will be pushed; it must outlive the session. nullptr detaches.
  void AttachPlan(const PreflightPlan* plan);

  /// Consumes the next tick (see FailureMode for when it fails).
  Status Push(const std::vector<Candidate>& candidates);

  /// Records the streaming filter's per-tick renormalization delta for the
  /// explain pass (no-op unless an explain session is armed).
  void RecordAlphaDelta(double delta);

  const SuccessorGenerator& successors() const { return *successors_; }
  Timestamp num_layers() const { return engine_.num_layers(); }
  const WorkGraph& work() const { return engine_.work(); }

  /// Conditions, compacts and self-audits everything pushed. Consumes the
  /// session; requires at least one pushed tick.
  Result<CtGraph> Finish(BuildStats* stats);

 private:
  const SuccessorGenerator* successors_;
  FailureMode mode_;
  ForwardEngine engine_;
  std::optional<PreflightPlan> owned_plan_;
  const PreflightPlan* plan_ = nullptr;  // owned_plan_ or an attached plan
  std::vector<Candidate> filtered_;
  ExplainBuildContext explain_;
  double forward_millis_ = 0.0;  // wall time inside Push, summed
};

}  // namespace rfidclean::internal_core

#endif  // RFIDCLEAN_CORE_CLEAN_SESSION_H_
