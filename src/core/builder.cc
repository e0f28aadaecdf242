#include "core/builder.h"

#include <utility>

#include "common/check.h"
#include "core/clean_session.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace rfidclean {

CtGraphBuilder::CtGraphBuilder(const ConstraintSet& constraints,
                               const SuccessorOptions& options)
    : CtGraphBuilder(constraints, CleanOptions{options, /*preflight=*/true}) {}

CtGraphBuilder::CtGraphBuilder(const ConstraintSet& constraints,
                               const CleanOptions& options)
    : successors_(constraints, options.successor) {
  if (options.preflight) oracle_.emplace(constraints);
  if (options.forward_threads > 1) {
    pool_ = std::make_unique<ThreadPool>(options.forward_threads);
  }
}

Result<CtGraph> CtGraphBuilder::Build(const LSequence& sequence,
                                      BuildStats* stats) const {
  obs::TraceSpan span("core", "build");
  span.AddArg("ticks", static_cast<std::uint64_t>(sequence.length()));
  internal_core::CleanSession session(successors_,
                                      internal_core::FailureMode::kDeferred);
  session.SetThreadPool(pool_.get());
  RFID_RETURN_IF_ERROR(session.Preflight(oracle(), sequence, stats));
  {
    obs::PhaseTimer phase_timer(obs::Phase::kForward);
    for (Timestamp t = 0; t < sequence.length(); ++t) {
      // A deferred session never fails a tick: the verdict comes from
      // conditioning, after every layer is recorded.
      RFID_CHECK(session.Push(sequence.CandidatesAt(t)).ok());
    }
  }
  return session.Finish(stats);
}

}  // namespace rfidclean
