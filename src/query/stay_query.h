#ifndef RFIDCLEAN_QUERY_STAY_QUERY_H_
#define RFIDCLEAN_QUERY_STAY_QUERY_H_

#include <algorithm>
#include <cstddef>
#include <utility>
#include <vector>

#include "core/ct_graph.h"
#include "query/marginals.h"

namespace rfidclean {

/// Evaluates *stay queries* over a ct-graph (§6.6): "where was the monitored
/// object at time τ?". The answer is the conditioned marginal distribution
/// over locations at τ: each location gets the total probability of the
/// represented trajectories whose τ-th step is at it.
///
/// Node marginals are computed once at construction; each query is then a
/// single pass over the τ-th layer. Runs as well on a graph mapped straight
/// off a ct-store (CtStoreReader::LoadView) as on a freshly built one.
class StayQueryEvaluator {
 public:
  /// `graph` must outlive the evaluator.
  explicit StayQueryEvaluator(const CtGraph& graph)
      : graph_(&graph), marginals_(NodeMarginals(graph)) {}

  /// Distribution over locations at time `t` (only locations with positive
  /// probability, unordered). Probabilities sum to 1.
  std::vector<std::pair<LocationId, double>> Evaluate(Timestamp t) const {
    std::vector<std::pair<LocationId, double>> answer;
    for (NodeId id : graph_->NodesAt(t)) {
      LocationId location = graph_->LocationOf(id);
      double mass = marginals_[static_cast<std::size_t>(id)];
      auto it = std::find_if(answer.begin(), answer.end(),
                             [location](const auto& entry) {
                               return entry.first == location;
                             });
      if (it == answer.end()) {
        answer.emplace_back(location, mass);
      } else {
        it->second += mass;
      }
    }
    return answer;
  }

  /// Probability that the object was at `location` at time `t`.
  double Probability(Timestamp t, LocationId location) const {
    double mass = 0.0;
    for (NodeId id : graph_->NodesAt(t)) {
      if (graph_->LocationOf(id) == location) {
        mass += marginals_[static_cast<std::size_t>(id)];
      }
    }
    return mass;
  }

 private:
  const CtGraph* graph_;
  std::vector<double> marginals_;  // per node
};

/// For out-of-tree code that names the evaluator per graph type
/// (perfbench/); tools/lint_includes.py rule 5 bans it in the repository.
template <typename Graph>
using StayQueryEvaluatorT = StayQueryEvaluator;

}  // namespace rfidclean

#endif  // RFIDCLEAN_QUERY_STAY_QUERY_H_
