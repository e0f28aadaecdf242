#ifndef RFIDCLEAN_QUERY_MOST_LIKELY_H_
#define RFIDCLEAN_QUERY_MOST_LIKELY_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>
#include <utility>
#include <vector>

#include "common/check.h"
#include "core/ct_graph.h"
#include "model/trajectory.h"

namespace rfidclean {

/// The single most probable valid trajectory under the conditioned
/// distribution, with its probability — max-product (Viterbi) dynamic
/// programming over the ct-graph. Log-space scores keep hour-long
/// trajectories away from underflow. Ties are broken toward the earlier
/// node in layer order (deterministic).
///
/// This is the cleaned counterpart of UncleanedModel::MostLikelyTrajectory:
/// the argmax over *valid* trajectories of p*(t | Θ ∧ IC) instead of the
/// per-instant independent argmax (which is usually not even valid).
inline std::pair<Trajectory, double> MostLikelyTrajectory(
    const CtGraph& graph) {
  RFID_CHECK_GT(graph.length(), 0);
  constexpr double kMinusInfinity = -std::numeric_limits<double>::infinity();
  std::vector<double> best(graph.NumNodes(), kMinusInfinity);
  std::vector<NodeId> parent(graph.NumNodes(), kInvalidNode);

  for (NodeId id : graph.SourceNodes()) {
    best[static_cast<std::size_t>(id)] =
        std::log(graph.SourceProbability(id));
  }
  for (Timestamp t = 0; t + 1 < graph.length(); ++t) {
    for (NodeId id : graph.NodesAt(t)) {
      double score = best[static_cast<std::size_t>(id)];
      if (score == kMinusInfinity) continue;
      for (const CtEdge edge : graph.OutEdges(id)) {
        double candidate = score + std::log(edge.probability);
        if (candidate > best[static_cast<std::size_t>(edge.to)]) {
          best[static_cast<std::size_t>(edge.to)] = candidate;
          parent[static_cast<std::size_t>(edge.to)] = id;
        }
      }
    }
  }

  NodeId argmax = kInvalidNode;
  double max_score = kMinusInfinity;
  for (NodeId id : graph.TargetNodes()) {
    if (best[static_cast<std::size_t>(id)] > max_score) {
      max_score = best[static_cast<std::size_t>(id)];
      argmax = id;
    }
  }
  RFID_CHECK_NE(argmax, kInvalidNode);

  std::vector<LocationId> reversed;
  for (NodeId id = argmax; id != kInvalidNode;
       id = parent[static_cast<std::size_t>(id)]) {
    reversed.push_back(graph.LocationOf(id));
  }
  std::reverse(reversed.begin(), reversed.end());
  return {Trajectory(std::move(reversed)), std::exp(max_score)};
}

/// For out-of-tree code that still calls it by this name (perfbench/).
inline constexpr auto& MostLikelyTrajectoryOf = MostLikelyTrajectory;

}  // namespace rfidclean

#endif  // RFIDCLEAN_QUERY_MOST_LIKELY_H_
