#ifndef RFIDCLEAN_QUERY_MARGINALS_H_
#define RFIDCLEAN_QUERY_MARGINALS_H_

#include <cstddef>
#include <vector>

#include "core/ct_graph.h"

namespace rfidclean {

/// Probability that a random valid trajectory (under the conditioned
/// distribution) passes through each node: α(source) = p_N(source),
/// α(n) = Σ_{(n',n)} α(n') · p_E(n', n). Because every non-target node's
/// outgoing PDF sums to 1, α(n) is exactly the node's marginal probability
/// (every prefix extends to a probability-1 set of futures), so each layer's
/// α values sum to 1. The accumulation order is fixed by node and edge
/// order, so owned and mapped copies of a graph give bit-identical results.
inline std::vector<double> NodeMarginals(const CtGraph& graph) {
  std::vector<double> alpha(graph.NumNodes(), 0.0);
  for (NodeId id : graph.SourceNodes()) {
    alpha[static_cast<std::size_t>(id)] = graph.SourceProbability(id);
  }
  for (Timestamp t = 0; t + 1 < graph.length(); ++t) {
    for (NodeId id : graph.NodesAt(t)) {
      double mass = alpha[static_cast<std::size_t>(id)];
      if (mass == 0.0) continue;
      for (const CtEdge edge : graph.OutEdges(id)) {
        alpha[static_cast<std::size_t>(edge.to)] += mass * edge.probability;
      }
    }
  }
  return alpha;
}

}  // namespace rfidclean

#endif  // RFIDCLEAN_QUERY_MARGINALS_H_
