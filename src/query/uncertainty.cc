#include "query/uncertainty.h"

#include <cmath>
#include <unordered_map>

#include "query/marginals.h"
#include "query/stay_query.h"

namespace rfidclean {

namespace {

double EntropyBits(const std::vector<double>& probabilities) {
  double entropy = 0.0;
  for (double p : probabilities) {
    if (p > 0.0) entropy -= p * std::log2(p);
  }
  return entropy;
}

}  // namespace

std::vector<double> LocationEntropyProfile(const CtGraph& graph) {
  StayQueryEvaluator evaluator(graph);
  std::vector<double> profile(static_cast<std::size_t>(graph.length()));
  std::vector<double> probabilities;
  for (Timestamp t = 0; t < graph.length(); ++t) {
    probabilities.clear();
    for (const auto& [location, probability] : evaluator.Evaluate(t)) {
      probabilities.push_back(probability);
    }
    profile[static_cast<std::size_t>(t)] = EntropyBits(probabilities);
  }
  return profile;
}

double TrajectoryEntropy(const CtGraph& graph) {
  std::vector<double> marginals = NodeMarginals(graph);
  std::vector<double> probabilities;
  for (NodeId id : graph.SourceNodes()) {
    probabilities.push_back(graph.SourceProbability(id));
  }
  double entropy = EntropyBits(probabilities);
  for (Timestamp t = 0; t + 1 < graph.length(); ++t) {
    for (NodeId id : graph.NodesAt(t)) {
      double mass = marginals[static_cast<std::size_t>(id)];
      if (mass <= 0.0) continue;
      probabilities.clear();
      for (const CtEdge edge : graph.OutEdges(id)) {
        probabilities.push_back(edge.probability);
      }
      entropy += mass * EntropyBits(probabilities);
    }
  }
  return entropy;
}

double EffectiveTrajectories(const CtGraph& graph) {
  return std::exp2(TrajectoryEntropy(graph));
}

}  // namespace rfidclean
