#ifndef RFIDCLEAN_CORE_CT_GRAPH_H_
#define RFIDCLEAN_CORE_CT_GRAPH_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/result.h"
#include "common/status.h"
#include "core/location_node.h"
#include "model/trajectory.h"
#include "store/format.h"

namespace rfidclean {

/// Identifier of a node within a CtGraph (dense, 0-based, in layer order).
using NodeId = std::int32_t;
inline constexpr NodeId kInvalidNode = -1;

/// One out-edge: an input record of CtGraph::Assemble and the value
/// CtGraph::OutEdges yields.
struct CtEdge {
  NodeId to = kInvalidNode;
  double probability = 0.0;
};

/// The storage of a CtGraph, section for section the layout of the binary
/// ct-graph blob (docs/FORMATS.md): node ids dense in layer order, the four
/// fixed-width sections as little-endian byte arrays read through
/// store/format.h's Load* codecs, and the two varint sections (node keys,
/// edge targets) as flat decoded arrays. The fixed-width arrays point into
/// bytes the owning CtGraph keeps alive — its own buffer, or a mapped blob.
struct CtGraphSections {
  Timestamp length = 0;
  std::uint64_t num_nodes = 0;
  std::uint64_t num_edges = 0;

  const unsigned char* layer_begin = nullptr;  // (length + 1) x u32
  const unsigned char* edge_rows = nullptr;    // (num_nodes + 1) x u32
  const unsigned char* source_prob = nullptr;  // layer-0 count x double
  const unsigned char* edge_prob = nullptr;    // num_edges x double

  std::vector<LocationId> locations;    // one per node, id order
  std::vector<Timestamp> deltas;        // one per node, id order
  std::vector<std::uint32_t> tl_begin;  // num_nodes + 1 offsets into...
  std::vector<Departure> departures;    // ...concatenated sorted TL lists
  std::vector<NodeId> edge_targets;     // CSR order

  std::uint32_t LayerBegin(Timestamp t) const {
    return store::LoadU32(layer_begin +
                          std::size_t{4} * static_cast<std::size_t>(t));
  }
  std::uint32_t EdgeRow(std::uint64_t node) const {
    return store::LoadU32(edge_rows + std::size_t{4} * node);
  }
  /// Number of source (t = 0) nodes, i.e. of SRCPROB entries.
  std::uint32_t NumSources() const { return length > 0 ? LayerBegin(1) : 0; }
};

/// Contiguous node-id range [first, last): a layer is an id interval.
class IdRange {
 public:
  class Iterator {
   public:
    explicit Iterator(NodeId id) : id_(id) {}
    NodeId operator*() const { return id_; }
    Iterator& operator++() {
      ++id_;
      return *this;
    }
    friend bool operator==(const Iterator&, const Iterator&) = default;

   private:
    NodeId id_;
  };

  IdRange(NodeId first, NodeId last) : first_(first), last_(last) {}
  Iterator begin() const { return Iterator(first_); }
  Iterator end() const { return Iterator(last_); }
  std::size_t size() const { return static_cast<std::size_t>(last_ - first_); }
  bool empty() const { return first_ == last_; }
  bool contains(NodeId id) const { return id >= first_ && id < last_; }
  NodeId operator[](std::size_t i) const {
    return first_ + static_cast<NodeId>(i);
  }
  friend bool operator==(const IdRange&, const IdRange&) = default;

 private:
  NodeId first_;
  NodeId last_;
};

/// Random-access range over one node's out-edges, yielding CtEdge values
/// from the split target / probability arrays.
class EdgeRange {
 public:
  class Iterator {
   public:
    Iterator(const NodeId* targets, const unsigned char* prob,
             std::size_t index)
        : targets_(targets), prob_(prob), index_(index) {}
    CtEdge operator*() const {
      return CtEdge{targets_[index_],
                    store::LoadDouble(prob_ + std::size_t{8} * index_)};
    }
    Iterator& operator++() {
      ++index_;
      return *this;
    }
    friend bool operator==(const Iterator& a, const Iterator& b) {
      return a.index_ == b.index_;
    }

   private:
    const NodeId* targets_;
    const unsigned char* prob_;
    std::size_t index_;
  };

  EdgeRange(const NodeId* targets, const unsigned char* prob,
            std::size_t count)
      : targets_(targets), prob_(prob), count_(count) {}

  Iterator begin() const { return Iterator(targets_, prob_, 0); }
  Iterator end() const { return Iterator(targets_, prob_, count_); }
  std::size_t size() const { return count_; }
  bool empty() const { return count_ == 0; }
  CtEdge operator[](std::size_t i) const {
    return CtEdge{targets_[i], store::LoadDouble(prob_ + std::size_t{8} * i)};
  }

 private:
  const NodeId* targets_;
  const unsigned char* prob_;
  std::size_t count_;
};

/// Contiguous span over one node's TL departure list.
struct DepartureSpan {
  const Departure* first = nullptr;
  const Departure* last = nullptr;
  const Departure* begin() const { return first; }
  const Departure* end() const { return last; }
};

/// The conditioned trajectory graph of Definition 4, as returned by
/// CtGraphBuilder (Algorithm 1): a DAG layered by timestamp whose
/// source-to-target paths one-to-one correspond to the valid trajectories,
/// and whose probabilities are conditioned so that
///   p(path) = p_N(source) · Π p_E(edge) = p*(trajectory | IC).
///
/// The graph is immutable and stored as its binary blob's sections
/// (CtGraphSections), either in buffers it owns (built by compaction or
/// Assemble) or aliasing a mapped blob it keeps alive (store/graph_codec.h).
/// Copies share that storage. Invariants (checked by CheckConsistency):
///  - source probabilities sum to 1;
///  - every non-target node's outgoing edge probabilities sum to 1;
///  - every edge advances time by one;
///  - every node lies on some source-to-target path.
class CtGraph {
 public:
  /// An empty graph (length 0); useful only as an assignment target.
  CtGraph() = default;

  using Edge = CtEdge;

  /// Input record of Assemble: one node with its key and out-edges.
  struct Node {
    Timestamp time = 0;
    NodeKey key;
    /// p_N for source nodes (time == 0); must be 0 otherwise.
    double source_probability = 0.0;
    std::vector<Edge> out_edges;
  };

  /// Assembles a graph from raw node records spanning `length` time points
  /// (deserialization support). Records that are not in layer order are
  /// renumbered stably by layer (edge targets follow). Every invariant is
  /// re-validated via CheckConsistency.
  static Result<CtGraph> Assemble(std::vector<Node> nodes, Timestamp length);

  /// Assembles WITHOUT validating any invariant: edges may dangle, layers
  /// may be empty, probabilities may be NaN or unnormalized. Exists so the
  /// auditor (analysis/graph_audit.h) can be exercised against corrupted
  /// graphs that the checked paths refuse to construct; never use it to
  /// build graphs for queries. Node timestamps must still lie in
  /// [0, length) (RFID_CHECK) so the nodes can be ordered by layer.
  static CtGraph AssembleUnchecked(std::vector<Node> nodes,
                                   Timestamp length);

  /// Wraps sections whose structure the caller has verified (the blob
  /// parser, store/blob_layout.h); `storage` keeps their fixed-width arrays
  /// alive (null when the caller owns the bytes for the graph's lifetime).
  static CtGraph FromSections(CtGraphSections sections,
                              std::shared_ptr<const void> storage);

  /// Number of time points spanned (T = [0, length)).
  Timestamp length() const { return sections_.length; }
  std::size_t NumNodes() const {
    return static_cast<std::size_t>(sections_.num_nodes);
  }
  std::size_t NumEdges() const {
    return static_cast<std::size_t>(sections_.num_edges);
  }

  IdRange NodesAt(Timestamp t) const {
    RFID_CHECK_GE(t, 0);
    RFID_CHECK_LT(t, length());
    return IdRange(static_cast<NodeId>(sections_.LayerBegin(t)),
                   static_cast<NodeId>(sections_.LayerBegin(t + 1)));
  }
  IdRange SourceNodes() const { return NodesAt(0); }
  IdRange TargetNodes() const { return NodesAt(length() - 1); }

  EdgeRange OutEdges(NodeId id) const {
    const std::size_t i = CheckedIndex(id);
    const std::uint32_t begin = sections_.EdgeRow(i);
    const std::uint32_t end = sections_.EdgeRow(i + 1);
    return EdgeRange(sections_.edge_targets.data() + begin,
                     sections_.edge_prob + std::uint64_t{8} * begin,
                     end - begin);
  }
  LocationId LocationOf(NodeId id) const {
    return sections_.locations[CheckedIndex(id)];
  }
  /// The node key's latency delta (kDeltaBottom when absent).
  Timestamp DeltaOf(NodeId id) const {
    return sections_.deltas[CheckedIndex(id)];
  }
  /// The node key's TL departure list (sorted by location).
  DepartureSpan DeparturesOf(NodeId id) const {
    const std::size_t i = CheckedIndex(id);
    return DepartureSpan{
        sections_.departures.data() + sections_.tl_begin[i],
        sections_.departures.data() + sections_.tl_begin[i + 1]};
  }
  /// p_N of a source node; 0 for every other node.
  double SourceProbability(NodeId id) const {
    const std::size_t i = CheckedIndex(id);
    if (i >= sections_.NumSources()) return 0.0;
    return store::LoadDouble(sections_.source_prob + std::size_t{8} * i);
  }
  /// Timestamp of `id`, recovered from the layer offsets (binary search).
  Timestamp TimeOf(NodeId id) const;

  /// The storage, for the blob encoder (store/graph_codec.h).
  const CtGraphSections& sections() const { return sections_; }

  /// Conditioned probability of `trajectory` (0 when it is not represented,
  /// i.e. not valid). A trajectory follows at most one path: successor keys
  /// are unique per (parent, target location).
  double TrajectoryProbability(const Trajectory& trajectory) const;

  /// Enumerates every represented trajectory with its conditioned
  /// probability. Intended for tests and small graphs; aborts (RFID_CHECK)
  /// when more than `max_paths` paths exist.
  std::vector<std::pair<Trajectory, double>> EnumerateTrajectories(
      std::size_t max_paths = 1u << 20) const;

  /// Verifies the class invariants within `tolerance`.
  Status CheckConsistency(double tolerance = 1e-9) const;

  /// Estimated resident size of the graph in bytes: the fixed-width
  /// sections plus the capacities of the decoded arrays. This is the
  /// quantity reported by the §6.7 memory experiment.
  std::size_t ApproximateBytes() const;

  /// Stable FNV-1a digest of the graph structure: length, every node's
  /// (time, key, source-probability bit pattern) and every edge's
  /// (target, probability bit pattern) in id order. Equal graphs digest
  /// equally across runs, platforms, build configurations and storage
  /// (owned or mapped); stored in every blob header and used as the graph
  /// digest in trace provenance.
  std::uint64_t Digest() const;

 private:
  friend class CtGraphWriter;

  std::size_t CheckedIndex(NodeId id) const {
    RFID_CHECK_GE(id, 0);
    RFID_CHECK_LT(static_cast<std::size_t>(id), NumNodes());
    return static_cast<std::size_t>(id);
  }

  CtGraphSections sections_;
  std::shared_ptr<const void> storage_;
};

/// Writes an owned CtGraph node by node, in layer order, straight into its
/// section arrays. Compaction (core/work_graph.h) and Assemble use it.
class CtGraphWriter {
 public:
  /// Sizes the arrays for exactly these counts; `num_sources` is the number
  /// of nodes at time 0.
  CtGraphWriter(Timestamp length, std::size_t num_nodes,
                std::size_t num_sources, std::size_t num_edges);

  /// Appends the next node (id = number of nodes added before). Times never
  /// decrease from call to call; `source_probability` is stored for time-0
  /// nodes only.
  void AddNode(Timestamp time, const NodeKey& key,
               double source_probability) {
    RFID_CHECK_LT(nodes_, sections_.num_nodes);
    RFID_CHECK_GE(time, next_layer_ - 1);
    RFID_CHECK_LT(time, sections_.length);
    for (; next_layer_ <= time; ++next_layer_) {
      store::StoreU32(layers_ + std::size_t{4} *
                                    static_cast<std::size_t>(next_layer_),
                      static_cast<std::uint32_t>(nodes_));
    }
    store::StoreU32(rows_ + std::size_t{4} * nodes_,
                    static_cast<std::uint32_t>(edges_));
    if (time == 0) {
      RFID_CHECK_LT(sources_, num_sources_);
      store::StoreDouble(sources_ptr_ + std::size_t{8} * sources_,
                         source_probability);
      ++sources_;
    }
    sections_.locations.push_back(key.location);
    sections_.deltas.push_back(key.delta);
    // ForEach, not range-for: TL lists longer than the inline capacity
    // spill to the heap and are not contiguous.
    key.departures.ForEach([this](const Departure& departure) {
      sections_.departures.push_back(departure);
    });
    sections_.tl_begin.push_back(
        static_cast<std::uint32_t>(sections_.departures.size()));
    ++nodes_;
  }

  /// Appends an out-edge of the node added last.
  void AddEdge(NodeId to, double probability) {
    RFID_CHECK_LT(edges_, sections_.num_edges);
    sections_.edge_targets.push_back(to);
    store::StoreDouble(edge_prob_ + std::size_t{8} * edges_, probability);
    ++edges_;
  }

  /// The finished graph; checks the counts, not the invariants.
  CtGraph Finish() &&;

 private:
  CtGraphSections sections_;
  std::shared_ptr<unsigned char> buffer_;
  unsigned char* layers_ = nullptr;
  unsigned char* rows_ = nullptr;
  unsigned char* sources_ptr_ = nullptr;
  unsigned char* edge_prob_ = nullptr;
  std::size_t num_sources_ = 0;
  std::uint64_t nodes_ = 0;
  std::uint64_t edges_ = 0;
  std::size_t sources_ = 0;
  Timestamp next_layer_ = 0;  // first layer whose offset is still unwritten
};

}  // namespace rfidclean

#endif  // RFIDCLEAN_CORE_CT_GRAPH_H_
