// General-purpose weighted graph on a flat compressed-sparse-row core.
//
// Used for the physical network (ToR/OPS links) and any derived logical
// topologies. Vertices are dense indices [0, vertex_count); edges are stored
// once in insertion order and exposed per-endpoint. Supports directed and
// undirected modes.
//
// Representation: the edge list is the source of truth; adjacency is a CSR
// view over it — one dense half-edge array (`Neighbor` slots) plus a
// vertex-offset array — rebuilt lazily after any mutation. The CSR fill
// walks edges in insertion order, so each vertex's neighbor order is
// EXACTLY the order the old adjacency-list build produced; every traversal
// tie-break (and therefore every routed path) is preserved bit-for-bit.
//
// Threading contract: externally synchronized, like ClusterManager. Even
// const reads may build the lazy CSR cache, so concurrent readers need the
// caller's lock too.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace alvc::graph {

/// FNV-1a offset basis; the seed every fingerprint chain starts from.
inline constexpr std::uint64_t kFingerprintSeed = 14695981039346656037ULL;

/// Folds one 64-bit value into a running fingerprint (order-sensitive:
/// mixing [a, b] and [b, a] yields different results).
[[nodiscard]] std::uint64_t fingerprint_mix(std::uint64_t fp, std::uint64_t value) noexcept;

/// 64-bit fingerprint of a vertex sequence. Two paths fingerprint equal
/// only if they visit the same vertices in the same order (modulo hash
/// collisions); used to detect cached-path corruption cheaply.
[[nodiscard]] std::uint64_t path_fingerprint(std::span<const std::size_t> vertices) noexcept;

struct Edge {
  std::size_t from = 0;
  std::size_t to = 0;
  double weight = 1.0;
};

/// Half-edge as seen from a vertex.
struct Neighbor {
  std::size_t vertex = 0;
  std::size_t edge = 0;  // index into edges()
  double weight = 1.0;
};

/// Borrowed view of a graph's CSR arrays: offsets[v]..offsets[v+1] bound
/// vertex v's slice of the dense half-edge array. Traversal loops grab one
/// view up front and index it directly, skipping the per-call validity
/// check `Graph::neighbors` pays. Invalidated by any graph mutation.
struct CsrView {
  std::span<const std::size_t> offsets;  // vertex_count + 1 entries
  std::span<const Neighbor> adjacency;   // dense half-edges, CSR order

  [[nodiscard]] std::span<const Neighbor> neighbors(std::size_t v) const noexcept {
    return adjacency.subspan(offsets[v], offsets[v + 1] - offsets[v]);
  }
};

class Graph {
 public:
  enum class Kind { kUndirected, kDirected };

  explicit Graph(std::size_t vertex_count = 0, Kind kind = Kind::kUndirected)
      : kind_(kind), vertex_count_(vertex_count) {}

  [[nodiscard]] Kind kind() const noexcept { return kind_; }
  [[nodiscard]] std::size_t vertex_count() const noexcept { return vertex_count_; }
  [[nodiscard]] std::size_t edge_count() const noexcept { return edges_.size(); }

  /// Adds a vertex; returns its index.
  std::size_t add_vertex();

  /// Adds an edge; returns its index. Undirected edges appear in both
  /// endpoints' adjacency. Throws on out-of-range endpoints.
  std::size_t add_edge(std::size_t from, std::size_t to, double weight = 1.0);

  [[nodiscard]] std::span<const Neighbor> neighbors(std::size_t v) const;
  [[nodiscard]] std::span<const Edge> edges() const noexcept { return edges_; }
  [[nodiscard]] const Edge& edge(std::size_t e) const { return edges_.at(e); }
  [[nodiscard]] std::size_t degree(std::size_t v) const { return neighbors(v).size(); }

  /// True if some edge directly connects a and b (O(min degree)).
  [[nodiscard]] bool has_edge(std::size_t a, std::size_t b) const;

  /// The CSR arrays, built now if stale. The view borrows the graph's
  /// storage: any later mutation invalidates it.
  [[nodiscard]] CsrView csr() const;

 private:
  void check_vertex(std::size_t v) const;
  /// Rebuilds the CSR arrays if a mutation made them stale. The check is
  /// inline: every neighbors()/csr() call pays it.
  void ensure_csr() const {
    if (csr_stale_) build_csr();
  }
  void build_csr() const;

  Kind kind_;
  std::size_t vertex_count_ = 0;
  std::vector<Edge> edges_;

  mutable std::vector<std::size_t> csr_offsets_;
  mutable std::vector<Neighbor> csr_adjacency_;
  mutable bool csr_stale_ = true;
};

}  // namespace alvc::graph
