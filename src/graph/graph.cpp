#include "graph/graph.h"

#include <stdexcept>

#include "graph/scratch.h"

namespace alvc::graph {

std::uint64_t fingerprint_mix(std::uint64_t fp, std::uint64_t value) noexcept {
  // FNV-1a over the value's eight octets; byte-wise so every bit of the
  // input diffuses through the 64-bit state.
  constexpr std::uint64_t kPrime = 1099511628211ULL;
  for (int shift = 0; shift < 64; shift += 8) {
    fp ^= (value >> shift) & 0xffULL;
    fp *= kPrime;
  }
  return fp;
}

std::uint64_t path_fingerprint(std::span<const std::size_t> vertices) noexcept {
  std::uint64_t fp = kFingerprintSeed;
  fp = fingerprint_mix(fp, vertices.size());
  for (std::size_t v : vertices) fp = fingerprint_mix(fp, v);
  return fp;
}

TraversalScratch& thread_scratch() {
  thread_local TraversalScratch scratch;
  return scratch;
}

std::size_t Graph::add_vertex() {
  csr_stale_ = true;
  return vertex_count_++;
}

std::size_t Graph::add_edge(std::size_t from, std::size_t to, double weight) {
  check_vertex(from);
  check_vertex(to);
  const std::size_t e = edges_.size();
  edges_.push_back(Edge{from, to, weight});
  csr_stale_ = true;
  return e;
}

void Graph::build_csr() const {
  // Counting sort over the edge list. Walking edges in insertion order
  // fills each vertex's slice in that same order, reproducing the old
  // per-vertex push_back sequence exactly.
  csr_offsets_.assign(vertex_count_ + 1, 0);
  for (const Edge& e : edges_) {
    ++csr_offsets_[e.from + 1];
    if (kind_ == Kind::kUndirected && e.from != e.to) ++csr_offsets_[e.to + 1];
  }
  for (std::size_t v = 0; v < vertex_count_; ++v) csr_offsets_[v + 1] += csr_offsets_[v];
  csr_adjacency_.resize(csr_offsets_[vertex_count_]);
  std::vector<std::size_t> cursor(csr_offsets_.begin(), csr_offsets_.end() - 1);
  for (std::size_t e = 0; e < edges_.size(); ++e) {
    const Edge& edge = edges_[e];
    csr_adjacency_[cursor[edge.from]++] = Neighbor{edge.to, e, edge.weight};
    if (kind_ == Kind::kUndirected && edge.from != edge.to) {
      csr_adjacency_[cursor[edge.to]++] = Neighbor{edge.from, e, edge.weight};
    }
  }
  csr_stale_ = false;
}

std::span<const Neighbor> Graph::neighbors(std::size_t v) const {
  check_vertex(v);
  ensure_csr();
  return std::span<const Neighbor>(csr_adjacency_.data() + csr_offsets_[v],
                                   csr_offsets_[v + 1] - csr_offsets_[v]);
}

CsrView Graph::csr() const {
  ensure_csr();
  return CsrView{.offsets = csr_offsets_, .adjacency = csr_adjacency_};
}

bool Graph::has_edge(std::size_t a, std::size_t b) const {
  check_vertex(a);
  check_vertex(b);
  const auto adj_a = neighbors(a);
  const auto adj_b = neighbors(b);
  const auto& smaller = adj_a.size() <= adj_b.size() ? adj_a : adj_b;
  const std::size_t target = adj_a.size() <= adj_b.size() ? b : a;
  for (const auto& n : smaller) {
    if (n.vertex == target) return true;
  }
  // Directed graphs store the edge only on `from`, so check the other side too.
  if (kind_ == Kind::kDirected) {
    for (const auto& n : adj_a) {
      if (n.vertex == b) return true;
    }
    return false;
  }
  return false;
}

void Graph::check_vertex(std::size_t v) const {
  if (v >= vertex_count_) throw std::out_of_range("Graph vertex out of range");
}

}  // namespace alvc::graph
