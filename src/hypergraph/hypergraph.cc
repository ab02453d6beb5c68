#include "hypergraph/hypergraph.h"

#include <sstream>

#include "base/check.h"
#include "base/string_util.h"

namespace dhgcn {

namespace {

// True when `edge` (in-range vertices) lists a vertex twice. `seen` is an
// all-false mask over the vertices; it is all-false again on return.
bool RepeatsVertex(const Hyperedge& edge, std::vector<char>* seen) {
  bool repeats = false;
  for (int64_t v : edge) {
    char& mark = (*seen)[static_cast<size_t>(v)];
    repeats = repeats || mark != 0;
    mark = 1;
  }
  for (int64_t v : edge) (*seen)[static_cast<size_t>(v)] = 0;
  return repeats;
}

}  // namespace

Hypergraph::Hypergraph(int64_t num_vertices, std::vector<Hyperedge> edges)
    : Hypergraph(num_vertices, std::move(edges), {}) {}

Hypergraph::Hypergraph(int64_t num_vertices, std::vector<Hyperedge> edges,
                       std::vector<float> edge_weights)
    : num_vertices_(num_vertices),
      edges_(std::move(edges)),
      edge_weights_(std::move(edge_weights)) {
  DHGCN_CHECK_GT(num_vertices_, 0);
  if (edge_weights_.empty()) {
    edge_weights_.assign(edges_.size(), 1.0f);
  }
  DHGCN_CHECK_EQ(edges_.size(), edge_weights_.size());
  std::vector<char> seen(static_cast<size_t>(num_vertices_), 0);
  for (const Hyperedge& e : edges_) {
    DHGCN_CHECK(!e.empty());
    for (int64_t v : e) {
      DHGCN_CHECK(v >= 0 && v < num_vertices_);
    }
    DHGCN_CHECK(!RepeatsVertex(e, &seen));
  }
  for (float w : edge_weights_) DHGCN_CHECK_GT(w, 0.0f);
}

Result<Hypergraph> Hypergraph::Make(int64_t num_vertices,
                                    std::vector<Hyperedge> edges,
                                    std::vector<float> edge_weights) {
  if (num_vertices <= 0) {
    return Status::InvalidArgument(
        StrCat("num_vertices must be positive, got ", num_vertices));
  }
  if (!edge_weights.empty() && edge_weights.size() != edges.size()) {
    return Status::InvalidArgument(
        StrCat("edge_weights size ", edge_weights.size(),
               " != number of edges ", edges.size()));
  }
  std::vector<char> seen(static_cast<size_t>(num_vertices), 0);
  for (size_t i = 0; i < edges.size(); ++i) {
    if (edges[i].empty()) {
      return Status::InvalidArgument(StrCat("hyperedge ", i, " is empty"));
    }
    for (int64_t v : edges[i]) {
      if (v < 0 || v >= num_vertices) {
        return Status::InvalidArgument(
            StrCat("hyperedge ", i, " references vertex ", v,
                   " outside [0, ", num_vertices, ")"));
      }
    }
    if (RepeatsVertex(edges[i], &seen)) {
      return Status::InvalidArgument(
          StrCat("hyperedge ", i, " lists a vertex more than once"));
    }
  }
  for (float w : edge_weights) {
    if (w <= 0.0f) {
      return Status::InvalidArgument("edge weights must be positive");
    }
  }
  return Hypergraph(num_vertices, std::move(edges), std::move(edge_weights));
}

Tensor Hypergraph::IncidenceMatrix() const {
  Tensor h({num_vertices_, num_edges()});
  for (int64_t e = 0; e < num_edges(); ++e) {
    for (int64_t v : edges_[static_cast<size_t>(e)]) {
      h.at(v, e) = 1.0f;
    }
  }
  return h;
}

std::vector<float> Hypergraph::VertexDegrees() const {
  std::vector<float> deg(static_cast<size_t>(num_vertices_), 0.0f);
  for (size_t e = 0; e < edges_.size(); ++e) {
    for (int64_t v : edges_[e]) {
      deg[static_cast<size_t>(v)] += edge_weights_[e];
    }
  }
  return deg;
}

std::vector<int64_t> Hypergraph::EdgeDegrees() const {
  std::vector<int64_t> deg;
  deg.reserve(edges_.size());
  for (const Hyperedge& e : edges_) {
    deg.push_back(static_cast<int64_t>(e.size()));
  }
  return deg;
}

bool Hypergraph::CoversAllVertices() const {
  std::vector<bool> seen(static_cast<size_t>(num_vertices_), false);
  for (const Hyperedge& e : edges_) {
    for (int64_t v : e) seen[static_cast<size_t>(v)] = true;
  }
  for (bool s : seen) {
    if (!s) return false;
  }
  return true;
}

std::string Hypergraph::ToString() const {
  std::ostringstream oss;
  oss << "Hypergraph(V=" << num_vertices_ << ", E=" << num_edges() << ") {";
  for (size_t e = 0; e < edges_.size(); ++e) {
    oss << "\n  e" << e << " (w=" << edge_weights_[e]
        << "): {" << StrJoin(edges_[e], ", ") << "}";
  }
  oss << "\n}";
  return oss.str();
}

}  // namespace dhgcn
