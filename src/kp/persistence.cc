#include "kp/persistence.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "util/logging.h"

namespace kgeval {
namespace {

/// Union-find tracking, per component root, the birth time of the oldest
/// member component.
class BirthUnionFind {
 public:
  explicit BirthUnionFind(const std::vector<float>& births)
      : parent_(births.size()), birth_(births) {
    std::iota(parent_.begin(), parent_.end(), 0);
  }

  int32_t Find(int32_t x) {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];
      x = parent_[x];
    }
    return x;
  }

  /// Merges the components of u and v at filtration value `w`. Returns the
  /// birth of the *younger* component (the one that dies), or NaN if u and v
  /// were already connected.
  float Union(int32_t u, int32_t v, float w) {
    (void)w;
    const int32_t ru = Find(u);
    const int32_t rv = Find(v);
    if (ru == rv) return std::numeric_limits<float>::quiet_NaN();
    // Elder rule: the component with the earlier birth survives.
    int32_t survivor = ru, dying = rv;
    if (birth_[rv] < birth_[ru]) std::swap(survivor, dying);
    parent_[dying] = survivor;
    return birth_[dying];
  }

  float BirthOf(int32_t x) { return birth_[Find(x)]; }

 private:
  std::vector<int32_t> parent_;
  std::vector<float> birth_;
};

}  // namespace

PersistenceDiagram ComputeZeroDimPersistence(
    int32_t num_vertices, const std::vector<WeightedEdge>& edges) {
  PersistenceDiagram diagram;
  if (num_vertices <= 0) return diagram;

  // Lower-star vertex births: min incident edge weight. Isolated vertices
  // never appear in the filtration and are skipped.
  std::vector<float> births(num_vertices,
                            std::numeric_limits<float>::infinity());
  float max_weight = -std::numeric_limits<float>::infinity();
  for (const WeightedEdge& e : edges) {
    KGEVAL_DCHECK(e.u >= 0 && e.u < num_vertices);
    KGEVAL_DCHECK(e.v >= 0 && e.v < num_vertices);
    births[e.u] = std::min(births[e.u], e.weight);
    births[e.v] = std::min(births[e.v], e.weight);
    max_weight = std::max(max_weight, e.weight);
  }
  if (edges.empty()) return diagram;

  std::vector<size_t> order(edges.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&edges](size_t a, size_t b) {
    return edges[a].weight < edges[b].weight;
  });

  BirthUnionFind uf(births);
  for (size_t idx : order) {
    const WeightedEdge& e = edges[idx];
    const float dying_birth = uf.Union(e.u, e.v, e.weight);
    if (!std::isnan(dying_birth) && e.weight > dying_birth) {
      diagram.points.emplace_back(dying_birth, e.weight);
    }
  }
  // Essential classes: one per surviving component; closed at the maximum
  // filtration value so downstream distances stay finite.
  std::vector<bool> seen_root(num_vertices, false);
  for (int32_t v = 0; v < num_vertices; ++v) {
    if (!std::isfinite(births[v])) continue;  // Isolated.
    const int32_t root = uf.Find(v);
    if (seen_root[root]) continue;
    seen_root[root] = true;
    if (max_weight > uf.BirthOf(root)) {
      diagram.points.emplace_back(uf.BirthOf(root), max_weight);
    }
  }
  return diagram;
}

double SlicedWassersteinDistance(const PersistenceDiagram& a,
                                 const PersistenceDiagram& b) {
  constexpr int32_t kNumSlices = 16;
  // Diagonal augmentation: each diagram receives the projections of the
  // other's points onto the diagonal, so both multisets have equal size.
  auto diagonal = [](const std::pair<float, float>& p) {
    const float m = 0.5f * (p.first + p.second);
    return std::pair<float, float>(m, m);
  };
  std::vector<std::pair<float, float>> pa(a.points), pb(b.points);
  for (const auto& p : b.points) pa.push_back(diagonal(p));
  for (const auto& p : a.points) pb.push_back(diagonal(p));
  if (pa.empty()) return 0.0;

  double total = 0.0;
  std::vector<double> proj_a(pa.size()), proj_b(pb.size());
  for (int32_t s = 0; s < kNumSlices; ++s) {
    const double theta = M_PI * (static_cast<double>(s) + 0.5) / kNumSlices;
    const double cx = std::cos(theta), cy = std::sin(theta);
    for (size_t i = 0; i < pa.size(); ++i) {
      proj_a[i] = cx * pa[i].first + cy * pa[i].second;
    }
    for (size_t i = 0; i < pb.size(); ++i) {
      proj_b[i] = cx * pb[i].first + cy * pb[i].second;
    }
    std::sort(proj_a.begin(), proj_a.end());
    std::sort(proj_b.begin(), proj_b.end());
    double dist = 0.0;
    for (size_t i = 0; i < proj_a.size(); ++i) {
      dist += std::fabs(proj_a[i] - proj_b[i]);
    }
    total += dist;
  }
  return total / kNumSlices;
}

}  // namespace kgeval
