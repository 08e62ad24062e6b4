#ifndef KGEVAL_KP_PERSISTENCE_H_
#define KGEVAL_KP_PERSISTENCE_H_

#include <cstdint>
#include <vector>

namespace kgeval {

/// A weighted, undirected edge of a filtration graph.
struct WeightedEdge {
  int32_t u = 0;
  int32_t v = 0;
  float weight = 0.0f;
};

/// A 0-dimensional persistence diagram: (birth, death) pairs of connected
/// components under the edge-weight filtration.
struct PersistenceDiagram {
  std::vector<std::pair<float, float>> points;
};

/// Computes the 0-dimensional persistent homology of a weighted graph under
/// the lower-star filtration (a vertex is born at its minimum incident edge
/// weight; components merge when the joining edge enters). Uses Kruskal-style
/// union-find: O(E log E). Essential (never-dying) components are closed at
/// the maximum filtration value. This is the piece of Knowledge Persistence
/// (Bastos et al., 2023) that dominates its graph-shaped inputs.
PersistenceDiagram ComputeZeroDimPersistence(
    int32_t num_vertices, const std::vector<WeightedEdge>& edges);

/// Sliced Wasserstein distance between two persistence diagrams
/// (Carriere et al., 2017): each diagram is augmented with the diagonal
/// projections of the other's points, both are projected on 16 directions
/// spanning [0, pi), and the L1 distances of the sorted projections are
/// averaged. Deterministic (fixed direction grid).
double SlicedWassersteinDistance(const PersistenceDiagram& a,
                                 const PersistenceDiagram& b);

}  // namespace kgeval

#endif  // KGEVAL_KP_PERSISTENCE_H_
