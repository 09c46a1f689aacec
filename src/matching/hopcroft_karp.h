// Hopcroft–Karp maximum bipartite matching, O(E * sqrt(V)).
//
// Used where a matching is computed once over a full graph: scattered
// destination selection and the non-incremental reference paths in tests
// and benches. (Algorithm 1's inner MATCH uses the feasibility matcher.)
#pragma once

#include "matching/bipartite_graph.h"

namespace fastpr::matching {

/// Computes a maximum matching of `graph`.
MatchingResult hopcroft_karp(const BipartiteGraph& graph);

/// True iff `m` is a valid matching of `graph` (edges exist, no left
/// vertex used twice). Used by tests and by debug assertions.
bool is_valid_matching(const BipartiteGraph& graph, const MatchingResult& m);

}  // namespace fastpr::matching
