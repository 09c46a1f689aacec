// Incremental bipartite matcher (Kuhn augmenting paths) with rollback.
//
// Placement's source selection (core/placement.cpp) adds a round's
// chunks one group of k copy-level right vertices at a time. Instead of
// recomputing a maximum matching from scratch per group (the paper's
// Ford–Fulkerson formulation), this matcher keeps the accepted matching
// and tries to augment once per new right vertex; a failed group
// insertion is rolled back. The result is equivalent — a matching
// saturating all right vertices exists iff the augmenting paths exist —
// but an insertion costs O(k·E) instead of O(V·E). Each left vertex (a
// node) absorbs at most one right vertex (a helper read), the paper's
// one read per node per round. matched_left() exposes which node serves
// each read. Algorithm 1, which needs only the yes/no answer, uses
// FeasibilityMatcher (matching/feasibility_matcher.h).
//
// Adjacency is held BY POINTER: group insertions record a pointer to the
// caller's adjacency vector, which must stay valid for the matcher's
// lifetime (and makes copying a matcher cheap).
#pragma once

#include <vector>

namespace fastpr::matching {

class IncrementalMatcher {
 public:
  explicit IncrementalMatcher(int left_count);

  /// Attempts to add `copies` right vertices sharing `adjacency`
  /// (all-or-nothing). On success they are committed and true returns;
  /// on failure the group's vertices are dropped, and the committed
  /// vertices stay matched (possibly rerouted by the group's earlier
  /// copies). `adjacency` must outlive the matcher (and any copies of
  /// it).
  bool try_add_group(const std::vector<int>& adjacency, int copies);

  /// Number of committed right vertices (all matched).
  int right_count() const { return static_cast<int>(right_adj_.size()); }

  int left_count() const { return static_cast<int>(match_l_.size()); }

  /// Left vertex matched to committed right vertex r.
  int matched_left(int r) const;

  /// Drops all committed vertices, keeping the left side.
  void reset();

 private:
  /// Kuhn DFS: find augmenting path from right vertex r.
  bool augment(int r, std::vector<char>& visited_left);

  std::vector<const std::vector<int>*> right_adj_;
  std::vector<int> match_r_;  // right → left (always matched once committed)
  std::vector<int> match_l_;  // left → right (-1 = free)
};

}  // namespace fastpr::matching
