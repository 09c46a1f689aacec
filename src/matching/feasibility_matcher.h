// Feasibility-only bipartite b-matcher for Algorithm 1's MATCH.
//
// MATCH(R) asks one question: can every chunk of R fetch its k' helper
// reads from k' DISTINCT healthy nodes, at most one read per node? The
// answer is Hall's condition on R and does not depend on which matching
// a search happens to find, so this matcher keeps no copy-level
// assignment. Each chunk is ONE right vertex (a group) with demand k',
// each node is a left vertex of capacity 1, and a group's k' units are
// placed one augmenting path at a time over groups: a free node in the
// group's adjacency is taken first, otherwise an occupying group is
// rerouted to another of its nodes. Visits are marked with generation
// stamps on groups, so a probe neither allocates nor clears anything.
// Nodes need no mark of their own: an occupied node leads only to its
// owner, whose mark already says whether it was searched. A group that
// cannot place all its units is rolled back.
//
// It accepts and rejects exactly what IncrementalMatcher does on the
// same stream of groups (tests/test_matching.cpp checks this against
// both IncrementalMatcher and Hopcroft–Karp). It exposes no assignment:
// placement, which reads which node serves which read, keeps
// IncrementalMatcher.
//
// Adjacency is held BY POINTER, as in IncrementalMatcher: it must stay
// valid for the matcher's lifetime and that of any copy of it.
#pragma once

#include <cstdint>
#include <vector>

namespace fastpr::matching {

class FeasibilityMatcher {
 public:
  explicit FeasibilityMatcher(int left_count);

  /// Attempts to add one group that needs `demand` distinct left
  /// vertices from `adjacency` (all-or-nothing). On failure the group is
  /// dropped, and the committed groups stay saturated (possibly on other
  /// left vertices than before). `adjacency` must outlive the matcher
  /// and any copies of it.
  bool try_add_group(const std::vector<int>& adjacency, int demand);

  /// Total demand of the committed groups (every unit is matched) — the
  /// right-vertex count of the equivalent copy-level matching.
  int right_count() const { return right_count_; }

  int left_count() const { return static_cast<int>(owner_.size()); }

  /// Drops all committed groups, keeping the left side.
  void reset();

 private:
  /// Places one more unit of `group` along an augmenting path.
  bool augment(int group);
  /// Starts a new search: every stamp from earlier searches goes stale.
  void next_generation();

  std::vector<const std::vector<int>*> group_adj_;
  std::vector<int> owner_;  // left → group holding it (-1 = free)
  std::vector<uint32_t> group_seen_;  // generation of the last visit
  uint32_t generation_ = 0;
  int right_count_ = 0;
};

}  // namespace fastpr::matching
