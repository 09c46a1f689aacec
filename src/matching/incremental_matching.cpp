#include "matching/incremental_matching.h"

#include <algorithm>

#include "util/check.h"

namespace fastpr::matching {

IncrementalMatcher::IncrementalMatcher(int left_count) {
  FASTPR_CHECK(left_count >= 0);
  match_l_.assign(static_cast<size_t>(left_count), -1);
}

bool IncrementalMatcher::augment(int r, std::vector<char>& visited_left) {
  for (int l : *right_adj_[static_cast<size_t>(r)]) {
    if (visited_left[static_cast<size_t>(l)]) continue;
    visited_left[static_cast<size_t>(l)] = 1;
    // Take l if it is free, else try to reroute its occupant elsewhere.
    const int occupant = match_l_[static_cast<size_t>(l)];
    if (occupant == -1 || augment(occupant, visited_left)) {
      match_l_[static_cast<size_t>(l)] = r;
      match_r_[static_cast<size_t>(r)] = l;
      return true;
    }
  }
  return false;
}

bool IncrementalMatcher::try_add_group(const std::vector<int>& adjacency,
                                       int copies) {
  FASTPR_CHECK(copies >= 1);
  for (int l : adjacency) {
    FASTPR_CHECK_MSG(l >= 0 && l < left_count(),
                     "adjacency to nonexistent left vertex " << l);
  }
  // A failed single augmentation leaves the matching untouched, so a
  // failure after t successes only needs the t new vertices dropped; the
  // committed vertices keep whatever left vertices those t successes
  // rerouted them to.
  const size_t saved_right = right_adj_.size();
  std::vector<char> visited_left(match_l_.size(), 0);
  for (int copy = 0; copy < copies; ++copy) {
    right_adj_.push_back(&adjacency);
    match_r_.push_back(-1);
    std::fill(visited_left.begin(), visited_left.end(), 0);
    if (!augment(right_count() - 1, visited_left)) {
      for (size_t r = saved_right; r < match_r_.size(); ++r) {
        if (match_r_[r] >= 0) match_l_[static_cast<size_t>(match_r_[r])] = -1;
      }
      right_adj_.resize(saved_right);
      match_r_.resize(saved_right);
      return false;
    }
  }
  return true;
}

int IncrementalMatcher::matched_left(int r) const {
  FASTPR_CHECK(r >= 0 && r < right_count());
  return match_r_[static_cast<size_t>(r)];
}

void IncrementalMatcher::reset() {
  right_adj_.clear();
  match_r_.clear();
  std::fill(match_l_.begin(), match_l_.end(), -1);
}

}  // namespace fastpr::matching
