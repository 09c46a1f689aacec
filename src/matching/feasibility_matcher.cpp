#include "matching/feasibility_matcher.h"

#include <algorithm>

#include "util/check.h"

namespace fastpr::matching {

FeasibilityMatcher::FeasibilityMatcher(int left_count) {
  FASTPR_CHECK(left_count >= 0);
  owner_.assign(static_cast<size_t>(left_count), -1);
}

void FeasibilityMatcher::next_generation() {
  if (++generation_ == 0) {
    // Wrapped: stamps from 2^32 searches ago would read as current.
    std::fill(group_seen_.begin(), group_seen_.end(), 0);
    generation_ = 1;
  }
}

bool FeasibilityMatcher::augment(int group) {
  const std::vector<int>& adj = *group_adj_[static_cast<size_t>(group)];
  // A free node ends the path at once.
  for (int l : adj) {
    if (owner_[static_cast<size_t>(l)] == -1) {
      owner_[static_cast<size_t>(l)] = group;
      return true;
    }
  }
  // Otherwise take a node whose occupant can move to another of its own.
  // A group already searched in this generation cannot: its search saw
  // every node it could reach, and the visited set only grew since.
  for (int l : adj) {
    const int occupant = owner_[static_cast<size_t>(l)];
    if (group_seen_[static_cast<size_t>(occupant)] == generation_) continue;
    group_seen_[static_cast<size_t>(occupant)] = generation_;
    if (augment(occupant)) {
      owner_[static_cast<size_t>(l)] = group;
      return true;
    }
  }
  return false;
}

bool FeasibilityMatcher::try_add_group(const std::vector<int>& adjacency,
                                       int demand) {
  FASTPR_CHECK(demand >= 1);
  for (int l : adjacency) {
    FASTPR_CHECK_MSG(l >= 0 && l < left_count(),
                     "adjacency to nonexistent left vertex " << l);
  }
  const int group = static_cast<int>(group_adj_.size());
  group_adj_.push_back(&adjacency);
  group_seen_.push_back(0);
  for (int unit = 0; unit < demand; ++unit) {
    next_generation();
    // The new group is the path's root: a node it already holds is no
    // way forward, so it counts as searched from the start.
    group_seen_[static_cast<size_t>(group)] = generation_;
    if (!augment(group)) {
      // A failed search changes nothing, so only the units placed so far
      // go; the groups they rerouted keep their new nodes.
      for (int l : adjacency) {
        if (owner_[static_cast<size_t>(l)] == group) {
          owner_[static_cast<size_t>(l)] = -1;
        }
      }
      group_adj_.pop_back();
      group_seen_.pop_back();
      return false;
    }
  }
  right_count_ += demand;
  return true;
}

void FeasibilityMatcher::reset() {
  group_adj_.clear();
  group_seen_.clear();
  std::fill(owner_.begin(), owner_.end(), -1);
  right_count_ = 0;
}

}  // namespace fastpr::matching
