// Friendship graph over users with Jaccard similarity (Eq. 3): the basis of
// the rider-related utility μ_r. Stands in for the Gowalla friendship
// network the paper uses.
#ifndef URR_SOCIAL_SOCIAL_GRAPH_H_
#define URR_SOCIAL_SOCIAL_GRAPH_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/result.h"
#include "common/status.h"

namespace urr {

/// User identifier in the social graph.
using UserId = int32_t;

/// Undirected friendship graph with O(deg) Jaccard computation.
class SocialGraph {
 public:
  /// Constructs an empty (0-user) graph; assign a Build() result to it.
  SocialGraph() : begin_(1, 0) {}

  /// Builds from undirected friend pairs; self-loops and duplicates are
  /// rejected so |Γ(u)| is well defined.
  static Result<SocialGraph> Build(UserId num_users,
                                   std::vector<std::pair<UserId, UserId>> friends);

  UserId num_users() const { return num_users_; }
  int64_t num_friendships() const { return num_friendships_; }

  /// Sorted friend list Γ(u).
  std::span<const UserId> Friends(UserId u) const {
    return {adj_.data() + begin_[u],
            static_cast<size_t>(begin_[u + 1] - begin_[u])};
  }

  /// |Γ(u)|.
  int Degree(UserId u) const {
    return static_cast<int>(begin_[u + 1] - begin_[u]);
  }

  /// Jaccard similarity |Γ(u) ∩ Γ(v)| / |Γ(u) ∪ Γ(v)| (Eq. 3); 0 when both
  /// friend sets are empty. Symmetric; s(u,u) = 1 when Γ(u) nonempty.
  double Jaccard(UserId u, UserId v) const;

 private:
  UserId num_users_ = 0;
  int64_t num_friendships_ = 0;
  std::vector<int64_t> begin_;
  std::vector<UserId> adj_;
};

}  // namespace urr

#endif  // URR_SOCIAL_SOCIAL_GRAPH_H_
