// Consistent-hash placement of published data sources onto data-server
// nodes (the Hillview-style partitioning the cluster coordinator routes
// by). Each node contributes `virtual_nodes` points on a 64-bit hash
// ring; a source is owned by the first node point at or after the hash
// of its name. The properties cluster_test checks:
//
//   * determinism — ownership is a pure function of (members, seed);
//   * minimal movement — adding or removing one of N nodes re-homes at
//     most ~K/N + eps of K sources (the whole point of consistent
//     hashing vs `hash % N`, which moves nearly everything);
//   * virtual nodes smooth the load split across members.
//
// Bounded-load placement (PlaceBounded, below) sits on top of the ring:
// consistent hashing with bounded loads (Mirrokni, Thorup, Zadimoghaddam,
// SODA 2018). A key goes to the first member clockwise from its point
// that holds fewer than ceil(keys / members) keys, so no member hosts
// more than its share even when the ring's arcs are uneven — with 8 keys
// on 4 members, plain ring ownership can put half of them on one node.
//
// Not thread-safe: the ClusterCoordinator owns the ring and guards it
// with its own membership lock.

#ifndef VIZQUERY_CLUSTER_PLACEMENT_H_
#define VIZQUERY_CLUSTER_PLACEMENT_H_

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

namespace vizq::cluster {

struct PlacementOptions {
  // Ring points per node. More points -> smoother split, larger ring.
  int virtual_nodes = 64;
  // Mixed into every ring hash, so two clusters with the same member
  // names can still be given independent placements.
  uint64_t seed = 0;
};

class ConsistentHashRing {
 public:
  explicit ConsistentHashRing(PlacementOptions options = {})
      : options_(options) {}

  // Adding an existing member or removing an absent one is a no-op.
  void AddNode(const std::string& node_id);
  void RemoveNode(const std::string& node_id);
  bool HasNode(const std::string& node_id) const;

  // The member owning `key` (a published source name). Empty string when
  // the ring has no members.
  std::string OwnerOf(const std::string& key) const;

  // The first member clockwise from `key`'s ring point that `accept`s
  // (OwnerOf(key) is asked first). Empty string when none does.
  std::string FirstMemberFrom(
      const std::string& key,
      const std::function<bool(const std::string&)>& accept) const;

  // Current members, sorted by id.
  std::vector<std::string> nodes() const { return members_; }
  int num_nodes() const { return static_cast<int>(members_.size()); }

  const PlacementOptions& options() const { return options_; }

 private:
  void Rebuild();

  struct Point {
    uint64_t hash;
    // Index into members_; the ring stores indices so membership churn
    // does not copy node-id strings per virtual point.
    int member;
  };

  PlacementOptions options_;
  std::vector<std::string> members_;  // sorted
  std::vector<Point> ring_;           // sorted by hash
};

// Most keys one member may hold: ceil(keys / members), 0 without members.
int LoadCap(int keys, int members);

// The first member clockwise from `key` whose `loads` entry is below
// `cap`; the plain ring owner when every member is at the cap.
std::string BoundedOwner(const ConsistentHashRing& ring, const std::string& key,
                         const std::map<std::string, int>& loads, int cap);

// Bounded-load owner of every key: keys are placed in sorted order with
// cap LoadCap(keys, members), so the result is a pure function of (ring
// members, seed, key set) whatever order `keys` comes in (duplicates
// count once). Empty when the ring has no members.
std::map<std::string, std::string> PlaceBounded(
    const ConsistentHashRing& ring, std::vector<std::string> keys);

}  // namespace vizq::cluster

#endif  // VIZQUERY_CLUSTER_PLACEMENT_H_
