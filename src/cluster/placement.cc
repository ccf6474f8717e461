#include "src/cluster/placement.h"

#include <algorithm>

#include "src/common/rng.h"

namespace vizq::cluster {

namespace {

// splitmix64 finalizer: a full-avalanche mix, so inputs differing only in
// a few low bits (virtual-node indices) land uniformly on the ring.
// HashCombine alone is one weak round — a member's vnode points would all
// share their high bits and cluster in a single arc, collapsing every
// member to effectively one point.
uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

// FNV-1a over the bytes, seed stirred in, then finalized. FNV keeps
// ownership stable across platforms (no std::hash, whose value is
// implementation-defined — determinism per seed is a tested property).
uint64_t HashString(const std::string& s, uint64_t seed) {
  uint64_t h = 14695981039346656037ULL;
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return Mix64(HashCombine(h, seed));
}

}  // namespace

void ConsistentHashRing::AddNode(const std::string& node_id) {
  auto it = std::lower_bound(members_.begin(), members_.end(), node_id);
  if (it != members_.end() && *it == node_id) return;
  members_.insert(it, node_id);
  Rebuild();
}

void ConsistentHashRing::RemoveNode(const std::string& node_id) {
  auto it = std::lower_bound(members_.begin(), members_.end(), node_id);
  if (it == members_.end() || *it != node_id) return;
  members_.erase(it);
  Rebuild();
}

bool ConsistentHashRing::HasNode(const std::string& node_id) const {
  return std::binary_search(members_.begin(), members_.end(), node_id);
}

void ConsistentHashRing::Rebuild() {
  ring_.clear();
  ring_.reserve(members_.size() *
                static_cast<size_t>(std::max(1, options_.virtual_nodes)));
  for (int m = 0; m < static_cast<int>(members_.size()); ++m) {
    uint64_t base = HashString(members_[m], options_.seed);
    for (int v = 0; v < std::max(1, options_.virtual_nodes); ++v) {
      ring_.push_back(
          Point{Mix64(HashCombine(base, static_cast<uint64_t>(v) + 1)), m});
    }
  }
  std::sort(ring_.begin(), ring_.end(), [](const Point& a, const Point& b) {
    if (a.hash != b.hash) return a.hash < b.hash;
    return a.member < b.member;  // deterministic tie-break
  });
}

std::string ConsistentHashRing::OwnerOf(const std::string& key) const {
  return FirstMemberFrom(key, [](const std::string&) { return true; });
}

std::string ConsistentHashRing::FirstMemberFrom(
    const std::string& key,
    const std::function<bool(const std::string&)>& accept) const {
  if (ring_.empty()) return std::string();
  uint64_t h = HashString(key, options_.seed);
  auto it = std::lower_bound(
      ring_.begin(), ring_.end(), h,
      [](const Point& p, uint64_t hash) { return p.hash < hash; });
  // One lap of the ring, wrapping around past its end.
  for (size_t step = 0; step < ring_.size(); ++step, ++it) {
    if (it == ring_.end()) it = ring_.begin();
    const std::string& member = members_[static_cast<size_t>(it->member)];
    if (accept(member)) return member;
  }
  return std::string();
}

int LoadCap(int keys, int members) {
  return members <= 0 ? 0 : (keys + members - 1) / members;
}

std::string BoundedOwner(const ConsistentHashRing& ring, const std::string& key,
                         const std::map<std::string, int>& loads, int cap) {
  std::string owner =
      ring.FirstMemberFrom(key, [&loads, cap](const std::string& member) {
        auto it = loads.find(member);
        return it == loads.end() || it->second < cap;
      });
  return owner.empty() ? ring.OwnerOf(key) : owner;
}

std::map<std::string, std::string> PlaceBounded(
    const ConsistentHashRing& ring, std::vector<std::string> keys) {
  std::map<std::string, std::string> owners;
  if (ring.num_nodes() == 0) return owners;
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  const int cap = LoadCap(static_cast<int>(keys.size()), ring.num_nodes());
  std::map<std::string, int> loads;
  for (const std::string& key : keys) {
    std::string owner = BoundedOwner(ring, key, loads, cap);
    ++loads[owner];
    owners.emplace(key, std::move(owner));
  }
  return owners;
}

}  // namespace vizq::cluster
