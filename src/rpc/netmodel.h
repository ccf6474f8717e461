// NetworkCostModel: the single source of truth for simulated network
// latency. Both "remote" hops in the process — the distributed cache
// tier (src/cache/distributed.*) and the in-process RPC transport
// (src/rpc/transport.*) — charge the same modeled cost: a per-operation
// round trip plus a per-KB transfer term, really slept so end-to-end
// benches see genuine latency rather than an accounting fiction. A send
// that awaits no reply (the tier's pipelined Put) is accounted, not slept.
//
// Extracted from DistributedCacheTier so the cache tier and the RPC
// layer cannot drift apart on what a byte costs; the old inline model
// also accumulated its total outside any lock (a benign data race this
// version removes with an atomic nanosecond counter).

#ifndef VIZQUERY_RPC_NETMODEL_H_
#define VIZQUERY_RPC_NETMODEL_H_

#include <atomic>
#include <cstdint>

namespace vizq::rpc {

struct NetworkCostOptions {
  double rtt_ms = 0.4;           // per-operation round trip
  double per_kb_ms = 0.002;      // payload transfer
  bool simulate_latency = true;  // sleep for the modeled time
};

class NetworkCostModel {
 public:
  NetworkCostModel() = default;
  explicit NetworkCostModel(NetworkCostOptions options)
      : options_(options) {}

  // Modeled cost of moving `payload_bytes` over one round trip.
  double CostMs(int64_t payload_bytes) const {
    return options_.rtt_ms +
           options_.per_kb_ms * static_cast<double>(payload_bytes) / 1024.0;
  }

  // Accounts (and, when simulate_latency, sleeps) the modeled cost.
  // Returns the charged milliseconds so callers can attribute them.
  double Charge(int64_t payload_bytes);

  // Accounts the modeled cost of `payload_bytes` without sleeping: a
  // pipelined send that awaits no reply (the shared cache tier's Put).
  // Returns the charged milliseconds.
  double Account(int64_t payload_bytes);

  // Charges a half trip: the transfer term plus half the RTT. The RPC
  // transport uses this to split one logical round trip across the
  // request and response legs without double-charging the RTT.
  double ChargeOneWay(int64_t payload_bytes);

  // Total simulated network time charged against this model.
  double simulated_ms() const {
    return static_cast<double>(
               simulated_ns_.load(std::memory_order_relaxed)) /
           1e6;
  }

  const NetworkCostOptions& options() const { return options_; }

 private:
  double ChargeMs(double ms);
  double AccountMs(double ms);

  NetworkCostOptions options_;
  std::atomic<int64_t> simulated_ns_{0};
};

}  // namespace vizq::rpc

#endif  // VIZQUERY_RPC_NETMODEL_H_
