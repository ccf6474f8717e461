#include "src/rpc/netmodel.h"

#include <chrono>
#include <thread>

namespace vizq::rpc {

double NetworkCostModel::AccountMs(double ms) {
  if (ms <= 0) return 0;
  simulated_ns_.fetch_add(static_cast<int64_t>(ms * 1e6),
                          std::memory_order_relaxed);
  return ms;
}

double NetworkCostModel::ChargeMs(double ms) {
  if (AccountMs(ms) <= 0) return 0;
  if (options_.simulate_latency) {
    std::this_thread::sleep_for(
        std::chrono::microseconds(static_cast<int64_t>(ms * 1000)));
  }
  return ms;
}

double NetworkCostModel::Charge(int64_t payload_bytes) {
  return ChargeMs(CostMs(payload_bytes));
}

double NetworkCostModel::Account(int64_t payload_bytes) {
  return AccountMs(CostMs(payload_bytes));
}

double NetworkCostModel::ChargeOneWay(int64_t payload_bytes) {
  return ChargeMs(
      options_.rtt_ms / 2.0 +
      options_.per_kb_ms * static_cast<double>(payload_bytes) / 1024.0);
}

}  // namespace vizq::rpc
