// The benchmark's own checks:
//   * the correctness gate passes on a clean run and trips when the
//     DataSource decorator corrupts one TDE result;
//   * the self-time attribution partitions a request's wall time.
// Small stacks (20k rows, 4 workbooks, one client) keep it to seconds.

#include <cstdio>
#include <cstdlib>

#include "perfbench/src/perfbench.h"

namespace {

using namespace perfbench;

int failures = 0;

void Check(bool ok, const char* what) {
  std::printf("%s: %s\n", ok ? "PASS" : "FAIL", what);
  if (!ok) ++failures;
}

RunResult SmallRun(Workload w, int64_t corrupt_nth) {
  RunOptions opts;
  opts.workload = w;
  opts.seed = 7;
  opts.seconds = 0.5;
  opts.setups = 1;
  opts.min_setup_s = 0;
  opts.clients = 1;
  opts.rows = 20000;
  opts.workbooks = 4;
  opts.corrupt_nth = corrupt_nth;
  auto r = RunBenchmark(opts);
  if (!r.ok()) {
    std::printf("run failed: %s\n", r.status().ToString().c_str());
    std::exit(1);
  }
  return *r;
}

void TestGate(Workload w) {
  std::string name = WorkloadName(w);
  RunResult clean = SmallRun(w, 0);
  Check(clean.correct && clean.gate.batches > 0 &&
            clean.gate.mismatched_batches == 0 && clean.failed == 0,
        (name + ": clean run passes the gate").c_str());
  RunResult corrupt = SmallRun(w, 1);
  Check(!corrupt.correct && corrupt.gate.mismatched_batches >= 1 &&
            corrupt.failed >= 1,
        (name + ": one corrupted TDE result trips the gate").c_str());
  if (!corrupt.gate.first_mismatch.empty()) {
    std::printf("  %s\n", corrupt.gate.first_mismatch.c_str());
  }
}

void TestSelfTime() {
  // root [0,100] > server [10,60] > two overlapping tde [20,40], [30,50].
  std::vector<SpanRecord> spans = {
      {Layer::kBench, -1, 0, 100},
      {Layer::kServer, 0, 10, 60},
      {Layer::kTde, 1, 20, 40},
      {Layer::kTde, 1, 30, 50},
  };
  auto self = SelfTimeNs(spans);
  Check(self[static_cast<int>(Layer::kBench)] == 50 &&
            self[static_cast<int>(Layer::kServer)] == 20 &&
            self[static_cast<int>(Layer::kTde)] == 30,
        "self time: duration minus child coverage, overlap split evenly");
  // A child that outlives its parent is clipped to it.
  std::vector<SpanRecord> skewed = {
      {Layer::kBench, -1, 0, 10},
      {Layer::kWorkload, 0, 5, 15},
  };
  auto clipped = SelfTimeNs(skewed);
  Check(clipped[static_cast<int>(Layer::kBench)] +
                clipped[static_cast<int>(Layer::kWorkload)] ==
            10,
        "self time: rows sum to the root duration");
}

}  // namespace

int main() {
  TestSelfTime();
  TestGate(Workload::kExplore);
  TestGate(Workload::kCluster);
  std::printf("%s\n", failures == 0 ? "all passed" : "FAILED");
  return failures == 0 ? 0 : 1;
}
