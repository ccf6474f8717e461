#include <set>

#include "src/testing/table_diff.h"
#include "src/workload/flights_dashboards.h"

#include "perfbench/src/perfbench.h"

namespace perfbench {

namespace {

int KindKey(workload::SessionAction action, dashboard::ServedFrom from) {
  return static_cast<int>(action) * 8 + static_cast<int>(from);
}

}  // namespace

void GateSampler::Offer(workload::SessionAction action,
                        const std::vector<query::AbstractQuery>& batch,
                        const std::vector<ResultTable>& results,
                        const dashboard::BatchReport& report) {
  bool new_kind = false;
  for (const dashboard::QueryReport& q : report.queries) {
    int key = KindKey(action, q.served_from);
    if (!covered_[key]) new_kind = covered_[key] = true;
  }
  auto capture = [&] {
    ServedBatch s;
    s.action = action;
    s.batch = batch;
    s.results = results;
    for (const dashboard::QueryReport& q : report.queries) {
      s.served_from.push_back(q.served_from);
    }
    return s;
  };
  if (new_kind) {
    first_of_kind_.push_back(capture());
    return;
  }
  // Reservoir sampling (Algorithm R) over everything else.
  ++seen_;
  if (static_cast<int>(reservoir_.size()) < cap_) {
    reservoir_.push_back(capture());
  } else {
    uint64_t j = rng_.Below(static_cast<uint64_t>(seen_));
    if (j < static_cast<uint64_t>(cap_)) reservoir_[j] = capture();
  }
}

std::vector<ServedBatch> GateSampler::Take() {
  std::vector<ServedBatch> out = std::move(first_of_kind_);
  for (ServedBatch& s : reservoir_) out.push_back(std::move(s));
  first_of_kind_.clear();
  reservoir_.clear();
  return out;
}

GateResult RunGate(const Stack& stack, const std::vector<ServedBatch>& sample) {
  GateResult out;
  auto source =
      std::make_shared<federation::TdeDataSource>("oracle", stack.db);
  dashboard::QueryService oracle(source, nullptr);
  for (const std::string& view : stack.views) {
    query::ViewDefinition def = workload::FlightsStarView();
    def.name = view;
    if (Status s = oracle.RegisterView(def); !s.ok()) {
      out.mismatched_batches = static_cast<int64_t>(sample.size());
      out.first_mismatch = "oracle view registration: " + s.ToString();
      return out;
    }
  }
  // Every query on its own: no caches, no batch analysis, no fusion.
  dashboard::BatchOptions opts;
  opts.use_intelligent_cache = false;
  opts.use_literal_cache = false;
  opts.analyze_batch = false;
  opts.fuse_queries = false;

  std::set<std::string> actions, served;
  for (const ServedBatch& s : sample) {
    ++out.batches;
    out.queries += static_cast<int64_t>(s.batch.size());
    actions.insert(workload::SessionActionName(s.action));
    for (dashboard::ServedFrom f : s.served_from) {
      served.insert(dashboard::ServedFromToString(f));
    }
    std::string mismatch;
    auto expected = oracle.ExecuteBatch(s.batch, opts);
    if (!expected.ok()) {
      mismatch = "oracle failed: " + expected.status().ToString();
    } else if (expected->size() != s.results.size()) {
      mismatch = "result count differs";
    }
    for (size_t i = 0; mismatch.empty() && i < s.batch.size(); ++i) {
      const query::AbstractQuery& q = s.batch[i];
      testing::DiffResult diff;
      if (q.has_limit() || !q.order_by.empty()) {
        query::AbstractQuery unlimited = q;
        unlimited.order_by.clear();
        unlimited.limit = 0;
        auto all = oracle.ExecuteQuery(unlimited, opts);
        if (!all.ok()) {
          mismatch = "oracle failed: " + all.status().ToString();
          break;
        }
        diff = testing::DiffForQuery((*expected)[i], *all, s.results[i], q);
      } else {
        diff = testing::DiffTables((*expected)[i], s.results[i]);
      }
      if (!diff.equivalent) {
        mismatch = std::string("query ") + std::to_string(i) + " on view " +
                   q.view + " (" + workload::SessionActionName(s.action) +
                   ", " +
                   (i < s.served_from.size()
                        ? dashboard::ServedFromToString(s.served_from[i])
                        : "?") +
                   "): " + diff.message;
      }
    }
    if (!mismatch.empty()) {
      ++out.mismatched_batches;
      if (out.first_mismatch.empty()) out.first_mismatch = mismatch;
    }
  }
  out.actions.assign(actions.begin(), actions.end());
  out.served_from.assign(served.begin(), served.end());
  return out;
}

}  // namespace perfbench
