#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>

#include "perfbench/src/perfbench.h"

namespace perfbench {

namespace {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

const char* LayerName(Layer l) {
  switch (l) {
    case Layer::kBench: return "bench";
    case Layer::kWorkload: return "workload";
    case Layer::kServer: return "server";
    case Layer::kCluster: return "cluster";
    case Layer::kTde: return "tde";
  }
  return "?";
}

int RequestTrace::Begin(Layer layer) {
  int64_t now = NowNs();
  std::lock_guard<std::mutex> lock(mu_);
  SpanRecord span;
  span.layer = layer;
  span.parent = open_.empty() ? -1 : open_.back();
  span.start_ns = now;
  spans_.push_back(span);
  open_.push_back(static_cast<int>(spans_.size()) - 1);
  return open_.back();
}

void RequestTrace::End(int index) {
  int64_t now = NowNs();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[index].end_ns = now;
  if (!open_.empty() && open_.back() == index) open_.pop_back();
}

void RequestTrace::AddForeign(Layer layer, int64_t start_ns, int64_t end_ns) {
  std::lock_guard<std::mutex> lock(mu_);
  if (open_.empty()) return;  // the request already finished
  SpanRecord span;
  span.layer = layer;
  span.parent = open_.back();
  span.start_ns = start_ns;
  span.end_ns = end_ns;
  spans_.push_back(span);
}

std::vector<SpanRecord> RequestTrace::TakeSpans() {
  std::lock_guard<std::mutex> lock(mu_);
  open_.clear();
  return std::move(spans_);
}

void Tracer::Register(const void* key, std::shared_ptr<RequestTrace> trace) {
  std::lock_guard<std::mutex> lock(mu_);
  live_[key] = std::move(trace);
}

void Tracer::Unregister(const void* key) {
  std::lock_guard<std::mutex> lock(mu_);
  live_.erase(key);
}

std::shared_ptr<RequestTrace> Tracer::Find(const void* key) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = live_.find(key);
  return it == live_.end() ? nullptr : it->second;
}

RequestTrace*& Tracer::Current() {
  thread_local RequestTrace* current = nullptr;
  return current;
}

// ---------------------------------------------------------------------------

namespace {

// Drops the last row (or adds an empty one): a corruption every
// comparison sees, whatever the result's shape.
ResultTable Corrupt(const ResultTable& in) {
  ResultTable out(in.columns());
  int64_t keep = in.num_rows() > 0 ? in.num_rows() - 1 : 0;
  for (int64_t r = 0; r < keep; ++r) out.AddRow(in.row(r));
  if (in.num_rows() == 0) {
    out.AddRow(ResultTable::Row(static_cast<size_t>(in.num_columns())));
  }
  return out;
}

}  // namespace

class TracedConnection : public federation::Connection {
 public:
  TracedConnection(std::shared_ptr<TracedDataSource> source,
                   std::unique_ptr<federation::Connection> inner)
      : source_(std::move(source)), inner_(std::move(inner)) {}

  using Connection::Execute;
  StatusOr<ResultTable> Execute(const query::CompiledQuery& cq,
                                federation::ExecutionInfo* info,
                                const ExecContext& ctx) override {
    const Tracer* tracer = source_->tracer_.load(std::memory_order_relaxed);
    int64_t start = tracer != nullptr ? NowNs() : 0;
    StatusOr<ResultTable> result = inner_->Execute(cq, info, ctx);
    if (tracer != nullptr) {
      int64_t end = NowNs();
      if (auto trace = tracer->Find(ctx.trace())) {
        trace->AddForeign(Layer::kTde, start, end);
      }
      source_->traced_queries_.fetch_add(1, std::memory_order_relaxed);
      if (result.ok()) {
        source_->traced_rows_.fetch_add(result->num_rows(),
                                        std::memory_order_relaxed);
      }
    }
    int64_t nth = source_->corrupt_nth_.load(std::memory_order_relaxed);
    if (nth > 0 && result.ok() &&
        source_->executed_.fetch_add(1, std::memory_order_relaxed) + 1 ==
            nth) {
      return Corrupt(*result);
    }
    return result;
  }

  Status CreateTempTable(const query::TempTableSpec& spec) override {
    return inner_->CreateTempTable(spec);
  }
  bool HasTempTable(const std::string& name) const override {
    return inner_->HasTempTable(name);
  }
  Status DropTempTable(const std::string& name) override {
    return inner_->DropTempTable(name);
  }
  std::vector<std::string> TempTableNames() const override {
    return inner_->TempTableNames();
  }
  void Close() override { inner_->Close(); }

 private:
  std::shared_ptr<TracedDataSource> source_;
  std::unique_ptr<federation::Connection> inner_;
};

StatusOr<std::unique_ptr<federation::Connection>> TracedDataSource::Connect() {
  VIZQ_ASSIGN_OR_RETURN(std::unique_ptr<federation::Connection> inner,
                        inner_->Connect());
  return std::unique_ptr<federation::Connection>(
      std::make_unique<TracedConnection>(shared_from_this(),
                                         std::move(inner)));
}

StatusOr<std::vector<ResultTable>> TracedExecutor::ExecuteBatch(
    const ExecContext& ctx, const std::vector<query::AbstractQuery>& batch,
    const dashboard::BatchOptions& options, dashboard::BatchReport* report) {
  SpanScope span(Tracer::Current(), Layer::kCluster);
  return inner_->ExecuteBatch(ctx, batch, options, report);
}

// ---------------------------------------------------------------------------

std::array<double, kNumLayers> SelfTimeNs(
    const std::vector<SpanRecord>& spans) {
  std::array<double, kNumLayers> out{};
  if (spans.empty()) return out;
  // Depth and the interval clipped to the parent's (a child cannot own
  // time its parent did not have).
  const size_t n = spans.size();
  std::vector<int> depth(n, 0);
  std::vector<int64_t> lo(n), hi(n);
  for (size_t i = 0; i < n; ++i) {
    const SpanRecord& s = spans[i];
    lo[i] = s.start_ns;
    hi[i] = std::max(s.start_ns, s.end_ns);
    if (s.parent >= 0 && static_cast<size_t>(s.parent) < i) {
      depth[i] = depth[s.parent] + 1;
      lo[i] = std::max(lo[i], lo[s.parent]);
      hi[i] = std::min(hi[i], hi[s.parent]);
    }
  }
  std::vector<int64_t> cuts;
  cuts.reserve(2 * n);
  for (size_t i = 0; i < n; ++i) {
    if (hi[i] <= lo[i]) continue;
    cuts.push_back(lo[i]);
    cuts.push_back(hi[i]);
  }
  std::sort(cuts.begin(), cuts.end());
  cuts.erase(std::unique(cuts.begin(), cuts.end()), cuts.end());
  std::vector<size_t> owners;
  for (size_t c = 0; c + 1 < cuts.size(); ++c) {
    int64_t a = cuts[c], b = cuts[c + 1];
    int deepest = -1;
    owners.clear();
    for (size_t i = 0; i < n; ++i) {
      if (lo[i] > a || hi[i] < b || hi[i] <= lo[i]) continue;
      if (depth[i] > deepest) {
        deepest = depth[i];
        owners.clear();
      }
      if (depth[i] == deepest) owners.push_back(i);
    }
    if (owners.empty()) continue;
    double share = static_cast<double>(b - a) / owners.size();
    for (size_t i : owners) out[static_cast<int>(spans[i].layer)] += share;
  }
  return out;
}

bool WriteChromeTrace(const std::string& path,
                      const std::vector<RequestSpans>& requests,
                      size_t max_requests) {
  std::ofstream out(path);
  if (!out) return false;
  int64_t origin = 0;
  for (const auto& [id, spans] : requests) {
    if (!spans.empty() && (origin == 0 || spans[0].start_ns < origin)) {
      origin = spans[0].start_ns;
    }
  }
  out << "{\"traceEvents\":[";
  bool first = true;
  size_t written = 0;
  char buf[256];
  for (const auto& [id, spans] : requests) {
    if (written++ >= max_requests) break;
    for (size_t i = 0; i < spans.size(); ++i) {
      const SpanRecord& s = spans[i];
      std::snprintf(buf, sizeof(buf),
                    "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%llu,"
                    "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"request\":%llu,"
                    "\"span\":%zu,\"parent\":%d}}",
                    first ? "" : ",\n", LayerName(s.layer),
                    static_cast<unsigned long long>(id >> 40),
                    static_cast<double>(s.start_ns - origin) / 1e3,
                    static_cast<double>(s.end_ns - s.start_ns) / 1e3,
                    static_cast<unsigned long long>(id), i, s.parent);
      out << buf;
      first = false;
    }
  }
  out << "]}\n";
  return static_cast<bool>(out);
}

}  // namespace perfbench
