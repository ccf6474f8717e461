#include "src/obs/perf_recorder.h"

#include <algorithm>
#include <cstdio>
#include <tuple>

namespace vizq::obs {

namespace {

void AppendJsonEscaped(const std::string& s, std::string* out) {
  for (char c : s) {
    switch (c) {
      case '"': out->append("\\\""); break;
      case '\\': out->append("\\\\"); break;
      case '\n': out->append("\\n"); break;
      case '\t': out->append("\\t"); break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out->append(buf);
        } else {
          out->push_back(c);
        }
    }
  }
}

std::string FormatUs(double us) {
  // Chrome's ts/dur are microseconds; integers keep the export stable.
  return std::to_string(static_cast<int64_t>(us < 0 ? 0 : us));
}

double ToUs(std::chrono::steady_clock::duration d) {
  return std::chrono::duration<double, std::micro>(d).count();
}

}  // namespace

int RecordedSpan::TotalSpans() const {
  int n = 1;
  for (const RecordedSpan& c : children) n += c.TotalSpans();
  return n;
}

PerfRecorder::PerfRecorder(PerfRecorderOptions options)
    : options_(options), epoch_(std::chrono::steady_clock::now()) {}

namespace {

RecordedSpan CopySpan(const Span& span,
                      std::chrono::steady_clock::time_point epoch) {
  RecordedSpan out;
  out.name = span.name();
  out.start_us = ToUs(span.start_time() - epoch);
  out.duration_us = span.duration_ms() * 1000.0;
  for (const Span* child : span.children()) {
    out.children.push_back(CopySpan(*child, epoch));
  }
  return out;
}

}  // namespace

RecordedRequest CaptureRequest(const ExecContext& ctx, const Span& span,
                               const std::string& name,
                               std::chrono::steady_clock::time_point epoch) {
  RecordedRequest request;
  request.name = name;
  request.root = CopySpan(span, epoch);
  request.duration_us = request.root.duration_us;

  if (ctx.log_enabled()) {
    // Keep only breadcrumbs inside the span's window: a renderer reuses
    // one context across several batches, and each batch records only its
    // own decisions.
    auto window_start = span.start_time();
    auto window_end =
        window_start + std::chrono::nanoseconds(static_cast<int64_t>(
                           request.duration_us * 1000.0));
    for (const RequestLog::Event& ev : ctx.log()->events()) {
      if (ev.at < window_start || ev.at > window_end) continue;
      RecordedEvent out;
      out.category = ev.category;
      out.detail = ev.detail;
      out.at_us = ToUs(ev.at - epoch);
      request.events.push_back(std::move(out));
    }
    request.attachments = ctx.log()->attachments();
  }
  return request;
}

int64_t PerfRecorder::Record(const ExecContext& ctx, const Span* span,
                             const std::string& name) {
  if (span == nullptr || !ctx.tracing_enabled()) return 0;

  RecordedRequest request = CaptureRequest(ctx, *span, name, epoch_);

  std::lock_guard<std::mutex> lock(mu_);
  request.id = next_id_++;
  ++total_recorded_;
  int64_t id = request.id;
  AppendLocked(std::move(request));
  return id;
}

void PerfRecorder::AppendLocked(RecordedRequest request) {
  double threshold_us = options_.slow_threshold_ms * 1000.0;
  if (request.duration_us >= threshold_us && options_.slow_log_capacity > 0) {
    if (static_cast<int>(slow_.size()) < options_.slow_log_capacity) {
      slow_.push_back(request);
    } else {
      // Evict the fastest retained entry if this one is slower.
      auto fastest = std::min_element(
          slow_.begin(), slow_.end(),
          [](const RecordedRequest& a, const RecordedRequest& b) {
            return a.duration_us < b.duration_us;
          });
      if (fastest->duration_us < request.duration_us) *fastest = request;
    }
  }
  if (options_.ring_capacity > 0) {
    if (static_cast<int>(ring_.size()) >= options_.ring_capacity) {
      ring_.erase(ring_.begin());
    }
    ring_.push_back(std::move(request));
  }
}

std::vector<RecordedRequest> PerfRecorder::Recent() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<RecordedRequest> out(ring_.rbegin(), ring_.rend());
  return out;
}

std::vector<RecordedRequest> PerfRecorder::Slowest() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<RecordedRequest> out = slow_;
  std::sort(out.begin(), out.end(),
            [](const RecordedRequest& a, const RecordedRequest& b) {
              return a.duration_us > b.duration_us;
            });
  return out;
}

RecordedRequest PerfRecorder::FindById(int64_t id) const {
  std::lock_guard<std::mutex> lock(mu_);
  for (const RecordedRequest& r : ring_) {
    if (r.id == id) return r;
  }
  for (const RecordedRequest& r : slow_) {
    if (r.id == id) return r;
  }
  return RecordedRequest{};
}

int64_t PerfRecorder::NextRecordId() const {
  std::lock_guard<std::mutex> lock(mu_);
  return next_id_;
}

int64_t PerfRecorder::total_recorded() const {
  std::lock_guard<std::mutex> lock(mu_);
  return total_recorded_;
}

namespace {

void AppendSpanEvents(const RecordedSpan& span, int64_t pid, int depth,
                      bool* first, std::string* out) {
  if (!*first) out->push_back(',');
  *first = false;
  out->append("{\"name\":\"");
  AppendJsonEscaped(span.name, out);
  // One trace "thread" per tree depth: chrome://tracing renders nested
  // spans on separate rows without needing flow events.
  out->append("\",\"ph\":\"X\",\"ts\":");
  out->append(FormatUs(span.start_us));
  out->append(",\"dur\":");
  out->append(FormatUs(span.duration_us));
  out->append(",\"pid\":");
  out->append(std::to_string(pid));
  out->append(",\"tid\":");
  out->append(std::to_string(depth));
  out->append("}");
  for (const RecordedSpan& child : span.children) {
    AppendSpanEvents(child, pid, depth + 1, first, out);
  }
}

void AppendRequestEvents(const RecordedRequest& request, bool* first,
                         std::string* out) {
  int64_t pid = request.id;
  AppendSpanEvents(request.root, pid, 0, first, out);
  // Concurrent tasks log breadcrumbs in whatever order their threads run,
  // so instants are emitted sorted by (category, detail): the export is a
  // function of the event set, and viewers place them by "ts" anyway.
  std::vector<RecordedEvent> events = request.events;
  std::sort(events.begin(), events.end(),
            [](const RecordedEvent& a, const RecordedEvent& b) {
              return std::tie(a.category, a.detail) <
                     std::tie(b.category, b.detail);
            });
  for (const RecordedEvent& ev : events) {
    if (!*first) out->push_back(',');
    *first = false;
    out->append("{\"name\":\"");
    AppendJsonEscaped(ev.category, out);
    out->append("\",\"ph\":\"i\",\"s\":\"p\",\"ts\":");
    out->append(FormatUs(ev.at_us));
    out->append(",\"pid\":");
    out->append(std::to_string(pid));
    out->append(",\"tid\":0,\"args\":{\"detail\":\"");
    AppendJsonEscaped(ev.detail, out);
    out->append("\"}}");
  }
  // Name the process after the request so Perfetto's track labels are
  // meaningful.
  if (!*first) out->push_back(',');
  *first = false;
  out->append(
      "{\"name\":\"process_name\",\"ph\":\"M\",\"ts\":0,\"pid\":");
  out->append(std::to_string(pid));
  out->append(",\"tid\":0,\"args\":{\"name\":\"");
  AppendJsonEscaped(request.name, out);
  out->append("\"}}");
}

}  // namespace

std::string RequestsToChromeTrace(
    const std::vector<RecordedRequest>& requests) {
  std::string out = "{\"traceEvents\":[";
  bool first = true;
  for (const RecordedRequest& r : requests) {
    AppendRequestEvents(r, &first, &out);
  }
  out.append("],\"displayTimeUnit\":\"ms\"}");
  return out;
}

std::string PerfRecorder::ToChromeTrace(const RecordedRequest& request) {
  return RequestsToChromeTrace({request});
}

std::string PerfRecorder::AllToChromeTrace() const {
  return RequestsToChromeTrace(Recent());
}

void PerfRecorder::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  ring_.clear();
  slow_.clear();
}

PerfRecorder& GlobalRecorder() {
  static PerfRecorder* recorder = new PerfRecorder();
  return *recorder;
}

}  // namespace vizq::obs
