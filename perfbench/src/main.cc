// perfbench: one run of one workload.
//
//   perfbench --workload explore|public|cluster --seed N --seconds S
//             --trace 0|1 [--trace-out PATH] [--git-sha SHA]
//             [--src-digest HEX]
//
// Prints provenance, every metric with its unit (and the sample count
// behind each percentile), the correctness-gate summary and, for
// --trace 1, the per-layer self-time table. The last line is the JSON
// result: {"correct", "attempted", "failed", "metrics"}. Exit code 0 when
// the served results passed the gate, 1 when they did not, 2 on a usage or
// set-up error (no result line then).

#include <cstdio>
#include <cstdlib>
#include <string>

#include "perfbench/src/perfbench.h"

namespace {

using namespace perfbench;

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string Number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void PrintMetric(const Metric& m) {
  if (m.samples >= 0) {
    std::printf("  %-36s %18.6f %-6s n=%lld\n", m.name.c_str(), m.value,
                m.unit.c_str(), static_cast<long long>(m.samples));
  } else {
    std::printf("  %-36s %18.6f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
}

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "explore|public|cluster --seed N --seconds S --trace 0|1 "
               "[--trace-out PATH] [--git-sha SHA] [--src-digest HEX]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  RunOptions opts;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    std::string value = argv[++i];
    if (flag == "--workload") {
      auto w = ParseWorkload(value);
      if (!w.has_value()) return Usage(("unknown workload " + value).c_str());
      opts.workload = *w;
      have_workload = true;
    } else if (flag == "--seed") {
      opts.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      opts.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      opts.trace = value == "1";
    } else if (flag == "--trace-out") {
      opts.trace_out = value;
    } else if (flag == "--git-sha") {
      opts.git_sha = value;
    } else if (flag == "--src-digest") {
      opts.src_digest = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_workload) return Usage("--workload is required");
  if (!(opts.seconds > 0)) return Usage("--seconds must be positive");

  auto result = RunBenchmark(opts);
  if (!result.ok()) {
    std::fprintf(stderr, "perfbench: %s\n", result.status().ToString().c_str());
    return 2;
  }
  const RunResult& r = *result;

  std::string prov = "{";
  for (const auto& [k, v] : r.provenance) {
    if (prov.size() > 1) prov += ",";
    prov += JsonString(k) + ":" + JsonString(v);
  }
  prov += "}";
  std::printf("provenance %s\n", prov.c_str());
  std::printf("metrics (%s run)\n", opts.trace ? "traced" : "untraced");
  for (const Metric& m : r.metrics) PrintMetric(m);
  std::printf("also measured\n");
  for (const Metric& m : r.info) PrintMetric(m);
  std::printf("correctness gate: %lld batches / %lld queries replayed on a "
              "cache-less single node, %lld mismatched\n",
              static_cast<long long>(r.gate.batches),
              static_cast<long long>(r.gate.queries),
              static_cast<long long>(r.gate.mismatched_batches));
  std::string kinds;
  for (const std::string& a : r.gate.actions) kinds += " " + a;
  kinds += " |";
  for (const std::string& f : r.gate.served_from) kinds += " " + f;
  std::printf("  covered:%s\n", kinds.c_str());
  if (!r.gate.first_mismatch.empty()) {
    std::printf("  first mismatch: %s\n", r.gate.first_mismatch.c_str());
  }
  for (const std::string& line : r.self_time_table) {
    std::printf("%s\n", line.c_str());
  }

  std::string json = "{\"correct\": ";
  json += r.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(r.attempted);
  json += ", \"failed\": " + std::to_string(r.failed);
  json += ", \"metrics\": {";
  bool first = true;
  for (const Metric& m : r.metrics) {
    if (!first) json += ", ";
    first = false;
    json += JsonString(m.name) + ": {\"value\": " + Number(m.value) +
            ", \"unit\": " + JsonString(m.unit) + "}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return r.correct ? 0 : 1;
}
