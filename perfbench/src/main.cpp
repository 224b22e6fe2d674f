// remus_perfbench: the repository's benchmark binary.
//
//   remus_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//       [--work-dir <dir>] [--workers <k>] [--store wal|map]
//   remus_perfbench --selftest
//   remus_perfbench --reference-check-scaling [--seed <n>]
//   remus_perfbench --reference-idle-jump
//   remus_perfbench --calibrate
//   remus_perfbench --list-metrics     # every BENCHMARK.json metric and unit
//
// A workload run prints human-readable lines and, last, one JSON object:
// {"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics
// are the end-to-end ones; with --trace 1, the per-layer ones from a traced
// pass (including the tracing overhead against an untraced pass of the same
// run). See perfbench/README.md.
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>

#include "checks.h"
#include "workloads.h"

namespace {

using namespace perfbench;

/// Every end-to-end metric, in report order.
struct end_to_end {
  const char* name;
  const char* unit;
};
constexpr end_to_end k_end_to_end[] = {
    {"setup_s", "s"},          {"ops_per_s", "ops/s"},        {"read_p50_ms", "ms"},
    {"read_mean_ms", "ms"},    {"write_p50_ms", "ms"},        {"write_mean_ms", "ms"},
    {"vops_per_vs", "ops/s"},  {"verified_ops_per_s", "ops/s"}, {"peak_rss_mb", "MB"},
};

/// Every per-layer metric with the end-to-end metric it should move, and on
/// which workload. Every one is in BENCHMARK.json and in every traced run's
/// JSON line, as 0 where a workload does not exercise the layer.
struct layer_link {
  const char* layer;
  const char* unit;
  const char* moves;
  const char* on;
};
constexpr layer_link k_links[] = {
    {"runtime.node.read_us", "us", "read_p50_ms", "runtime_kv, loopback_*"},
    {"runtime.node.write_us", "us", "write_p50_ms", "runtime_kv, loopback_*"},
    {"runtime.node.op_self_us", "us", "write_p50_ms", "runtime_kv, loopback_*"},
    {"runtime.node.handler_us", "us", "write_p50_ms", "runtime_kv, loopback_kv"},
    {"runtime.node.handler_self_us", "us", "write_p50_ms", "runtime_kv, loopback_kv"},
    {"runtime.node.handlers_per_op", "calls/op", "write_p50_ms", "runtime_kv, loopback_kv"},
    {"runtime.transport.frames_per_op", "frames/op", "ops_per_s", "runtime_kv, loopback_contended"},
    {"runtime.transport.bytes_per_op", "B/op", "ops_per_s", "runtime_kv, loopback_contended"},
    {"runtime.transport.send_us", "us", "ops_per_s", "runtime_kv, loopback_contended"},
    {"runtime.transport.dropped_per_op", "frames/op", "ops_per_s",
     "runtime_kv, loopback_contended"},
    {"proto.codec.encode_ns", "ns", "ops_per_s", "runtime_kv, loopback_*"},
    {"storage.wal.stores_per_op", "stores/op", "write_p50_ms", "runtime_kv, loopback_*"},
    {"storage.wal.store_us", "us", "write_p50_ms", "runtime_kv, loopback_kv"},
    {"storage.wal.bytes_per_store", "B", "write_p50_ms", "runtime_kv, loopback_kv"},
    {"storage.logs_per_op", "logs/op", "write_p50_ms", "sim_*"},
    {"storage.wal.log_bytes_per_op", "B/op", "ops_per_s", "sim_churn"},
    {"storage.wal.compactions", "count", "ops_per_s", "sim_churn"},
    {"storage.wal.replayed_records", "count", "ops_per_s", "sim_churn"},
    {"sim.events_per_op", "events/op", "ops_per_s", "sim_kv"},
    {"sim.events_per_s", "events/s", "ops_per_s", "sim_kv"},
    {"sim.allocs_per_op", "allocs/op", "ops_per_s", "sim_kv"},
    {"sim.net.messages_per_op", "msgs/op", "vops_per_vs", "sim_*"},
    {"sim.net.bytes_per_op", "B/op", "vops_per_vs", "sim_*"},
    {"sim.net.dropped_per_op", "msgs/op", "vops_per_vs", "sim_churn"},
    {"proto.core.retransmits_per_op", "count/op", "write_mean_ms", "sim_churn"},
    {"proto.core.adoptions_per_op", "count/op", "write_mean_ms", "sim_churn"},
    {"proto.core.stale_updates_per_op", "count/op", "write_mean_ms", "sim_churn"},
    {"proto.core.recovery_finish_writes", "count", "write_mean_ms", "sim_churn"},
    {"core.router.submit_s", "s", "setup_s", "sim_*"},
    {"core.router.run_s", "s", "ops_per_s", "sim_*"},
    {"core.router.window_s", "s", "ops_per_s", "sim_churn"},
    {"core.migration.handoffs", "count", "ops_per_s", "sim_churn"},
    {"core.migration.drained", "count", "ops_per_s", "sim_churn"},
    {"core.migration.writebacks", "count", "ops_per_s", "sim_churn"},
    {"history.merge_s", "s", "verified_ops_per_s", "sim_churn"},
    {"history.check_s", "s", "verified_ops_per_s", "sim_churn"},
    {"history.tag_check_s", "s", "verified_ops_per_s", "sim_churn"},
    {"history.events_per_op", "events/op", "peak_rss_mb", "sim_churn"},
    {"trace.overhead_pct", "%", "(tracing cost)", "all"},
};

const char* flag_value(int argc, char** argv, const char* flag) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], flag) == 0) return argv[i + 1];
  }
  return nullptr;
}

bool has_flag(int argc, char** argv, const char* flag) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], flag) == 0) return true;
  }
  return false;
}

/// The JSON line's metrics: every end-to-end metric, or every per-layer
/// metric, in table order (a layer a workload does not exercise reads 0). A
/// name or unit that disagrees with the tables fails the run.
std::vector<metric> in_table_order(run_result& r, const std::vector<metric>& got,
                                   bool layers) {
  std::vector<metric> out;
  const auto take = [&](const char* name, const char* unit, bool required) {
    metric m{name, 0.0, unit};
    bool found = false;
    for (const metric& g : got) {
      if (g.name != name) continue;
      found = true;
      m.value = g.value;
      if (g.unit != unit) r.fail("metric " + g.name + " reported in " + g.unit);
    }
    if (!found && required) r.fail(std::string("metric ") + name + " missing");
    out.push_back(m);
  };
  if (layers) {
    for (const layer_link& l : k_links) take(l.layer, l.unit, false);
  } else {
    for (const end_to_end& e : k_end_to_end) take(e.name, e.unit, true);
  }
  for (const metric& g : got) {
    bool known = false;
    for (const end_to_end& e : k_end_to_end) known = known || g.name == e.name;
    for (const layer_link& l : k_links) known = known || g.name == l.layer;
    if (!known) r.fail("metric " + g.name + " is in no table");
  }
  return out;
}

/// Every per-layer metric next to the end-to-end metric it should move.
void print_layer_report(const std::vector<metric>& measured) {
  std::printf("| per-layer metric | value | unit | should move | on |\n"
              "|---|---|---|---|---|\n");
  for (const layer_link& l : k_links) {
    double value = 0.0;
    for (const metric& m : measured) {
      if (m.name == l.layer) value = m.value;
    }
    std::printf("| %s | %.6g | %s | %s | %s |\n", l.layer, value, l.unit, l.moves, l.on);
  }
}

void print_json(const run_result& r, const std::vector<metric>& ms) {
  bool correct = r.correct;
  std::string out = "{\"correct\": ";
  std::string body;
  for (const metric& m : ms) {
    if (!std::isfinite(m.value)) correct = false;
    char num[64];
    std::snprintf(num, sizeof num, "%.17g", std::isfinite(m.value) ? m.value : 0.0);
    if (!body.empty()) body += ", ";
    body += "\"" + m.name + "\": {\"value\": " + num + ", \"unit\": \"" + m.unit + "\"}";
  }
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(r.attempted);
  out += ", \"failed\": " + std::to_string(r.failed);
  out += ", \"metrics\": {" + body + "}}";
  std::printf("%s\n", out.c_str());
}

int run_workload(const options& opt) {
  // The checks must be able to fail before their verdicts mean anything.
  if (const std::string e = checks::selftest(); !e.empty()) {
    std::fprintf(stderr, "check self-test failed: %s\n", e.c_str());
    return 1;
  }
  run_result r;
  if (opt.workload == "loopback_kv") {
    r = run_loopback_kv(opt);
  } else if (opt.workload == "loopback_contended") {
    r = run_loopback_contended(opt);
  } else if (opt.workload == "runtime_kv") {
    r = run_runtime_kv(opt);
  } else if (opt.workload == "sim_kv") {
    r = run_sim_kv(opt);
  } else if (opt.workload == "sim_churn") {
    r = run_sim_churn(opt);
  } else {
    std::fprintf(stderr, "unknown workload '%s'\n", opt.workload.c_str());
    return 2;
  }
  if (r.attempted == 0) r.attempted = 1;
  const std::vector<metric> ms =
      in_table_order(r, opt.trace ? r.layers : r.metrics, opt.trace);
  if (opt.trace) print_layer_report(r.layers);
  std::fflush(stdout);
  print_json(r, ms);
  return r.correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (has_flag(argc, argv, "--replica")) return replica_main(argc, argv);
  if (has_flag(argc, argv, "--selftest")) {
    const std::string e = checks::selftest();
    std::printf("check self-test: %s\n", e.empty() ? "every planted fault caught" : e.c_str());
    return e.empty() ? 0 : 1;
  }
  const char* seed = flag_value(argc, argv, "--seed");
  if (has_flag(argc, argv, "--reference-check-scaling")) {
    reference_check_scaling(seed ? std::strtoull(seed, nullptr, 10) : 1);
    return 0;
  }
  if (has_flag(argc, argv, "--list-metrics")) {
    for (const end_to_end& e : k_end_to_end) std::printf("end_to_end %s %s\n", e.name, e.unit);
    for (const layer_link& l : k_links) std::printf("per_layer %s %s\n", l.layer, l.unit);
    return 0;
  }
  if (has_flag(argc, argv, "--reference-idle-jump")) {
    reference_idle_jump();
    return 0;
  }
  if (has_flag(argc, argv, "--calibrate")) {
    reference_calibration();
    return 0;
  }
  options opt;
  const char* workload = flag_value(argc, argv, "--workload");
  const char* seconds = flag_value(argc, argv, "--seconds");
  const char* trace = flag_value(argc, argv, "--trace");
  if (workload == nullptr || seed == nullptr || seconds == nullptr) {
    std::fprintf(stderr,
                 "usage: remus_perfbench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1>\n");
    return 2;
  }
  opt.workload = workload;
  opt.seed = std::strtoull(seed, nullptr, 10);
  opt.seconds = std::strtod(seconds, nullptr);
  opt.trace = trace != nullptr && std::strcmp(trace, "1") == 0;
  if (const char* d = flag_value(argc, argv, "--work-dir")) opt.work_dir = d;
  if (const char* w = flag_value(argc, argv, "--workers")) {
    opt.workers = static_cast<std::uint32_t>(std::strtoul(w, nullptr, 10));
  }
  if (const char* s = flag_value(argc, argv, "--store")) opt.store = s;
  try {
    return run_workload(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "benchmark failed: %s\n", e.what());
    return 1;
  }
}
