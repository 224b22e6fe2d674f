// Shared plumbing of the benchmark binary: options, the result a workload
// returns, timing and percentile helpers.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Directory (inside the checkout) for WAL directories and trace files.
  std::string work_dir = ".bench_build/perfbench-work";
  /// sim_kv's worker threads; 0 = the workload's pool (see sim.cpp).
  /// Reference figures compare 1, the pool and one per hardware thread.
  std::uint32_t workers = 0;
  /// sim_churn's per-process store: "wal" (default) or "map".
  std::string store = "wal";
};

struct metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one workload run reports. `metrics` holds the end-to-end metrics of
/// the untraced pass; `layers` the per-layer metrics of the traced pass.
struct run_result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<metric> metrics;
  std::vector<metric> layers;

  void fail(const std::string& why);
  void add(std::vector<metric>& into, const std::string& name, double value,
           const std::string& unit);
};

// ---- Timing ----
[[nodiscard]] std::int64_t now_ns();
[[nodiscard]] double now_s();
/// Peak resident set of this process so far, in MB.
[[nodiscard]] double peak_rss_mb();

// ---- Statistics ----
/// Nearest-rank percentile of `v` (sorted in place); q in (0, 1].
[[nodiscard]] double percentile(std::vector<double>& v, double q);
[[nodiscard]] double median(std::vector<double> v);

/// Latency summary of one operation kind, in ms. The p99 is printed, not
/// reported as a metric (README, "Steadiness"); it is a tail only with at
/// least ten samples beyond it, which the printed count of samples strictly
/// above it shows (tied latencies can leave fewer than 1%).
struct latency_summary {
  double p50_ms = 0.0;
  double mean_ms = 0.0;
  double p99_ms = 0.0;
  std::size_t samples = 0;
  std::size_t beyond_p99 = 0;
};
[[nodiscard]] latency_summary summarize(std::vector<double> ms);

/// Adds read/write p50 and mean to `r.metrics` and prints them with the
/// p99s and sample counts.
void report_latencies(run_result& r, const latency_summary& reads,
                      const latency_summary& writes, const char* clock);

}  // namespace perfbench
