#include "bench.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>

namespace perfbench {

void run_result::fail(const std::string& why) {
  correct = false;
  std::printf("CHECK FAILED: %s\n", why.c_str());
}

void run_result::add(std::vector<metric>& into, const std::string& name, double value,
                     const std::string& unit) {
  into.push_back({name, value, unit});
}

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double now_s() { return static_cast<double>(now_ns()) / 1e9; }

double peak_rss_mb() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

double percentile(std::vector<double>& v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

double median(std::vector<double> v) { return percentile(v, 0.5); }

latency_summary summarize(std::vector<double> ms) {
  latency_summary s;
  s.samples = ms.size();
  double sum = 0.0;
  for (const double x : ms) sum += x;
  s.mean_ms = ms.empty() ? 0.0 : sum / static_cast<double>(ms.size());
  s.p50_ms = percentile(ms, 0.50);
  s.p99_ms = percentile(ms, 0.99);
  s.beyond_p99 = static_cast<std::size_t>(
      ms.end() - std::upper_bound(ms.begin(), ms.end(), s.p99_ms));
  return s;
}

void report_latencies(run_result& r, const latency_summary& reads,
                      const latency_summary& writes, const char* clock) {
  r.add(r.metrics, "read_p50_ms", reads.p50_ms, "ms");
  r.add(r.metrics, "read_mean_ms", reads.mean_ms, "ms");
  r.add(r.metrics, "write_p50_ms", writes.p50_ms, "ms");
  r.add(r.metrics, "write_mean_ms", writes.mean_ms, "ms");
  for (const auto& [kind, s] : {std::pair{"reads", reads}, std::pair{"writes", writes}}) {
    std::printf("%s (%s clock): n=%zu p50=%.4f mean=%.4f p99=%.4f ms (%zu samples beyond "
                "p99)\n",
                kind, clock, s.samples, s.p50_ms, s.mean_ms, s.p99_ms, s.beyond_p99);
  }
}

}  // namespace perfbench
