// The five workloads and the reference-figure probes. Each workload builds
// its inputs from options::seed alone, runs whole rounds of the same
// operations for options::seconds, checks the program's outputs, and
// returns end-to-end metrics (and, with options::trace, per-layer ones).
#pragma once

#include "bench.h"

namespace perfbench {

[[nodiscard]] run_result run_loopback_kv(const options& opt);
[[nodiscard]] run_result run_loopback_contended(const options& opt);
[[nodiscard]] run_result run_runtime_kv(const options& opt);
[[nodiscard]] run_result run_sim_kv(const options& opt);
[[nodiscard]] run_result run_sim_churn(const options& opt);

/// Entry point of a re-exec'd replica process (loopback_kv).
[[nodiscard]] int replica_main(int argc, char** argv);

/// Reference probes: the program's per-key atomicity checker against
/// history size, the event queue's idle-jump fault, and a spin-loop host
/// calibration.
void reference_check_scaling(std::uint64_t seed);
void reference_idle_jump();
void reference_calibration();

}  // namespace perfbench
