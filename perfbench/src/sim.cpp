// Simulator workloads: sim_kv (fault-free speed on core::shard_router) and
// sim_churn (WAL engine, message loss, corrupt-tail crashes and a live
// 2 -> 3 grow). Both run whole rounds of identical inputs; every round's
// outputs are checked, and the first round's are also corrupted on purpose
// to show the checks can fail.
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <limits>
#include <thread>

#include "checks.h"
#include "core/shard_router.h"
#include "history/keyed.h"
#include "history/tag_order.h"
#include "sim/kv_workload.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace remus;
using router = core::shard_router;

/// The paper's LAN and IDE-disk constants (sections I-A, V-A): one-way
/// transit ~0.1 ms, one small synchronous log ~0.2 ms, 100 Mbps wire.
core::cluster_config paper_testbed(std::uint64_t seed) {
  core::cluster_config cfg;
  cfg.n = 3;
  cfg.policy = proto::persistent_policy();
  cfg.seed = seed;
  cfg.net.base_delay = 115_us;
  cfg.net.jitter = 8_us;
  cfg.net.bandwidth_bps = 100'000'000 / 8;
  cfg.net.loopback_delay = 12_us;
  cfg.disk.base_latency = 200_us;
  cfg.disk.bandwidth_bps = 20'000'000;
  cfg.process_step_cost = 6_us;
  return cfg;
}

/// A generated write value's unique counter (its leading 8 bytes, little
/// endian); 0 for the initial value.
std::uint64_t as_u64(const value& v) {
  std::uint64_t x = 0;
  for (std::size_t i = 0; i < 8 && i < v.data.size(); ++i) {
    x |= static_cast<std::uint64_t>(v.data[i]) << (8 * i);
  }
  return x;
}

/// Everything one round measured.
struct round_out {
  double setup_s = 0.0;   // generation + router construction + first submission
  double submit_s = 0.0;  // every submit_* call
  double run_s = 0.0;     // simulation only
  double window_s = 0.0;  // wall time while the migration window was open
  double merge_s = 0.0;   // router.events()
  double check_s = 0.0;   // the checks that verify this round
  double tag_check_s = 0.0;
  double peak_rss_mb = 0.0;  // process peak once this round ended
  std::uint64_t attempted = 0;
  std::uint64_t completed = 0;
  std::vector<double> vread_ms;
  std::vector<double> vwrite_ms;
  time_ns makespan = 0;  // first due to last completion, summed over sub-runs
  std::vector<checks::tagged> tagged;
  std::string error;
  // Layer counters (filled on traced rounds).
  std::uint64_t events = 0;
  std::uint64_t allocs = 0;
  std::uint64_t messages = 0;
  std::uint64_t net_bytes = 0;
  std::uint64_t net_dropped = 0;
  std::uint64_t logs = 0;
  std::uint64_t retransmits = 0;
  std::uint64_t adoptions = 0;
  std::uint64_t stale_updates = 0;
  std::uint64_t finish_writes = 0;
  std::uint64_t wal_log_bytes = 0;
  std::uint64_t compactions = 0;
  std::uint64_t replayed = 0;
  std::uint64_t history_events = 0;
  std::uint64_t handoffs = 0;
  std::uint64_t drained = 0;
  std::uint64_t writebacks = 0;
};

struct submitted {
  router::op_handle h = 0;
  time_ns due = 0;
};

void submit_all(router& r, const std::vector<sim::kv_op>& ops,
                std::vector<submitted>& out) {
  for (const sim::kv_op& op : ops) {
    router::op_handle h = 0;
    if (op.entries.size() == 1) {
      const sim::kv_op::entry& e = op.entries.front();
      h = op.is_read ? r.submit_read(op.p, e.reg, op.at)
                     : r.submit_write(op.p, e.reg, e.val, op.at);
    } else if (op.is_read) {
      std::vector<register_id> regs;
      for (const sim::kv_op::entry& e : op.entries) regs.push_back(e.reg);
      h = r.submit_read_batch(op.p, std::move(regs), op.at);
    } else {
      std::vector<proto::write_op> ws;
      for (const sim::kv_op::entry& e : op.entries) ws.push_back({e.reg, e.val});
      h = r.submit_write_batch(op.p, std::move(ws), op.at);
    }
    out.push_back({h, op.at});
  }
}

/// Latencies (from when each op was due, so queueing behind a busy process
/// counts), completion counts and tagged outputs for the checks.
void collect(const router& r, const std::vector<submitted>& subs, round_out& o) {
  o.attempted += subs.size();
  time_ns first_due = subs.empty() ? 0 : subs.front().due;
  time_ns last_done = first_due;
  for (const submitted& s : subs) {
    first_due = std::min(first_due, s.due);
    const router::op_result& res = r.result(s.h);
    if (!res.completed) continue;
    ++o.completed;
    last_done = std::max(last_done, res.completed_at);
    const double ms = static_cast<double>(res.completed_at - s.due) / 1e6;
    (res.is_read ? o.vread_ms : o.vwrite_ms).push_back(ms);
    if (res.is_batch) {
      for (const proto::batch_entry& e : res.batch_result) {
        o.tagged.push_back({e.reg, res.is_read, e.ts, as_u64(e.val), res.invoked_at,
                            res.completed_at});
      }
    } else {
      o.tagged.push_back({res.reg, res.is_read, res.applied, as_u64(res.v),
                          res.invoked_at, res.completed_at});
    }
  }
  o.makespan += last_done - first_due;
}

/// Folds one sub-run into its round. The first sub-run's tagged outputs are
/// kept for the planted-fault test; each sub-run was checked on its own.
void merge_into(round_out& o, round_out&& sub) {
  o.setup_s += sub.setup_s;
  o.submit_s += sub.submit_s;
  o.run_s += sub.run_s;
  o.window_s += sub.window_s;
  o.merge_s += sub.merge_s;
  o.check_s += sub.check_s;
  o.tag_check_s += sub.tag_check_s;
  o.attempted += sub.attempted;
  o.completed += sub.completed;
  o.vread_ms.insert(o.vread_ms.end(), sub.vread_ms.begin(), sub.vread_ms.end());
  o.vwrite_ms.insert(o.vwrite_ms.end(), sub.vwrite_ms.begin(), sub.vwrite_ms.end());
  o.makespan += sub.makespan;
  if (o.tagged.empty()) o.tagged = std::move(sub.tagged);
  if (!sub.error.empty()) o.error += (o.error.empty() ? "" : " | ") + sub.error;
  o.events += sub.events;
  o.allocs += sub.allocs;
  o.messages += sub.messages;
  o.net_bytes += sub.net_bytes;
  o.net_dropped += sub.net_dropped;
  o.logs += sub.logs;
  o.retransmits += sub.retransmits;
  o.adoptions += sub.adoptions;
  o.stale_updates += sub.stale_updates;
  o.finish_writes += sub.finish_writes;
  o.wal_log_bytes += sub.wal_log_bytes;
  o.compactions += sub.compactions;
  o.replayed += sub.replayed;
  o.history_events += sub.history_events;
  o.handoffs += sub.handoffs;
  o.drained += sub.drained;
  o.writebacks += sub.writebacks;
}

void harvest_layers(const router& r, round_out& o) {
  o.events = r.events_executed();
  for (std::uint32_t s = 0; s < r.shard_count(); ++s) {
    // shard() is non-const; the router is not mutated here.
    core::cluster& c = const_cast<router&>(r).shard(s);
    o.messages += c.network().messages_routed();
    o.net_bytes += c.network().bytes_sent();
    o.net_dropped += c.network().messages_dropped();
    for (std::uint32_t p = 0; p < c.size(); ++p) {
      const process_id pid{p};
      o.logs += c.durable_stores(pid);
      const proto::quorum_core::branch_stats& b = c.core_of(pid).branches();
      o.retransmits += b.retransmits;
      o.adoptions += b.adoptions;
      o.stale_updates += b.stale_updates;
      o.finish_writes += b.recovery_finish_writes;
      if (const storage::wal_store* w = c.wal_of(pid)) {
        o.wal_log_bytes += w->log_bytes();
        o.compactions += w->compactions();
        o.replayed += w->last_recovery().frames_replayed;
      }
    }
  }
  for (const router::migration_event& m : r.migration_log()) {
    using cause = router::migration_event::cause;
    if (m.why == cause::write_handoff) ++o.handoffs;
    if (m.why == cause::drain) ++o.drained;
    if (m.why == cause::read_writeback) ++o.writebacks;
  }
}

/// The independent tag check on this round's outputs, timed.
void independent_check(round_out& o) {
  const trace::scope span(trace::span_name::bench_check);
  const double t0 = now_s();
  o.error = checks::check_tags(o.tagged);
  o.check_s += now_s() - t0;
}

/// sim_kv's worker pool: two threads, or one on a one-CPU host. A pool as
/// wide as a shared host waits at every barrier for whichever CPU another
/// tenant slowed: at four workers on four vCPUs, ten 20 s runs spread 29%
/// between seeds (245k-447k ops/s); at two, ten runs spread 9-11%.
constexpr std::uint32_t k_kv_workers = 2;

std::uint32_t pool_workers(const options& opt) {
  if (opt.workers > 0) return opt.workers;
  return std::clamp(std::thread::hardware_concurrency(), 1u, k_kv_workers);
}

// ---- sim_kv ------------------------------------------------------------------

constexpr std::uint32_t k_kv_shards = 8;
constexpr std::uint32_t k_kv_keys = 4096;
constexpr std::uint32_t k_kv_single_ops = 37'500;  // per run
constexpr std::uint32_t k_kv_batch_ops = 12'500;   // per run
/// Independent runs per round. Which shard the hottest Zipf keys land on
/// varies by seed and sets the tail; pooling four runs averages it.
constexpr std::uint32_t k_kv_runs = 4;
constexpr std::uint32_t k_kv_batch = 4;

round_out kv_once(const options& opt, std::uint64_t seed, bool traced) {
  round_out o;
  const trace::scope run_span(trace::span_name::sim_run, trace::next_key());
  const double t_setup = now_s();
  core::shard_router_config cfg;
  cfg.shards = k_kv_shards;
  cfg.base = paper_testbed(seed);
  cfg.workers = pool_workers(opt);
  auto r = std::make_unique<router>(cfg);

  sim::kv_workload_config w;
  w.n = 3;
  w.key_count = k_kv_keys;
  w.zipf_theta = 0.99;
  w.read_fraction = 0.5;
  w.ops = k_kv_single_ops;
  w.mean_gap = 300_us;
  w.seed = seed;
  w.start_at = 1_ms;
  std::vector<sim::kv_op> ops = sim::make_kv_workload(w);
  w.ops = k_kv_batch_ops;
  w.batch_size = k_kv_batch;
  w.mean_gap = 900_us;
  w.seed = seed ^ 0x5bd1e995ULL;
  w.value_base = 1 + k_kv_single_ops;
  w.shard_map = [&r](register_id reg) { return r->ring().shard_of(reg); };
  w.shard_local_batches = true;
  std::vector<sim::kv_op> batches = sim::make_kv_workload(w);
  ops.insert(ops.end(), std::make_move_iterator(batches.begin()),
             std::make_move_iterator(batches.end()));
  std::stable_sort(ops.begin(), ops.end(),
                   [](const sim::kv_op& a, const sim::kv_op& b) { return a.at < b.at; });

  std::vector<submitted> subs;
  subs.reserve(ops.size());
  const double t_submit = now_s();
  {
    const trace::scope span(trace::span_name::router_submit);
    submit_all(*r, ops, subs);
  }
  o.submit_s = now_s() - t_submit;
  o.setup_s = now_s() - t_setup;

  const std::uint64_t allocs0 = trace::allocations();
  if (traced) trace::count_allocations(true);
  const double t_run = now_s();
  bool idle = false;
  {
    const trace::scope span(trace::span_name::router_run);
    idle = r->run_until_idle();
  }
  o.run_s = now_s() - t_run;
  trace::count_allocations(false);
  o.allocs = trace::allocations() - allocs0;
  if (!idle) o.error = "simulation did not go idle";

  collect(*r, subs, o);
  if (traced) {
    harvest_layers(*r, o);
    const double t_merge = now_s();
    {
      const trace::scope span(trace::span_name::history_merge);
      o.history_events = r->events().size();
    }
    o.merge_s = now_s() - t_merge;
    // The program's tag-order checker scales to this size; its per-key
    // atomicity checker does not (README, "Faults kept visible").
    const double t_tags = now_s();
    history::tag_order_result tags;
    {
      const trace::scope span(trace::span_name::history_tags);
      tags = history::check_tag_order_per_key(r->tagged_operations());
    }
    o.tag_check_s = now_s() - t_tags;
    if (!tags.ok) o.error = "program tag-order checker: " + tags.explanation;
  }
  if (o.error.empty()) independent_check(o);
  return o;
}

round_out sim_kv_round(const options& opt, bool traced) {
  round_out o;
  for (std::uint32_t i = 0; i < k_kv_runs; ++i) {
    merge_into(o, kv_once(opt, opt.seed * k_kv_runs + i, traced));
  }
  return o;
}

// ---- sim_churn -----------------------------------------------------------------

constexpr std::uint32_t k_churn_keys = 256;
constexpr std::uint32_t k_churn_phase_ops = 1500;
/// The window opens here, past the idle clock jump after which a newborn
/// shard's event queue runs events late (README, "Faults kept visible"):
/// ~3.3 s for a lone cluster, under 3.0 s in the router.
constexpr time_ns k_window_open = 3600_ms;
constexpr time_ns k_phase_span = 3400_ms;
constexpr time_ns k_window_deadline = 30_s;  // virtual, after the window opens
constexpr time_ns k_window_step = 1_ms;

/// Rolling corrupt-tail crashes of replica 2 of shards [0, shards) over
/// [from, to): each shard is down 150 ms of every 600 ms, staggered.
void submit_crash_plan(router& r, std::uint32_t shards, time_ns from, time_ns to) {
  for (std::uint32_t s = 0; s < shards; ++s) {
    for (time_ns t = from + 100_ms + static_cast<time_ns>(s) * 200_ms; t + 150_ms < to;
         t += 600_ms) {
      r.submit_crash(s, process_id{2}, t, core::crash_style::corrupt_tail);
      r.submit_recover(s, process_id{2}, t + 150_ms);
    }
  }
}

sim::kv_workload_config churn_phase(std::uint64_t seed, time_ns start,
                                    std::uint64_t phase) {
  sim::kv_workload_config w;
  w.n = 2;  // clients enter through replicas 0 and 1 only; crashes hit 2
  w.key_count = k_churn_keys;
  w.read_fraction = 0.5;
  w.ops = k_churn_phase_ops;
  w.mean_gap = k_phase_span * 2 / k_churn_phase_ops;
  w.seed = seed * 2 + phase;
  w.start_at = start;
  w.value_base = 1 + phase * k_churn_phase_ops;
  return w;
}

/// One churn run: grow 2 -> 3 under lossy traffic and rolling crashes.
round_out churn_once(const options& opt, std::uint64_t seed, bool traced) {
  round_out o;
  const trace::scope run_span(trace::span_name::sim_run, trace::next_key());
  const double t_setup = now_s();
  core::shard_router_config cfg;
  cfg.shards = 2;
  cfg.base = paper_testbed(seed);
  cfg.base.wal_storage = opt.store != "map";
  cfg.base.net.drop_probability = 0.02;
  cfg.workers = 1;
  auto r = std::make_unique<router>(cfg);
  const std::vector<sim::kv_op> pre = sim::make_kv_workload(churn_phase(seed, 2_ms, 0));
  const std::vector<sim::kv_op> during =
      sim::make_kv_workload(churn_phase(seed, k_window_open + 2_ms, 1));
  std::vector<submitted> subs;
  subs.reserve(pre.size() + during.size());
  double t0 = now_s();
  {
    const trace::scope span(trace::span_name::router_submit);
    submit_all(*r, pre, subs);
    submit_crash_plan(*r, 2, 0, k_phase_span);
  }
  o.submit_s = now_s() - t0;
  o.setup_s = now_s() - t_setup;

  const std::uint64_t allocs0 = trace::allocations();
  if (traced) trace::count_allocations(true);
  t0 = now_s();
  bool ok = false;
  {
    const trace::scope span(trace::span_name::router_run);
    ok = r->run_until_idle();
    if (r->now() < k_window_open) r->run_for(k_window_open - r->now());
  }
  o.run_s += now_s() - t0;

  // The window: driven by calls that always advance virtual time, since
  // run_until_idle() can spin without executing events once the newborn
  // shard's queue falls behind (the fault kept visible here).
  const double t_window = now_s();
  {
    const trace::scope window_span(trace::span_name::router_window);
    r->begin_add_shard();
    t0 = now_s();
    const std::size_t first_window_op = subs.size();
    {
      const trace::scope span(trace::span_name::router_submit);
      submit_all(*r, during, subs);
      submit_crash_plan(*r, 3, r->now(), r->now() + k_phase_span);
    }
    o.submit_s += now_s() - t0;
    t0 = now_s();
    const trace::scope span(trace::span_name::router_run);
    const time_ns deadline = r->now() + k_window_deadline;
    std::size_t cursor = first_window_op;
    while (r->now() < deadline) {
      r->run_for(k_window_step);
      while (cursor < subs.size() && r->result(subs[cursor].h).completed) ++cursor;
      if (cursor == subs.size() && r->migration_drained()) break;
    }
    o.run_s += now_s() - t0;
  }
  o.window_s = now_s() - t_window;
  if (r->migration_drained()) {
    r->finish_add_shard();
  } else {
    o.error = "migration window still open at the deadline";
  }
  trace::count_allocations(false);
  o.allocs = trace::allocations() - allocs0;
  if (!ok) o.error = "pre-window phase did not go idle";  // max_events tripped

  collect(*r, subs, o);
  if (traced) harvest_layers(*r, o);

  // The program's own checkers on the merged two-epoch history, then the
  // independent check: the verdicts must agree.
  t0 = now_s();
  history::history_log h;
  {
    const trace::scope span(trace::span_name::history_merge);
    h = r->events();
  }
  o.merge_s = now_s() - t0;
  o.history_events = h.size();
  t0 = now_s();
  history::keyed_check_result atom;
  {
    const trace::scope span(trace::span_name::history_check);
    atom = history::check_persistent_atomicity_per_key(h);
  }
  o.check_s = now_s() - t0;
  t0 = now_s();
  history::tag_order_result tags;
  {
    const trace::scope span(trace::span_name::history_tags);
    tags = history::check_tag_order_per_key(r->tagged_operations());
  }
  o.tag_check_s = now_s() - t0;
  if (o.error.empty()) {
    const double own_check = o.check_s;
    independent_check(o);
    o.check_s = own_check;  // verified_ops_per_s prices the program's checkers
    const bool independent_ok = o.error.empty();
    if (!atom.ok) o.error += " | program atomicity checker: " + atom.explanation;
    if (!tags.ok) o.error += " | program tag-order checker: " + tags.explanation;
    if (independent_ok != (atom.ok && tags.ok)) {
      o.error += " | the program's checkers and the independent check disagree";
    }
  }
  return o;
}

/// Independent churn runs per round: their pooled samples average over
/// several loss patterns and moved-key sets, which one seed alone does not.
constexpr std::uint32_t k_churn_runs = 32;

round_out sim_churn_round(const options& opt, bool traced) {
  round_out o;
  for (std::uint32_t i = 0; i < k_churn_runs; ++i) {
    merge_into(o, churn_once(opt, opt.seed * k_churn_runs + i, traced));
  }
  return o;
}

// ---- Shared round driver ----------------------------------------------------------

using round_fn = round_out (*)(const options&, bool);

/// Runs whole rounds until `seconds` of wall time have passed (at least one).
std::vector<round_out> run_pass(const options& opt, round_fn fn, double seconds,
                                bool traced) {
  std::vector<round_out> rounds;
  const double start = now_s();
  do {
    rounds.push_back(fn(opt, traced));
    rounds.back().peak_rss_mb = peak_rss_mb();
    if (rounds.size() > 1) {
      // Only the first round's samples are reported (later rounds repeat
      // them); dropping the rest keeps memory flat however long the run.
      round_out& o = rounds.back();
      o.tagged = {};
      o.vread_ms = {};
      o.vwrite_ms = {};
    }
  } while (now_s() - start < seconds);
  return rounds;
}

double median_of(const std::vector<round_out>& rs, double (*f)(const round_out&)) {
  std::vector<double> v;
  v.reserve(rs.size());
  for (const round_out& r : rs) v.push_back(f(r));
  return median(v);
}

run_result run_sim(const options& opt, round_fn fn) {
  run_result res;
  const double pass_s = opt.trace ? opt.seconds / 2 : opt.seconds;
  std::vector<round_out> rounds = run_pass(opt, fn, pass_s, false);

  for (std::size_t i = 0; i < rounds.size(); ++i) {
    const round_out& o = rounds[i];
    res.attempted += o.attempted;
    res.failed += o.attempted - o.completed;
    if (!o.error.empty()) res.fail("round " + std::to_string(i) + ": " + o.error);
  }
  // Every round has identical inputs, so the simulated outputs (and the
  // virtual-time figures below) must repeat exactly.
  for (std::size_t i = 1; i < rounds.size(); ++i) {
    if (rounds[i].makespan != rounds[0].makespan ||
        rounds[i].completed != rounds[0].completed) {
      res.fail("round " + std::to_string(i) + " differs from round 0 on identical inputs");
    }
  }
  const round_out& first = rounds.front();
  if (first.error.empty()) {
    if (const std::string e = checks::plant_tags(first.tagged); !e.empty()) res.fail(e);
  }

  const double ops_per_s = median_of(rounds, [](const round_out& o) {
    return static_cast<double>(o.completed) / o.run_s;
  });
  std::printf("round ops/s:");
  for (const round_out& o : rounds) {
    std::printf(" %.0f", static_cast<double>(o.completed) / o.run_s);
  }
  std::printf("\n");
  res.add(res.metrics, "setup_s", median_of(rounds, [](const round_out& o) {
            return o.setup_s;
          }), "s");
  res.add(res.metrics, "ops_per_s", ops_per_s, "ops/s");
  report_latencies(res, summarize(first.vread_ms), summarize(first.vwrite_ms), "virtual");
  const double makespan_s = static_cast<double>(first.makespan) / 1e9;
  res.add(res.metrics, "vops_per_vs", static_cast<double>(first.completed) / makespan_s,
          "ops/s");
  res.add(res.metrics, "verified_ops_per_s", median_of(rounds, [](const round_out& o) {
            return static_cast<double>(o.completed) / (o.run_s + o.check_s + o.tag_check_s);
          }), "ops/s");
  // The first round's peak: rounds repeat the same inputs, and later rounds
  // only add whatever the allocator kept from earlier ones.
  res.add(res.metrics, "peak_rss_mb", first.peak_rss_mb, "MB");
  std::printf("rounds=%zu ops/round=%llu completed/round=%llu virtual makespan=%.4f s\n",
              rounds.size(), static_cast<unsigned long long>(first.attempted),
              static_cast<unsigned long long>(first.completed), makespan_s);

  if (!opt.trace) return res;

  trace::clear_spans();
  trace::enable_spans(true);
  std::vector<round_out> traced = run_pass(opt, fn, opt.seconds / 2, true);
  trace::enable_spans(false);
  const std::filesystem::path traces = std::filesystem::path(opt.work_dir) / "traces";
  std::filesystem::create_directories(traces);
  trace::write_spans((traces / (opt.workload + ".spans.csv")).string());
  trace::print_span_table(trace::summarize_spans());
  for (const round_out& o : traced) {
    res.attempted += o.attempted;
    res.failed += o.attempted - o.completed;
    if (!o.error.empty()) res.fail("traced round: " + o.error);
  }
  const round_out& t = traced.front();
  const auto ops = static_cast<double>(t.completed);
  const auto per_op = [&](std::uint64_t x) { return static_cast<double>(x) / ops; };
  const double traced_ops_per_s = median_of(traced, [](const round_out& o) {
    return static_cast<double>(o.completed) / o.run_s;
  });
  auto& L = res.layers;
  res.add(L, "storage.logs_per_op", per_op(t.logs), "logs/op");
  res.add(L, "storage.wal.log_bytes_per_op", per_op(t.wal_log_bytes), "B/op");
  res.add(L, "storage.wal.compactions", static_cast<double>(t.compactions), "count");
  res.add(L, "storage.wal.replayed_records", static_cast<double>(t.replayed), "count");
  res.add(L, "sim.events_per_op", per_op(t.events), "events/op");
  res.add(L, "sim.events_per_s", static_cast<double>(t.events) / t.run_s, "events/s");
  res.add(L, "sim.allocs_per_op", per_op(t.allocs), "allocs/op");
  res.add(L, "sim.net.messages_per_op", per_op(t.messages), "msgs/op");
  res.add(L, "sim.net.bytes_per_op", per_op(t.net_bytes), "B/op");
  res.add(L, "sim.net.dropped_per_op", per_op(t.net_dropped), "msgs/op");
  res.add(L, "proto.core.retransmits_per_op", per_op(t.retransmits), "count/op");
  res.add(L, "proto.core.adoptions_per_op", per_op(t.adoptions), "count/op");
  res.add(L, "proto.core.stale_updates_per_op", per_op(t.stale_updates), "count/op");
  res.add(L, "proto.core.recovery_finish_writes", static_cast<double>(t.finish_writes),
          "count");
  res.add(L, "core.router.submit_s", median_of(traced, [](const round_out& o) {
            return o.submit_s;
          }), "s");
  res.add(L, "core.router.run_s", median_of(traced, [](const round_out& o) {
            return o.run_s;
          }), "s");
  res.add(L, "core.migration.handoffs", static_cast<double>(t.handoffs), "count");
  res.add(L, "core.migration.drained", static_cast<double>(t.drained), "count");
  res.add(L, "core.migration.writebacks", static_cast<double>(t.writebacks), "count");
  res.add(L, "history.merge_s", median_of(traced, [](const round_out& o) {
            return o.merge_s;
          }), "s");
  res.add(L, "history.tag_check_s", median_of(traced, [](const round_out& o) {
            return o.tag_check_s;
          }), "s");
  res.add(L, "history.events_per_op", per_op(t.history_events), "events/op");
  res.add(L, "trace.overhead_pct", 100.0 * (1.0 - traced_ops_per_s / ops_per_s), "%");
  if (fn == sim_churn_round) {
    res.add(L, "core.router.window_s", median_of(traced, [](const round_out& o) {
              return o.window_s;
            }), "s");
    res.add(L, "history.check_s", median_of(traced, [](const round_out& o) {
              return o.check_s;
            }), "s");
  }
  return res;
}

}  // namespace

run_result run_sim_kv(const options& opt) { return run_sim(opt, sim_kv_round); }
run_result run_sim_churn(const options& opt) { return run_sim(opt, sim_churn_round); }

// ---- Reference probes ------------------------------------------------------------

void reference_check_scaling(std::uint64_t seed) {
  // The program's per-key atomicity checker on sim_kv-shaped histories
  // (Zipf 0.99 over 4096 keys) of growing size, single shard group.
  std::printf("| ops | history events | check_atomicity_per_key s |\n|---|---|---|\n");
  for (const std::uint32_t n : {2000u, 4000u, 8000u, 16000u}) {
    core::shard_router_config rc;
    rc.shards = 1;
    rc.base = paper_testbed(seed);
    router r(rc);
    sim::kv_workload_config w;
    w.n = 3;
    w.key_count = k_kv_keys;
    w.zipf_theta = 0.99;
    w.ops = n;
    w.mean_gap = 600_us;
    w.seed = seed;
    std::vector<submitted> subs;
    submit_all(r, sim::make_kv_workload(w), subs);
    r.run_until_idle();
    const history::history_log h = r.events();
    const double t0 = now_s();
    const history::keyed_check_result v = history::check_persistent_atomicity_per_key(h);
    std::printf("| %u | %zu | %.3f%s |\n", n, h.size(), now_s() - t0,
                v.ok ? "" : " (FAILED)");
    std::fflush(stdout);
  }
}

void reference_idle_jump() {
  // Fault kept visible in sim_churn: a fresh cluster idles for J seconds,
  // then 3000 writes from processes 0 and 1 are spread over
  // [now + 2 ms, now + 1 s]. The drain should end at the same offset after
  // the jump whatever J is.
  const auto fill = [](core::cluster& c) {
    const time_ns now = c.now();
    for (int i = 0; i < 3000; ++i) {
      c.submit_write(process_id{static_cast<std::uint32_t>(i % 2)},
                     static_cast<register_id>(i % 64), value_of_u64(i + 1),
                     now + 2_ms + static_cast<time_ns>(i) * 998'000'000 / 3000);
    }
  };
  std::printf("| idle jump J s | run_until_idle ends at J + s | events |\n|---|---|---|\n");
  for (const double j : {0.0, 2.0, 3.2, 3.3, 4.0}) {
    core::cluster c{core::cluster_config{}};
    c.run_for(static_cast<time_ns>(j * 1e9));
    const time_ns start = c.now();
    fill(c);
    c.run_until_idle();
    std::printf("| %.1f | %.4f | %llu |\n", j, static_cast<double>(c.now() - start) / 1e9,
                static_cast<unsigned long long>(c.events_executed()));
  }
  // Stepped the way the router's lockstep loop steps during a window.
  core::cluster c{core::cluster_config{}};
  c.run_for(3300_ms);
  fill(c);
  for (int step = 0; step < 100'000; ++step) {
    const time_ns next = c.next_event_time();
    if (next == std::numeric_limits<time_ns>::max()) {
      std::printf("\nstepped drain after a 3.3 s jump: went idle after %d steps\n", step);
      return;
    }
    if (next + 100_us <= c.now()) {
      std::printf("\nstepped drain after a 3.3 s jump: next_event_time %.6f s is behind now "
                  "%.6f s after %d steps, %zu events pending, %llu executed\n",
                  static_cast<double>(next) / 1e9, static_cast<double>(c.now()) / 1e9, step,
                  c.events_pending(), static_cast<unsigned long long>(c.events_executed()));
      return;
    }
    c.run_for(next + 100_us - c.now());
  }
}

void reference_calibration() {
  // Fixed spin work per thread: on a host whose vCPUs are whole free cores
  // the time stays flat as threads are added. Five interleaved pairs, since
  // one pair on a shared host can land in a slow period.
  const auto spin = [] {
    volatile std::uint64_t x = 0;
    for (std::uint64_t i = 0; i < 200'000'000ULL; ++i) x = x + i;
  };
  const auto timed = [&](std::uint32_t threads) {
    const double t0 = now_s();
    std::vector<std::thread> ts;
    for (std::uint32_t i = 0; i < threads; ++i) ts.emplace_back(spin);
    for (std::thread& t : ts) t.join();
    return now_s() - t0;
  };
  const std::uint32_t hw = std::max(1u, std::thread::hardware_concurrency());
  std::vector<double> one;
  std::vector<double> all;
  std::printf("| pair | 1 thread s | %u threads s |\n|---|---|---|\n", hw);
  for (int pair = 1; pair <= 5; ++pair) {
    one.push_back(timed(1));
    all.push_back(timed(hw));
    std::printf("| %d | %.3f | %.3f |\n", pair, one.back(), all.back());
  }
  std::printf("| median | %.3f | %.3f |\n", median(one), median(all));
}

}  // namespace perfbench
