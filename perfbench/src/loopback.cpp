// Workloads on the threaded runtime (runtime::node), on the wall clock:
//
//   loopback_kv        2 groups x 3 replicas over TCP loopback with fsync'd
//                      WAL files. This process hosts replica 0 of each
//                      group; replicas 1 and 2 are this binary re-exec'd
//                      (--replica). One closed-loop client per group enters
//                      through its replica 0.
//   loopback_contended One 3-replica group hosted in this process, each
//                      replica with its own tcp_transport and fsync'd WAL
//                      directory, each serving its own closed-loop client at
//                      once.
//   runtime_kv         One 3-replica group in this process over one
//                      in-process datagram_transport, each replica's WAL on
//                      memory media, each serving its own closed-loop client
//                      on keys of its own. Every thread runs on one CPU. No
//                      disk, no socket and no cross-CPU wake-up: on a shared
//                      VM those latencies swing for minutes and would set its
//                      figures.
//
// Set-up (process spawn, WAL directories, connection set-up through a first
// write and read per client) is timed on its own and repeated; the timed
// part runs whole rounds of a fixed operation list per client.
#include <netinet/in.h>
#include <poll.h>
#include <sched.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

#include "checks.h"
#include "runtime/node.h"
#include "runtime/tcp_transport.h"
#include "storage/wal_store.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace remus;
namespace fs = std::filesystem;

constexpr std::uint32_t k_n = 3;               // replicas per group
constexpr std::uint32_t k_round_ops = 100;     // operations per client round
/// Set-ups per run (median reported). runtime_kv's take ~0.15 ms each, so
/// it takes many more to steady its median.
constexpr std::uint32_t k_setups = 31;
constexpr std::uint32_t k_runtime_setups = 201;
/// peak_rss_mb is read when client 0 ends this round, a point every run
/// reaches after the same work; read at the end it would follow throughput.
constexpr std::uint64_t k_rss_round = 20;

std::uint64_t as_u64(const value& v) { return v.is_initial() ? 0 : value_as_u64(v).value_or(~0ULL); }

// ---- Ports, processes, hosted replicas ----------------------------------------

bool port_block_free(std::uint16_t base, std::uint32_t count) {
  for (std::uint32_t i = 0; i < count; ++i) {
    const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0) return false;
    const int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(base + i));
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    const int rc = ::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr));
    ::close(fd);
    if (rc != 0) return false;
  }
  return true;
}

/// A free block of `count` loopback ports; each set-up takes a fresh block so
/// a torn-down deployment's sockets never meet the next one's.
std::uint16_t probe_base_port(std::uint32_t count) {
  static std::uint32_t cursor = static_cast<std::uint32_t>(::getpid()) * 97;
  for (int attempt = 0; attempt < 500; ++attempt) {
    cursor = (cursor + count + 3) % 30000;
    const auto base = static_cast<std::uint16_t>(20000 + cursor);
    if (port_block_free(base, count)) return base;
  }
  throw std::runtime_error("no free loopback port block");
}

/// Adds a transport's drops to the counters, then stops its delivery
/// thread. Call once every node on it has crashed (detached): a node must
/// not be destroyed while that thread may still be inside its handler.
void stop_transport(std::unique_ptr<runtime::transport>& net) {
  if (!net) return;
  trace::process_counters().dropped += net->datagrams_dropped();
  net.reset();
}

/// One replica hosted in this process. `own_net` is its tcp_transport, or
/// null when the group shares one in-process transport.
struct hosted_replica {
  std::unique_ptr<runtime::transport> own_net;
  std::unique_ptr<storage::wal_store> wal;
  std::unique_ptr<trace::traced_transport> traced_net;
  std::unique_ptr<trace::traced_store> traced_wal;
  std::unique_ptr<history::recorder> rec;
  std::unique_ptr<runtime::node> nd;

  hosted_replica() = default;
  hosted_replica(const hosted_replica&) = delete;
  hosted_replica& operator=(const hosted_replica&) = delete;
  ~hosted_replica() {
    if (nd) nd->crash();
    stop_transport(own_net);
  }
};

/// Hosts replica `index` of `group` over `net`, its WAL on `media`, with the
/// timing decorators in between when traced, and starts its node.
std::unique_ptr<hosted_replica> host_replica(std::uint32_t group, std::uint32_t index,
                                             std::unique_ptr<runtime::transport> own_net,
                                             runtime::transport& net,
                                             std::unique_ptr<storage::wal_media> media,
                                             bool traced) {
  auto r = std::make_unique<hosted_replica>();
  r->own_net = std::move(own_net);
  r->wal = std::make_unique<storage::wal_store>(std::move(media));
  runtime::transport* decorated_net = &net;
  storage::stable_store* store = r->wal.get();
  if (traced) {
    r->traced_net = std::make_unique<trace::traced_transport>(net, group, index);
    r->traced_wal = std::make_unique<trace::traced_store>(*r->wal);
    decorated_net = r->traced_net.get();
    store = r->traced_wal.get();
  }
  r->rec = std::make_unique<history::recorder>();
  r->nd = std::make_unique<runtime::node>(proto::persistent_policy(), process_id{index}, k_n,
                                          *store, *decorated_net, *r->rec,
                                          runtime::node_options{},
                                          0xbe7c0000ULL + group * 131 + index);
  r->nd->start();
  return r;
}

/// A replica on its own tcp_transport with an fsync'd WAL directory.
std::unique_ptr<hosted_replica> host_tcp_replica(std::uint32_t group, std::uint32_t index,
                                                 std::uint16_t base_port, const fs::path& dir,
                                                 bool traced) {
  runtime::tcp_transport_options topt;
  topt.n = k_n;
  topt.base_port = base_port;
  topt.self = index;
  auto tcp = std::make_unique<runtime::tcp_transport>(topt);
  runtime::transport& net = *tcp;
  return host_replica(group, index, std::move(tcp), net,
                      std::make_unique<storage::file_media>(dir), traced);
}

std::string self_exe() {
  char buf[4096];
  const ssize_t len = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  if (len <= 0) throw std::runtime_error("cannot resolve the benchmark binary");
  return std::string(buf, static_cast<std::size_t>(len));
}

const char* flag_value(int argc, char** argv, const char* flag) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], flag) == 0) return argv[i + 1];
  }
  return nullptr;
}

std::uint64_t flag_u64(int argc, char** argv, const char* flag) {
  const char* v = flag_value(argc, argv, flag);
  if (v == nullptr) throw std::runtime_error(std::string("replica: missing ") + flag);
  return std::strtoull(v, nullptr, 10);
}

pid_t spawn_replica(const std::string& exe, std::uint32_t group, std::uint32_t index,
                    std::uint16_t base_port, const fs::path& dir, int ready_fd,
                    int ready_read_fd, const std::string& trace_out) {
  std::vector<std::string> args = {exe,          "--replica",
                                   "--group",    std::to_string(group),
                                   "--index",    std::to_string(index),
                                   "--base-port", std::to_string(base_port),
                                   "--dir",      dir.string(),
                                   "--ready-fd", std::to_string(ready_fd)};
  if (!trace_out.empty()) {
    args.push_back("--trace-out");
    args.push_back(trace_out);
  }
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);
  const pid_t pid = ::fork();
  if (pid == 0) {
    ::close(ready_read_fd);
    ::execv(exe.c_str(), argv.data());
    _exit(127);
  }
  if (pid < 0) throw std::runtime_error("fork failed");
  return pid;
}

/// SIGTERM, then wait up to 5 s before SIGKILL; always reaps.
void stop_child(pid_t pid) {
  ::kill(pid, SIGTERM);
  for (int i = 0; i < 500; ++i) {
    if (::waitpid(pid, nullptr, WNOHANG) == pid) return;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ::kill(pid, SIGKILL);
  ::waitpid(pid, nullptr, 0);
}

/// One deployment (a set-up). Tears itself down on destruction.
struct deployment {
  fs::path dir;
  std::unique_ptr<runtime::transport> shared_net;       // runtime_kv's datagram_transport
  std::vector<std::unique_ptr<hosted_replica>> hosted;  // one per client
  std::vector<pid_t> children;
  std::vector<std::string> child_trace_files;
  double setup_s = 0.0;

  deployment() = default;
  deployment(const deployment&) = delete;
  deployment& operator=(const deployment&) = delete;
  ~deployment() { teardown(); }

  void teardown() {
    for (auto& h : hosted) h->nd->crash();
    stop_transport(shared_net);
    hosted.clear();  // each stops its own transport before its node goes
    for (const pid_t pid : children) stop_child(pid);
    children.clear();
    for (const std::string& f : child_trace_files) {
      std::ifstream in(f);
      std::stringstream ss;
      ss << in.rdbuf();
      trace::process_counters().merge(ss.str());
    }
    child_trace_files.clear();
    std::error_code ec;
    if (!dir.empty()) fs::remove_all(dir, ec);
    dir.clear();
  }
};

fs::path fresh_dir(const options& opt, const char* tag) {
  static std::uint32_t serial = 0;
  const fs::path d = fs::absolute(fs::path(opt.work_dir) /
                                  (std::string(tag) + "-" + std::to_string(::getpid()) +
                                   "-" + std::to_string(serial++)));
  fs::remove_all(d);
  fs::create_directories(d);
  return d;
}

fs::path trace_dir(const options& opt) {
  const fs::path d = fs::absolute(fs::path(opt.work_dir) / "traces");
  fs::create_directories(d);
  return d;
}

/// Waits until `expected` ready bytes arrive on `fd` (one per replica
/// process) or 30 s pass.
void await_ready(int fd, std::uint32_t expected) {
  const std::int64_t deadline = now_ns() + 30'000'000'000LL;
  std::uint32_t got = 0;
  while (got < expected) {
    const std::int64_t left_ms = (deadline - now_ns()) / 1'000'000;
    if (left_ms <= 0) throw std::runtime_error("replica processes did not start");
    pollfd p{fd, POLLIN, 0};
    if (::poll(&p, 1, static_cast<int>(left_ms)) <= 0) continue;
    char buf[16];
    const ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n <= 0) throw std::runtime_error("a replica process exited during start-up");
    got += static_cast<std::uint32_t>(n);
  }
}

// ---- Client loops ------------------------------------------------------------

struct planned_op {
  bool is_read = false;
  std::uint64_t key = 0;
};

std::vector<planned_op> make_plan(std::uint64_t seed, double read_fraction,
                                  std::uint32_t keys, std::uint64_t key_base) {
  // Exactly read_fraction of each round reads: a read costs a fraction of
  // a logged write, so a mix drawn per op would make throughput follow the
  // seed.
  rng r(seed);
  std::vector<planned_op> plan(k_round_ops);
  const auto reads = static_cast<std::uint32_t>(read_fraction * k_round_ops + 0.5);
  for (std::uint32_t i = 0; i < plan.size(); ++i) {
    plan[i].is_read = i < reads;
    plan[i].key = key_base + r.next_below(keys);
  }
  std::shuffle(plan.begin(), plan.end(), r);
  return plan;
}

/// One timed operation's latency, stamped with its response time.
struct sample {
  std::int64_t resp = 0;
  double ms = 0.0;
  bool is_read = false;
};

/// What one client did in the timed part.
struct client_log {
  std::vector<sample> samples;
  std::vector<checks::seq_op> seq;
  std::vector<checks::timed_op> timed;
  std::uint64_t ops = 0;
  double rss_mb = 0.0;  // set by client 0 at k_rss_round
  std::string error;
};

/// Runs whole rounds of `plan` on `nd` until `end_ns`. Write values are
/// unique per deployment: (client + 1) << 48 | round << 12 | position.
void client_loop(runtime::node& nd, std::uint32_t client, std::uint32_t group,
                 const std::vector<planned_op>& plan, std::int64_t end_ns, client_log& log) {
  try {
    for (std::uint64_t round = 1;; ++round) {
      for (std::uint32_t i = 0; i < plan.size(); ++i) {
        const planned_op& op = plan[i];
        const std::uint64_t val =
            op.is_read ? 0 : (std::uint64_t{client + 1} << 48) | (round << 12) | (i + 1);
        const std::int64_t t0 = now_ns();
        std::uint64_t got = val;
        {
          trace::scope root(op.is_read ? trace::span_name::client_read
                                       : trace::span_name::client_write);
          if (op.is_read) {
            got = as_u64(nd.read(static_cast<register_id>(op.key)));
          } else {
            nd.write(static_cast<register_id>(op.key), value_of_u64(val));
          }
        }
        const std::int64_t t1 = now_ns();
        log.samples.push_back({t1, static_cast<double>(t1 - t0) / 1e6, op.is_read});
        log.seq.push_back({group, op.key, op.is_read, got});
        log.timed.push_back({op.key, op.is_read, got, t0, t1});
        ++log.ops;
      }
      if (client == 0 && round == k_rss_round) log.rss_mb = peak_rss_mb();
      if (now_ns() >= end_ns) break;
    }
  } catch (const std::exception& e) {
    log.error = e.what();
  }
}

/// One read (or write) outside the timed part: set-up warm-ups and audits.
void untimed_op(runtime::node& nd, std::uint32_t group, std::uint64_t key, bool is_read,
                std::uint64_t val, std::vector<checks::seq_op>& seq,
                std::vector<checks::timed_op>& timed) {
  const std::int64_t t0 = now_ns();
  std::uint64_t got = val;
  if (is_read) {
    got = as_u64(nd.read(static_cast<register_id>(key)));
  } else {
    nd.write(static_cast<register_id>(key), value_of_u64(val));
  }
  seq.push_back({group, key, is_read, got});
  timed.push_back({key, is_read, got, t0, now_ns()});
}

/// The timed part of one pass, over whatever the deployment hosts.
struct pass_out {
  std::vector<sample> samples;
  std::vector<checks::seq_op> seq;
  std::vector<checks::timed_op> timed;
  std::uint64_t timed_ops = 0;
  std::uint64_t all_ops = 0;
  double wall_s = 0.0;
  std::int64_t start_ns = 0;
  double check_s = 0.0;
  double rss_mb = 0.0;  // peak RSS at k_rss_round, or at the end of a shorter pass
  std::vector<double> setups;
  std::string error;
};

void run_clients(deployment& d, const std::vector<std::vector<planned_op>>& plans,
                 const std::vector<std::uint32_t>& groups, double seconds, pass_out& out) {
  std::vector<client_log> logs(d.hosted.size());
  const std::int64_t start = now_ns();
  const std::int64_t end = start + static_cast<std::int64_t>(seconds * 1e9);
  std::vector<std::thread> threads;
  for (std::uint32_t c = 0; c < d.hosted.size(); ++c) {
    threads.emplace_back([&, c] {
      client_loop(*d.hosted[c]->nd, c, groups[c], plans[c], end, logs[c]);
    });
  }
  for (std::thread& t : threads) t.join();
  out.wall_s = static_cast<double>(now_ns() - start) / 1e9;
  out.start_ns = start;
  for (client_log& l : logs) {
    out.samples.insert(out.samples.end(), l.samples.begin(), l.samples.end());
    out.seq.insert(out.seq.end(), l.seq.begin(), l.seq.end());
    out.timed.insert(out.timed.end(), l.timed.begin(), l.timed.end());
    out.timed_ops += l.ops;
    if (!l.error.empty()) out.error = "client operation failed: " + l.error;
  }
  out.rss_mb = logs[0].rss_mb > 0 ? logs[0].rss_mb : peak_rss_mb();
  out.all_ops += out.timed_ops;
}

/// The timed part cut into one-second windows. Each figure is the median
/// over windows of that window's figure: a host stall of a few seconds
/// moves one window, not the median.
struct windowed {
  std::size_t windows = 0;
  double ops_per_s = 0.0;
  latency_summary reads;
  latency_summary writes;
};

windowed summarize_windows(const pass_out& p) {
  windowed w;
  w.windows = std::max<std::size_t>(1, static_cast<std::size_t>(p.wall_s));
  const double len_ns = p.wall_s * 1e9 / static_cast<double>(w.windows);
  std::vector<std::vector<double>> reads(w.windows);
  std::vector<std::vector<double>> writes(w.windows);
  std::vector<double> all_reads;
  std::vector<double> all_writes;
  for (const sample& s : p.samples) {
    const auto i = std::min(w.windows - 1, static_cast<std::size_t>(
                                               static_cast<double>(s.resp - p.start_ns) / len_ns));
    (s.is_read ? reads[i] : writes[i]).push_back(s.ms);
    (s.is_read ? all_reads : all_writes).push_back(s.ms);
  }
  std::vector<double> rate;
  std::vector<double> r50;
  std::vector<double> rmean;
  std::vector<double> w50;
  std::vector<double> wmean;
  std::printf("window ops/s:");
  for (std::size_t i = 0; i < w.windows; ++i) {
    rate.push_back(static_cast<double>(reads[i].size() + writes[i].size()) / (len_ns / 1e9));
    std::printf(" %.0f", rate.back());
    const latency_summary r = summarize(reads[i]);
    const latency_summary x = summarize(writes[i]);
    r50.push_back(r.p50_ms);
    rmean.push_back(r.mean_ms);
    w50.push_back(x.p50_ms);
    wmean.push_back(x.mean_ms);
  }
  std::printf("\n");
  // Whole-run p99s and counts; the medians over windows replace the rest.
  w.reads = summarize(std::move(all_reads));
  w.writes = summarize(std::move(all_writes));
  w.ops_per_s = median(rate);
  w.reads.p50_ms = median(r50);
  w.reads.mean_ms = median(rmean);
  w.writes.p50_ms = median(w50);
  w.writes.mean_ms = median(wmean);
  return w;
}

// ---- loopback_kv ----------------------------------------------------------------

constexpr std::uint32_t k_kv_groups = 2;
constexpr std::uint32_t k_kv_keys = 64;  // per group

std::uint64_t kv_key_base(std::uint32_t g) { return std::uint64_t{g} * 1000; }

/// Client g's key set is kv_key_base(g) + [0, k_kv_keys); one key past it is
/// written and read once per set-up, which warms every connection.
void kv_warm(deployment& d, pass_out& out) {
  for (std::uint32_t g = 0; g < d.hosted.size(); ++g) {
    const std::uint64_t key = kv_key_base(g) + k_kv_keys;
    untimed_op(*d.hosted[g]->nd, g, key, false, (std::uint64_t{g + 1} << 48) | 1, out.seq,
               out.timed);
    untimed_op(*d.hosted[g]->nd, g, key, true, 0, out.seq, out.timed);
    out.all_ops += 2;
  }
}

/// Spawns the replica processes, hosts each group's replica 0, and warms
/// every connection.
std::unique_ptr<deployment> kv_setup(const options& opt, bool traced, pass_out& out) {
  const double t0 = now_s();
  auto d = std::make_unique<deployment>();
  d->dir = fresh_dir(opt, "kv");
  const std::string exe = self_exe();
  const std::uint16_t base = probe_base_port(k_kv_groups * k_n);
  int fds[2];
  if (::pipe(fds) != 0) throw std::runtime_error("pipe failed");
  for (std::uint32_t g = 0; g < k_kv_groups; ++g) {
    const auto group_base = static_cast<std::uint16_t>(base + g * k_n);
    for (std::uint32_t i = 1; i < k_n; ++i) {
      std::string trace_out;
      if (traced) {
        trace_out = (trace_dir(opt) / ("loopback_kv-child-g" + std::to_string(g) + "-r" +
                                       std::to_string(i)))
                        .string();
        d->child_trace_files.push_back(trace_out);
      }
      const fs::path dir = d->dir / ("g" + std::to_string(g)) / ("r" + std::to_string(i));
      fs::create_directories(dir);
      d->children.push_back(
          spawn_replica(exe, g, i, group_base, dir, fds[1], fds[0], trace_out));
    }
  }
  ::close(fds[1]);
  try {
    await_ready(fds[0], k_kv_groups * (k_n - 1));
  } catch (...) {
    ::close(fds[0]);
    throw;
  }
  ::close(fds[0]);
  for (std::uint32_t g = 0; g < k_kv_groups; ++g) {
    const fs::path dir = d->dir / ("g" + std::to_string(g)) / "r0";
    fs::create_directories(dir);
    d->hosted.push_back(
        host_tcp_replica(g, 0, static_cast<std::uint16_t>(base + g * k_n), dir, traced));
  }
  kv_warm(*d, out);
  d->setup_s = now_s() - t0;
  return d;
}

/// Reads every key of every key set back: the final audit.
void kv_audit(deployment& d, pass_out& out) {
  for (std::uint32_t g = 0; g < d.hosted.size(); ++g) {
    for (std::uint32_t k = 0; k <= k_kv_keys; ++k) {
      untimed_op(*d.hosted[g]->nd, g, kv_key_base(g) + k, true, 0, out.seq, out.timed);
      ++out.all_ops;
    }
  }
}

// ---- loopback_contended -------------------------------------------------------------

constexpr std::uint32_t k_hot_keys = 8;

std::unique_ptr<deployment> contended_setup(const options& opt, bool traced,
                                            pass_out& out) {
  const double t0 = now_s();
  auto d = std::make_unique<deployment>();
  d->dir = fresh_dir(opt, "contended");
  const std::uint16_t base = probe_base_port(k_n);
  for (std::uint32_t i = 0; i < k_n; ++i) {
    const fs::path dir = d->dir / ("r" + std::to_string(i));
    fs::create_directories(dir);
    d->hosted.push_back(host_tcp_replica(0, i, base, dir, traced));
  }
  for (std::uint32_t i = 0; i < k_n; ++i) {
    untimed_op(*d->hosted[i]->nd, 0, i % k_hot_keys, true, 0, out.seq, out.timed);
    ++out.all_ops;
  }
  d->setup_s = now_s() - t0;
  return d;
}

void contended_audit(deployment& d, pass_out& out) {
  for (std::uint32_t k = 0; k < k_hot_keys; ++k) {
    untimed_op(*d.hosted[k % k_n]->nd, 0, k, true, 0, out.seq, out.timed);
    ++out.all_ops;
  }
}

// ---- runtime_kv -------------------------------------------------------------------

/// One group on one datagram_transport (no delay, no loss), each replica's
/// WAL on memory media. Client c enters through node c with key set c.
std::unique_ptr<deployment> runtime_setup(const options& opt, bool traced, pass_out& out) {
  const double t0 = now_s();
  auto d = std::make_unique<deployment>();
  d->shared_net =
      std::make_unique<runtime::datagram_transport>(runtime::transport_options{}, opt.seed);
  for (std::uint32_t i = 0; i < k_n; ++i) {
    d->hosted.push_back(host_replica(0, i, nullptr, *d->shared_net,
                                     std::make_unique<storage::memory_media>(), traced));
  }
  kv_warm(*d, out);
  d->setup_s = now_s() - t0;
  return d;
}

// ---- Shared pass driver -----------------------------------------------------------

enum class which { kv, contended, runtime };

/// One pass: `setups` set-ups (all but the last torn down at once), then the
/// timed part on the last, the audit, teardown and the checks.
pass_out run_pass(const options& opt, which w, double seconds, std::uint32_t setups,
                  bool traced) {
  pass_out out;
  std::vector<std::vector<planned_op>> plans;
  std::vector<std::uint32_t> groups;
  if (w != which::contended) {
    const std::uint32_t sets = w == which::kv ? k_kv_groups : k_n;
    for (std::uint32_t g = 0; g < sets; ++g) {
      plans.push_back(make_plan(opt.seed * 1000003 + g, 0.5, k_kv_keys, kv_key_base(g)));
      groups.push_back(g);
    }
  } else {
    for (std::uint32_t c = 0; c < k_n; ++c) {
      plans.push_back(make_plan(opt.seed * 1000003 + c, 0.1, k_hot_keys, 0));
      groups.push_back(0);
    }
  }
  std::unique_ptr<deployment> d;
  try {
    for (std::uint32_t s = 0; s < setups; ++s) {
      d.reset();
      pass_out scratch;  // warm-up ops of discarded set-ups are not checked
      pass_out& sink = s + 1 == setups ? out : scratch;
      if (traced) trace::process_counters().reset();
      d = w == which::kv          ? kv_setup(opt, traced, sink)
          : w == which::contended ? contended_setup(opt, traced, sink)
                                  : runtime_setup(opt, traced, sink);
      out.setups.push_back(d->setup_s);
      if (s + 1 < setups) {
        d->teardown();
        out.all_ops += sink.all_ops;
      }
    }
    run_clients(*d, plans, groups, seconds, out);
    if (out.error.empty()) {
      w == which::contended ? contended_audit(*d, out) : kv_audit(*d, out);
    }
  } catch (const std::exception& e) {
    out.error = e.what();
  }
  d.reset();
  const double t0 = now_s();
  const bool lin = w == which::contended;
  const std::string verdict =
      lin ? checks::check_linearizable(out.timed) : checks::check_last_write(out.seq);
  out.check_s = now_s() - t0;
  if (out.error.empty()) out.error = verdict;
  if (out.error.empty()) {
    out.error = lin ? checks::plant_linearizable(out.timed) : checks::plant_last_write(out.seq);
  }
  return out;
}

run_result run_loopback(const options& opt, which w) {
  run_result res;
  const double pass_s = opt.trace ? opt.seconds / 2 : opt.seconds;
  pass_out p =
      run_pass(opt, w, pass_s, w == which::runtime ? k_runtime_setups : k_setups, false);
  res.attempted += p.all_ops;
  if (!p.error.empty()) {
    res.fail(p.error);
    res.failed += 1;
  }
  const windowed win = summarize_windows(p);
  const double ops_per_s = win.ops_per_s;
  res.add(res.metrics, "setup_s", median(p.setups), "s");
  res.add(res.metrics, "ops_per_s", ops_per_s, "ops/s");
  report_latencies(res, win.reads, win.writes, "wall; p50 and mean are medians of windows");
  // On real processes the workload's own clock is the wall clock.
  res.add(res.metrics, "vops_per_vs", ops_per_s, "ops/s");
  res.add(res.metrics, "verified_ops_per_s", ops_per_s * p.wall_s / (p.wall_s + p.check_s),
          "ops/s");
  res.add(res.metrics, "peak_rss_mb", p.rss_mb, "MB");
  std::printf("timed ops=%llu in %.3f s over %zu windows; all ops incl. set-up and "
              "audit=%llu; %zu set-ups: min %.6f, median %.6f, max %.6f s\n",
              static_cast<unsigned long long>(p.timed_ops), p.wall_s, win.windows,
              static_cast<unsigned long long>(p.all_ops), p.setups.size(),
              *std::min_element(p.setups.begin(), p.setups.end()), median(p.setups),
              *std::max_element(p.setups.begin(), p.setups.end()));
  if (!opt.trace) return res;

  // Traced pass: decorators on every replica, spans on.
  trace::clear_spans();
  trace::enable_spans(true);
  pass_out t = run_pass(opt, w, opt.seconds / 2, 1, true);
  trace::enable_spans(false);
  res.attempted += t.all_ops;
  if (!t.error.empty()) {
    res.fail("traced pass: " + t.error);
    res.failed += 1;
  }
  const char* name = w == which::kv          ? "loopback_kv"
                     : w == which::contended ? "loopback_contended"
                                             : "runtime_kv";
  trace::write_spans((trace_dir(opt) / (std::string(name) + ".spans.csv")).string());
  const std::vector<trace::name_summary> spans = trace::summarize_spans();
  trace::print_span_table(spans);
  const auto mean_of = [&](trace::span_name n, bool self) {
    const trace::name_summary& s = spans[static_cast<std::size_t>(n)];
    return s.count == 0 ? 0.0 : (self ? s.self_us : s.total_us) / static_cast<double>(s.count);
  };
  const auto ratio = [](std::uint64_t a, std::uint64_t b) {
    return b == 0 ? 0.0 : static_cast<double>(a) / static_cast<double>(b);
  };
  const trace::counters& c = trace::process_counters();
  const auto ops = static_cast<double>(t.all_ops);
  auto& L = res.layers;
  const std::uint64_t roots = spans[0].count + spans[1].count;
  res.add(L, "runtime.node.read_us", mean_of(trace::span_name::client_read, false), "us");
  res.add(L, "runtime.node.write_us", mean_of(trace::span_name::client_write, false), "us");
  res.add(L, "runtime.node.op_self_us",
          roots == 0 ? 0.0 : (spans[0].self_us + spans[1].self_us) / static_cast<double>(roots),
          "us");
  res.add(L, "runtime.node.handler_us", ratio(c.handler_ns, c.handler_calls) / 1e3, "us");
  res.add(L, "runtime.node.handler_self_us", mean_of(trace::span_name::handler, true), "us");
  res.add(L, "runtime.node.handlers_per_op", static_cast<double>(c.handler_calls) / ops,
          "calls/op");
  res.add(L, "runtime.transport.frames_per_op", static_cast<double>(c.frames) / ops,
          "frames/op");
  res.add(L, "runtime.transport.bytes_per_op", static_cast<double>(c.frame_bytes) / ops,
          "B/op");
  res.add(L, "runtime.transport.send_us", ratio(c.send_ns, c.send_calls) / 1e3, "us");
  res.add(L, "runtime.transport.dropped_per_op", static_cast<double>(c.dropped) / ops,
          "frames/op");
  res.add(L, "proto.codec.encode_ns", ratio(c.encode_ns, c.encodes), "ns");
  res.add(L, "storage.wal.stores_per_op", static_cast<double>(c.stores) / ops, "stores/op");
  res.add(L, "storage.wal.store_us", ratio(c.store_ns, c.stores) / 1e3, "us");
  res.add(L, "storage.wal.bytes_per_store", ratio(c.store_bytes, c.stores), "B");
  const double traced_ops_per_s = summarize_windows(t).ops_per_s;
  res.add(L, "trace.overhead_pct", 100.0 * (1.0 - traced_ops_per_s / ops_per_s), "%");
  return res;
}

}  // namespace

run_result run_loopback_kv(const options& opt) { return run_loopback(opt, which::kv); }
run_result run_loopback_contended(const options& opt) {
  return run_loopback(opt, which::contended);
}
run_result run_runtime_kv(const options& opt) {
  // Pin this thread, and so every thread it starts, to the CPU it is on.
  // Unpinned, cross-CPU wake-ups set the figures: five 20 s runs spread from
  // 18k to 40k ops/s; pinned, 39k to 41k.
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(static_cast<unsigned>(::sched_getcpu()), &one);
  if (::sched_setaffinity(0, sizeof(one), &one) != 0) {
    throw std::runtime_error("runtime_kv: cannot pin to one CPU");
  }
  return run_loopback(opt, which::runtime);
}

int replica_main(int argc, char** argv) {
  ::prctl(PR_SET_PDEATHSIG, SIGKILL);
  // SIGTERM is taken synchronously by the main thread below; block it before
  // any transport thread exists so every thread inherits the mask.
  sigset_t term;
  sigemptyset(&term);
  sigaddset(&term, SIGTERM);
  pthread_sigmask(SIG_BLOCK, &term, nullptr);
  try {
    const auto group = static_cast<std::uint32_t>(flag_u64(argc, argv, "--group"));
    const auto index = static_cast<std::uint32_t>(flag_u64(argc, argv, "--index"));
    const auto base = static_cast<std::uint16_t>(flag_u64(argc, argv, "--base-port"));
    const int ready_fd = static_cast<int>(flag_u64(argc, argv, "--ready-fd"));
    const char* dir = flag_value(argc, argv, "--dir");
    const char* trace_out = flag_value(argc, argv, "--trace-out");
    if (dir == nullptr) throw std::runtime_error("replica: missing --dir");
    if (trace_out != nullptr) trace::enable_spans(true);
    auto rep = host_tcp_replica(group, index, base, dir, trace_out != nullptr);
    const char ready = 'r';
    if (::write(ready_fd, &ready, 1) != 1) return 1;
    ::close(ready_fd);
    int sig = 0;
    sigwait(&term, &sig);
    rep.reset();  // adds the drops and stops the transport thread
    if (trace_out != nullptr) {
      trace::write_spans(std::string(trace_out) + ".spans.csv");
      std::ofstream(trace_out, std::ios::trunc) << trace::process_counters().serialize();
    }
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "replica: %s\n", e.what());
    return 1;
  }
}

}  // namespace perfbench
