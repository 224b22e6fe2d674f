#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <mutex>
#include <new>
#include <sstream>
#include <unordered_map>

#include "bench.h"
#include "proto/message.h"

// ---- Allocation counter: this binary's global operator new ----------------

namespace {
std::atomic<bool> g_count_allocs{false};
std::atomic<std::uint64_t> g_allocs{0};

void* counted_alloc(std::size_t n) {
  if (g_count_allocs.load(std::memory_order_relaxed)) {
    g_allocs.fetch_add(1, std::memory_order_relaxed);
  }
  return std::malloc(n == 0 ? 1 : n);
}

void* counted_aligned_alloc(std::size_t n, std::align_val_t al) {
  if (g_count_allocs.load(std::memory_order_relaxed)) {
    g_allocs.fetch_add(1, std::memory_order_relaxed);
  }
  const auto a = static_cast<std::size_t>(al);
  const std::size_t rounded = (std::max<std::size_t>(n, 1) + a - 1) / a * a;
  return std::aligned_alloc(a, rounded);
}
}  // namespace

void* operator new(std::size_t n) {
  if (void* p = counted_alloc(n)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) {
  if (void* p = counted_alloc(n)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t n, const std::nothrow_t&) noexcept { return counted_alloc(n); }
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return counted_alloc(n);
}
void* operator new(std::size_t n, std::align_val_t al) {
  if (void* p = counted_aligned_alloc(n, al)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n, std::align_val_t al) {
  if (void* p = counted_aligned_alloc(n, al)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }

namespace perfbench::trace {

void count_allocations(bool on) { g_count_allocs.store(on, std::memory_order_relaxed); }
std::uint64_t allocations() { return g_allocs.load(std::memory_order_relaxed); }

// ---- Spans ------------------------------------------------------------------

namespace {

struct span_rec {
  std::int64_t t0 = 0;
  std::int64_t t1 = 0;
  std::uint64_t key = 0;
  std::int64_t parent = -1;  // index in the same thread's buffer
  span_name name = span_name::handler;
};

struct thread_buf {
  std::uint32_t tid = 0;
  std::vector<span_rec> spans;
  std::vector<std::int64_t> open;  // indices of open spans, innermost last
};

std::atomic<bool> g_spans_on{false};
std::atomic<std::uint64_t> g_roots{0};  // root spans opened since clear_spans()
std::mutex g_bufs_mu;
std::vector<std::unique_ptr<thread_buf>> g_bufs;  // guarded by g_bufs_mu
thread_local thread_buf* tl_buf = nullptr;

thread_buf& local_buf() {
  if (tl_buf == nullptr) {
    std::lock_guard lk(g_bufs_mu);
    g_bufs.push_back(std::make_unique<thread_buf>());
    tl_buf = g_bufs.back().get();
    tl_buf->tid = static_cast<std::uint32_t>(g_bufs.size() - 1);
  }
  return *tl_buf;
}

bool is_root(span_name n) {
  return n == span_name::client_read || n == span_name::client_write ||
         n == span_name::sim_run;
}

/// Every span of every thread, with parents as global indices.
struct flat_span {
  span_rec rec;
  std::uint32_t tid = 0;
  std::int64_t parent = -1;
};

std::vector<flat_span> flatten() {
  std::lock_guard lk(g_bufs_mu);
  std::vector<flat_span> all;
  std::unordered_map<std::uint64_t, std::int64_t> root_of;
  for (const auto& b : g_bufs) {
    const auto base = static_cast<std::int64_t>(all.size());
    for (const span_rec& s : b->spans) {
      flat_span f{s, b->tid, s.parent >= 0 ? base + s.parent : -1};
      if (is_root(s.name) && s.key != 0) root_of.emplace(s.key, static_cast<std::int64_t>(all.size()));
      all.push_back(f);
    }
  }
  for (flat_span& f : all) {
    if (f.parent >= 0 || is_root(f.rec.name) || f.rec.key == 0) continue;
    if (const auto it = root_of.find(f.rec.key); it != root_of.end()) f.parent = it->second;
  }
  return all;
}

}  // namespace

const char* to_string(span_name n) {
  switch (n) {
    case span_name::client_read: return "runtime.node.read";
    case span_name::client_write: return "runtime.node.write";
    case span_name::handler: return "runtime.node.handler";
    case span_name::send: return "runtime.transport.send";
    case span_name::encode: return "proto.codec.encode";
    case span_name::store: return "storage.wal.store";
    case span_name::sim_run: return "sim.run";
    case span_name::router_submit: return "core.router.submit";
    case span_name::router_run: return "core.router.run";
    case span_name::router_window: return "core.router.window";
    case span_name::history_merge: return "history.merge";
    case span_name::history_check: return "history.check";
    case span_name::history_tags: return "history.tag_check";
    case span_name::bench_check: return "bench.check";
    case span_name::count_: break;
  }
  return "?";
}

void enable_spans(bool on) { g_spans_on.store(on, std::memory_order_relaxed); }
bool spans_enabled() { return g_spans_on.load(std::memory_order_relaxed); }

scope::scope(span_name n, std::uint64_t key) {
  if (!spans_enabled()) return;
  if (is_root(n) && g_roots.fetch_add(1, std::memory_order_relaxed) >= k_max_roots) {
    enable_spans(false);  // every thread stops at once, so no operation loses its children
    return;
  }
  thread_buf& b = local_buf();
  span_rec s;
  s.name = n;
  s.parent = b.open.empty() ? -1 : b.open.back();
  s.key = key != 0 || s.parent < 0 ? key : b.spans[static_cast<std::size_t>(s.parent)].key;
  s.t0 = now_ns();
  index_ = static_cast<std::int64_t>(b.spans.size());
  b.spans.push_back(s);
  b.open.push_back(index_);
}

scope::~scope() {
  if (index_ < 0) return;
  thread_buf& b = local_buf();
  b.spans[static_cast<std::size_t>(index_)].t1 = now_ns();
  b.open.pop_back();
}

std::uint64_t next_key() {
  static std::atomic<std::uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

void bind_root(std::uint64_t key) {
  if (!spans_enabled() || tl_buf == nullptr || tl_buf->open.empty()) return;
  span_rec& root = tl_buf->spans[static_cast<std::size_t>(tl_buf->open.front())];
  if (is_root(root.name) && root.key == 0) root.key = key;
}

std::vector<name_summary> summarize_spans() {
  const std::vector<flat_span> all = flatten();
  std::vector<name_summary> out(static_cast<std::size_t>(span_name::count_));
  // Children grouped by parent, in start order, for the interval union.
  std::vector<std::pair<std::int64_t, std::size_t>> kids;  // (parent, child)
  for (std::size_t i = 0; i < all.size(); ++i) {
    if (all[i].parent >= 0) kids.emplace_back(all[i].parent, i);
  }
  std::sort(kids.begin(), kids.end(), [&](const auto& a, const auto& b) {
    if (a.first != b.first) return a.first < b.first;
    return all[a.second].rec.t0 < all[b.second].rec.t0;
  });
  std::vector<std::int64_t> covered(all.size(), 0);
  for (std::size_t k = 0; k < kids.size();) {
    const auto p = static_cast<std::size_t>(kids[k].first);
    const std::int64_t lo = all[p].rec.t0;
    const std::int64_t hi = all[p].rec.t1;
    std::int64_t cur_lo = 0;
    std::int64_t cur_hi = -1;
    std::int64_t sum = 0;
    for (; k < kids.size() && static_cast<std::size_t>(kids[k].first) == p; ++k) {
      const span_rec& c = all[kids[k].second].rec;
      const std::int64_t a = std::max(c.t0, lo);
      const std::int64_t b = std::min(c.t1, hi);
      if (b <= a) continue;
      if (a > cur_hi) {
        if (cur_hi > cur_lo) sum += cur_hi - cur_lo;
        cur_lo = a;
        cur_hi = b;
      } else {
        cur_hi = std::max(cur_hi, b);
      }
    }
    if (cur_hi > cur_lo) sum += cur_hi - cur_lo;
    covered[p] = sum;
  }
  for (std::size_t i = 0; i < all.size(); ++i) {
    const span_rec& s = all[i].rec;
    name_summary& ns = out[static_cast<std::size_t>(s.name)];
    const auto dur = static_cast<double>(s.t1 - s.t0);
    ++ns.count;
    ns.total_us += dur / 1e3;
    ns.self_us += std::max(0.0, dur - static_cast<double>(covered[i])) / 1e3;
  }
  return out;
}

void write_spans(const std::string& path) {
  const std::vector<flat_span> all = flatten();
  std::ofstream f(path, std::ios::trunc);
  f << "name,key,id,parent,thread,t0_ns,t1_ns\n";
  for (std::size_t i = 0; i < all.size(); ++i) {
    const flat_span& s = all[i];
    f << to_string(s.rec.name) << ',' << s.rec.key << ',' << i << ',' << s.parent << ','
      << s.tid << ',' << s.rec.t0 << ',' << s.rec.t1 << '\n';
  }
}

void print_span_table(const std::vector<name_summary>& spans) {
  std::printf("| span (this process) | count | mean us | mean self us |\n|---|---|---|---|\n");
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const name_summary& s = spans[i];
    if (s.count == 0) continue;
    const auto n = static_cast<double>(s.count);
    std::printf("| %s | %llu | %.2f | %.2f |\n", to_string(static_cast<span_name>(i)),
                static_cast<unsigned long long>(s.count), s.total_us / n, s.self_us / n);
  }
}

void clear_spans() {
  g_roots.store(0, std::memory_order_relaxed);
  std::lock_guard lk(g_bufs_mu);
  for (const auto& b : g_bufs) {
    b->spans.clear();
    b->open.clear();
  }
}

// ---- Counters ---------------------------------------------------------------

namespace {
struct counter_field {
  const char* name;
  std::atomic<std::uint64_t> counters::*field;
};
constexpr counter_field k_fields[] = {
    {"handler_calls", &counters::handler_calls}, {"handler_ns", &counters::handler_ns},
    {"send_calls", &counters::send_calls},       {"send_ns", &counters::send_ns},
    {"frames", &counters::frames},               {"frame_bytes", &counters::frame_bytes},
    {"encodes", &counters::encodes},             {"encode_ns", &counters::encode_ns},
    {"stores", &counters::stores},               {"store_ns", &counters::store_ns},
    {"store_bytes", &counters::store_bytes},     {"dropped", &counters::dropped},
};
}  // namespace

void counters::reset() {
  for (const counter_field& f : k_fields) (this->*f.field).store(0);
}

std::string counters::serialize() const {
  std::string out;
  for (const counter_field& f : k_fields) {
    out += f.name;
    out += ' ';
    out += std::to_string((this->*f.field).load());
    out += '\n';
  }
  return out;
}

void counters::merge(const std::string& image) {
  std::istringstream in(image);
  std::string name;
  std::uint64_t v = 0;
  while (in >> name >> v) {
    for (const counter_field& f : k_fields) {
      if (name == f.name) (this->*f.field) += v;
    }
  }
}

counters& process_counters() {
  static counters c;
  return c;
}

// ---- Decorators -------------------------------------------------------------

using remus::process_id;
using remus::proto::is_ack_kind;
using remus::proto::message;

traced_transport::traced_transport(remus::runtime::transport& inner, std::uint32_t group,
                                   std::uint32_t self)
    : inner_(inner), group_(group), self_(self) {}

void traced_transport::attach(process_id p, handler h) {
  inner_.attach(p, [this, p, h = std::move(h)](const message& m) {
    // Requests belong to their sender's operation, acks to the receiver's.
    const std::uint32_t client = is_ack_kind(m.kind) ? p.index : m.from.index;
    const std::int64_t t0 = now_ns();
    {
      scope s(span_name::handler, op_key(group_, client, m.op_seq));
      h(m);
    }
    counters& c = process_counters();
    c.handler_calls += 1;
    c.handler_ns += static_cast<std::uint64_t>(now_ns() - t0);
  });
}

void traced_transport::detach(process_id p) { inner_.detach(p); }

std::size_t traced_transport::measure(const message& m) {
  scope s(span_name::encode);
  const std::int64_t t0 = now_ns();
  const std::size_t size = remus::proto::encode(m).size();
  counters& c = process_counters();
  c.encodes += 1;
  c.encode_ns += static_cast<std::uint64_t>(now_ns() - t0);
  return size + 4;  // tcp_transport's u32 length prefix
}

void traced_transport::send(process_id to, const message& m) {
  const std::uint32_t client = is_ack_kind(m.kind) ? to.index : m.from.index;
  const std::uint64_t key = op_key(group_, client, m.op_seq);
  if (!is_ack_kind(m.kind) && m.from.index == self_) bind_root(key);
  scope s(span_name::send, key);
  const std::size_t size = measure(m);
  const std::int64_t t0 = now_ns();
  inner_.send(to, m);
  counters& c = process_counters();
  c.send_ns += static_cast<std::uint64_t>(now_ns() - t0);
  c.send_calls += 1;
  c.frames += 1;
  c.frame_bytes += size;
}

void traced_transport::broadcast(std::uint32_t n, const message& m) {
  const std::uint64_t key = op_key(group_, m.from.index, m.op_seq);
  if (!is_ack_kind(m.kind) && m.from.index == self_) bind_root(key);
  scope s(span_name::send, key);
  const std::size_t size = measure(m);
  const std::int64_t t0 = now_ns();
  inner_.broadcast(n, m);
  counters& c = process_counters();
  c.send_ns += static_cast<std::uint64_t>(now_ns() - t0);
  c.send_calls += 1;
  c.frames += n;
  c.frame_bytes += size * n;
}

std::uint64_t traced_transport::datagrams_sent() const { return inner_.datagrams_sent(); }
std::uint64_t traced_transport::datagrams_dropped() const {
  return inner_.datagrams_dropped();
}

void traced_store::store(remus::storage::record_key key, const remus::bytes& record) {
  scope s(span_name::store);
  const std::int64_t t0 = now_ns();
  inner_.store(key, record);
  counters& c = process_counters();
  c.store_ns += static_cast<std::uint64_t>(now_ns() - t0);
  c.stores += 1;
  c.store_bytes += record.size();
}

void traced_store::store_and_obsolete(remus::storage::record_key key,
                                      const remus::bytes& record,
                                      std::span<const remus::storage::record_key> obsolete) {
  scope s(span_name::store);
  const std::int64_t t0 = now_ns();
  inner_.store_and_obsolete(key, record, obsolete);
  counters& c = process_counters();
  c.store_ns += static_cast<std::uint64_t>(now_ns() - t0);
  c.stores += 1;
  c.store_bytes += record.size();
}

}  // namespace perfbench::trace
