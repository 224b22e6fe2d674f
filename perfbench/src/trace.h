// Tracing for the benchmark's traced pass, measured from outside the
// program:
//
//   * spans — name, start, end, parent and an operation key — recorded at
//     every layer boundary the benchmark reaches: around its own calls into
//     the library, and inside two decorators over the interfaces the runtime
//     takes by reference (runtime::transport, storage::stable_store). Spans
//     live in per-thread buffers in memory and are written out at the end;
//   * counters at the same boundaries (frames, bytes, stores, handler calls
//     and their busy time), so per-op ratios are measured where work happens;
//   * a global operator new counter (this binary's allocations only).
//
// With tracing off no decorator is installed and no span is recorded.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "runtime/transport.h"
#include "storage/stable_store.h"

namespace perfbench::trace {

// ---- Allocation counter ----
/// Counts operator new calls while on; off costs one relaxed load each.
void count_allocations(bool on);
[[nodiscard]] std::uint64_t allocations();

// ---- Spans ----
enum class span_name : std::uint8_t {
  client_read,    // root: one client read through runtime::node
  client_write,   // root: one client write through runtime::node
  handler,        // runtime::node's delivered-message handler
  send,           // runtime::transport send/broadcast (wire work)
  encode,         // proto::encode of one outgoing message
  store,          // stable_store store / store_and_obsolete (append; fsync on files)
  sim_run,        // root: one simulated run, set-up to checks
  router_submit,  // shard_router submit_* calls
  router_run,     // shard_router run_until_idle / run_for
  router_window,  // the migration window, begin_add_shard to its close
  history_merge,  // shard_router::events()
  history_check,  // history::check_persistent_atomicity_per_key
  history_tags,   // history::check_tag_order_per_key
  bench_check,    // the benchmark's own output check
  count_
};
[[nodiscard]] const char* to_string(span_name n);

/// Spans are recorded only while enabled (the traced pass), and only up to
/// the k_max_roots-th root span after clear_spans(): opening one more turns
/// recording off, which bounds memory and the span file. Counters and
/// decorators keep running.
constexpr std::uint64_t k_max_roots = 20000;
void enable_spans(bool on);
[[nodiscard]] bool spans_enabled();

/// Operation key shared by every span of one client operation: the quorum
/// group, the invoking process and its op sequence number, as carried by
/// every protocol message.
[[nodiscard]] constexpr std::uint64_t op_key(std::uint32_t group, std::uint32_t client,
                                             std::uint64_t op_seq) {
  return (static_cast<std::uint64_t>(group + 1) << 56) |
         (static_cast<std::uint64_t>(client & 0xffff) << 40) | (op_seq & 0xffffffffffULL);
}

/// RAII span. The parent is the innermost open span of this thread; a span
/// opened with key 0 inherits its parent's key.
class scope {
 public:
  explicit scope(span_name n, std::uint64_t key = 0);
  ~scope();
  scope(const scope&) = delete;
  scope& operator=(const scope&) = delete;

 private:
  std::int64_t index_ = -1;
};

/// Tags the thread's open root span with `key` if it has none yet (a client
/// operation learns its key from the first message its node sends).
void bind_root(std::uint64_t key);
/// A fresh key for a root span that carries no protocol identity.
[[nodiscard]] std::uint64_t next_key();

/// Per-name totals after linking spans across threads: a top-level span on
/// a transport thread whose key names a client operation counts as that
/// operation's child. Self time is a span's duration minus the union of its
/// children's intervals.
struct name_summary {
  std::uint64_t count = 0;
  double total_us = 0.0;
  double self_us = 0.0;
};
[[nodiscard]] std::vector<name_summary> summarize_spans();
/// Writes every recorded span as "name,key,id,parent,thread,t0_ns,t1_ns"
/// lines. Call once every recording thread has stopped.
void write_spans(const std::string& path);
/// Prints summarize_spans() as a table of count, mean and mean self time.
void print_span_table(const std::vector<name_summary>& spans);
/// Drops every recorded span (between passes).
void clear_spans();

// ---- Counters ----
struct counters {
  std::atomic<std::uint64_t> handler_calls{0};
  std::atomic<std::uint64_t> handler_ns{0};
  std::atomic<std::uint64_t> send_calls{0};
  std::atomic<std::uint64_t> send_ns{0};
  std::atomic<std::uint64_t> frames{0};
  std::atomic<std::uint64_t> frame_bytes{0};
  std::atomic<std::uint64_t> encodes{0};
  std::atomic<std::uint64_t> encode_ns{0};
  std::atomic<std::uint64_t> stores{0};
  std::atomic<std::uint64_t> store_ns{0};
  std::atomic<std::uint64_t> store_bytes{0};
  std::atomic<std::uint64_t> dropped{0};

  void reset();
  /// "name value" lines, for a replica process's hand-back to its parent.
  [[nodiscard]] std::string serialize() const;
  /// Adds the values of a serialize() image.
  void merge(const std::string& image);
};
[[nodiscard]] counters& process_counters();

// ---- Decorators over the runtime's two by-reference interfaces ----

/// Times and counts every call into an inner transport. `group` names the
/// quorum group (for operation keys), `self` the process it serves.
class traced_transport final : public remus::runtime::transport {
 public:
  traced_transport(remus::runtime::transport& inner, std::uint32_t group,
                   std::uint32_t self);
  traced_transport(const traced_transport&) = delete;
  traced_transport& operator=(const traced_transport&) = delete;

  void attach(remus::process_id p, handler h) override;
  void detach(remus::process_id p) override;
  void send(remus::process_id to, const remus::proto::message& m) override;
  void broadcast(std::uint32_t n, const remus::proto::message& m) override;
  [[nodiscard]] std::uint64_t datagrams_sent() const override;
  [[nodiscard]] std::uint64_t datagrams_dropped() const override;

 private:
  /// Encodes `m` once (timed) and returns its wire size.
  std::size_t measure(const remus::proto::message& m);

  remus::runtime::transport& inner_;
  std::uint32_t group_;
  std::uint32_t self_;
};

/// Times and counts every durable store of an inner stable_store.
class traced_store final : public remus::storage::stable_store {
 public:
  explicit traced_store(remus::storage::stable_store& inner) : inner_(inner) {}

  void store(remus::storage::record_key key, const remus::bytes& record) override;
  void store_and_obsolete(remus::storage::record_key key, const remus::bytes& record,
                          std::span<const remus::storage::record_key> obsolete) override;
  [[nodiscard]] std::optional<remus::bytes> retrieve(
      remus::storage::record_key key) const override {
    return inner_.retrieve(key);
  }
  void for_each(remus::storage::record_area area,
                const std::function<void(remus::register_id, const remus::bytes&)>& fn)
      const override {
    inner_.for_each(area, fn);
  }
  void erase(remus::storage::record_key key) override { inner_.erase(key); }
  void wipe() override { inner_.wipe(); }
  [[nodiscard]] std::uint64_t store_count() const override { return inner_.store_count(); }

 private:
  remus::storage::stable_store& inner_;
};

}  // namespace perfbench::trace
