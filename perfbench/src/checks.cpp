#include "checks.h"

#include <algorithm>
#include <limits>
#include <map>
#include <unordered_map>

namespace perfbench::checks {
namespace {

constexpr std::uint64_t k_unwritten = 0x4000000000000000ULL;

std::string name_op(std::uint64_t key, std::size_t index) {
  return "key " + std::to_string(key) + " op #" + std::to_string(index);
}

}  // namespace

// ---- Single client: last write wins ------------------------------------------

std::string check_last_write(const std::vector<seq_op>& log) {
  std::map<std::pair<std::uint32_t, std::uint64_t>, std::uint64_t> last;
  for (std::size_t i = 0; i < log.size(); ++i) {
    const seq_op& op = log[i];
    const auto k = std::make_pair(op.group, op.key);
    if (!op.is_read) {
      last[k] = op.val;
      continue;
    }
    const auto it = last.find(k);
    const std::uint64_t want = it == last.end() ? 0 : it->second;
    if (op.val != want) {
      return "group " + std::to_string(op.group) + " " + name_op(op.key, i) +
             ": read " + std::to_string(op.val) + ", last write " + std::to_string(want);
    }
  }
  return {};
}

std::string plant_last_write(const std::vector<seq_op>& log) {
  // A wrong read value.
  {
    std::vector<seq_op> bad = log;
    const auto it = std::find_if(bad.begin(), bad.end(),
                                 [](const seq_op& o) { return o.is_read && o.val != 0; });
    if (it == bad.end()) return "last-write plant: no read of a written value";
    it->val ^= k_unwritten;
    if (check_last_write(bad).empty()) return "last-write check missed a wrong read value";
  }
  // The values of a key's last two writes swapped (every key is read after
  // its last write: the audit).
  {
    std::vector<seq_op> bad = log;
    for (std::size_t j = bad.size(); j-- > 0;) {
      if (bad[j].is_read) continue;
      for (std::size_t i = j; i-- > 0;) {
        if (bad[i].is_read || bad[i].group != bad[j].group || bad[i].key != bad[j].key) continue;
        std::swap(bad[i].val, bad[j].val);
        if (check_last_write(bad).empty()) return "last-write check missed swapped writes";
        return {};
      }
    }
    return "last-write plant: no key written twice";
  }
}

// ---- Unique-valued registers: Gibbons-Korach zones -----------------------------

std::string check_linearizable(const std::vector<timed_op>& ops) {
  constexpr std::int64_t minus_inf = std::numeric_limits<std::int64_t>::min();
  struct zone {
    std::int64_t f = std::numeric_limits<std::int64_t>::max();  // min response
    std::int64_t s = minus_inf;                                   // max invocation
    std::int64_t write_inv = 0;
    bool written = false;
  };
  std::unordered_map<std::uint64_t, std::unordered_map<std::uint64_t, zone>> keys;
  for (const timed_op& op : ops) {
    if (op.is_read) continue;
    if (op.val == 0) return "key " + std::to_string(op.key) + ": write of the initial value";
    zone& z = keys[op.key][op.val];
    if (z.written) {
      return "key " + std::to_string(op.key) + ": value " + std::to_string(op.val) +
             " written twice";
    }
    z.written = true;
    z.write_inv = op.inv;
    z.f = std::min(z.f, op.resp);
    z.s = std::max(z.s, op.inv);
  }
  for (auto& [key, zones] : keys) {
    zone& init = zones[0];  // the initial value: written before everything
    init.written = true;
    init.write_inv = minus_inf;
    init.f = minus_inf;
  }
  for (const timed_op& op : ops) {
    if (!op.is_read) continue;
    auto& zones = keys[op.key];
    if (op.val == 0 && !zones.contains(0)) zones[0] = zone{minus_inf, minus_inf, minus_inf, true};
    const auto it = zones.find(op.val);
    if (it == zones.end() || !it->second.written) {
      return "key " + std::to_string(op.key) + ": read returned " + std::to_string(op.val) +
             ", which no write wrote";
    }
    zone& z = it->second;
    if (op.resp < z.write_inv) {
      return "key " + std::to_string(op.key) + ": read of " + std::to_string(op.val) +
             " ended before its write began";
    }
    z.f = std::min(z.f, op.resp);
    z.s = std::max(z.s, op.inv);
  }
  for (const auto& [key, zones] : keys) {
    std::vector<std::pair<std::int64_t, std::int64_t>> fwd;   // [f, s], f < s
    std::vector<std::pair<std::int64_t, std::int64_t>> back;  // [s, f], s <= f
    for (const auto& [val, z] : zones) {
      if (z.f < z.s) {
        fwd.emplace_back(z.f, z.s);
      } else {
        back.emplace_back(z.s, z.f);
      }
    }
    std::sort(fwd.begin(), fwd.end());
    for (std::size_t i = 1; i < fwd.size(); ++i) {
      if (fwd[i].first < fwd[i - 1].second) {
        return "key " + std::to_string(key) + ": two forward zones overlap (a read saw a "
               "value after a newer one was complete)";
      }
    }
    for (const auto& [lo, hi] : back) {
      // The forward zone starting last at or before lo is the only one that
      // can contain [lo, hi] (forward zones are disjoint).
      auto it = std::upper_bound(
          fwd.begin(), fwd.end(),
          std::make_pair(lo, std::numeric_limits<std::int64_t>::max()));
      if (it == fwd.begin()) continue;
      --it;
      if (it->first < lo && hi < it->second) {
        return "key " + std::to_string(key) + ": a backward zone lies inside a forward zone";
      }
    }
  }
  return {};
}

std::string plant_linearizable(const std::vector<timed_op>& ops) {
  {
    std::vector<timed_op> bad = ops;
    const auto it = std::find_if(bad.begin(), bad.end(),
                                 [](const timed_op& o) { return o.is_read && o.val != 0; });
    if (it == bad.end()) return "linearizability plant: no read of a written value";
    it->val ^= k_unwritten;
    if (check_linearizable(bad).empty()) {
      return "linearizability check missed a wrong read value";
    }
  }
  // A stale read: R returned W's value, W completed before R began, and W0
  // completed before W began; R is made to return W0's value instead.
  std::unordered_map<std::uint64_t, const timed_op*> writer;  // (value) -> write
  for (const timed_op& op : ops) {
    if (!op.is_read) writer[op.val] = &op;
  }
  std::unordered_map<std::uint64_t, std::vector<const timed_op*>> writes_by_key;
  for (const timed_op& op : ops) {
    if (!op.is_read) writes_by_key[op.key].push_back(&op);
  }
  for (std::size_t i = 0; i < ops.size(); ++i) {
    const timed_op& r = ops[i];
    if (!r.is_read || r.val == 0) continue;
    const timed_op* w = writer[r.val];
    if (w == nullptr || w->resp >= r.inv) continue;
    for (const timed_op* w0 : writes_by_key[r.key]) {
      if (w0->resp >= w->inv) continue;
      std::vector<timed_op> bad = ops;
      bad[i].val = w0->val;
      if (check_linearizable(bad).empty()) return "linearizability check missed a stale read";
      return {};
    }
  }
  return "linearizability plant: no read with two earlier writes";
}

// ---- Tags against real time ---------------------------------------------------

std::string check_tags(const std::vector<tagged>& ops) {
  std::unordered_map<std::uint64_t, std::vector<const tagged*>> by_key;
  for (const tagged& op : ops) by_key[op.key].push_back(&op);
  for (auto& [key, list] : by_key) {
    std::map<remus::tag, std::uint64_t> written;  // tag -> value
    for (const tagged* op : list) {
      if (op->is_read) continue;
      if (op->ts.initial()) return "key " + std::to_string(key) + ": write with the initial tag";
      if (!written.emplace(op->ts, op->val).second) {
        return "key " + std::to_string(key) + ": tag " + remus::to_string(op->ts) +
               " written twice";
      }
    }
    for (const tagged* op : list) {
      if (!op->is_read) continue;
      std::uint64_t want = 0;
      if (!op->ts.initial()) {
        const auto it = written.find(op->ts);
        if (it == written.end()) {
          return "key " + std::to_string(key) + ": read tag " + remus::to_string(op->ts) +
                 " names no write";
        }
        want = it->second;
      }
      if (op->val != want) {
        return "key " + std::to_string(key) + ": read with tag " + remus::to_string(op->ts) +
               " returned " + std::to_string(op->val) + ", written " + std::to_string(want);
      }
    }
    // Sweep invocations in time order; `best` is the largest tag of every
    // operation that completed strictly before the current invocation.
    std::vector<const tagged*> by_inv = list;
    std::vector<const tagged*> by_resp = list;
    std::sort(by_inv.begin(), by_inv.end(),
              [](const tagged* a, const tagged* b) { return a->inv < b->inv; });
    std::sort(by_resp.begin(), by_resp.end(),
              [](const tagged* a, const tagged* b) { return a->resp < b->resp; });
    remus::tag best = remus::initial_tag;
    std::size_t done = 0;
    for (const tagged* op : by_inv) {
      while (done < by_resp.size() && by_resp[done]->resp < op->inv) {
        best = std::max(best, by_resp[done]->ts);
        ++done;
      }
      const bool ok = op->is_read ? op->ts >= best : op->ts > best;
      if (!ok) {
        return "key " + std::to_string(key) + ": " + (op->is_read ? "read" : "write") +
               " invoked at " + std::to_string(op->inv) + " has tag " +
               remus::to_string(op->ts) + " below " + remus::to_string(best) +
               " of an operation that completed before it";
      }
    }
  }
  return {};
}

std::string plant_tags(const std::vector<tagged>& ops) {
  {
    std::vector<tagged> bad = ops;
    const auto it = std::find_if(bad.begin(), bad.end(),
                                 [](const tagged& o) { return o.is_read && !o.ts.initial(); });
    if (it == bad.end()) return "tag plant: no read of a written value";
    it->val ^= k_unwritten;
    if (check_tags(bad).empty()) return "tag check missed a wrong read value";
  }
  // Two real-time-ordered writes of one key with their tags swapped.
  std::unordered_map<std::uint64_t, std::size_t> first_write;
  for (std::size_t j = 0; j < ops.size(); ++j) {
    if (ops[j].is_read) continue;
    const auto [it, fresh] = first_write.emplace(ops[j].key, j);
    if (fresh) continue;
    const std::size_t i = it->second;
    if (ops[i].resp >= ops[j].inv) continue;
    std::vector<tagged> bad = ops;
    std::swap(bad[i].ts, bad[j].ts);
    if (check_tags(bad).empty()) return "tag check missed swapped tags";
    return {};
  }
  return "tag plant: no two real-time-ordered writes of one key";
}

// ---- Self-test on hand-built histories -----------------------------------------

std::string selftest() {
  const std::vector<seq_op> seq = {
      {0, 1, false, 10}, {0, 1, true, 10}, {0, 2, true, 0},
      {0, 1, false, 11}, {0, 2, false, 20}, {0, 1, true, 11}, {0, 2, true, 20},
  };
  if (auto e = check_last_write(seq); !e.empty()) return "valid single-client log: " + e;
  if (auto e = plant_last_write(seq); !e.empty()) return e;

  // Two clients on one key: w1 [0,10], read of w1 [12,20], w2 [15,30],
  // read of w2 [31,40], concurrent read of w1 [16,18].
  const std::vector<timed_op> lin = {
      {7, false, 1, 0, 10}, {7, true, 1, 12, 20}, {7, false, 2, 15, 30},
      {7, true, 2, 31, 40}, {7, true, 1, 16, 18}, {7, true, 0, -5, -1},
      {7, false, 3, 41, 50}, {7, true, 3, 51, 52},
  };
  if (auto e = check_linearizable(lin); !e.empty()) return "valid register history: " + e;
  if (auto e = plant_linearizable(lin); !e.empty()) return e;
  {
    std::vector<timed_op> stale = lin;
    stale.push_back({7, true, 1, 41, 45});  // w1's value after w2 completed
    if (check_linearizable(stale).empty()) return "linearizability check missed a stale read";
  }

  const remus::tag t1{1, 0, remus::process_id{0}};
  const remus::tag t2{2, 0, remus::process_id{1}};
  const std::vector<tagged> tags = {
      {3, false, t1, 100, 0, 10}, {3, true, t1, 100, 11, 20},
      {3, false, t2, 200, 21, 30}, {3, true, t2, 200, 31, 40},
      {3, true, remus::initial_tag, 0, -3, -1},
  };
  if (auto e = check_tags(tags); !e.empty()) return "valid tagged history: " + e;
  if (auto e = plant_tags(tags); !e.empty()) return e;
  return {};
}

}  // namespace perfbench::checks
