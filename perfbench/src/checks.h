// The benchmark's own output checks, written apart from src/history/ so a
// fault in the program's checkers cannot hide a fault in the program.
//
// Each check returns an empty string when the outputs pass and otherwise
// names the key and operation at fault. Each has a planted-fault companion
// that corrupts a copy of real outputs (a wrong read value, swapped values
// or tags) and returns an empty string only if the check rejects every
// corrupted copy: a check that cannot fail shows nothing.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/timestamp.h"

namespace perfbench::checks {

/// One operation of a single client, in invocation order. `val` 0 is the
/// register's initial value.
struct seq_op {
  std::uint32_t group = 0;
  std::uint64_t key = 0;
  bool is_read = false;
  std::uint64_t val = 0;
};
/// With one client per key, every read returns that client's last write.
[[nodiscard]] std::string check_last_write(const std::vector<seq_op>& log);
[[nodiscard]] std::string plant_last_write(const std::vector<seq_op>& log);

/// One completed operation on a register whose write values are unique,
/// with wall-clock invocation and response times.
struct timed_op {
  std::uint64_t key = 0;
  bool is_read = false;
  std::uint64_t val = 0;
  std::int64_t inv = 0;
  std::int64_t resp = 0;
};
/// Linearizability of unique-valued registers (Gibbons and Korach's zones):
/// every read returns a written value whose write began before the read
/// ended, no two forward zones overlap, and no backward zone lies inside a
/// forward zone.
[[nodiscard]] std::string check_linearizable(const std::vector<timed_op>& ops);
[[nodiscard]] std::string plant_linearizable(const std::vector<timed_op>& ops);

/// One completed operation (or one key of a batch) with the tag the
/// emulation applied.
struct tagged {
  std::uint64_t key = 0;
  bool is_read = false;
  remus::tag ts;
  std::uint64_t val = 0;
  std::int64_t inv = 0;
  std::int64_t resp = 0;
};
/// Per key: write tags are unique, each read returns the value its tag was
/// written with, and tags respect real-time order (an operation invoked
/// after another completed has a tag at least as large; a write, larger).
[[nodiscard]] std::string check_tags(const std::vector<tagged>& ops);
[[nodiscard]] std::string plant_tags(const std::vector<tagged>& ops);

/// Runs every check and plant on small hand-built histories.
[[nodiscard]] std::string selftest();

}  // namespace perfbench::checks
