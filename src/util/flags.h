// Table-driven command-line flags, shared by the tools and the benches.
//
// A command declares one table: each flag's name, value placeholder, help
// text and the field it sets. ParseFlags reads `--name=V` or `--name V` (a
// switch takes no value), sets the fields, and collects every argument that
// does not start with "--" as a positional, wherever it stands. A number must
// parse in full and fit its field, and a bound rejects values outside it.
// Parsing does no I/O and never exits; the first error comes back naming the
// flag, and main hands the result to FlagExit:
//
//   Options opts;
//   const FlagCommand command{"minuet_run [flags]", {
//       {"points", "N", "target point count", &opts.points, FlagBound::kPositive},
//       {"layers", "", "print a per-layer table", FlagSwitch{&opts.layers}},
//   }};
//   const ParsedFlags parsed = ParseFlags(command, {argv + 1, argv + argc});
//   if (!parsed.ok()) {
//     return FlagExit(command, parsed);  // --help: usage to stdout, 0;
//   }                                    // error: usage to stderr, 2
#ifndef SRC_UTIL_FLAGS_H_
#define SRC_UTIL_FLAGS_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <string>
#include <variant>
#include <vector>

namespace minuet {

// `--name` with no value sets *on.
struct FlagSwitch {
  bool* on;
};

// `--name 0|1`.
struct FlagBit {
  bool* on;
};

// A value from a set of names; returns false for a name outside it.
using FlagChoice = std::function<bool(const std::string&)>;

// A choice resolved by an existing lookup such as DeviceConfigForPreset.
template <typename T>
FlagChoice Choice(bool (*lookup)(const std::string&, T*), T* out) {
  return [lookup, out](const std::string& name) { return lookup(name, out); };
}

using FlagTarget = std::variant<std::string*, int*, int64_t*, uint64_t*, double*, FlagBit,
                                FlagSwitch, FlagChoice>;

// Bound on a numeric flag: none, >= 0, > 0, or within [0, 1].
enum class FlagBound { kNone, kZero, kPositive, kFraction };

struct FlagSpec {
  std::string name;   // without the leading "--"
  std::string value;  // placeholder in the usage text; unused by a switch
  std::string help;
  FlagTarget target;
  FlagBound bound = FlagBound::kNone;
  bool required = false;
};

inline constexpr size_t kAnyPositionals = std::numeric_limits<size_t>::max();

// One command's line: what the usage says, its flags, and how many
// positionals it takes.
struct FlagCommand {
  std::string synopsis;  // "minuet_prof diff BEFORE.json AFTER.json [flags]"
  std::vector<FlagSpec> flags;
  size_t min_positionals = 0;
  size_t max_positionals = 0;
};

struct ParsedFlags {
  bool help = false;   // --help stood anywhere on the line
  std::string error;   // the first usage error
  std::vector<std::string> positionals;

  bool ok() const { return !help && error.empty(); }
};

// Parses `args` (the line after the program and any subcommand words)
// against `command`, setting the field of every flag given.
ParsedFlags ParseFlags(const FlagCommand& command, const std::vector<std::string>& args);

// "usage: <synopsis>" and one line per flag.
std::string FlagUsage(const FlagCommand& command);

// For a line that did not parse: prints the usage to stdout for --help and
// returns 0; otherwise prints "<program>: <error>" and the usage to stderr
// and returns 2. <program> is the synopsis's first word.
int FlagExit(const FlagCommand& command, const ParsedFlags& parsed);

}  // namespace minuet

#endif  // SRC_UTIL_FLAGS_H_
