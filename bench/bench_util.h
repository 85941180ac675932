// Shared helpers for the figure/table reproduction binaries.
//
// Each bench binary regenerates one figure or table of the paper as a text
// table: the same series/rows the paper plots, with simulated milliseconds
// (and, where meaningful, wall-clock milliseconds of the host run). Point
// counts are scaled down from the paper's (the simulator runs on one CPU);
// every binary prints its scale so rows can be compared like for like.
#ifndef BENCH_BENCH_UTIL_H_
#define BENCH_BENCH_UTIL_H_

#include <array>
#include <cstdarg>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <initializer_list>
#include <iterator>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "src/util/json_writer.h"

namespace minuet {
namespace bench {

inline void PrintTitle(const std::string& figure, const std::string& description) {
  std::printf("\n================================================================\n");
  std::printf("%s — %s\n", figure.c_str(), description.c_str());
  std::printf("================================================================\n");
}

inline void PrintNote(const std::string& note) { std::printf("note: %s\n", note.c_str()); }

// Fixed-width row printing: Row("%-14s %8.2f", ...).
inline void Row(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  std::vprintf(fmt, args);
  va_end(args);
  std::printf("\n");
}

inline void Rule() {
  std::printf("----------------------------------------------------------------\n");
}

// Command-line flags a bench binary may declare. Each takes one value, given
// as `--flag=V` or `--flag V`.
enum class Flag { kJson, kMetrics, kTrace, kTimeline, kWarmup };

struct FlagInfo {
  const char* name;   // without the leading "--"
  const char* value;  // placeholder in the usage text
  bool count;         // the value must be a non-negative integer
  const char* help;
};

// Indexed by Flag.
inline constexpr FlagInfo kFlagTable[] = {
    {"json", "FILE", false, "mirror the printed table as a JSON report"},
    {"metrics", "FILE", false, "write a metrics-registry snapshot"},
    {"trace", "FILE", false, "write a Chrome span trace"},
    {"timeline", "FILE", false, "write the representative sweep cell's telemetry JSONL"},
    {"warmup", "N", true, "unmeasured warm runs before the measured loop"},
};

// A bench's command line, checked against the flags the bench declares before
// it does any work: `--help` prints usage and exits 0; an unknown flag, a flag
// without a value, or a count that is not a non-negative integer prints usage
// to stderr and exits 2.
class Flags {
 public:
  Flags(std::string bench, std::initializer_list<Flag> declared, int argc, char** argv)
      : bench_(std::move(bench)), declared_(declared) {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg == "--help") {
        PrintUsage(stdout);
        std::exit(0);
      }
      const size_t eq = arg.find('=');
      const Flag* flag = Find(arg.substr(0, eq));
      if (flag == nullptr) {
        Fail("unknown flag " + arg);
      }
      const FlagInfo& info = Info(*flag);
      std::string value;
      if (eq != std::string::npos) {
        value = arg.substr(eq + 1);
      } else if (i + 1 < argc) {
        value = argv[++i];
      }
      if (value.empty() || value.rfind("--", 0) == 0) {
        Fail(std::string("--") + info.name + " needs a value");
      }
      if (info.count &&
          (value.size() > 9 || value.find_first_not_of("0123456789") != std::string::npos)) {
        Fail(std::string("--") + info.name + " takes a non-negative integer, not " + value);
      }
      values_[static_cast<size_t>(*flag)] = value;
    }
  }

  const std::string& bench() const { return bench_; }

  // The flag's value; empty when it was not given.
  const std::string& Get(Flag flag) const { return values_[static_cast<size_t>(flag)]; }

  // A count flag's value, or `fallback` when it was not given.
  int Count(Flag flag, int fallback) const {
    const std::string& value = Get(flag);
    return value.empty() ? fallback : std::atoi(value.c_str());
  }

 private:
  static const FlagInfo& Info(Flag flag) { return kFlagTable[static_cast<size_t>(flag)]; }

  const Flag* Find(const std::string& arg) const {
    for (const Flag& flag : declared_) {
      if (arg == std::string("--") + Info(flag).name) {
        return &flag;
      }
    }
    return nullptr;
  }

  void PrintUsage(std::FILE* out) const {
    std::fprintf(out, "usage: %s", bench_.c_str());
    for (Flag flag : declared_) {
      std::fprintf(out, " [--%s=%s]", Info(flag).name, Info(flag).value);
    }
    std::fprintf(out, "\n");
    for (Flag flag : declared_) {
      const std::string spelled = std::string("--") + Info(flag).name + "=" + Info(flag).value;
      std::fprintf(out, "  %-16s %s\n", spelled.c_str(), Info(flag).help);
    }
  }

  [[noreturn]] void Fail(const std::string& message) const {
    std::fprintf(stderr, "%s: %s\n", bench_.c_str(), message.c_str());
    PrintUsage(stderr);
    std::exit(2);
  }

  std::string bench_;
  std::vector<Flag> declared_;
  std::array<std::string, std::size(kFlagTable)> values_;
};

// Machine-readable twin of the printed table. A bench constructs one report,
// mirrors every printed row into it (AddRow + Value), and calls Write() at
// the end. Inactive — all calls no-ops, Write() returns true — unless the
// bench was given `--json=FILE`, so the text output never changes.
//
// Schema:
//   {"bench": "<name>",
//    "meta":  {"key": value, ...},          // scale, device, dataset, ...
//    "rows":  [{"key": value, ...}, ...]}   // one object per table row
class JsonReport {
 public:
  using Value = std::variant<int64_t, double, std::string>;

  explicit JsonReport(const Flags& flags)
      : bench_name_(flags.bench()), path_(flags.Get(Flag::kJson)) {}

  bool active() const { return !path_.empty(); }

  void Meta(const std::string& key, Value value) {
    if (active()) {
      meta_.emplace_back(key, std::move(value));
    }
  }

  void AddRow() {
    if (active()) {
      rows_.emplace_back();
    }
  }

  // Appends a field to the most recent row (AddRow first).
  void Set(const std::string& key, Value value) {
    if (active() && !rows_.empty()) {
      rows_.back().emplace_back(key, std::move(value));
    }
  }

  // Writes the report. True when inactive or successfully written; callers
  // should propagate false as a non-zero exit code.
  bool Write() const {
    if (!active()) {
      return true;
    }
    JsonWriter w;
    w.BeginObject();
    w.KV("bench", bench_name_);
    w.Key("meta");
    w.BeginObject();
    for (const auto& [key, value] : meta_) {
      WriteValue(w, key, value);
    }
    w.EndObject();
    w.Key("rows");
    w.BeginArray();
    for (const auto& row : rows_) {
      w.BeginObject();
      for (const auto& [key, value] : row) {
        WriteValue(w, key, value);
      }
      w.EndObject();
    }
    w.EndArray();
    w.EndObject();
    const bool ok = WriteTextFile(path_, w.TakeString());
    if (ok) {
      std::printf("json report written to %s\n", path_.c_str());
    } else {
      std::fprintf(stderr, "could not write %s\n", path_.c_str());
    }
    return ok;
  }

 private:
  using Fields = std::vector<std::pair<std::string, Value>>;

  static void WriteValue(JsonWriter& w, const std::string& key, const Value& value) {
    w.Key(key);
    if (const auto* i = std::get_if<int64_t>(&value)) {
      w.Value(*i);
    } else if (const auto* d = std::get_if<double>(&value)) {
      w.Value(*d);
    } else {
      w.Value(std::get<std::string>(value));
    }
  }

  std::string bench_name_;
  std::string path_;
  Fields meta_;
  std::vector<Fields> rows_;
};

// Benches read their point-count scale from MINUET_BENCH_POINTS when set, so
// the full suite can be re-run quickly at reduced scale.
inline int64_t PointsFromEnv(int64_t default_points) {
  const char* env = std::getenv("MINUET_BENCH_POINTS");
  if (env == nullptr) {
    return default_points;
  }
  int64_t value = std::atoll(env);
  return value > 0 ? value : default_points;
}

}  // namespace bench
}  // namespace minuet

#endif  // BENCH_BENCH_UTIL_H_
