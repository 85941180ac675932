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
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "src/util/flags.h"
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

// Command-line flags a bench binary may declare, parsed by the shared table
// parser (src/util/flags.h): `--help` prints usage and exits 0; an unknown
// flag, a flag without a value, or a bad --warmup count prints usage to
// stderr and exits 2 before the bench does any work.
enum class Flag { kJson, kMetrics, kTrace, kTimeline, kWarmup };

class Flags {
 public:
  Flags(std::string bench, std::initializer_list<Flag> declared, int argc, char** argv)
      : bench_(std::move(bench)) {
    FlagCommand command{bench_ + " [flags]", {}};
    for (Flag flag : declared) {
      command.flags.push_back(Declare(flag));
    }
    const ParsedFlags parsed = ParseFlags(command, {argv + 1, argv + argc});
    if (!parsed.ok()) {
      std::exit(FlagExit(command, parsed));
    }
  }

  const std::string& bench() const { return bench_; }

  // A file flag's value; empty when it was not given.
  const std::string& Get(Flag flag) const { return files_[static_cast<size_t>(flag)]; }

  // --warmup's value, or `fallback` when it was not given.
  int Warmup(int fallback) const { return warmup_ < 0 ? fallback : warmup_; }

 private:
  FlagSpec Declare(Flag flag) {
    if (flag == Flag::kWarmup) {
      return {"warmup", "N", "unmeasured warm runs before the measured loop", &warmup_,
              FlagBound::kZero};
    }
    static constexpr const char* kFiles[][2] = {
        {"json", "mirror the printed table as a JSON report"},
        {"metrics", "write a metrics-registry snapshot"},
        {"trace", "write a Chrome span trace"},
        {"timeline", "write the representative sweep cell's telemetry JSONL"},
    };
    const size_t i = static_cast<size_t>(flag);
    return {kFiles[i][0], "FILE", kFiles[i][1], &files_[i]};
  }

  std::string bench_;
  std::array<std::string, 4> files_;  // indexed by the file flags
  int warmup_ = -1;                   // not given
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
