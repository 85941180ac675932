// minuet_prof: offline profiler over the observability artifacts minuet_run
// and the benches emit.
//
//   minuet_prof report RUN.json [--top N]
//       Top-kernels table (simulated ms, % of run, occupancy, DRAM BW
//       utilisation, roofline class) and a per-layer hot-path summary.
//       RUN.json is either a metrics snapshot (--metrics), a Chrome trace
//       (--trace), or a minuet_serve report (--json); the artifact kind is
//       auto-detected. Serve reports get the latency-percentile/shed-rate
//       view first, then top-kernels from the embedded metrics snapshot.
//
//   minuet_prof diff BEFORE.json AFTER.json [--threshold F] [--min-ms M]
//       Per-kernel deltas between two runs. Exits 1 when any kernel slows
//       down by more than threshold (default 5%) and at least min-ms
//       (default 0.0005 simulated ms).
//
//   minuet_prof make-baseline [--out FILE] REPORT.json...
//       Records bench --json reports, one per bench, as a baseline document
//       (host wall-clock metrics excluded).
//
//   minuet_prof check-baseline BASELINE.json REPORT.json...
//       Checks fresh bench reports, one per baseline bench, against a
//       committed baseline. Exits 1 when any value differs from the
//       recorded one, however slightly, or a baseline bench has no report.
//
//   minuet_prof timeline RUN.jsonl [OTHER.jsonl]
//       Renders a streaming-telemetry timeline (minuet_serve --timeline):
//       per-window fleet table plus an ASCII sparkline per series. With two
//       files, diffs them window-by-window instead and exits 1 on any
//       difference.
//
//   minuet_prof explain DUMP.jsonl [OTHER.jsonl] [--worst N] [--slo-us S]
//       Tail-latency blame report over a per-request dump (minuet_serve
//       --dump-requests): selects the tail (above-SLO by default, worst-N
//       with --worst), renders the causal phase decomposition — queueing vs
//       batch-formation delay vs gather/GEMM/scatter execution vs stream
//       wait — overall and per priority tier / per replica, plus the
//       plan-cache miss penalty. With two files, compares the two runs'
//       blame decompositions instead. Deterministic output: replaying the
//       workload reproduces the report byte for byte.
//
// Bare forms: `minuet_prof RUN.json` = report, `minuet_prof A.json B.json`
// = diff. Exit codes: 0 ok, 1 regression/violation, 2 usage or input error.
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "src/prof/explain.h"
#include "src/prof/profile.h"
#include "src/prof/timeline.h"
#include "src/util/flags.h"
#include "src/util/json_reader.h"
#include "src/util/json_writer.h"

namespace {

using minuet::FlagCommand;
using minuet::JsonValue;
using minuet::ReadJsonFile;
using minuet::WriteTextFile;
namespace prof = minuet::prof;

struct Args {
  std::vector<std::string> files;
  int top = 15;
  double threshold = 0.05;
  double min_ms = 0.0005;
  std::string out_path;
  prof::ExplainOptions explain;
};

int RunReport(const Args& args) {
  JsonValue doc;
  std::string error;
  if (!ReadJsonFile(args.files[0], &doc, &error)) {
    std::fprintf(stderr, "minuet_prof: %s\n", error.c_str());
    return 2;
  }
  if (prof::IsServeReport(doc)) {
    prof::ServeProfile serve;
    if (!prof::LoadServeProfile(doc, &serve, &error)) {
      std::fprintf(stderr, "minuet_prof: %s: %s\n", args.files[0].c_str(), error.c_str());
      return 2;
    }
    std::fputs(prof::FormatServeReport(serve, args.top).c_str(), stdout);
    return 0;
  }
  prof::RunProfile profile;
  if (!prof::LoadRunProfile(doc, &profile, &error)) {
    std::fprintf(stderr, "minuet_prof: %s: %s\n", args.files[0].c_str(), error.c_str());
    return 2;
  }
  std::string report = prof::FormatReport(profile, args.top);
  std::fputs(report.c_str(), stdout);
  return 0;
}

int RunDiff(const Args& args) {
  prof::RunProfile before, after;
  std::string error;
  if (!prof::LoadRunProfileFile(args.files[0], &before, &error) ||
      !prof::LoadRunProfileFile(args.files[1], &after, &error)) {
    std::fprintf(stderr, "minuet_prof: %s\n", error.c_str());
    return 2;
  }
  prof::DiffResult diff = prof::DiffProfiles(before, after);
  std::string text = prof::FormatDiff(diff, args.threshold, args.min_ms);
  std::fputs(text.c_str(), stdout);
  return prof::Regressions(diff, args.threshold, args.min_ms).empty() ? 0 : 1;
}

// Parses every file in `paths`; prints the first error and returns false.
bool ReadJsonFiles(const std::vector<std::string>& paths, std::vector<JsonValue>* docs) {
  docs->resize(paths.size());
  for (size_t i = 0; i < paths.size(); ++i) {
    std::string error;
    if (!ReadJsonFile(paths[i], &(*docs)[i], &error)) {
      std::fprintf(stderr, "minuet_prof: %s\n", error.c_str());
      return false;
    }
  }
  return true;
}

int RunMakeBaseline(const Args& args) {
  std::vector<JsonValue> reports;
  if (!ReadJsonFiles(args.files, &reports)) {
    return 2;
  }
  std::string error;
  std::string baseline = prof::MakeBaselineJson(reports, &error);
  if (baseline.empty()) {
    std::fprintf(stderr, "minuet_prof: %s\n", error.c_str());
    return 2;
  }
  if (args.out_path.empty()) {
    std::fputs(baseline.c_str(), stdout);
    std::fputc('\n', stdout);
    return 0;
  }
  if (!WriteTextFile(args.out_path, baseline + "\n")) {
    std::fprintf(stderr, "minuet_prof: could not write %s\n", args.out_path.c_str());
    return 2;
  }
  std::fprintf(stdout, "wrote baseline for %zu report(s) to %s\n", args.files.size(),
               args.out_path.c_str());
  return 0;
}

int RunCheckBaseline(const Args& args) {
  std::vector<JsonValue> docs;
  if (!ReadJsonFiles(args.files, &docs)) {
    return 2;
  }
  const JsonValue& baseline = docs[0];
  const std::vector<JsonValue> reports(docs.begin() + 1, docs.end());
  std::vector<prof::BaselineViolation> violations;
  std::string error;
  if (!prof::CheckBaseline(baseline, reports, &violations, &error)) {
    std::fprintf(stderr, "minuet_prof: %s\n", error.c_str());
    return 2;
  }
  for (const JsonValue& report : reports) {
    const std::string name = minuet::StringOr(&report, "bench");
    const auto failed =
        std::count_if(violations.begin(), violations.end(),
                      [&](const prof::BaselineViolation& v) { return v.bench == name; });
    std::fprintf(stdout, "%s: %s (%td violation(s))\n", name.c_str(), failed == 0 ? "OK" : "FAIL",
                 failed);
  }
  for (const prof::BaselineViolation& v : violations) {
    if (v.row >= 0) {
      std::fprintf(stdout, "  VIOLATION %s row %d %s: %s\n", v.bench.c_str(), v.row,
                   v.key.c_str(), v.message.c_str());
    } else {
      std::fprintf(stdout, "  VIOLATION %s %s: %s\n", v.bench.c_str(), v.key.c_str(),
                   v.message.c_str());
    }
  }
  std::fprintf(stdout, "checked %zu report(s) against %s: %zu violation(s)\n", reports.size(),
               args.files[0].c_str(), violations.size());
  return violations.empty() ? 0 : 1;
}

int RunTimeline(const Args& args) {
  prof::Timeline first;
  std::string error;
  if (!prof::LoadTimelineFile(args.files[0], &first, &error)) {
    std::fprintf(stderr, "minuet_prof: %s\n", error.c_str());
    return 2;
  }
  if (args.files.size() == 1) {
    std::fputs(prof::FormatTimeline(first).c_str(), stdout);
    return 0;
  }
  prof::Timeline second;
  if (!prof::LoadTimelineFile(args.files[1], &second, &error)) {
    std::fprintf(stderr, "minuet_prof: %s\n", error.c_str());
    return 2;
  }
  prof::TimelineDiff diff = prof::DiffTimelines(first, second);
  std::fputs(diff.text.c_str(), stdout);
  return diff.differences == 0 ? 0 : 1;
}

int RunExplain(const Args& args) {
  prof::RequestDump first;
  std::string error;
  if (!prof::LoadRequestDumpFile(args.files[0], &first, &error)) {
    std::fprintf(stderr, "minuet_prof: %s: %s\n", args.files[0].c_str(), error.c_str());
    return 2;
  }
  const prof::Explain before = prof::BuildExplain(first, args.explain);
  if (args.files.size() == 1) {
    std::fputs(prof::FormatExplain(before).c_str(), stdout);
    return 0;
  }
  prof::RequestDump second;
  if (!prof::LoadRequestDumpFile(args.files[1], &second, &error)) {
    std::fprintf(stderr, "minuet_prof: %s: %s\n", args.files[1].c_str(), error.c_str());
    return 2;
  }
  const prof::Explain after = prof::BuildExplain(second, args.explain);
  std::fputs(prof::FormatExplainDiff(before, after).c_str(), stdout);
  return 0;
}

struct Subcommand {
  const char* name;
  FlagCommand command;
  int (*run)(const Args&);
};

std::vector<Subcommand> Subcommands(Args* a) {
  constexpr size_t kAny = minuet::kAnyPositionals;
  return {
      {"report",
       {"minuet_prof report RUN.json [flags]",
        {{"top", "N", "kernels in the table, 0 for all (default 15)", &a->top}},
        1,
        1},
       RunReport},
      {"diff",
       {"minuet_prof diff BEFORE.json AFTER.json [flags]",
        {{"threshold", "F", "slowdown that counts as a regression (default 0.05)",
          &a->threshold},
         {"min-ms", "M", "and by at least this many simulated ms (default 0.0005)",
          &a->min_ms}},
        2,
        2},
       RunDiff},
      {"make-baseline",
       {"minuet_prof make-baseline REPORT.json... [flags]",
        {{"out", "FILE", "write the baseline here, not to stdout", &a->out_path}},
        1,
        kAny},
       RunMakeBaseline},
      {"check-baseline", {"minuet_prof check-baseline BASELINE.json REPORT.json...", {}, 2, kAny},
       RunCheckBaseline},
      {"timeline", {"minuet_prof timeline RUN.jsonl [OTHER.jsonl]", {}, 1, 2}, RunTimeline},
      {"explain",
       {"minuet_prof explain DUMP.jsonl [OTHER.jsonl] [flags]",
        {{"worst", "N", "blame the worst N requests, not the above-SLO tail",
          &a->explain.worst_k},
         {"slo-us", "S", "SLO for the tail (default: the dump's)", &a->explain.slo_us}},
        1,
        2},
       RunExplain},
  };
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  const std::vector<Subcommand> subcommands = Subcommands(&args);
  const std::string first = argc > 1 ? argv[1] : "";
  auto match = std::find_if(subcommands.begin(), subcommands.end(),
                            [&](const Subcommand& s) { return first == s.name; });
  int rest = 2;
  if (match == subcommands.end() && !first.empty() && first != "--help") {
    // Bare forms: one file is a report, two are a diff.
    rest = 1;
    match = subcommands.begin();
    if (!minuet::ParseFlags(match->command, {argv + 1, argv + argc}).error.empty()) {
      ++match;
    }
  }
  if (match == subcommands.end()) {
    std::FILE* out = first == "--help" ? stdout : stderr;
    for (const Subcommand& s : subcommands) {
      std::fputs(minuet::FlagUsage(s.command).c_str(), out);
    }
    std::fputs("usage: minuet_prof RUN.json | BEFORE.json AFTER.json   (report | diff)\n", out);
    return first == "--help" ? 0 : 2;
  }
  const minuet::ParsedFlags parsed = minuet::ParseFlags(match->command, {argv + rest, argv + argc});
  if (!parsed.ok()) {
    return minuet::FlagExit(match->command, parsed);
  }
  args.files = parsed.positionals;
  return match->run(args);
}
