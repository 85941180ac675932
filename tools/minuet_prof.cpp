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
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "src/prof/explain.h"
#include "src/prof/profile.h"
#include "src/prof/timeline.h"
#include "src/util/json_reader.h"
#include "src/util/json_writer.h"

namespace {

using minuet::JsonValue;
using minuet::ReadJsonFile;
using minuet::WriteTextFile;
namespace prof = minuet::prof;

// --help prints this to stdout and returns 0; a usage error prints it to
// stderr and returns 2.
int Usage(int status = 2) {
  std::fprintf(status == 0 ? stdout : stderr,
               "usage: minuet_prof report RUN.json [--top N]\n"
               "       minuet_prof diff BEFORE.json AFTER.json [--threshold F] [--min-ms M]\n"
               "       minuet_prof make-baseline [--out FILE] REPORT.json...\n"
               "       minuet_prof check-baseline BASELINE.json REPORT.json...\n"
               "       minuet_prof timeline RUN.jsonl [OTHER.jsonl]\n"
               "       minuet_prof explain DUMP.jsonl [OTHER.jsonl] [--worst N] [--slo-us S]\n"
               "       minuet_prof RUN.json            (report)\n"
               "       minuet_prof BEFORE.json AFTER.json   (diff)\n");
  return status;
}

bool ParseDoubleFlag(const std::string& arg, const char* name, double* out) {
  std::string prefix = std::string(name) + "=";
  if (arg.rfind(prefix, 0) != 0) {
    return false;
  }
  *out = std::atof(arg.c_str() + prefix.size());
  return true;
}

struct Args {
  std::string command;
  std::vector<std::string> files;
  int top = 15;
  double threshold = 0.05;
  double min_ms = 0.0005;
  std::string out_path;
  prof::ExplainOptions explain;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  std::vector<std::string> raw(argv + 1, argv + argc);
  for (size_t i = 0; i < raw.size(); ++i) {
    std::string arg = raw[i];
    auto next = [&](double* out) {
      if (i + 1 >= raw.size()) {
        return false;
      }
      *out = std::atof(raw[++i].c_str());
      return true;
    };
    if (arg == "--top") {
      double v;
      if (!next(&v)) {
        return false;
      }
      args->top = static_cast<int>(v);
    } else if (double scratch; ParseDoubleFlag(arg, "--top", &scratch)) {
      args->top = static_cast<int>(scratch);
    } else if (arg == "--threshold") {
      if (!next(&args->threshold)) {
        return false;
      }
    } else if (ParseDoubleFlag(arg, "--threshold", &args->threshold)) {
    } else if (arg == "--min-ms") {
      if (!next(&args->min_ms)) {
        return false;
      }
    } else if (ParseDoubleFlag(arg, "--min-ms", &args->min_ms)) {
    } else if (arg == "--worst") {
      double v;
      if (!next(&v)) {
        return false;
      }
      args->explain.worst_k = static_cast<int64_t>(v);
    } else if (double scratch; ParseDoubleFlag(arg, "--worst", &scratch)) {
      args->explain.worst_k = static_cast<int64_t>(scratch);
    } else if (arg == "--slo-us") {
      if (!next(&args->explain.slo_us)) {
        return false;
      }
    } else if (ParseDoubleFlag(arg, "--slo-us", &args->explain.slo_us)) {
    } else if (arg == "--out") {
      if (i + 1 >= raw.size()) {
        return false;
      }
      args->out_path = raw[++i];
    } else if (arg.rfind("--out=", 0) == 0) {
      args->out_path = arg.substr(std::strlen("--out="));
    } else if (arg.rfind("--", 0) == 0) {
      std::fprintf(stderr, "minuet_prof: unknown flag %s\n", arg.c_str());
      return false;
    } else if (args->command.empty() &&
               (arg == "report" || arg == "diff" || arg == "make-baseline" ||
                arg == "check-baseline" || arg == "timeline" || arg == "explain")) {
      args->command = arg;
    } else {
      args->files.push_back(arg);
    }
  }
  if (args->command.empty()) {
    // Bare form: one file = report, two files = diff.
    if (args->files.size() == 1) {
      args->command = "report";
    } else if (args->files.size() == 2) {
      args->command = "diff";
    } else {
      return false;
    }
  }
  return !args->files.empty();
}

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
  if (args.files.size() != 2) {
    return Usage();
  }
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
  if (args.files.size() < 2) {
    return Usage();
  }
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
  if (args.files.empty() || args.files.size() > 2) {
    return Usage();
  }
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
  if (args.files.empty() || args.files.size() > 2) {
    return Usage();
  }
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

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--help") == 0) {
      return Usage(0);
    }
  }
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    return Usage();
  }
  if (args.command == "report") {
    return RunReport(args);
  }
  if (args.command == "diff") {
    return RunDiff(args);
  }
  if (args.command == "make-baseline") {
    return RunMakeBaseline(args);
  }
  if (args.command == "check-baseline") {
    return RunCheckBaseline(args);
  }
  if (args.command == "timeline") {
    return RunTimeline(args);
  }
  if (args.command == "explain") {
    return RunExplain(args);
  }
  return Usage();
}
