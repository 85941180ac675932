// minuet_dataset: generate, inspect and export the synthetic datasets.
// `minuet_dataset --help` lists the subcommands and their flags.
//
//   minuet_dataset gen  --dataset kitti --points 100000 --seed 1 --out scan.mnpc
//   minuet_dataset info --in scan.mnpc
//   minuet_dataset stats [--points N]       (sparsity table for all datasets)
//   minuet_dataset sequence gen    --frames N --points N --churn F --out seq.json
//   minuet_dataset sequence info   --in seq.json
//   minuet_dataset sequence replay --in seq.json [--out seq2.json]
//
// `sequence` handles the streaming LiDAR-style workloads (src/data/
// sequence.h): gen writes a structural sequence trace, info re-materialises
// and summarises it, replay round-trips the file and (with --out) re-dumps
// it — dumps of one sequence are byte-identical, which the CI stream smoke
// relies on.
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "src/core/voxelizer.h"
#include "src/data/generators.h"
#include "src/data/sequence.h"
#include "src/io/serialization.h"
#include "src/util/flags.h"

namespace minuet {
namespace {

struct Options {
  DatasetKind dataset = DatasetKind::kKitti;
  GeneratorConfig gen;      // gen and stats
  SequenceConfig sequence;  // sequence gen
  std::string in_path;
  std::string out_path;
};

void PrintCloudInfo(const PointCloud& cloud) {
  Coord3 lo = cloud.coords.empty() ? Coord3{} : cloud.coords.front();
  Coord3 hi = lo;
  for (const Coord3& c : cloud.coords) {
    lo.x = std::min(lo.x, c.x);
    lo.y = std::min(lo.y, c.y);
    lo.z = std::min(lo.z, c.z);
    hi.x = std::max(hi.x, c.x);
    hi.y = std::max(hi.y, c.y);
    hi.z = std::max(hi.z, c.z);
  }
  std::printf("points:   %lld\n", static_cast<long long>(cloud.num_points()));
  std::printf("channels: %lld\n", static_cast<long long>(cloud.channels()));
  std::printf("bbox:     [%d..%d] x [%d..%d] x [%d..%d]\n", lo.x, hi.x, lo.y, hi.y, lo.z, hi.z);
  std::printf("sparsity: %.4f%%\n", 100.0 * Sparsity(cloud.coords));
}

void PrintSequenceInfo(const Sequence& sequence) {
  const SequenceConfig& config = sequence.config;
  std::printf("dataset:    %s\n", DatasetName(config.dataset));
  std::printf("frames:     %lld\n", static_cast<long long>(config.num_frames));
  std::printf("points:     %lld per frame\n", static_cast<long long>(config.base_points));
  std::printf("channels:   %lld\n", static_cast<long long>(config.channels));
  std::printf("seed:       %llu\n", static_cast<unsigned long long>(config.seed));
  std::printf("churn:      %.3f (max rigid step %d)\n", config.churn_rate, config.max_step);
  int64_t deleted = 0;
  int64_t inserted = 0;
  for (const SequenceFrame& frame : sequence.frames) {
    deleted += static_cast<int64_t>(frame.deleted.size());
    inserted += static_cast<int64_t>(frame.inserted.size());
  }
  std::printf("deltas:     %lld deleted, %lld inserted over %zu frames\n",
              static_cast<long long>(deleted), static_cast<long long>(inserted),
              sequence.frames.size());
}

int RunGen(const Options& o) {
  PointCloud cloud = GenerateCloud(o.dataset, o.gen);
  if (!SavePointCloud(cloud, o.out_path)) {
    std::fprintf(stderr, "cannot write %s\n", o.out_path.c_str());
    return 1;
  }
  std::printf("wrote %s:\n", o.out_path.c_str());
  PrintCloudInfo(cloud);
  return 0;
}

int RunInfo(const Options& o) {
  PointCloud cloud;
  if (!LoadPointCloud(o.in_path, &cloud)) {
    std::fprintf(stderr, "cannot read %s\n", o.in_path.c_str());
    return 1;
  }
  PrintCloudInfo(cloud);
  return 0;
}

int RunStats(const Options& o) {
  std::printf("%-10s %10s %12s   (paper: kitti 0.04%%, s3dis 2%%, sem3d 0.03%%,"
              " shapenet 10%%)\n",
              "dataset", "points", "sparsity");
  for (DatasetKind kind : AllRealDatasets()) {
    PointCloud cloud = GenerateCloud(kind, o.gen);
    std::printf("%-10s %10lld %11.4f%%\n", DatasetName(kind),
                static_cast<long long>(cloud.num_points()), 100.0 * Sparsity(cloud.coords));
  }
  return 0;
}

int RunSequenceGen(const Options& o) {
  Sequence sequence = GenerateSequence(o.sequence);
  if (!WriteSequenceTrace(sequence, o.out_path)) {
    std::fprintf(stderr, "cannot write %s\n", o.out_path.c_str());
    return 1;
  }
  std::printf("wrote %s:\n", o.out_path.c_str());
  PrintSequenceInfo(sequence);
  return 0;
}

// Reads --in; prints the error and returns false when it cannot.
bool ReadSequence(const Options& o, Sequence* sequence) {
  std::string error;
  if (!ReadSequenceTraceFile(o.in_path, sequence, &error)) {
    std::fprintf(stderr, "cannot read %s: %s\n", o.in_path.c_str(), error.c_str());
    return false;
  }
  return true;
}

int RunSequenceInfo(const Options& o) {
  Sequence sequence;
  if (!ReadSequence(o, &sequence)) {
    return 1;
  }
  PrintSequenceInfo(sequence);
  return 0;
}

// The parsed sequence re-dumps byte-identically (the dump is structural and
// the frames re-materialise from the shared recurrence).
int RunSequenceReplay(const Options& o) {
  Sequence sequence;
  if (!ReadSequence(o, &sequence)) {
    return 1;
  }
  if (o.out_path.empty()) {
    std::printf("replayed %s (%zu frames re-materialised)\n", o.in_path.c_str(),
                sequence.frames.size());
    return 0;
  }
  if (!WriteSequenceTrace(sequence, o.out_path)) {
    std::fprintf(stderr, "cannot write %s\n", o.out_path.c_str());
    return 1;
  }
  std::printf("replayed %s -> %s (%zu frames re-materialised)\n", o.in_path.c_str(),
              o.out_path.c_str(), sequence.frames.size());
  return 0;
}

struct Subcommand {
  const char* name;
  FlagCommand command;
  int (*run)(const Options&);
};

std::vector<Subcommand> Subcommands(Options* o) {
  const std::string datasets = "kitti|s3dis|sem3d|shapenet|random";
  const FlagSpec in{"in", "FILE", "file to read", &o->in_path, FlagBound::kNone, true};
  const FlagSpec out{"out", "FILE", "file to write", &o->out_path, FlagBound::kNone, true};
  const FlagSpec seed{"seed", "N", "generator seed (default 1)", &o->gen.seed};
  const FlagSpec points{"points", "N", "target point count (default 100000)",
                        &o->gen.target_points, FlagBound::kPositive};
  SequenceConfig& q = o->sequence;
  return {
      {"gen",
       {"minuet_dataset gen --out=FILE [flags]",
        {{"dataset", datasets, "dataset (default kitti)", Choice(ParseDatasetName, &o->dataset)},
         points, seed, out}},
       RunGen},
      {"info", {"minuet_dataset info --in=FILE", {in}}, RunInfo},
      {"stats", {"minuet_dataset stats [flags]", {points, seed}}, RunStats},
      {"sequence gen",
       {"minuet_dataset sequence gen --out=FILE [flags]",
        {{"dataset", datasets, "dataset (default random)", Choice(ParseDatasetName, &q.dataset)},
         {"points", "N", "points per frame (default 4096)", &q.base_points, FlagBound::kZero},
         {"seed", "N", "generator seed (default 1)", &q.seed},
         {"frames", "N", "frames (default 16)", &q.num_frames, FlagBound::kPositive},
         {"channels", "N", "feature channels (default 4)", &q.channels, FlagBound::kPositive},
         {"churn", "F", "fraction of voxels replaced per frame, in [0, 1] (default 0.05)",
          &q.churn_rate, FlagBound::kFraction},
         {"max-step", "N", "per-axis rigid motion bound per frame (default 2)", &q.max_step,
          FlagBound::kZero},
         out}},
       RunSequenceGen},
      {"sequence info", {"minuet_dataset sequence info --in=FILE", {in}}, RunSequenceInfo},
      {"sequence replay",
       {"minuet_dataset sequence replay --in=FILE [--out=FILE]",
        {in, {"out", "FILE", "re-dump the sequence here", &o->out_path}}},
       RunSequenceReplay},
  };
}

int Main(int argc, char** argv) {
  Options o;
  const std::vector<Subcommand> subcommands = Subcommands(&o);
  // A subcommand is one word, or two after "sequence".
  int rest = 2;
  std::string name = argc > 1 ? argv[1] : "";
  if (name == "sequence" && argc > 2) {
    name += std::string(" ") + argv[rest++];
  }
  const auto match = std::find_if(subcommands.begin(), subcommands.end(),
                                  [&](const Subcommand& s) { return name == s.name; });
  if (match == subcommands.end()) {
    const bool help = std::any_of(argv + 1, argv + argc,
                                  [](const char* arg) { return arg == std::string("--help"); });
    for (const Subcommand& s : subcommands) {
      std::fputs(FlagUsage(s.command).c_str(), help ? stdout : stderr);
    }
    return help ? 0 : 2;
  }
  const ParsedFlags parsed = ParseFlags(match->command, {argv + rest, argv + argc});
  if (!parsed.ok()) {
    return FlagExit(match->command, parsed);
  }
  return match->run(o);
}

}  // namespace
}  // namespace minuet

int main(int argc, char** argv) { return minuet::Main(argc, argv); }
