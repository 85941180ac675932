// minuet_dataset: generate, inspect and export the synthetic datasets.
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
#include <cstdio>
#include <cstring>
#include <string>

#include "src/core/voxelizer.h"
#include "src/data/generators.h"
#include "src/data/sequence.h"
#include "src/io/serialization.h"

namespace minuet {
namespace {

// --help prints this to stdout and exits 0; a usage error prints it to
// stderr and exits 2.
[[noreturn]] void Usage(int status = 2) {
  std::fprintf(status == 0 ? stdout : stderr,
               "usage: minuet_dataset gen --dataset <name> [--points N] [--seed N] --out FILE\n"
               "       minuet_dataset info --in FILE\n"
               "       minuet_dataset stats [--points N]\n"
               "       minuet_dataset sequence gen [--dataset <name>] [--points N] [--seed N]\n"
               "                                   [--frames N] [--channels N] [--churn F]\n"
               "                                   [--max-step N] --out seq.json\n"
               "       minuet_dataset sequence info --in seq.json\n"
               "       minuet_dataset sequence replay --in seq.json [--out seq2.json]\n");
  std::exit(status);
}

DatasetKind ParseDataset(const std::string& name) {
  for (DatasetKind kind : {DatasetKind::kKitti, DatasetKind::kS3dis, DatasetKind::kSem3d,
                           DatasetKind::kShapenet, DatasetKind::kRandom}) {
    if (name == DatasetName(kind)) {
      return kind;
    }
  }
  std::fprintf(stderr, "unknown dataset: %s\n", name.c_str());
  Usage();
}

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

int SequenceMain(int argc, char** argv) {
  if (argc < 3) {
    Usage();
  }
  std::string command = argv[2];
  SequenceConfig config;
  config.base_points = 4096;
  std::string in_path;
  std::string out_path;
  std::string dataset = "random";
  for (int i = 3; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) {
        Usage();
      }
      return argv[++i];
    };
    if (arg == "--dataset") {
      dataset = next();
    } else if (arg == "--points") {
      config.base_points = std::atoll(next().c_str());
    } else if (arg == "--seed") {
      config.seed = static_cast<uint64_t>(std::atoll(next().c_str()));
    } else if (arg == "--frames") {
      config.num_frames = std::atoll(next().c_str());
    } else if (arg == "--channels") {
      config.channels = std::atoll(next().c_str());
    } else if (arg == "--churn") {
      config.churn_rate = std::atof(next().c_str());
    } else if (arg == "--max-step") {
      config.max_step = std::atoi(next().c_str());
    } else if (arg == "--out") {
      out_path = next();
    } else if (arg == "--in") {
      in_path = next();
    } else {
      Usage();
    }
  }

  if (command == "gen") {
    if (out_path.empty()) {
      Usage();
    }
    config.dataset = ParseDataset(dataset);
    Sequence sequence = GenerateSequence(config);
    if (!WriteSequenceTrace(sequence, out_path)) {
      std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
      return 1;
    }
    std::printf("wrote %s:\n", out_path.c_str());
    PrintSequenceInfo(sequence);
    return 0;
  }
  if (command == "info" || command == "replay") {
    if (in_path.empty()) {
      Usage();
    }
    Sequence sequence;
    std::string error;
    if (!ReadSequenceTraceFile(in_path, &sequence, &error)) {
      std::fprintf(stderr, "cannot read %s: %s\n", in_path.c_str(), error.c_str());
      return 1;
    }
    if (command == "info") {
      PrintSequenceInfo(sequence);
      return 0;
    }
    // replay: the parsed sequence re-dumps byte-identically (the dump is
    // structural and the frames re-materialise from the shared recurrence).
    if (!out_path.empty()) {
      if (!WriteSequenceTrace(sequence, out_path)) {
        std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
        return 1;
      }
      std::printf("replayed %s -> %s (%zu frames re-materialised)\n", in_path.c_str(),
                  out_path.c_str(), sequence.frames.size());
    } else {
      std::printf("replayed %s (%zu frames re-materialised)\n", in_path.c_str(),
                  sequence.frames.size());
    }
    return 0;
  }
  Usage();
}

int Main(int argc, char** argv) {
  if (argc < 2) {
    Usage();
  }
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--help") == 0) {
      Usage(0);
    }
  }
  std::string command = argv[1];
  if (command == "sequence") {
    return SequenceMain(argc, argv);
  }
  std::string dataset = "kitti";
  std::string in_path;
  std::string out_path;
  int64_t points = 100000;
  uint64_t seed = 1;
  for (int i = 2; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) {
        Usage();
      }
      return argv[++i];
    };
    if (arg == "--dataset") {
      dataset = next();
    } else if (arg == "--points") {
      points = std::atoll(next().c_str());
    } else if (arg == "--seed") {
      seed = static_cast<uint64_t>(std::atoll(next().c_str()));
    } else if (arg == "--out") {
      out_path = next();
    } else if (arg == "--in") {
      in_path = next();
    } else {
      Usage();
    }
  }

  if (command == "gen") {
    if (out_path.empty()) {
      Usage();
    }
    GeneratorConfig gen;
    gen.target_points = points;
    gen.seed = seed;
    PointCloud cloud = GenerateCloud(ParseDataset(dataset), gen);
    if (!SavePointCloud(cloud, out_path)) {
      std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
      return 1;
    }
    std::printf("wrote %s:\n", out_path.c_str());
    PrintCloudInfo(cloud);
    return 0;
  }
  if (command == "info") {
    if (in_path.empty()) {
      Usage();
    }
    PointCloud cloud;
    if (!LoadPointCloud(in_path, &cloud)) {
      std::fprintf(stderr, "cannot read %s\n", in_path.c_str());
      return 1;
    }
    PrintCloudInfo(cloud);
    return 0;
  }
  if (command == "stats") {
    std::printf("%-10s %10s %12s   (paper: kitti 0.04%%, s3dis 2%%, sem3d 0.03%%,"
                " shapenet 10%%)\n",
                "dataset", "points", "sparsity");
    for (DatasetKind kind : AllRealDatasets()) {
      GeneratorConfig gen;
      gen.target_points = points;
      gen.seed = seed;
      PointCloud cloud = GenerateCloud(kind, gen);
      std::printf("%-10s %10lld %11.4f%%\n", DatasetName(kind),
                  static_cast<long long>(cloud.num_points()), 100.0 * Sparsity(cloud.coords));
    }
    return 0;
  }
  Usage();
}

}  // namespace
}  // namespace minuet

int main(int argc, char** argv) { return minuet::Main(argc, argv); }
