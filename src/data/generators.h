// Synthetic point-cloud generators standing in for the paper's datasets
// (Section 6.1). Each generator reproduces the spatial character and
// post-voxelization sparsity band of its namesake:
//
//   kKitti    — outdoor LiDAR scan: ring structure on a ground plane plus
//               scattered objects (~0.04% sparsity).
//   kS3dis    — indoor room: dense surface samples of floor/ceiling/walls and
//               furniture (~2%).
//   kSem3d    — large outdoor scene: terrain heightfield, buildings, trees
//               (~0.03%).
//   kShapenet — single object surface in a tight bounding box (~10%).
//   kRandom   — uniform random voxels in a 400^3 volume (the paper's
//               synthetic density-sweep dataset, Figures 13/16/17).
//
// All generators are deterministic in (kind, seed, target) and return unique
// coordinates sorted by packed key with Gaussian random features.
#ifndef SRC_DATA_GENERATORS_H_
#define SRC_DATA_GENERATORS_H_

#include <string>
#include <vector>

#include "src/core/point_cloud.h"

namespace minuet {

enum class DatasetKind { kKitti, kS3dis, kSem3d, kShapenet, kRandom };

const char* DatasetName(DatasetKind kind);
// The kind DatasetName spells `name`; false (and `*out` left alone) for any
// other name.
bool ParseDatasetName(const std::string& name, DatasetKind* out);
std::vector<DatasetKind> AllRealDatasets();  // the four "real" ones

struct GeneratorConfig {
  int64_t target_points = 100000;
  int64_t channels = 4;
  uint64_t seed = 1;
  // Bounding half-extent for kRandom (the paper uses a 400^3 volume).
  int32_t random_volume = 400;
};

PointCloud GenerateCloud(DatasetKind kind, const GeneratorConfig& config);

// Coordinates only (features skipped) — cheaper for Map-step benches.
std::vector<Coord3> GenerateCoords(DatasetKind kind, int64_t target_points, uint64_t seed);

}  // namespace minuet

#endif  // SRC_DATA_GENERATORS_H_
