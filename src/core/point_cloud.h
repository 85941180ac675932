// A sparse tensor: unique lattice coordinates plus per-point feature rows.
#ifndef SRC_CORE_POINT_CLOUD_H_
#define SRC_CORE_POINT_CLOUD_H_

#include <cstdint>
#include <span>
#include <vector>

#include "src/core/coordinate.h"
#include "src/core/feature_matrix.h"

namespace minuet {

struct PointCloud {
  std::vector<Coord3> coords;
  FeatureMatrix features;  // coords.size() x C

  int64_t num_points() const { return static_cast<int64_t>(coords.size()); }
  int64_t channels() const { return features.cols(); }
};

// True iff every coordinate appears exactly once (sparse-tensor invariant).
bool HasUniqueCoords(const std::vector<Coord3>& coords);

// Packed keys for a coordinate list.
std::vector<uint64_t> PackCoords(std::span<const Coord3> coords);

// Output coordinates per Eq. 1: floor(p / step) * step with duplicates
// removed, where step = tensor_stride * conv_stride. The result is returned
// sorted by packed key (Minuet keeps coordinate arrays sorted end to end).
std::vector<Coord3> DownsampleCoords(const std::vector<Coord3>& input, int32_t step);

// Output coordinates of a *generative* (non-submanifold) convolution: every
// location any input can reach, i.e. unique {p - delta} over all inputs and
// offsets. Sorted by packed key. Out-of-lattice candidates are dropped.
std::vector<Coord3> DilateCoords(const std::vector<Coord3>& input,
                                 const std::vector<Coord3>& offsets);

// Sorts a cloud's coordinates (and its feature rows with them) by packed key.
// Baseline engines do not need this; Minuet's engine sorts once per input.
void SortPointCloud(PointCloud& cloud);

}  // namespace minuet

#endif  // SRC_CORE_POINT_CLOUD_H_
