#include "src/core/point_cloud.h"

#include <algorithm>
#include <numeric>

#include "src/util/check.h"

namespace minuet {

bool HasUniqueCoords(const std::vector<Coord3>& coords) {
  std::vector<uint64_t> keys = PackCoords(coords);
  std::sort(keys.begin(), keys.end());
  return std::adjacent_find(keys.begin(), keys.end()) == keys.end();
}

std::vector<uint64_t> PackCoords(std::span<const Coord3> coords) {
  std::vector<uint64_t> keys(coords.size());
  for (size_t i = 0; i < coords.size(); ++i) {
    keys[i] = PackCoord(coords[i]);
  }
  return keys;
}

std::vector<Coord3> DownsampleCoords(const std::vector<Coord3>& input, int32_t step) {
  MINUET_CHECK_GE(step, 1);
  std::vector<uint64_t> keys;
  keys.reserve(input.size());
  for (const Coord3& p : input) {
    Coord3 q{FloorDiv(p.x, step) * step, FloorDiv(p.y, step) * step, FloorDiv(p.z, step) * step};
    keys.push_back(PackCoord(q));
  }
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  std::vector<Coord3> out;
  out.reserve(keys.size());
  for (uint64_t k : keys) {
    out.push_back(UnpackCoord(k));
  }
  return out;
}

std::vector<Coord3> DilateCoords(const std::vector<Coord3>& input,
                                 const std::vector<Coord3>& offsets) {
  std::vector<uint64_t> keys;
  keys.reserve(input.size() * offsets.size());
  for (const Coord3& p : input) {
    for (const Coord3& d : offsets) {
      Coord3 q = p - d;
      if (CoordInRange(q)) {
        keys.push_back(PackCoord(q));
      }
    }
  }
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  std::vector<Coord3> out;
  out.reserve(keys.size());
  for (uint64_t k : keys) {
    out.push_back(UnpackCoord(k));
  }
  return out;
}

void SortPointCloud(PointCloud& cloud) {
  const int64_t n = cloud.num_points();
  std::vector<uint32_t> perm(static_cast<size_t>(n));
  std::iota(perm.begin(), perm.end(), 0u);
  std::vector<uint64_t> keys = PackCoords(cloud.coords);
  std::sort(perm.begin(), perm.end(),
            [&keys](uint32_t a, uint32_t b) { return keys[a] < keys[b]; });

  std::vector<Coord3> coords(static_cast<size_t>(n));
  FeatureMatrix features(n, cloud.channels());
  for (int64_t i = 0; i < n; ++i) {
    coords[static_cast<size_t>(i)] = cloud.coords[perm[static_cast<size_t>(i)]];
    auto src = cloud.features.Row(perm[static_cast<size_t>(i)]);
    auto dst = features.Row(i);
    std::copy(src.begin(), src.end(), dst.begin());
  }
  cloud.coords = std::move(coords);
  cloud.features = std::move(features);
}

}  // namespace minuet
