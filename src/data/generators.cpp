#include "src/data/generators.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "src/util/check.h"
#include "src/util/rng.h"

namespace minuet {

namespace {

constexpr double kPi = 3.14159265358979323846;

// Deduplicates, subsamples to the target count, sorts by key and attaches
// Gaussian features.
PointCloud Finalize(std::vector<Coord3> raw, const GeneratorConfig& config, Pcg32& rng) {
  std::vector<uint64_t> keys;
  keys.reserve(raw.size());
  for (const Coord3& c : raw) {
    MINUET_DCHECK(CoordInRange(c));
    keys.push_back(PackCoord(c));
  }
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());

  if (static_cast<int64_t>(keys.size()) > config.target_points) {
    // Deterministic subsample: shuffle then trim, then restore sort order.
    for (size_t i = keys.size(); i > 1; --i) {
      std::swap(keys[i - 1], keys[rng.NextBounded(static_cast<uint32_t>(i))]);
    }
    keys.resize(static_cast<size_t>(config.target_points));
    std::sort(keys.begin(), keys.end());
  }

  PointCloud cloud;
  cloud.coords.reserve(keys.size());
  for (uint64_t k : keys) {
    cloud.coords.push_back(UnpackCoord(k));
  }
  cloud.features = FeatureMatrix(static_cast<int64_t>(keys.size()), config.channels);
  for (int64_t i = 0; i < cloud.features.rows(); ++i) {
    for (int64_t j = 0; j < config.channels; ++j) {
      cloud.features.At(i, j) = static_cast<float>(rng.NextGaussian());
    }
  }
  return cloud;
}

Coord3 VoxelOf(double x, double y, double z, double voxel) {
  return Coord3{static_cast<int32_t>(std::floor(x / voxel)),
                static_cast<int32_t>(std::floor(y / voxel)),
                static_cast<int32_t>(std::floor(z / voxel))};
}

// --- KITTI-like LiDAR scan -------------------------------------------------
// 64 beams sweeping 360 degrees from a sensor 1.8 m above a ground plane;
// rays terminate on the ground, on scattered obstacle boxes, or at max range.
std::vector<Coord3> LidarScan(int64_t target, Pcg32& rng) {
  constexpr double kVoxel = 0.1;
  constexpr double kSensorHeight = 1.8;
  constexpr double kMaxRange = 70.0;
  constexpr int kBeams = 64;

  struct Obstacle {
    double azimuth;  // radians
    double half_width;
    double distance;
    double height;
  };
  std::vector<Obstacle> obstacles;
  for (int i = 0; i < 48; ++i) {
    obstacles.push_back(Obstacle{rng.NextDouble() * 2.0 * kPi,
                                 0.01 + rng.NextDouble() * 0.06,
                                 4.0 + rng.NextDouble() * 45.0,
                                 0.5 + rng.NextDouble() * 6.0});
  }

  const int64_t azimuth_steps = std::max<int64_t>(64, (target * 14 / 10) / kBeams);
  std::vector<Coord3> raw;
  raw.reserve(static_cast<size_t>(kBeams) * static_cast<size_t>(azimuth_steps));
  for (int64_t a = 0; a < azimuth_steps; ++a) {
    double azimuth = 2.0 * kPi * static_cast<double>(a) / static_cast<double>(azimuth_steps);
    for (int beam = 0; beam < kBeams; ++beam) {
      // Elevations from -24.8 to +2.0 degrees, KITTI's HDL-64E spread.
      double elev = (-24.8 + 26.8 * static_cast<double>(beam) / (kBeams - 1)) * kPi / 180.0;
      double range = kMaxRange;
      if (std::sin(elev) < -1e-3) {
        range = std::min(range, kSensorHeight / -std::sin(elev));
      }
      for (const Obstacle& ob : obstacles) {
        double diff = std::remainder(azimuth - ob.azimuth, 2.0 * kPi);
        if (std::abs(diff) < ob.half_width && ob.distance < range) {
          // Hit the obstacle if the beam is below its top edge.
          double hit_z = kSensorHeight + ob.distance * std::tan(elev);
          if (hit_z < ob.height) {
            range = ob.distance;
          }
        }
      }
      if (range >= kMaxRange) {
        continue;  // sky: no return
      }
      range *= 1.0 + 0.005 * rng.NextGaussian();
      double x = range * std::cos(elev) * std::cos(azimuth);
      double y = range * std::cos(elev) * std::sin(azimuth);
      double z = kSensorHeight + range * std::sin(elev);
      raw.push_back(VoxelOf(x, y, z, kVoxel));
    }
  }
  return raw;
}

// --- S3DIS-like indoor room -------------------------------------------------
// Floor, ceiling, four walls and furniture boxes, sampled on their surfaces.
std::vector<Coord3> IndoorRoom(int64_t target, Pcg32& rng) {
  constexpr double kVoxel = 0.05;
  const double room_x = 8.0, room_y = 6.0, room_z = 3.0;

  struct Box {
    double x0, y0, z0, x1, y1, z1;
  };
  std::vector<Box> boxes;
  for (int i = 0; i < 12; ++i) {
    double w = 0.4 + rng.NextDouble() * 1.6;
    double d = 0.4 + rng.NextDouble() * 1.2;
    double h = 0.4 + rng.NextDouble() * 1.4;
    double x = rng.NextDouble() * (room_x - w);
    double y = rng.NextDouble() * (room_y - d);
    boxes.push_back(Box{x, y, 0.0, x + w, y + d, h});
  }

  std::vector<Coord3> raw;
  const int64_t samples = target * 14 / 10;
  for (int64_t i = 0; i < samples; ++i) {
    double x, y, z;
    uint32_t surface = rng.NextBounded(100);
    if (surface < 30) {  // floor
      x = rng.NextDouble() * room_x;
      y = rng.NextDouble() * room_y;
      z = 0.0;
    } else if (surface < 45) {  // ceiling
      x = rng.NextDouble() * room_x;
      y = rng.NextDouble() * room_y;
      z = room_z;
    } else if (surface < 75) {  // walls
      if (rng.NextBounded(2) == 0) {
        x = rng.NextBounded(2) == 0 ? 0.0 : room_x;
        y = rng.NextDouble() * room_y;
      } else {
        x = rng.NextDouble() * room_x;
        y = rng.NextBounded(2) == 0 ? 0.0 : room_y;
      }
      z = rng.NextDouble() * room_z;
    } else {  // furniture surfaces
      const Box& b = boxes[rng.NextBounded(static_cast<uint32_t>(boxes.size()))];
      int face = static_cast<int>(rng.NextBounded(5));  // no bottom face
      x = b.x0 + rng.NextDouble() * (b.x1 - b.x0);
      y = b.y0 + rng.NextDouble() * (b.y1 - b.y0);
      z = b.z0 + rng.NextDouble() * (b.z1 - b.z0);
      switch (face) {
        case 0:
          z = b.z1;
          break;
        case 1:
          x = b.x0;
          break;
        case 2:
          x = b.x1;
          break;
        case 3:
          y = b.y0;
          break;
        default:
          y = b.y1;
          break;
      }
    }
    raw.push_back(VoxelOf(x, y, z, kVoxel));
  }
  return raw;
}

// --- Semantic3D-like outdoor scene -------------------------------------------
// A rolling terrain heightfield with buildings and trees over a wide area.
std::vector<Coord3> OutdoorScene(int64_t target, Pcg32& rng) {
  // Lateral extent chosen so the bounding volume keeps sparsity ~0.03%.
  const double extent = std::sqrt(static_cast<double>(target) * 12.0);

  struct Building {
    double x, y, w, d, h;
  };
  std::vector<Building> buildings;
  for (int i = 0; i < 10; ++i) {
    buildings.push_back(Building{rng.NextDouble() * extent, rng.NextDouble() * extent,
                                 10.0 + rng.NextDouble() * 30.0, 10.0 + rng.NextDouble() * 30.0,
                                 20.0 + rng.NextDouble() * 60.0});
  }
  auto terrain = [&](double x, double y) {
    return 6.0 * std::sin(x * 0.011) + 5.0 * std::cos(y * 0.017) +
           3.0 * std::sin((x + y) * 0.007);
  };

  std::vector<Coord3> raw;
  const int64_t samples = target * 14 / 10;
  for (int64_t i = 0; i < samples; ++i) {
    double x = rng.NextDouble() * extent;
    double y = rng.NextDouble() * extent;
    double z;
    uint32_t kind = rng.NextBounded(100);
    if (kind < 70) {  // terrain surface
      z = terrain(x, y);
    } else if (kind < 90) {  // building facades and roofs
      const Building& b = buildings[rng.NextBounded(static_cast<uint32_t>(buildings.size()))];
      x = b.x + rng.NextDouble() * b.w;
      y = b.y + rng.NextDouble() * b.d;
      int face = static_cast<int>(rng.NextBounded(5));
      z = terrain(x, y) + rng.NextDouble() * b.h;
      switch (face) {
        case 0:
          z = terrain(x, y) + b.h;  // roof
          break;
        case 1:
          x = b.x;
          break;
        case 2:
          x = b.x + b.w;
          break;
        case 3:
          y = b.y;
          break;
        default:
          y = b.y + b.d;
          break;
      }
    } else {  // trees: vertical blobs
      double cx = rng.NextDouble() * extent;
      double cy = rng.NextDouble() * extent;
      x = cx + rng.NextGaussian() * 1.5;
      y = cy + rng.NextGaussian() * 1.5;
      z = terrain(cx, cy) + 2.0 + rng.NextDouble() * 8.0;
    }
    raw.push_back(VoxelOf(x, y, z, 1.0));
  }
  return raw;
}

// --- ShapeNetSem-like object -------------------------------------------------
// A gyroid shell inside a cube sized for ~10% occupancy: a coherent, dense
// 3-D "object surface" structure.
std::vector<Coord3> ObjectSurface(int64_t target, Pcg32& rng) {
  const int side = std::max(16, static_cast<int>(std::cbrt(static_cast<double>(target) / 0.10)));
  const double freq = 4.0 * 2.0 * kPi / side;  // a few periods across the cube
  std::vector<Coord3> raw;
  for (int x = 0; x < side; ++x) {
    for (int y = 0; y < side; ++y) {
      for (int z = 0; z < side; ++z) {
        double gx = x * freq, gy = y * freq, gz = z * freq;
        double v = std::sin(gx) * std::cos(gy) + std::sin(gy) * std::cos(gz) +
                   std::sin(gz) * std::cos(gx);
        if (std::abs(v) < 0.22) {
          raw.push_back(Coord3{x, y, z});
        }
      }
    }
  }
  (void)rng;
  return raw;
}

std::vector<Coord3> UniformRandom(int64_t target, int32_t volume, Pcg32& rng) {
  std::vector<Coord3> raw;
  const int64_t samples = target * 12 / 10;
  raw.reserve(static_cast<size_t>(samples));
  for (int64_t i = 0; i < samples; ++i) {
    raw.push_back(Coord3{rng.NextInt(0, volume - 1), rng.NextInt(0, volume - 1),
                         rng.NextInt(0, volume - 1)});
  }
  return raw;
}

}  // namespace

const char* DatasetName(DatasetKind kind) {
  switch (kind) {
    case DatasetKind::kKitti:
      return "kitti";
    case DatasetKind::kS3dis:
      return "s3dis";
    case DatasetKind::kSem3d:
      return "sem3d";
    case DatasetKind::kShapenet:
      return "shapenet";
    case DatasetKind::kRandom:
      return "random";
  }
  return "unknown";
}

bool ParseDatasetName(const std::string& name, DatasetKind* out) {
  for (DatasetKind kind : {DatasetKind::kKitti, DatasetKind::kS3dis, DatasetKind::kSem3d,
                           DatasetKind::kShapenet, DatasetKind::kRandom}) {
    if (name == DatasetName(kind)) {
      *out = kind;
      return true;
    }
  }
  return false;
}

std::vector<DatasetKind> AllRealDatasets() {
  return {DatasetKind::kKitti, DatasetKind::kS3dis, DatasetKind::kSem3d, DatasetKind::kShapenet};
}

PointCloud GenerateCloud(DatasetKind kind, const GeneratorConfig& config) {
  MINUET_CHECK_GT(config.target_points, 0);
  Pcg32 rng(config.seed, static_cast<uint64_t>(kind) * 2 + 1);
  std::vector<Coord3> raw;
  switch (kind) {
    case DatasetKind::kKitti:
      raw = LidarScan(config.target_points, rng);
      break;
    case DatasetKind::kS3dis:
      raw = IndoorRoom(config.target_points, rng);
      break;
    case DatasetKind::kSem3d:
      raw = OutdoorScene(config.target_points, rng);
      break;
    case DatasetKind::kShapenet:
      raw = ObjectSurface(config.target_points, rng);
      break;
    case DatasetKind::kRandom:
      raw = UniformRandom(config.target_points, config.random_volume, rng);
      break;
  }
  return Finalize(std::move(raw), config, rng);
}

std::vector<Coord3> GenerateCoords(DatasetKind kind, int64_t target_points, uint64_t seed) {
  GeneratorConfig config;
  config.target_points = target_points;
  config.channels = 1;
  config.seed = seed;
  return GenerateCloud(kind, config).coords;
}

}  // namespace minuet
