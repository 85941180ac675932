#include "src/io/serialization.h"

#include <cstdio>
#include <cstring>
#include <memory>

namespace minuet {

namespace {

constexpr uint32_t kCloudMagic = 0x4350'4E4Du;  // "MNPC"
constexpr uint32_t kVersion = 1;

struct FileCloser {
  void operator()(std::FILE* f) const {
    if (f != nullptr) {
      std::fclose(f);
    }
  }
};
using File = std::unique_ptr<std::FILE, FileCloser>;

template <typename T>
bool WriteOne(std::FILE* f, const T& value) {
  return std::fwrite(&value, sizeof(T), 1, f) == 1;
}

template <typename T>
bool ReadOne(std::FILE* f, T* value) {
  return std::fread(value, sizeof(T), 1, f) == 1;
}

template <typename T>
bool WriteMany(std::FILE* f, const T* data, size_t count) {
  return count == 0 || std::fwrite(data, sizeof(T), count, f) == count;
}

template <typename T>
bool ReadMany(std::FILE* f, T* data, size_t count) {
  return count == 0 || std::fread(data, sizeof(T), count, f) == count;
}

bool WriteHeader(std::FILE* f, uint32_t magic) {
  return WriteOne(f, magic) && WriteOne(f, kVersion);
}

bool CheckHeader(std::FILE* f, uint32_t magic) {
  uint32_t got_magic = 0;
  uint32_t got_version = 0;
  return ReadOne(f, &got_magic) && ReadOne(f, &got_version) && got_magic == magic &&
         got_version == kVersion;
}

// Bytes between the read position and the end of the file; -1 if the stream
// cannot seek. Header counts are checked against it before anything is
// allocated, so a corrupt or hostile count cannot ask for more memory than
// the file could fill.
int64_t RemainingBytes(std::FILE* f) {
  const long pos = std::ftell(f);
  if (pos < 0 || std::fseek(f, 0, SEEK_END) != 0) {
    return -1;
  }
  const long end = std::ftell(f);
  if (end < pos || std::fseek(f, pos, SEEK_SET) != 0) {
    return -1;
  }
  return end - pos;
}

bool WriteMatrixBody(std::FILE* f, const FeatureMatrix& matrix) {
  int64_t rows = matrix.rows();
  int64_t cols = matrix.cols();
  return WriteOne(f, rows) && WriteOne(f, cols) &&
         WriteMany(f, matrix.data(), static_cast<size_t>(rows * cols));
}

bool ReadMatrixBody(std::FILE* f, FeatureMatrix* matrix) {
  int64_t rows = 0;
  int64_t cols = 0;
  if (!ReadOne(f, &rows) || !ReadOne(f, &cols) || rows < 0 || cols <= 0) {
    return false;
  }
  const int64_t floats = RemainingBytes(f) / static_cast<int64_t>(sizeof(float));
  if (rows > 0 && (cols > floats || rows > floats / cols)) {
    return false;
  }
  *matrix = FeatureMatrix(rows, cols);
  return ReadMany(f, matrix->data(), static_cast<size_t>(rows * cols));
}

}  // namespace

bool SavePointCloud(const PointCloud& cloud, const std::string& path) {
  File f(std::fopen(path.c_str(), "wb"));
  if (f == nullptr) {
    return false;
  }
  int64_t n = cloud.num_points();
  return WriteHeader(f.get(), kCloudMagic) && WriteOne(f.get(), n) &&
         WriteMany(f.get(), cloud.coords.data(), cloud.coords.size()) &&
         WriteMatrixBody(f.get(), cloud.features);
}

bool LoadPointCloud(const std::string& path, PointCloud* cloud) {
  File f(std::fopen(path.c_str(), "rb"));
  if (f == nullptr || !CheckHeader(f.get(), kCloudMagic)) {
    return false;
  }
  int64_t n = 0;
  if (!ReadOne(f.get(), &n) || n < 0 ||
      n > RemainingBytes(f.get()) / static_cast<int64_t>(sizeof(Coord3))) {
    return false;
  }
  cloud->coords.resize(static_cast<size_t>(n));
  if (!ReadMany(f.get(), cloud->coords.data(), cloud->coords.size()) ||
      !ReadMatrixBody(f.get(), &cloud->features)) {
    return false;
  }
  return cloud->features.rows() == n;
}

}  // namespace minuet
