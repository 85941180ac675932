// Dense row-major feature storage: one row of C channels per point. The
// storage lives on the host heap unless constructed in a device's memory
// (kernels read and write only the latter).
#ifndef SRC_CORE_FEATURE_MATRIX_H_
#define SRC_CORE_FEATURE_MATRIX_H_

#include <cstdint>
#include <span>
#include <vector>

#include "src/gpusim/device_memory.h"
#include "src/util/check.h"

namespace minuet {

class FeatureMatrix {
 public:
  FeatureMatrix() = default;
  FeatureMatrix(int64_t rows, int64_t cols, float fill = 0.0f, DeviceMemory* memory = nullptr)
      : rows_(rows), cols_(cols), data_(static_cast<size_t>(rows * cols), fill, memory) {
    MINUET_CHECK_GE(rows, 0);
    MINUET_CHECK_GT(cols, 0);
  }

  // A copy of `other` whose storage lives in `memory` (null: the host heap).
  FeatureMatrix(const FeatureMatrix& other, DeviceMemory* memory)
      : rows_(other.rows_),
        cols_(other.cols_),
        data_(other.data_.begin(), other.data_.end(), memory) {}

  // Adopts `storage` as the backing store, resized to rows * cols. When the
  // storage comes from a WorkspacePool with sufficient capacity this performs
  // no allocation; contents beyond what resize value-initializes are whatever
  // the slab held.
  FeatureMatrix(int64_t rows, int64_t cols, DeviceVector<float> storage)
      : rows_(rows), cols_(cols), data_(std::move(storage)) {
    MINUET_CHECK_GE(rows, 0);
    MINUET_CHECK_GT(cols, 0);
    data_.resize(static_cast<size_t>(rows * cols));
  }

  // A rows x cols matrix in `memory` whose contents are indeterminate until
  // written: for buffers every element of which is defined before it is read
  // (in functional mode gather and the GEMM define the GMaS staging buffers'
  // real rows, no one reads their padding rows, and Scatter defines the
  // outputs), and for every payload of a timing-only run, which reads none. Skips the zero fill, and arena pages nothing writes are never
  // committed.
  static FeatureMatrix Uninitialized(int64_t rows, int64_t cols, DeviceMemory* memory) {
    return FeatureMatrix(rows, cols,
                         DeviceVector<float>(DeviceAllocator<float>::Uninitialized(memory)));
  }

  // Releases the backing store (e.g. back to a WorkspacePool); the matrix
  // becomes empty (0x0).
  DeviceVector<float> TakeStorage() {
    rows_ = 0;
    cols_ = 0;
    return std::move(data_);
  }

  int64_t rows() const { return rows_; }
  int64_t cols() const { return cols_; }
  bool empty() const { return rows_ == 0; }

  std::span<float> Row(int64_t i) {
    MINUET_DCHECK(i >= 0 && i < rows_);
    return {data_.data() + i * cols_, static_cast<size_t>(cols_)};
  }
  std::span<const float> Row(int64_t i) const {
    MINUET_DCHECK(i >= 0 && i < rows_);
    return {data_.data() + i * cols_, static_cast<size_t>(cols_)};
  }

  float& At(int64_t i, int64_t j) {
    MINUET_DCHECK(i >= 0 && i < rows_ && j >= 0 && j < cols_);
    return data_[static_cast<size_t>(i * cols_ + j)];
  }
  float At(int64_t i, int64_t j) const {
    MINUET_DCHECK(i >= 0 && i < rows_ && j >= 0 && j < cols_);
    return data_[static_cast<size_t>(i * cols_ + j)];
  }

  float* data() { return data_.data(); }
  const float* data() const { return data_.data(); }
  size_t size_bytes() const { return data_.size() * sizeof(float); }

  void Fill(float value) { std::fill(data_.begin(), data_.end(), value); }

 private:
  int64_t rows_ = 0;
  int64_t cols_ = 0;
  DeviceVector<float> data_;
};

// Max absolute elementwise difference; the engine-equivalence tests use this.
float MaxAbsDiff(const FeatureMatrix& a, const FeatureMatrix& b);

}  // namespace minuet

#endif  // SRC_CORE_FEATURE_MATRIX_H_
