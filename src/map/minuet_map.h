// Minuet's Map step: segmented query sorting + double-traversed binary search
// (Sections 5.1.1 and 5.1.2).
//
// The sorted output-coordinate array plus one packed weight-offset delta *is*
// a sorted query segment — nothing is materialised. The source array is cut
// into blocks of at most B keys; a backward binary search per (segment,
// source block) finds each pivot's lower bound in the segment, query blocks
// larger than C are split for load balance, and a forward binary search
// resolves each query block against its source block staged in shared memory.
#ifndef SRC_MAP_MINUET_MAP_H_
#define SRC_MAP_MINUET_MAP_H_

#include "src/map/map_builder.h"

namespace minuet {

struct MinuetMapConfig {
  // Hyper-parameter B: max keys per source block (Section 5.1.4).
  int64_t source_block_size = 256;
  // Hyper-parameter C: max queries per balanced query block.
  int64_t query_block_size = 512;
  // Disable to run segmented sorting with a plain whole-array binary search
  // (the "SS without DTBS" ablation point of Figure 14).
  bool double_traversal = true;
};

// Iterations of the lower-bound loop `while (lo < hi) { mid = lo + (hi - lo)
// / 2; ... }` over n sorted keys whose lower bound lies at offset r
// (0 <= r <= n). The step at mid goes right exactly when key[mid] < query,
// that is when mid < r, so the count is a function of (n, r) alone.
int LowerBoundSteps(int64_t n, int64_t r);

class MinuetMapBuilder : public MapBuilderBase {
 public:
  explicit MinuetMapBuilder(const MinuetMapConfig& config = {});

  std::string name() const override;
  MapBuildResult Build(Device& device, const MapBuildInput& input) override;

  const MinuetMapConfig& config() const { return config_; }

 private:
  MinuetMapConfig config_;
};

}  // namespace minuet

#endif  // SRC_MAP_MINUET_MAP_H_
