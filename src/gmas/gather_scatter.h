// Tiled Gather and Scatter kernels (Algorithm 1, Section 5.2.1).
//
// Gather broadcasts each input feature row into its buffer slots, one tile of
// T channels per thread; Scatter mirrors it, sum-reducing partial results
// from the output buffer into the output feature rows. The tile size T trades
// metadata-indexing work (C/T lookups per point per offset) against execution
// parallelism ((C/T) x |P| threads) — the subject of Figures 4 and 20.
#ifndef SRC_GMAS_GATHER_SCATTER_H_
#define SRC_GMAS_GATHER_SCATTER_H_

#include "src/core/feature_matrix.h"
#include "src/gmas/metadata.h"
#include "src/gpusim/device.h"

namespace minuet {

struct TileKernelConfig {
  int tile_size = 4;  // channels per tile; must divide the channel count
  // false = charge the kernel without doing the copies (timing-only mode).
  bool functional = true;
  // Bytes per feature element as the device sees them (4 = fp32, 2 = fp16).
  // The host math stays float; fp16 halves the accounted traffic.
  int element_bytes = 4;
};

// Charges a memset of `buffer` (rows x cols elements) as a launch that
// writes rows x cols x element_bytes device bytes. The host data is left
// untouched: no reader needs it defined (gather writes every real row of a
// GMaS input buffer, the GEMM overwrites every real row of an output buffer,
// and padding rows are never read).
KernelStats ClearBuffer(Device& device, const FeatureMatrix& buffer, int element_bytes = 4);

// features (|P| x C_in) -> buffer (buffer_rows x C_in) via tables.imt.
KernelStats GatherKernel(Device& device, const MetadataTables& tables,
                         const FeatureMatrix& features, FeatureMatrix& buffer,
                         const TileKernelConfig& config);

// buffer (buffer_rows x C_out) -> output (|Q| x C_out) via tables.omt,
// sum-reducing across offsets. Output rows are overwritten.
KernelStats ScatterKernel(Device& device, const FeatureMatrix& buffer,
                          const MetadataTables& tables, FeatureMatrix& output,
                          const TileKernelConfig& config);

// Tile sizes worth trying for a channel count: its divisors (Algorithm 2
// line 5), largest capped at the channel count itself.
std::vector<int> CandidateTileSizes(int64_t channels);

}  // namespace minuet

#endif  // SRC_GMAS_GATHER_SCATTER_H_
