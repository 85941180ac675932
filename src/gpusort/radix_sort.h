// LSD radix sort over 64-bit keys, structured as GPU kernels.
//
// This is the stand-in for NVIDIA CUB's DeviceRadixSort that Minuet uses to
// sort coordinate arrays (Section 5.1.1, "Minuet leverages existing GPU radix
// sorting libraries to sort the arrays at low cost"). Each 8-bit digit pass
// launches three kernels against the device simulator — per-block histogram,
// histogram scan, stable scatter — so the Map-step *build* bench (Figure 17)
// charges sorting exactly the launches and memory traffic a real pass incurs.
//
// Like CUB, the caller may restrict the bit range; passes whose digit is
// constant across all keys are detected from the histogram and their scatter
// is skipped (the histogram launch is still charged).
#ifndef SRC_GPUSORT_RADIX_SORT_H_
#define SRC_GPUSORT_RADIX_SORT_H_

#include <cstdint>
#include <span>

#include "src/gpusim/device.h"

namespace minuet {

struct SortStats {
  KernelStats kernels;    // all launches of the sort combined
  int passes_total = 0;   // digit positions considered
  int passes_scattered = 0;  // passes that actually moved data
};

// Sorts `keys` ascending in place. If `values` is non-empty it must have the
// same length and is permuted alongside the keys (stable). Both live in
// `device`'s memory, like every argument a kernel reads.
SortStats RadixSortPairs(Device& device, std::span<uint64_t> keys, std::span<uint32_t> values,
                         int begin_bit = 0, int end_bit = 64);

SortStats RadixSortKeys(Device& device, std::span<uint64_t> keys, int begin_bit = 0,
                        int end_bit = 64);

// Sorts packed-coordinate keys the way a production engine does: first
// reduce the per-axis extents, re-pack each coordinate into the minimal
// per-axis bit widths (typically ~30 bits total instead of 63), radix-sort
// the compact keys (half the passes, and often half the bytes), and emit the
// original keys in sorted order. Functionally identical to RadixSortPairs on
// the original keys; the extra reduce/re-pack/unpack kernels are charged.
SortStats RadixSortCoordPairs(Device& device, std::span<uint64_t> keys,
                              std::span<uint32_t> values);

}  // namespace minuet

#endif  // SRC_GPUSORT_RADIX_SORT_H_
