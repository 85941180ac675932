// Input/output metadata tables for Gather and Scatter (Figure 2, steps 5-13).
//
// Given a kernel map and a grouping plan (which fixes every offset's slice of
// the padded buffers), the input metadata table answers "where in the input
// buffer does input point i's feature vector go under offset k", and the
// output table answers the mirrored question for partial results.
#ifndef SRC_GMAS_METADATA_H_
#define SRC_GMAS_METADATA_H_

#include <cstdint>
#include <vector>

#include "src/core/kernel_map.h"
#include "src/gmas/grouping.h"
#include "src/gpusim/device.h"

namespace minuet {

struct MetadataTables {
  int64_t num_offsets = 0;
  int64_t num_inputs = 0;
  int64_t num_outputs = 0;
  int64_t buffer_rows = 0;

  // imt[k * num_inputs + i]: buffer row for input i under offset k, or
  // kNoMatch. omt[k * num_outputs + j]: buffer row holding the partial result
  // for output j under offset k, or kNoMatch.
  DeviceVector<uint32_t> imt;
  DeviceVector<uint32_t> omt;

  uint32_t InputSlot(int64_t offset_index, int64_t input_index) const {
    return imt[static_cast<size_t>(offset_index * num_inputs + input_index)];
  }
  uint32_t OutputSlot(int64_t offset_index, int64_t output_index) const {
    return omt[static_cast<size_t>(offset_index * num_outputs + output_index)];
  }
};

// Builds both tables on the device (one pass over the kernel-map entries).
MetadataTables BuildMetadataTables(Device& device, const KernelMap& map,
                                   const GroupingPlan& plan, int64_t num_inputs,
                                   int64_t num_outputs, KernelStats* stats);

}  // namespace minuet

#endif  // SRC_GMAS_METADATA_H_
