#include "src/engine/sequence_session.h"

#include <algorithm>
#include <utility>

#include "src/map/incremental.h"
#include "src/util/check.h"

namespace minuet {

SequenceSession::SequenceSession(Engine& engine, bool incremental)
    : engine_(&engine), incremental_(incremental), session_(engine) {
  MINUET_CHECK(engine.config().kind == EngineKind::kMinuet &&
               engine.config().features.segmented_sorting)
      << "SequenceSession requires the sorted-map engine (incremental maps "
         "maintain the sorted coordinate array)";
}

void SequenceSession::ResetChain() { chain_.Reset(); }

FrameRunResult SequenceSession::RunFrame(const PointCloud& cloud) {
  ResetChain();
  return RunFrame(cloud, Coord3{}, {}, {});
}

FrameRunResult SequenceSession::RunFrame(const PointCloud& cloud, const Coord3& motion,
                                         std::span<const Coord3> deleted,
                                         std::span<const Coord3> inserted) {
  const std::vector<uint64_t> expected = PackCoords(cloud.coords);
  MINUET_CHECK(std::is_sorted(expected.begin(), expected.end()))
      << "sequence frames must arrive key-sorted";

  Device& device = engine_->device();
  ChainStep step;
  if (incremental_) {
    step = chain_.Advance(device, PackDelta(motion), PackCoords(deleted), PackCoords(inserted),
                          expected);
  } else {
    chain_.Adopt(device, expected);
  }
  FrameRunResult result;
  if (!step.incremental) {
    // Full path: the engine charges its own input sort.
    result.run = session_.Run(cloud);
    return result;
  }
  auto root = std::make_shared<CoordLevel>();
  root->tensor_stride = 1;
  root->coords = cloud.coords;
  root->keys = chain_.keys();
  result.run = session_.RunIncremental(cloud, std::move(root), step.delta_stats.cycles,
                                       step.delta_stats.num_launches);
  result.incremental = true;
  return result;
}

}  // namespace minuet
