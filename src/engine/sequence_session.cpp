#include "src/engine/sequence_session.h"

#include <algorithm>
#include <utility>

#include "src/map/incremental.h"
#include "src/util/check.h"

namespace minuet {

SequenceSession::SequenceSession(Engine& engine, const SequenceSessionConfig& config)
    : engine_(&engine), config_(config), session_(engine) {
  MINUET_CHECK(engine.config().kind == EngineKind::kMinuet &&
               engine.config().features.segmented_sorting)
      << "SequenceSession requires the sorted-map engine (incremental maps "
         "maintain the sorted coordinate array)";
  MINUET_CHECK_GE(config.rebuild_threshold, 0.0);
}

void SequenceSession::ResetChain() {
  keys_ = DeviceVector<uint64_t>();  // frees the device storage too
  has_chain_ = false;
}

FrameRunResult SequenceSession::RunFrame(const PointCloud& cloud) {
  ResetChain();
  return RunFrame(cloud, Coord3{}, {}, {});
}

FrameRunResult SequenceSession::RunFrame(const PointCloud& cloud, const Coord3& motion,
                                         std::span<const Coord3> deleted,
                                         std::span<const Coord3> inserted) {
  std::vector<uint64_t> expected = PackCoords(cloud.coords);
  MINUET_CHECK(std::is_sorted(expected.begin(), expected.end()))
      << "sequence frames must arrive key-sorted";

  const int64_t n = static_cast<int64_t>(keys_.size());
  const int64_t growth = static_cast<int64_t>(std::max(deleted.size(), inserted.size()));
  FrameRunResult result;
  if (!has_chain_ || n == 0) {
    result.churn = growth > 0 || !has_chain_ ? 1.0 : 0.0;
  } else {
    result.churn = static_cast<double>(growth) / static_cast<double>(n);
  }

  if (config_.incremental && has_chain_ && result.churn <= config_.rebuild_threshold) {
    KernelStats delta = ChargeDeltaMerge(engine_->device(), keys_, PackDelta(motion),
                                         PackCoords(deleted), PackCoords(inserted));
    MINUET_CHECK(std::ranges::equal(keys_, expected))
        << "incremental merge diverged from the frame's key set (was the "
           "delta not derived from the previous RunFrame cloud?)";
    auto root = std::make_shared<CoordLevel>();
    root->tensor_stride = 1;
    root->coords = cloud.coords;
    root->keys = keys_;
    result.run =
        session_.RunIncremental(cloud, std::move(root), delta.cycles, delta.num_launches);
    result.incremental = true;
    ++frames_incremental_;
    return result;
  }

  // Full path: the engine charges its own input sort; adopt the frame's keys
  // as the new chain state.
  keys_ = ToDevice(engine_->device().memory(), expected);
  has_chain_ = true;
  result.run = session_.Run(cloud);
  ++frames_rebuilt_;
  return result;
}

}  // namespace minuet
