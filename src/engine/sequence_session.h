// Stateful per-stream inference session over a temporally coherent frame
// sequence (the engine half of the incremental-kernel-map path).
//
// A RunSession already makes *repeated* coordinate sets cheap (plan cache).
// A video stream never repeats exactly — every frame's coordinates drift —
// but frame t is frame t-1 under a rigid motion plus small churn, so the
// sorted stride-1 root that the Minuet engine needs can be *maintained*
// instead of re-sorted: SequenceSession holds a SortedKeyChain
// (src/map/incremental.h), which advances the previous frame's sorted key
// array with the delta-merge kernels, and hands the resulting root to the
// engine through SessionCtx. The input radix sort — the dominant per-frame
// map-build cost — drops out; the far cheaper maintenance cost is attributed
// to StepBreakdown::map_delta so the serving layer can blame map reuse (and
// its misses) explicitly.
//
// The chain breaks on the first frame, after ResetChain() (e.g. the serving
// loop dropped a frame and the retained state no longer matches), or when
// churn exceeds kRebuildChurn; those frames take the full path and count as
// chain().frames_rebuilt() — the "map reuse miss" counter.
//
// Correctness invariant, CHECK-enforced every frame: the maintained root is
// bit-identical to what sorting the frame from scratch would produce, so
// results (features, downstream coordinate levels, kernel maps) are the same
// either way.
#ifndef SRC_ENGINE_SEQUENCE_SESSION_H_
#define SRC_ENGINE_SEQUENCE_SESSION_H_

#include <cstdint>
#include <span>
#include <vector>

#include "src/engine/engine.h"
#include "src/map/incremental.h"

namespace minuet {

struct FrameRunResult {
  RunResult run;
  bool incremental = false;  // delta path taken for this frame
};

class SequenceSession {
 public:
  // incremental=false: every frame pays the full input sort (the comparison
  // baseline — identical results, different charges).
  explicit SequenceSession(Engine& engine, bool incremental = true);

  // Runs one frame. `cloud` must be key-sorted; `motion`/`deleted`/`inserted`
  // describe its derivation from the cloud of the previous RunFrame call
  // (same contract as SequenceFrame in src/data/sequence.h: delta coordinate
  // lists key-sorted, expressed post-motion, and the motion may not push any
  // retained voxel out of the lattice). The first frame of a chain ignores
  // the deltas and takes the full path.
  FrameRunResult RunFrame(const PointCloud& cloud, const Coord3& motion,
                          std::span<const Coord3> deleted, std::span<const Coord3> inserted);

  // Entry for a frame with no usable predecessor (frame 0, or the frame after
  // a drop): resets the chain and takes the full path.
  FrameRunResult RunFrame(const PointCloud& cloud);

  // Drops the retained key array; the next frame rebuilds from scratch.
  void ResetChain();

  const SortedKeyChain& chain() const { return chain_; }
  RunSession& session() { return session_; }

 private:
  Engine* engine_;
  bool incremental_;
  RunSession session_;
  SortedKeyChain chain_;  // the previous frame's sorted key array
};

}  // namespace minuet

#endif  // SRC_ENGINE_SEQUENCE_SESSION_H_
