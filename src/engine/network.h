// Point-cloud network descriptions: a tiny instruction list that is enough to
// express the paper's two evaluation networks (Section 6.1) — MinkUNet42
// (encoder/decoder with skip concatenation and residual blocks) and
// SparseResNet21 (the CenterPoint-style detection backbone).
#ifndef SRC_ENGINE_NETWORK_H_
#define SRC_ENGINE_NETWORK_H_

#include <cstdint>
#include <string>
#include <vector>

namespace minuet {

struct ConvParams {
  int kernel_size = 3;
  int stride = 1;
  bool transposed = false;  // upsampling back to the parent level
  int64_t c_in = 0;
  int64_t c_out = 0;
  // Non-submanifold convolution: outputs dilate to every reachable location
  // (requires stride 1, not transposed). Off by default: SC networks keep
  // the sparsity pattern (Figure 1).
  bool generative = false;

  int64_t NumOffsets() const {
    return static_cast<int64_t>(kernel_size) * kernel_size * kernel_size;
  }
};

struct Instr {
  enum class Op {
    kConv,          // sparse convolution (normal / strided / transposed)
    kMaxPool,       // sparse max pooling over conv.kernel_size / conv.stride
    kAvgPool,       // sparse average pooling
    kBnRelu,        // fused batch-norm + ReLU, elementwise
    kResidualSave,  // push current features to `slot`
    kResidualAdd,   // features += slot (same coordinates, same channels)
    kSkipSave,      // push current features for a UNet skip
    kConcatSkip,    // channel-concat slot onto current (same coordinates)
    kGlobalAvgPool, // reduce to one row
    kLinear,        // dense head: 1 x C -> 1 x linear_out
  };

  Op op = Op::kConv;
  ConvParams conv;
  int slot = -1;
  int64_t linear_out = 0;
};

struct Network {
  std::string name;
  int64_t in_channels = 4;
  std::vector<Instr> instrs;

  int64_t NumConvLayers() const;
  int NumSlots() const;
};

// 42 sparse-conv layers: 2-conv stem; four encoder stages (stride-2 down conv
// + projected residual block + plain residual block); four decoder stages
// (stride-2 transposed conv + skip concat + projected residual block).
// Channels 32/32/64/128/256 down, 256/128/96/96 up.
Network MakeMinkUNet42(int64_t in_channels = 4);

// 21 sparse-conv layers: stem; four stages of stride-2 down conv + projected
// residual block (+ an extra plain block in the last two stages); global pool
// and a dense classification head. Channels 16/32/64/128/256.
Network MakeSparseResNet21(int64_t in_channels = 4, int64_t num_classes = 20);

// A small UNet with the same structure as MinkUNet42 but two stages and thin
// channels; used by tests and the quickstart example.
Network MakeTinyUNet(int64_t in_channels = 4);

// The command-line preset table, 4 input channels each: "unet42"
// (MinkUNet42), "resnet21" (SparseResNet21, 20 classes), "tiny" (TinyUNet).
// Returns false (and leaves `*out` alone) for any other name.
bool NetworkForPreset(const std::string& preset, Network* out);

}  // namespace minuet

#endif  // SRC_ENGINE_NETWORK_H_
