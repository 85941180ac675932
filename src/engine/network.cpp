#include "src/engine/network.h"

#include <algorithm>

#include "src/util/check.h"

namespace minuet {

namespace {

Instr Conv(int64_t c_in, int64_t c_out, int kernel_size = 3, int stride = 1,
           bool transposed = false) {
  Instr instr;
  instr.op = Instr::Op::kConv;
  instr.conv = ConvParams{kernel_size, stride, transposed, c_in, c_out};
  return instr;
}

Instr Simple(Instr::Op op, int slot = -1) {
  Instr instr;
  instr.op = op;
  instr.slot = slot;
  return instr;
}

// conv3(c_in -> c_out) + BN/ReLU + conv3(c_out -> c_out) + BN + projection
// shortcut (conv1 when channels change) + add + ReLU-ish BN. Appends 2 or 3
// conv layers.
void AppendResidualBlock(Network& net, int64_t c_in, int64_t c_out, int slot) {
  net.instrs.push_back(Simple(Instr::Op::kResidualSave, slot));
  net.instrs.push_back(Conv(c_in, c_out));
  net.instrs.push_back(Simple(Instr::Op::kBnRelu));
  net.instrs.push_back(Conv(c_out, c_out));
  if (c_in != c_out) {
    // Projection shortcut applied to the saved features; modelled as a K=1
    // conv instruction flagged through the slot field.
    Instr proj = Conv(c_in, c_out, /*kernel_size=*/1);
    proj.slot = slot;  // operate on the saved tensor
    net.instrs.push_back(proj);
  }
  net.instrs.push_back(Simple(Instr::Op::kResidualAdd, slot));
  net.instrs.push_back(Simple(Instr::Op::kBnRelu));
}

}  // namespace

int64_t Network::NumConvLayers() const {
  int64_t count = 0;
  for (const Instr& instr : instrs) {
    if (instr.op == Instr::Op::kConv) {
      ++count;
    }
  }
  return count;
}

int Network::NumSlots() const {
  int max_slot = -1;
  for (const Instr& instr : instrs) {
    max_slot = std::max(max_slot, instr.slot);
  }
  return max_slot + 1;
}

Network MakeMinkUNet42(int64_t in_channels) {
  Network net;
  net.name = "MinkUNet42";
  net.in_channels = in_channels;

  const int64_t enc[5] = {32, 32, 64, 128, 256};
  const int64_t dec[4] = {256, 128, 96, 96};

  // Stem: 2 convs.
  net.instrs.push_back(Conv(in_channels, enc[0]));
  net.instrs.push_back(Simple(Instr::Op::kBnRelu));
  net.instrs.push_back(Conv(enc[0], enc[0]));
  net.instrs.push_back(Simple(Instr::Op::kBnRelu));

  // Encoder: 4 stages x (down + projected residual (3 convs) + plain
  // residual (2 convs)) = 24 convs. Skip slots 0..3 hold each stage's input.
  for (int s = 0; s < 4; ++s) {
    net.instrs.push_back(Simple(Instr::Op::kSkipSave, s));
    net.instrs.push_back(Conv(enc[s], enc[s], /*kernel_size=*/2, /*stride=*/2));
    net.instrs.push_back(Simple(Instr::Op::kBnRelu));
    AppendResidualBlock(net, enc[s], enc[s + 1], /*slot=*/4);
    AppendResidualBlock(net, enc[s + 1], enc[s + 1], /*slot=*/4);
  }

  // Decoder: 4 stages x (up + concat + projected residual (3 convs)) = 16
  // convs. Stage s consumes skip slot 3-s.
  int64_t cur = enc[4];
  for (int s = 0; s < 4; ++s) {
    net.instrs.push_back(Conv(cur, dec[s], /*kernel_size=*/2, /*stride=*/2, /*transposed=*/true));
    net.instrs.push_back(Simple(Instr::Op::kBnRelu));
    net.instrs.push_back(Simple(Instr::Op::kConcatSkip, 3 - s));
    int64_t concat_channels = dec[s] + enc[3 - s];
    AppendResidualBlock(net, concat_channels, dec[s], /*slot=*/4);
    cur = dec[s];
  }

  // Per-point segmentation head (1x1 conv to 20 classes).
  net.instrs.push_back(Conv(cur, 20, /*kernel_size=*/1));

  MINUET_CHECK_EQ(net.NumConvLayers(), 42);
  return net;
}

Network MakeSparseResNet21(int64_t in_channels, int64_t num_classes) {
  Network net;
  net.name = "SparseResNet21";
  net.in_channels = in_channels;

  const int64_t chans[5] = {16, 32, 64, 128, 256};
  net.instrs.push_back(Conv(in_channels, chans[0]));
  net.instrs.push_back(Simple(Instr::Op::kBnRelu));

  for (int s = 0; s < 4; ++s) {
    net.instrs.push_back(Conv(chans[s], chans[s], /*kernel_size=*/2, /*stride=*/2));
    net.instrs.push_back(Simple(Instr::Op::kBnRelu));
    AppendResidualBlock(net, chans[s], chans[s + 1], /*slot=*/0);
    if (s >= 2) {
      AppendResidualBlock(net, chans[s + 1], chans[s + 1], /*slot=*/0);
    }
  }

  net.instrs.push_back(Simple(Instr::Op::kGlobalAvgPool));
  Instr head;
  head.op = Instr::Op::kLinear;
  head.linear_out = num_classes;
  net.instrs.push_back(head);

  MINUET_CHECK_EQ(net.NumConvLayers(), 21);
  return net;
}

Network MakeTinyUNet(int64_t in_channels) {
  Network net;
  net.name = "TinyUNet";
  net.in_channels = in_channels;
  const int64_t c0 = 8, c1 = 16, c2 = 24;

  net.instrs.push_back(Conv(in_channels, c0));
  net.instrs.push_back(Simple(Instr::Op::kBnRelu));

  net.instrs.push_back(Simple(Instr::Op::kSkipSave, 0));
  net.instrs.push_back(Conv(c0, c0, 2, 2));
  net.instrs.push_back(Simple(Instr::Op::kBnRelu));
  AppendResidualBlock(net, c0, c1, 2);

  net.instrs.push_back(Simple(Instr::Op::kSkipSave, 1));
  net.instrs.push_back(Conv(c1, c1, 2, 2));
  net.instrs.push_back(Simple(Instr::Op::kBnRelu));
  AppendResidualBlock(net, c1, c2, 2);

  net.instrs.push_back(Conv(c2, c1, 2, 2, /*transposed=*/true));
  net.instrs.push_back(Simple(Instr::Op::kBnRelu));
  net.instrs.push_back(Simple(Instr::Op::kConcatSkip, 1));
  AppendResidualBlock(net, c1 + c1, c1, 2);

  net.instrs.push_back(Conv(c1, c0, 2, 2, /*transposed=*/true));
  net.instrs.push_back(Simple(Instr::Op::kBnRelu));
  net.instrs.push_back(Simple(Instr::Op::kConcatSkip, 0));
  AppendResidualBlock(net, c0 + c0, c0, 2);
  return net;
}

bool NetworkForPreset(const std::string& preset, Network* out) {
  if (preset == "unet42") {
    *out = MakeMinkUNet42(4);
  } else if (preset == "resnet21") {
    *out = MakeSparseResNet21(4, 20);
  } else if (preset == "tiny") {
    *out = MakeTinyUNet(4);
  } else {
    return false;
  }
  return true;
}

}  // namespace minuet
