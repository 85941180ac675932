#include "src/gpusim/device_config.h"

namespace minuet {

DeviceConfig MakeRtx2070Super() {
  DeviceConfig c;
  c.name = "RTX 2070 Super";
  c.num_sms = 40;
  c.max_threads_per_sm = 1024;
  c.max_blocks_per_sm = 16;
  c.shared_mem_per_sm = 64 << 10;
  c.l2_bytes = 4 << 20;
  c.clock_ghz = 1.77;
  c.dram_gbps = 448.0;
  c.gemm_tflops = 9.1;
  return c;
}

DeviceConfig MakeRtx2080Ti() {
  DeviceConfig c;
  c.name = "RTX 2080 Ti";
  c.num_sms = 68;
  c.max_threads_per_sm = 1024;
  c.max_blocks_per_sm = 16;
  c.shared_mem_per_sm = 64 << 10;
  c.l2_bytes = 5632 << 10;
  c.clock_ghz = 1.55;
  c.dram_gbps = 616.0;
  c.gemm_tflops = 13.4;
  return c;
}

DeviceConfig MakeRtx3090() {
  DeviceConfig c;
  c.name = "RTX 3090";
  c.num_sms = 82;
  c.max_threads_per_sm = 1536;
  c.max_blocks_per_sm = 16;
  c.shared_mem_per_sm = 100 << 10;
  c.l2_bytes = 6 << 20;
  c.clock_ghz = 1.70;
  c.dram_gbps = 936.0;
  c.gemm_tflops = 35.6;
  return c;
}

DeviceConfig MakeA100() {
  DeviceConfig c;
  c.name = "A100";
  c.num_sms = 108;
  c.max_threads_per_sm = 2048;
  c.max_blocks_per_sm = 32;
  c.shared_mem_per_sm = 164 << 10;
  c.l2_bytes = 40 << 20;
  c.clock_ghz = 1.41;
  c.dram_gbps = 2039.0;
  c.gemm_tflops = 19.5;
  return c;
}

std::vector<DeviceConfig> AllDeviceConfigs() {
  return {MakeRtx2070Super(), MakeRtx2080Ti(), MakeRtx3090(), MakeA100()};
}

bool DeviceConfigForPreset(const std::string& preset, DeviceConfig* out) {
  if (preset == "2070s") {
    *out = MakeRtx2070Super();
  } else if (preset == "2080ti") {
    *out = MakeRtx2080Ti();
  } else if (preset == "3090") {
    *out = MakeRtx3090();
  } else if (preset == "a100") {
    *out = MakeA100();
  } else {
    return false;
  }
  return true;
}

}  // namespace minuet
