// GPU execution-model parameters.
//
// The simulator does not execute PTX; it executes kernels functionally on the
// host while charging cycles for compute, shared-memory traffic and global-
// memory line transactions (through a simulated L2). These configs carry the
// handful of architectural constants that the paper's experiments are
// sensitive to: SM count and occupancy limits (parallelism / tile-size
// trade-off, Figures 4 and 20), L2 capacity (hit-ratio contrast, Figures 3
// and 16), bandwidth and clock (absolute scale), and launch overhead
// (GEMM-grouping trade-off, Figures 5 and 19).
#ifndef SRC_GPUSIM_DEVICE_CONFIG_H_
#define SRC_GPUSIM_DEVICE_CONFIG_H_

#include <cstdint>
#include <string>
#include <vector>

namespace minuet {

struct DeviceConfig {
  std::string name;

  // Parallelism limits.
  int num_sms = 82;
  int max_threads_per_sm = 1536;
  int max_blocks_per_sm = 16;
  size_t shared_mem_per_sm = 100 << 10;

  // Memory hierarchy.
  size_t l2_bytes = 6 << 20;
  int l2_ways = 16;
  int line_bytes = 128;

  // Cycle costs per 128-byte line transaction. The hit/miss gap is what turns
  // cache locality into time; values approximate throughput-per-SM costs for
  // L2-resident vs. DRAM-random traffic.
  double l2_hit_cycles_per_line = 4.0;
  double l2_miss_cycles_per_line = 40.0;

  // Shared memory: bytes moved per cycle per block (128B/cycle per SM).
  double shared_bytes_per_cycle = 128.0;

  // Issue: lane-operations retired per cycle per block.
  double lane_ops_per_cycle = 64.0;

  double clock_ghz = 1.7;
  double dram_gbps = 936.0;
  double gemm_tflops = 35.6;  // sustained fp32 GEMM throughput

  // Fixed cost charged once per kernel launch (CUDA launch + driver).
  double launch_overhead_cycles = 4000.0;

  // Ignored: every Device has its own address space; the next benchmark change removes it.
  bool deterministic_addressing = false;

  // Derived.
  double flops_per_cycle() const { return gemm_tflops * 1e12 / (clock_ghz * 1e9); }
  double CyclesToMillis(double cycles) const { return cycles / (clock_ghz * 1e9) * 1e3; }
};

// The four GPUs of the paper's evaluation (Section 6.1).
DeviceConfig MakeRtx2070Super();
DeviceConfig MakeRtx2080Ti();
DeviceConfig MakeRtx3090();
DeviceConfig MakeA100();

// All four, in the paper's order. RTX 3090 (the default results platform)
// is index 2.
std::vector<DeviceConfig> AllDeviceConfigs();

// The command-line preset table: "2070s", "2080ti", "3090", "a100". Returns
// false (and leaves `*out` alone) for any other name.
bool DeviceConfigForPreset(const std::string& preset, DeviceConfig* out);

}  // namespace minuet

#endif  // SRC_GPUSIM_DEVICE_CONFIG_H_
