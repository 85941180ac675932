// Functional GPU device simulator.
//
// Kernels are written as C++ callables invoked once per thread block. The
// body computes results directly on the device's memory (a host-mapped arena,
// see device_memory.h) and *accounts* its activity through the BlockCtx:
// global reads/writes become 128-byte line transactions, formed over device
// addresses, against the simulated L2; shared-memory traffic and lane
// operations become cycles. The device schedules blocks onto SMs in waves
// (limited by threads, blocks and shared memory per SM) and charges a fixed
// launch overhead per kernel — exactly the quantities Minuet's design trades
// off.
//
// Reads are filtered through a small per-block L1 before the shared L2, so
// the reported L2 hit ratios cover L1 misses only — the same population
// Nsight Compute reports. What is deliberately *not* modelled: warp
// divergence, memory-level parallelism within a block (costs are additive)
// and bank conflicts. See DESIGN.md for why the paper's comparisons survive
// these simplifications.
//
// Host performance (DESIGN.md "Host performance"): the host loop is the bound
// on every bench and serving trace. The hot path is therefore allocation- and
// hash-free: kernel names are interned to KernelId once per call site, kernel
// bodies are passed as non-owning FunctionRef (no std::function allocation per
// launch), per-kernel aggregates are vector-indexed, a global access is one
// subtraction and one range check away from its line numbers, and a read that
// hits the block's L1 on one line, or a write to one line, never leaves the
// header. A block appends its post-L1 lines to a buffer, which the L2 walks in
// one batch (CacheSim::AccessLines) at block end. All of it under one
// invariant: simulated statistics are byte-identical to the straightforward
// implementations they replaced.
//
// Threads. A device is driven by one thread at a time. A launch whose kernel
// declares independent blocks (LaunchDims::independent_blocks) and is large
// enough runs its block bodies on the ParallelFor pool, in fixed chunks whose
// lines and per-block counts go into a ring of slots the device owns; the
// chunks are walked through the L2, and fed to the wave arithmetic, strictly
// in block order, so the L2 sees the serial sequence and the statistics are
// those of the serial loop. Independent probes over one device's tables
// (Autotune's candidates) run on forks of it (Fork()), one per worker thread;
// launches inside a ParallelFor stay serial.
#ifndef SRC_GPUSIM_DEVICE_H_
#define SRC_GPUSIM_DEVICE_H_

#include <algorithm>
#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/gpusim/cache_sim.h"
#include "src/gpusim/device_config.h"
#include "src/gpusim/device_memory.h"
#include "src/gpusim/kernel_name.h"
#include "src/util/function_ref.h"

namespace minuet {

namespace trace {
class MetricsRegistry;
}  // namespace trace

// What a kernel's simulated time was spent on. The wave scheduler attributes
// each wave's cost to the resource that determined it, so the four classes
// partition a kernel's cycles: launch overhead, compute issue (lane ops +
// shared traffic of the critical block), DRAM bandwidth (L2-miss lines), or
// L2 bandwidth (L2-hit lines). Given the simulator's simplifications (no
// warp divergence, additive per-block costs — see device.h's file comment
// and DESIGN.md "Profiling & regression"), the class answers the roofline
// question "which knob would make this kernel faster", not "what would
// Nsight's SOL section print".
enum class RooflineClass { kLaunchBound, kComputeBound, kDramBound, kL2Bound };

const char* RooflineClassName(RooflineClass cls);

struct KernelStats {
  std::string name;
  double cycles = 0.0;
  double millis = 0.0;
  uint64_t l2_hits = 0;
  uint64_t l2_misses = 0;
  uint64_t global_bytes_read = 0;
  uint64_t global_bytes_written = 0;
  uint64_t shared_bytes = 0;
  uint64_t lane_ops = 0;
  int64_t num_blocks = 0;
  int64_t num_launches = 0;

  // Attribution (all additive across launches, so aggregates stay exact).
  // DRAM bytes actually moved: L2-miss lines for simulated kernels, operand
  // traffic for analytic GEMMs (which bypass the L2 sim).
  uint64_t dram_bytes = 0;
  int64_t num_waves = 0;    // scheduler waves across all launches
  int64_t block_slots = 0;  // co-residency capacity: num_waves x concurrent
  double launch_cycles = 0.0;   // fixed per-launch overhead
  double compute_cycles = 0.0;  // waves bound by the critical block's compute
  double dram_cycles = 0.0;     // waves bound by DRAM bandwidth or miss latency
  double l2_cycles = 0.0;       // waves bound by L2 bandwidth or hit latency

  double L2HitRatio() const {
    uint64_t total = l2_hits + l2_misses;
    return total == 0 ? 0.0 : static_cast<double>(l2_hits) / static_cast<double>(total);
  }

  // Achieved occupancy: blocks actually run over the block slots the waves
  // provided (1.0 = every wave full). GEMM launches report the analytic
  // utilisation factor instead. 0 when nothing ran.
  double Occupancy() const {
    return block_slots == 0 ? 0.0
                            : std::min(1.0, static_cast<double>(num_blocks) /
                                                static_cast<double>(block_slots));
  }

  // Achieved DRAM bandwidth over the config's peak, in [0, 1]. 0 when the
  // kernel spent no cycles (nothing launched).
  double DramBandwidthUtilization(const DeviceConfig& config) const;

  // Arithmetic intensity in lane-ops per DRAM byte. A kernel that moved no
  // DRAM bytes but did compute returns +infinity (serialized as null by
  // JsonWriter); one that did neither returns 0.
  double ArithmeticIntensity() const;

  RooflineClass Roofline() const;

  KernelStats& operator+=(const KernelStats& other);
};

class Device;
struct LaunchRing;

// What the wave formula reads of one finished block.
struct BlockCounts {
  uint64_t l1_hits = 0;
  uint64_t line_hits = 0;
  uint64_t line_misses = 0;
  uint64_t bytes_read = 0;
  uint64_t bytes_written = 0;
  uint64_t shared_bytes = 0;
  uint64_t lane_ops = 0;
};

// Accounting handle passed to a kernel body, one per thread block.
class BlockCtx {
 public:
  int64_t block_index() const { return block_index_; }
  int64_t num_blocks() const { return num_blocks_; }
  int threads_per_block() const { return threads_per_block_; }

  // Global-memory traffic. A call covers a contiguous byte range (what a warp
  // would coalesce); random per-element accesses should be one call each.
  // The range must lie in the device's memory (CHECKed).
  // Reads are filtered through a small per-block L1 (GPU L1/tex cache): L1
  // hits cost one cycle and never reach the simulated L2, matching how
  // profilers report L2 hit ratios over L1 misses only. Writes are
  // write-through, no-allocate.
  //
  // Most reads are L1 hits on one line, so that case is resolved here,
  // inline: it counts exactly what AccessLines would (the bytes and one L1
  // hit). A line can only be in the L1 if AccessLines range-CHECKed it, and
  // the fast path also requires start < kReserveBytes; every other read takes
  // the out-of-line path and its CHECK. Reads that miss the L1, and all
  // writes, are recorded for the L2 walk.
  void GlobalRead(const void* addr, size_t bytes) {
    const uint64_t start = reinterpret_cast<uintptr_t>(addr) - arena_base_;
    const uint64_t line = start >> line_shift_;
    bytes_read_ += bytes;
    // bytes - 1 wraps for a zero-byte read, which therefore falls through.
    if (start < DeviceMemory::kReserveBytes && bytes - 1 <= line_mask_ - (start & line_mask_) &&
        l1_tags_[line & (kL1Lines - 1)] == line) {
      ++l1_hits_;
      return;
    }
    AccessLines(addr, bytes, /*is_read=*/true);
  }

  // A write that fits one line is resolved inline too: it adds its bytes and
  // records the one line AccessLines would. start < kReserveBytes is the
  // whole range check there, since the arena is a whole number of lines.
  // Every other write takes the out-of-line path and its CHECK.
  void GlobalWrite(const void* addr, size_t bytes) {
    const uint64_t start = reinterpret_cast<uintptr_t>(addr) - arena_base_;
    bytes_written_ += bytes;
    // bytes - 1 wraps for a zero-byte write, which therefore falls through.
    if (start < DeviceMemory::kReserveBytes && bytes - 1 <= line_mask_ - (start & line_mask_)) {
      RecordLine(start >> line_shift_);
      return;
    }
    AccessLines(addr, bytes, /*is_read=*/false);
  }

  // `count` back-to-back reads of the same range, as when every warp of a
  // thread's span issues the same broadcast lookup. Only the first can miss:
  // it leaves all of the range's lines (at most the L1's 128, CHECKed) in the
  // block's L1, and nothing runs in between, so each repeat is an L1 hit on
  // every line. Counts exactly what `count` GlobalRead calls would.
  void GlobalReadRepeated(const void* addr, size_t bytes, int64_t count) {
    if (count > 0) {
      GlobalRead(addr, bytes);
    }
    if (count > 1 && bytes != 0) {
      CountRepeatedL1Hits(addr, bytes, static_cast<uint64_t>(count - 1));
    }
  }

  // On-chip traffic and arithmetic.
  void SharedRead(size_t bytes) { shared_bytes_ += bytes; }
  void SharedWrite(size_t bytes) { shared_bytes_ += bytes; }
  void Compute(uint64_t lane_ops) { lane_ops_ += lane_ops; }

 private:
  friend class Device;
  friend struct LaunchRing;
  friend struct BlockCtxPeer;  // tests: the out-of-line access path on its own
  BlockCtx(Device* device, int64_t block_index, int64_t num_blocks, int threads_per_block,
           uint32_t* lines, uint32_t* lines_limit, LaunchRing* ring, int64_t chunk);

  void AccessLines(const void* addr, size_t bytes, bool is_read);
  // Appends one post-L1 line for the L2 walk, walking what is pending first
  // when the buffer is full.
  void RecordLine(uint64_t line) {
    if (line_cursor_ == lines_limit_) {
      WalkPendingLines();
    }
    *line_cursor_++ = static_cast<uint32_t>(line);
  }
  // Walks this block's pending lines through the L2 and empties the buffer:
  // at once on a serial launch; on a parallel one (ring_ set), in the
  // chunk's turn, after the chunk's earlier blocks.
  void WalkPendingLines();
  // GlobalReadRepeated's repeats of a range that was just read.
  void CountRepeatedL1Hits(const void* addr, size_t bytes, uint64_t repeats);
  // The counts the wave formula reads, with the hits walked so far and no
  // misses yet.
  BlockCounts Counts() const {
    return BlockCounts{l1_hits_,       line_hits_,     0,        bytes_read_,
                       bytes_written_, shared_bytes_, lane_ops_};
  }

  Device* device_;
  int64_t block_index_;
  int64_t num_blocks_;
  int threads_per_block_;
  // The device's arena base and line geometry, copied for the inline paths.
  uintptr_t arena_base_;
  int line_shift_;
  uint64_t line_mask_;  // line_bytes - 1

  // The block's pending lines are [block_lines_, line_cursor_) of a buffer
  // that ends at lines_limit_: the device's own on a serial launch, the
  // chunk's ring slot on a parallel one.
  uint32_t* block_lines_;
  uint32_t* line_cursor_;
  uint32_t* lines_limit_;
  LaunchRing* ring_;  // null on a serial launch
  int64_t chunk_;     // the block's chunk on a parallel launch

  // Direct-mapped per-block L1: 128 lines x 128B = 16 KiB.
  static constexpr size_t kL1Lines = 128;
  std::array<uint64_t, kL1Lines> l1_tags_;

  uint64_t l1_hits_ = 0;
  uint64_t lines_walked_ = 0;  // L2 lookups walked so far
  uint64_t line_hits_ = 0;     // hits among them
  uint64_t bytes_read_ = 0;
  uint64_t bytes_written_ = 0;
  uint64_t shared_bytes_ = 0;
  uint64_t lane_ops_ = 0;
};

// The thread-block size of the simulated kernels, all but the radix sort's.
inline constexpr int kThreadsPerBlock = 128;

struct LaunchDims {
  int64_t num_blocks = 1;
  int threads_per_block = kThreadsPerBlock;
  size_t shared_bytes_per_block = 0;
  // A property of the kernel, not a setting: its block bodies share no
  // mutable host state (a reduction goes into per-block slots), write
  // disjoint payload and do not throw, so they may run on several threads at
  // once. The statistics do not depend on it.
  bool independent_blocks = false;
};

class Device {
 public:
  explicit Device(const DeviceConfig& config);
  Device(Device&&) noexcept;
  Device& operator=(Device&&) noexcept;
  ~Device();

  // A device for running kernels over this device's memory on another
  // thread: the same config, an empty L2 and zero totals. A fork owns no
  // arena (memory() CHECK-fails) and reads this one, so its kernels form the
  // same device addresses, and therefore charge the same cycles, as they
  // would here from a flushed L2. It shares no mutable state with this
  // device, and its launches never reach this device's totals. This device
  // must outlive the fork and keep what the fork's kernels read allocated
  // and unwritten while they run.
  Device Fork() const;

  const DeviceConfig& config() const { return config_; }

  // Runs `body(ctx)` for each block and returns the kernel's simulated stats.
  // The body is borrowed for the duration of the call only (FunctionRef), so
  // passing a lambda allocates nothing. Hot call sites should intern the
  // kernel name once (`static const KernelId kKernel = KernelId::Intern(...)`)
  // and use the KernelId overload; the name overload interns per call.
  KernelStats Launch(KernelId kernel, const LaunchDims& dims,
                     FunctionRef<void(BlockCtx&)> body);
  KernelStats Launch(std::string_view name, const LaunchDims& dims,
                     FunctionRef<void(BlockCtx&)> body) {
    return Launch(KernelId::Intern(name), dims, body);
  }

  // Analytic batched-GEMM kernel: one launch computing 2*m*n*k*batch FLOPs
  // and moving the operands once. Does not touch the L2 sim. `efficiency`
  // scales the achievable FLOP rate; engines that cannot use the vendor GEMM
  // library (e.g. MinkowskiEngine's fused small-channel dataflow) pass < 1.
  // `payload` is the launch's host arithmetic (functional mode's real GEMM).
  // It runs once inside the kernel's span, so the span's host duration covers
  // it; it cannot change the simulated stats.
  KernelStats LaunchGemm(KernelId kernel, int64_t m, int64_t n, int64_t k,
                         int64_t batch = 1, double efficiency = 1.0,
                         double bytes_per_element = 4.0,
                         FunctionRef<void()> payload = [] {});
  KernelStats LaunchGemm(std::string_view name, int64_t m, int64_t n, int64_t k,
                         int64_t batch = 1, double efficiency = 1.0,
                         double bytes_per_element = 4.0,
                         FunctionRef<void()> payload = [] {}) {
    return LaunchGemm(KernelId::Intern(name), m, n, k, batch, efficiency,
                      bytes_per_element, payload);
  }

  // Blocks co-resident across the device for a given block shape.
  int64_t ConcurrentBlocks(const LaunchDims& dims) const;

  CacheSim& l2() { return l2_; }
  const CacheSim& l2() const { return l2_; }

  // Cumulative stats since construction or the last ResetTotals().
  const KernelStats& totals() const { return totals_; }
  void ResetTotals();

  // Per-kernel-name aggregates since construction or ResetTotals(). With the
  // structured naming convention (phase/step/kernel, e.g. map/query/
  // ss_search) this is the per-kernel breakdown a profiler would show.
  // Internally the device aggregates into a KernelId-indexed vector; the map
  // view is materialized on demand, so calling this is not free — consumers
  // (metrics export, reports) are all off the hot path.
  const std::map<std::string, KernelStats>& kernel_aggregates() const;

  // Copies the per-kernel aggregates and device totals into `registry` as
  // counters/gauges under "<prefix>/kernel/<name>/..." and "<prefix>/total/
  // ...". The default prefix keeps the established "device/..." namespace;
  // multi-device reports (e.g. a bench publishing one snapshot per
  // implementation) pass a distinguishing prefix.
  void PublishMetrics(trace::MetricsRegistry& registry,
                      const std::string& prefix = "device") const;

  // The device's address space. Every buffer a kernel touches is allocated
  // here (DeviceVector<T>(n, device.memory())). CHECK-fails on a fork.
  DeviceMemory* memory();

 private:
  friend class BlockCtx;
  friend struct LaunchRing;
  friend struct DevicePeer;  // tests: the parallel-launch threshold, workers and slot size

  // A device reading the arena at `arena_base`, owning none.
  Device(const DeviceConfig& config, uintptr_t arena_base);

  // How many workers run a launch of `dims` through the ring: 0 when it
  // stays serial.
  int LaunchWorkers(const LaunchDims& dims) const;
  void Record(KernelId kernel, const KernelStats& stats);

  // A launch with at least this many blocks (four chunks) of a kernel that
  // declares independent blocks runs on the worker pool. Chosen from the
  // four perfbench workloads' launch sizes: 32 and 16 ran fleet-warm and
  // lidar-stream faster than 64 and 128, whose launches there are mostly
  // 4 to 50 blocks (ROADMAP item 11).
  static constexpr int64_t kParallelLaunchMinBlocks = 32;
  // Post-L1 lines a serial launch buffers before walking them mid-block.
  static constexpr size_t kSerialLines = 4096;

  DeviceConfig config_;
  std::unique_ptr<DeviceMemory> memory_;  // null on a fork
  uintptr_t arena_base_ = 0;              // base of the arena kernels read
  CacheSim l2_;
  int line_shift_ = 0;  // log2(config.line_bytes)
  std::vector<uint32_t> serial_lines_;  // a serial launch's line buffer
  // Made by the first parallel launch, on the calling thread, and kept.
  std::unique_ptr<LaunchRing> ring_;
  // Tests lower the threshold to 0 or raise it out of reach, fix the worker
  // count (0 = ParallelWorkers of the chunk count) and shrink the slots.
  int64_t parallel_min_blocks_ = kParallelLaunchMinBlocks;
  int parallel_workers_ = 0;
  size_t ring_slot_lines_ = 0;  // 0 = LaunchRing's default
  KernelStats totals_;
  // Aggregates indexed by KernelId; the name-keyed map is a lazily rebuilt
  // view so the public API (and its iteration order) is unchanged.
  std::vector<KernelStats> aggregates_by_id_;
  mutable std::map<std::string, KernelStats> aggregates_view_;
  mutable bool aggregates_view_dirty_ = false;
};

inline BlockCtx::BlockCtx(Device* device, int64_t block_index, int64_t num_blocks,
                          int threads_per_block, uint32_t* lines, uint32_t* lines_limit,
                          LaunchRing* ring, int64_t chunk)
    : device_(device),
      block_index_(block_index),
      num_blocks_(num_blocks),
      threads_per_block_(threads_per_block),
      arena_base_(device->arena_base_),
      line_shift_(device->line_shift_),
      line_mask_((uint64_t{1} << device->line_shift_) - 1),
      block_lines_(lines),
      line_cursor_(lines),
      lines_limit_(lines_limit),
      ring_(ring),
      chunk_(chunk) {
  l1_tags_.fill(UINT64_MAX);
}

}  // namespace minuet

#endif  // SRC_GPUSIM_DEVICE_H_
