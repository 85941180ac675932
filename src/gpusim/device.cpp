#include "src/gpusim/device.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <condition_variable>
#include <limits>
#include <mutex>

#include "src/trace/metrics.h"
#include "src/trace/trace.h"
#include "src/util/check.h"
#include "src/util/parallel.h"

namespace minuet {

namespace {

// Leaf span for one simulated launch: the host range covers the simulation
// of the kernel, the sim range is the kernel's modelled duration (this is
// the only place the tracer's simulated clock advances). The KernelStats
// payload — including the derived roofline attribution — rides along as span
// attributes.
void EmitKernelSpan(trace::Tracer* tracer, int64_t span_id, const KernelStats& stats,
                    const DeviceConfig& config) {
  tracer->AdvanceSim(stats.millis * 1e3);
  tracer->SetAttr(span_id, "cycles", stats.cycles);
  tracer->SetAttr(span_id, "l2_hits", static_cast<int64_t>(stats.l2_hits));
  tracer->SetAttr(span_id, "l2_misses", static_cast<int64_t>(stats.l2_misses));
  tracer->SetAttr(span_id, "l2_hit_ratio", stats.L2HitRatio());
  tracer->SetAttr(span_id, "bytes_read", static_cast<int64_t>(stats.global_bytes_read));
  tracer->SetAttr(span_id, "bytes_written", static_cast<int64_t>(stats.global_bytes_written));
  tracer->SetAttr(span_id, "shared_bytes", static_cast<int64_t>(stats.shared_bytes));
  tracer->SetAttr(span_id, "lane_ops", static_cast<int64_t>(stats.lane_ops));
  tracer->SetAttr(span_id, "blocks", stats.num_blocks);
  tracer->SetAttr(span_id, "waves", stats.num_waves);
  tracer->SetAttr(span_id, "dram_bytes", static_cast<int64_t>(stats.dram_bytes));
  tracer->SetAttr(span_id, "occupancy", stats.Occupancy());
  tracer->SetAttr(span_id, "dram_bw_util", stats.DramBandwidthUtilization(config));
  tracer->SetAttr(span_id, "arith_intensity", stats.ArithmeticIntensity());
  tracer->SetAttr(span_id, "roofline", std::string(RooflineClassName(stats.Roofline())));
  tracer->CloseSpan(span_id);
}

}  // namespace

const char* RooflineClassName(RooflineClass cls) {
  switch (cls) {
    case RooflineClass::kLaunchBound:
      return "launch_bound";
    case RooflineClass::kComputeBound:
      return "compute_bound";
    case RooflineClass::kDramBound:
      return "dram_bound";
    case RooflineClass::kL2Bound:
      return "l2_bound";
  }
  return "unknown";
}

double KernelStats::DramBandwidthUtilization(const DeviceConfig& config) const {
  if (cycles <= 0.0) {
    return 0.0;
  }
  const double peak_bytes_per_cycle = config.dram_gbps / config.clock_ghz;
  const double achieved = static_cast<double>(dram_bytes) / cycles;
  return std::min(1.0, achieved / peak_bytes_per_cycle);
}

double KernelStats::ArithmeticIntensity() const {
  if (dram_bytes == 0) {
    return lane_ops == 0 ? 0.0 : std::numeric_limits<double>::infinity();
  }
  return static_cast<double>(lane_ops) / static_cast<double>(dram_bytes);
}

RooflineClass KernelStats::Roofline() const {
  // Argmax over the attributed cycles; launch overhead wins ties, so an
  // all-zero (or never-run) kernel reads launch-bound — every launch pays
  // the fixed cost no matter what.
  RooflineClass cls = RooflineClass::kLaunchBound;
  double best = launch_cycles;
  if (dram_cycles > best) {
    cls = RooflineClass::kDramBound;
    best = dram_cycles;
  }
  if (l2_cycles > best) {
    cls = RooflineClass::kL2Bound;
    best = l2_cycles;
  }
  if (compute_cycles > best) {
    cls = RooflineClass::kComputeBound;
  }
  return cls;
}

KernelStats& KernelStats::operator+=(const KernelStats& other) {
  cycles += other.cycles;
  millis += other.millis;
  l2_hits += other.l2_hits;
  l2_misses += other.l2_misses;
  global_bytes_read += other.global_bytes_read;
  global_bytes_written += other.global_bytes_written;
  shared_bytes += other.shared_bytes;
  lane_ops += other.lane_ops;
  num_blocks += other.num_blocks;
  num_launches += other.num_launches;
  dram_bytes += other.dram_bytes;
  num_waves += other.num_waves;
  block_slots += other.block_slots;
  launch_cycles += other.launch_cycles;
  compute_cycles += other.compute_cycles;
  dram_cycles += other.dram_cycles;
  l2_cycles += other.l2_cycles;
  return *this;
}

// Lines are formed directly over device addresses. The read and write loops
// are written out separately so the per-line body is straight code — this
// runs once per simulated line transaction that the inline GlobalRead path
// (device.h) did not resolve as a one-line L1 hit.
void BlockCtx::AccessLines(const void* addr, size_t bytes, bool is_read) {
  if (bytes == 0) {
    return;
  }
  const uint64_t start = reinterpret_cast<uintptr_t>(addr) - arena_base_;
  MINUET_CHECK(start < DeviceMemory::kReserveBytes && bytes <= DeviceMemory::kReserveBytes - start)
      << "global access outside device memory";
  const uint64_t first = start >> line_shift_;
  const uint64_t last = (start + bytes - 1) >> line_shift_;
  if (is_read) {
    for (uint64_t line = first; line <= last; ++line) {
      const size_t slot = static_cast<size_t>(line & (kL1Lines - 1));
      if (l1_tags_[slot] == line) {
        ++l1_hits_;
        continue;
      }
      l1_tags_[slot] = line;
      RecordLine(line);
    }
  } else {
    for (uint64_t line = first; line <= last; ++line) {
      RecordLine(line);
    }
  }
}

void BlockCtx::CountRepeatedL1Hits(const void* addr, size_t bytes, uint64_t repeats) {
  // The first read CHECKed the range, so this cannot overflow.
  const uint64_t start = reinterpret_cast<uintptr_t>(addr) - arena_base_;
  const uint64_t lines = ((start + bytes - 1) >> line_shift_) - (start >> line_shift_) + 1;
  MINUET_CHECK_LE(lines, kL1Lines) << "a repeated read must fit the L1";
  bytes_read_ += repeats * bytes;
  l1_hits_ += repeats * lines;
}

namespace {

// The wave arithmetic of one launch, fed each block's counts in block order.
class WaveAccumulator {
 public:
  WaveAccumulator(const DeviceConfig& config, const LaunchDims& dims, int64_t concurrent)
      : config_(config),
        dims_(dims),
        concurrent_(concurrent),
        // Device-wide line throughput: misses are bound by DRAM bandwidth,
        // hits by L2 bandwidth (modelled at 4x DRAM). A wave takes the longer
        // of its critical block and its aggregate bandwidth demand — without
        // this cap, a kernel with enough blocks could stream unlimited bytes
        // per cycle.
        dram_lines_per_cycle_(config.dram_gbps / config.clock_ghz /
                              static_cast<double>(config.line_bytes)),
        l2_lines_per_cycle_(4.0 * dram_lines_per_cycle_),
        // Threads needed to saturate memory bandwidth: roughly 8 warps per SM
        // with reasonable ILP. Below that, achieved bandwidth scales with
        // resident threads ("limited execution parallelism", Shortcoming #2).
        saturation_threads_(static_cast<double>(config.num_sms) * 256.0),
        total_cycles_(config.launch_overhead_cycles) {
    stats_.num_blocks = dims.num_blocks;
    stats_.num_launches = 1;
    stats_.launch_cycles = config.launch_overhead_cycles;
  }

  void AddBlock(const BlockCounts& block) {
    double block_compute =
        static_cast<double>(block.lane_ops) / config_.lane_ops_per_cycle +
        static_cast<double>(block.shared_bytes) / config_.shared_bytes_per_cycle;
    double block_memory =
        static_cast<double>(block.l1_hits) * 1.0 +
        static_cast<double>(block.line_hits) * config_.l2_hit_cycles_per_line +
        static_cast<double>(block.line_misses) * config_.l2_miss_cycles_per_line;
    double block_cycles = block_compute + block_memory;
    if (block_cycles > wave_max_) {
      wave_max_ = block_cycles;
      wave_max_compute_ = block_compute;
      wave_max_memory_ = block_memory;
    }
    wave_hits_ += block.line_hits;
    wave_misses_ += block.line_misses;
    if (++in_wave_ == concurrent_) {
      CloseWave();
    }

    stats_.l2_hits += block.line_hits;
    stats_.l2_misses += block.line_misses;
    stats_.global_bytes_read += block.bytes_read;
    stats_.global_bytes_written += block.bytes_written;
    stats_.shared_bytes += block.shared_bytes;
    stats_.lane_ops += block.lane_ops;
    stats_.dram_bytes += block.line_misses * static_cast<uint64_t>(config_.line_bytes);
  }

  // The launch's stats, once every block has been added.
  KernelStats Finish(const std::string& name) {
    if (in_wave_ > 0) {
      CloseWave();
    }
    stats_.name = name;
    stats_.cycles = total_cycles_;
    stats_.millis = config_.CyclesToMillis(total_cycles_);
    return stats_;
  }

 private:
  void CloseWave() {
    double wave_threads =
        static_cast<double>(in_wave_) * static_cast<double>(dims_.threads_per_block);
    double occupancy = std::min(1.0, wave_threads / saturation_threads_);
    double dram_demand = static_cast<double>(wave_misses_) / (dram_lines_per_cycle_ * occupancy);
    double l2_demand = static_cast<double>(wave_hits_) / (l2_lines_per_cycle_ * occupancy);
    double bandwidth_cycles = std::max(dram_demand, l2_demand);
    double wave_cycles = std::max(wave_max_, bandwidth_cycles);
    total_cycles_ += wave_cycles;
    // Attribute the wave to whichever resource set its duration: aggregate
    // bandwidth demand (DRAM or L2), or the critical block's own critical
    // path (compute issue vs per-line memory latency).
    if (bandwidth_cycles >= wave_max_) {
      (dram_demand >= l2_demand ? stats_.dram_cycles : stats_.l2_cycles) += wave_cycles;
    } else if (wave_max_compute_ >= wave_max_memory_) {
      stats_.compute_cycles += wave_cycles;
    } else {
      (wave_misses_ > 0 ? stats_.dram_cycles : stats_.l2_cycles) += wave_cycles;
    }
    ++stats_.num_waves;
    stats_.block_slots += concurrent_;
    wave_max_ = 0.0;
    wave_max_compute_ = 0.0;
    wave_max_memory_ = 0.0;
    wave_hits_ = 0;
    wave_misses_ = 0;
    in_wave_ = 0;
  }

  const DeviceConfig& config_;
  const LaunchDims& dims_;
  const int64_t concurrent_;
  const double dram_lines_per_cycle_;
  const double l2_lines_per_cycle_;
  const double saturation_threads_;
  KernelStats stats_;
  double total_cycles_;
  double wave_max_ = 0.0;
  // The critical (slowest) block's cost split into compute issue vs memory
  // latency, for attributing latency-bound waves to a roofline class.
  double wave_max_compute_ = 0.0;
  double wave_max_memory_ = 0.0;
  uint64_t wave_hits_ = 0;
  uint64_t wave_misses_ = 0;
  int64_t in_wave_ = 0;
};

// One step of a spin-wait: a pause hint where the CPU has one.
void CpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#endif
}

}  // namespace

// The state of a parallel launch: a ring of slots, each holding one chunk of
// consecutive blocks' recorded lines and counts. Workers claim chunks in
// order and fill chunk c into slot c % kSlots once chunk c - kSlots has been
// walked. Whoever holds the walk flag walks finished chunks strictly in chunk
// order through the L2 and the wave arithmetic; a worker that finishes a
// chunk, or waits for a slot, tries to. A chunk whose lines overflow its slot
// waits for its turn in the walk order and then walks what it has.
//
// The device keeps the ring across launches and sizes it on the calling
// thread, so pool threads allocate nothing. The walk flag, the finished
// marks, the walk cursor and the sleeper count are sequentially consistent
// atomics: a worker that finishes a chunk while another holds the flag is
// then certain that the holder sees the chunk before it lets go, and a
// worker that goes to sleep is certain to be woken by the next change.
struct LaunchRing {
  // A chunk is 8 blocks and a slot holds 4,096 lines (16 KiB), so the ring
  // is 128 KiB. Gather, scatter and the forward search record about 100
  // lines a block and fit; the elementwise kernels, the memset and the table
  // build (900 to 2,300) overflow, and their cost is the serial walk anyway.
  static constexpr int64_t kSlots = 8;
  static constexpr int64_t kChunkBlocks = 8;
  static constexpr size_t kSlotLines = 4096;
  // Spin-wait steps (pause hints, a few microseconds) before a wait sleeps.
  static constexpr int kSpins = 2000;

  // One finished block: its counts, with the hits of the lines an overflow
  // walked (`lines_walked` of them), and its `lines` pending lines, which
  // start at `first_line` of the slot's buffer.
  struct BlockRecord {
    BlockCounts counts;
    uint64_t lines_walked = 0;
    size_t first_line = 0;
    size_t lines = 0;
  };

  struct Slot {
    std::vector<uint32_t> lines;
    BlockRecord blocks[kChunkBlocks];
    int64_t num_blocks = 0;     // blocks recorded
    int64_t walked_blocks = 0;  // of them, walked by an overflow
    std::atomic<int64_t> finished_chunk{-1};
  };

  // Per launch.
  Device* device = nullptr;
  const LaunchDims* dims = nullptr;
  const FunctionRef<void(BlockCtx&)>* body = nullptr;
  WaveAccumulator* waves = nullptr;
  int64_t num_chunks = 0;
  std::atomic<int64_t> next_chunk{0};
  std::atomic<int64_t> walked_chunks{0};

  Slot slots[kSlots];
  std::atomic<bool> walking{false};
  std::atomic<int> sleepers{0};
  std::mutex mu;
  std::condition_variable wake;

  void Begin(Device* dev, const LaunchDims& launch_dims, const FunctionRef<void(BlockCtx&)>& fn,
             WaveAccumulator* acc, size_t slot_lines) {
    device = dev;
    dims = &launch_dims;
    body = &fn;
    waves = acc;
    num_chunks = (launch_dims.num_blocks + kChunkBlocks - 1) / kChunkBlocks;
    next_chunk.store(0);
    walked_chunks.store(0);
    for (Slot& slot : slots) {
      slot.lines.resize(slot_lines);
      slot.finished_chunk.store(-1);
    }
  }

  // One worker: claims chunks until none is left.
  void Work() {
    for (int64_t c = next_chunk.fetch_add(1); c < num_chunks; c = next_chunk.fetch_add(1)) {
      RunChunk(c);
    }
  }

  void RunChunk(int64_t c) {
    Await([&] { return walked_chunks.load() > c - kSlots; });
    Slot& slot = slots[c % kSlots];
    slot.num_blocks = 0;
    slot.walked_blocks = 0;
    uint32_t* const lines = slot.lines.data();
    uint32_t* cursor = lines;
    const int64_t first = c * kChunkBlocks;
    const int64_t last = std::min(first + kChunkBlocks, dims->num_blocks);
    for (int64_t b = first; b < last; ++b) {
      BlockCtx ctx(device, b, dims->num_blocks, dims->threads_per_block, cursor,
                   lines + slot.lines.size(), this, c);
      (*body)(ctx);
      BlockRecord& record = slot.blocks[slot.num_blocks++];
      record.counts = ctx.Counts();
      record.lines_walked = ctx.lines_walked_;
      record.first_line = static_cast<size_t>(ctx.block_lines_ - lines);
      record.lines = static_cast<size_t>(ctx.line_cursor_ - ctx.block_lines_);
      cursor = ctx.line_cursor_;
    }
    slot.finished_chunk.store(c);
    TryWalk();
  }

  // Walks the slot's recorded blocks from walked_blocks on. Under the flag.
  void WalkBlocks(Slot& slot) {
    CacheSim& l2 = device->l2_;
    for (; slot.walked_blocks < slot.num_blocks; ++slot.walked_blocks) {
      BlockRecord& record = slot.blocks[slot.walked_blocks];
      BlockCounts counts = record.counts;
      counts.line_hits += l2.AccessLines({slot.lines.data() + record.first_line, record.lines});
      counts.line_misses = record.lines_walked + record.lines - counts.line_hits;
      waves->AddBlock(counts);
    }
  }

  bool NextChunkFinished() {
    const int64_t c = walked_chunks.load();
    return c < num_chunks && slots[c % kSlots].finished_chunk.load() == c;
  }

  // Walks finished chunks in order while it can take the flag; true if it
  // walked any.
  bool TryWalk() {
    bool walked = false;
    while (NextChunkFinished() && !walking.exchange(true)) {
      for (int64_t c = walked_chunks.load();
           c < num_chunks && slots[c % kSlots].finished_chunk.load() == c; ++c) {
        WalkBlocks(slots[c % kSlots]);
        walked_chunks.store(c + 1);
        Notify();
        walked = true;
      }
      walking.store(false);
      Notify();
    }
    return walked;
  }

  // Called by a block whose chunk's slot is full: waits until every earlier
  // chunk is walked, then walks the chunk's finished blocks and the block's
  // own pending lines, and empties the slot.
  void Overflow(BlockCtx& ctx) {
    const int64_t chunk = ctx.chunk_;
    for (;;) {
      Await([&] { return walked_chunks.load() == chunk && !walking.load(); });
      if (!walking.exchange(true)) {
        break;
      }
    }
    Slot& slot = slots[chunk % kSlots];
    WalkBlocks(slot);
    ctx.line_hits_ += device->l2_.AccessLines({ctx.block_lines_, ctx.line_cursor_});
    ctx.lines_walked_ += static_cast<uint64_t>(ctx.line_cursor_ - ctx.block_lines_);
    walking.store(false);
    Notify();
    // The chunk's earlier blocks are walked, so the buffer restarts at its
    // beginning; the block's later lines are recorded there.
    ctx.block_lines_ = ctx.line_cursor_ = slot.lines.data();
  }

  // Returns once `done()` holds, walking whatever it can meanwhile. With
  // nothing to walk it spins for a few microseconds, since a chunk or a walk
  // usually ends sooner than a sleeping thread wakes, and then sleeps.
  template <typename Done>
  void Await(Done done) {
    while (!done()) {
      if (TryWalk()) {
        continue;
      }
      const auto can_go_on = [&] {
        return done() || (!walking.load() && NextChunkFinished());
      };
      bool ready = false;
      for (int spin = 0; spin < kSpins && !ready; ++spin) {
        CpuRelax();
        ready = can_go_on();
      }
      if (ready) {
        continue;
      }
      std::unique_lock<std::mutex> lock(mu);
      sleepers.fetch_add(1);
      wake.wait(lock, can_go_on);
      sleepers.fetch_sub(1);
    }
  }

  // Wakes the sleepers after a change that may let them go on: a chunk
  // walked, or the flag released. Taking the mutex first means a sleeper
  // that checked its condition before the change is already waiting.
  void Notify() {
    if (sleepers.load() > 0) {
      { std::lock_guard<std::mutex> lock(mu); }
      wake.notify_all();
    }
  }
};

void BlockCtx::WalkPendingLines() {
  if (ring_ != nullptr) {
    ring_->Overflow(*this);
    return;
  }
  line_hits_ += device_->l2_.AccessLines({block_lines_, line_cursor_});
  lines_walked_ += static_cast<uint64_t>(line_cursor_ - block_lines_);
  line_cursor_ = block_lines_;
}

Device::Device(const DeviceConfig& config) : Device(config, /*arena_base=*/0) {
  memory_ = std::make_unique<DeviceMemory>();
  arena_base_ = memory_->base();
}

Device::Device(const DeviceConfig& config, uintptr_t arena_base)
    : config_(config),
      arena_base_(arena_base),
      l2_(config.l2_bytes, config.l2_ways, config.line_bytes),
      serial_lines_(kSerialLines) {
  // CacheSim's constructor already insists line_bytes is a power of two.
  line_shift_ = std::countr_zero(static_cast<unsigned>(config.line_bytes));
  // The L2 stores 32-bit line tags with UINT32_MAX as its empty marker, so
  // every line of the address space must number below it. AccessLines
  // range-CHECKs each access against the arena, which makes this one check
  // cover them all.
  MINUET_CHECK_LE(DeviceMemory::kReserveBytes >> line_shift_, uint64_t{CacheSim::kEmpty})
      << "line_bytes " << config.line_bytes << " gives more lines than 32-bit L2 tags hold";
}

Device::Device(Device&&) noexcept = default;
Device& Device::operator=(Device&&) noexcept = default;
Device::~Device() = default;

Device Device::Fork() const { return Device(config_, arena_base_); }

DeviceMemory* Device::memory() {
  MINUET_CHECK(memory_ != nullptr) << "a forked device owns no memory to allocate from";
  return memory_.get();
}

int64_t Device::ConcurrentBlocks(const LaunchDims& dims) const {
  MINUET_CHECK_GT(dims.threads_per_block, 0);
  int64_t by_threads = config_.max_threads_per_sm / dims.threads_per_block;
  int64_t by_blocks = config_.max_blocks_per_sm;
  int64_t by_shared = dims.shared_bytes_per_block == 0
                          ? by_blocks
                          : static_cast<int64_t>(config_.shared_mem_per_sm /
                                                 dims.shared_bytes_per_block);
  int64_t per_sm = std::max<int64_t>(1, std::min({by_threads, by_blocks, by_shared}));
  return per_sm * config_.num_sms;
}

int Device::LaunchWorkers(const LaunchDims& dims) const {
  if (!dims.independent_blocks || dims.num_blocks < parallel_min_blocks_ ||
      InsideParallelFor()) {
    return 0;
  }
  if (parallel_workers_ > 0) {
    return parallel_workers_;
  }
  const int workers = ParallelWorkers((dims.num_blocks + LaunchRing::kChunkBlocks - 1) /
                                      LaunchRing::kChunkBlocks);
  return workers > 1 ? workers : 0;
}

KernelStats Device::Launch(KernelId kernel, const LaunchDims& dims,
                           FunctionRef<void(BlockCtx&)> body) {
  MINUET_CHECK_GE(dims.num_blocks, 0);
  const std::string& name = kernel.name();
  trace::Tracer* tracer = trace::Tracer::Get();
  const int64_t span_id = tracer != nullptr ? tracer->OpenSpan(name, "kernel") : -1;
  WaveAccumulator waves(config_, dims, ConcurrentBlocks(dims));
  const int workers = LaunchWorkers(dims);
  if (workers > 0) {
    if (ring_ == nullptr) {
      ring_ = std::make_unique<LaunchRing>();
    }
    ring_->Begin(this, dims, body, &waves,
                 ring_slot_lines_ != 0 ? ring_slot_lines_ : LaunchRing::kSlotLines);
    ParallelFor(workers, [&](int, int64_t) { ring_->Work(); });
    // Every chunk is finished; walk what the workers left.
    ring_->TryWalk();
    MINUET_CHECK_EQ(ring_->walked_chunks.load(), ring_->num_chunks);
  } else {
    uint32_t* const lines = serial_lines_.data();
    for (int64_t b = 0; b < dims.num_blocks; ++b) {
      BlockCtx ctx(this, b, dims.num_blocks, dims.threads_per_block, lines,
                   lines + serial_lines_.size(), /*ring=*/nullptr, /*chunk=*/0);
      body(ctx);
      ctx.WalkPendingLines();
      BlockCounts counts = ctx.Counts();
      counts.line_misses = ctx.lines_walked_ - ctx.line_hits_;
      waves.AddBlock(counts);
    }
  }

  KernelStats stats = waves.Finish(name);
  totals_ += stats;
  Record(kernel, stats);
  if (tracer != nullptr) {
    EmitKernelSpan(tracer, span_id, stats, config_);
  }
  return stats;
}

KernelStats Device::LaunchGemm(KernelId kernel, int64_t m, int64_t n, int64_t k,
                               int64_t batch, double efficiency, double bytes_per_element,
                               FunctionRef<void()> payload) {
  MINUET_CHECK_GE(m, 0);
  MINUET_CHECK_GE(n, 0);
  MINUET_CHECK_GE(k, 0);
  MINUET_CHECK_GE(batch, 1);
  MINUET_CHECK_GT(efficiency, 0.0);
  const std::string& name = kernel.name();
  trace::Tracer* tracer = trace::Tracer::Get();
  const int64_t span_id = tracer != nullptr ? tracer->OpenSpan(name, "kernel") : -1;
  KernelStats stats;
  stats.name = name;
  stats.num_launches = 1;
  stats.num_blocks = batch;

  double flops = 2.0 * static_cast<double>(m) * static_cast<double>(n) * static_cast<double>(k) *
                 static_cast<double>(batch);
  // Small-dimension utilisation penalty: a GEMM with few rows cannot fill the
  // device, which is exactly why naive per-offset GEMMs lose (Figure 5a) and
  // why padding rows are not free.
  double util = (static_cast<double>(m) / (static_cast<double>(m) + 256.0)) *
                (static_cast<double>(n) / (static_cast<double>(n) + 8.0)) *
                (static_cast<double>(k) / (static_cast<double>(k) + 8.0));
  util = std::max(util, 1e-3);
  double flop_cycles = flops / (config_.flops_per_cycle() * util * efficiency);

  double bytes = bytes_per_element * static_cast<double>(batch) *
                 (static_cast<double>(m) * static_cast<double>(k) +
                  static_cast<double>(k) * static_cast<double>(n) +
                  2.0 * static_cast<double>(m) * static_cast<double>(n));
  double bytes_per_cycle = config_.dram_gbps / config_.clock_ghz;
  double mem_cycles = bytes / bytes_per_cycle;

  stats.cycles = config_.launch_overhead_cycles + std::max(flop_cycles, mem_cycles);
  stats.millis = config_.CyclesToMillis(stats.cycles);
  stats.global_bytes_read = static_cast<uint64_t>(bytes / 2);
  stats.global_bytes_written = static_cast<uint64_t>(bytes / 2);
  // Attribution: the analytic roofline already is a max(compute, memory), so
  // the charged term names the bound. GEMMs bypass the L2 sim — operand
  // traffic is DRAM traffic. The FLOPs count as lane ops so arithmetic
  // intensity is meaningful, and the small-dimension utilisation stands in
  // for occupancy (block_slots chosen so Occupancy() ~= util).
  stats.launch_cycles = config_.launch_overhead_cycles;
  if (flop_cycles >= mem_cycles) {
    stats.compute_cycles = flop_cycles;
  } else {
    stats.dram_cycles = mem_cycles;
  }
  stats.dram_bytes = static_cast<uint64_t>(bytes);
  stats.lane_ops = static_cast<uint64_t>(flops);
  stats.num_waves = 1;
  stats.block_slots =
      std::max<int64_t>(batch, static_cast<int64_t>(static_cast<double>(batch) / util));
  totals_ += stats;
  Record(kernel, stats);
  payload();
  if (tracer != nullptr) {
    EmitKernelSpan(tracer, span_id, stats, config_);
  }
  return stats;
}

void Device::Record(KernelId kernel, const KernelStats& stats) {
  const size_t index = kernel.index();
  if (index >= aggregates_by_id_.size()) {
    // Grow to the full registry: other call sites may have interned ids
    // since the last launch, and resizing once for all of them beats
    // resizing per newly-seen kernel.
    aggregates_by_id_.resize(KernelId::Count());
  }
  KernelStats& aggregate = aggregates_by_id_[index];
  if (aggregate.name.empty()) {
    aggregate.name = kernel.name();
  }
  aggregate += stats;
  aggregates_view_dirty_ = true;
}

const std::map<std::string, KernelStats>& Device::kernel_aggregates() const {
  if (aggregates_view_dirty_) {
    aggregates_view_.clear();
    for (const KernelStats& stats : aggregates_by_id_) {
      if (!stats.name.empty()) {
        aggregates_view_.emplace(stats.name, stats);
      }
    }
    aggregates_view_dirty_ = false;
  }
  return aggregates_view_;
}

void Device::ResetTotals() {
  totals_ = KernelStats{};
  aggregates_by_id_.clear();
  aggregates_view_.clear();
  aggregates_view_dirty_ = false;
}

void Device::PublishMetrics(trace::MetricsRegistry& registry, const std::string& prefix) const {
  auto publish = [&registry, this](const std::string& key_prefix, const KernelStats& stats) {
    registry.GetCounter(key_prefix + "/launches").Set(stats.num_launches);
    registry.GetCounter(key_prefix + "/blocks").Set(stats.num_blocks);
    registry.GetGauge(key_prefix + "/cycles").Set(stats.cycles);
    registry.GetGauge(key_prefix + "/millis").Set(stats.millis);
    registry.GetCounter(key_prefix + "/l2_hits").Set(static_cast<int64_t>(stats.l2_hits));
    registry.GetCounter(key_prefix + "/l2_misses").Set(static_cast<int64_t>(stats.l2_misses));
    registry.GetGauge(key_prefix + "/l2_hit_ratio").Set(stats.L2HitRatio());
    registry.GetCounter(key_prefix + "/bytes_read")
        .Set(static_cast<int64_t>(stats.global_bytes_read));
    registry.GetCounter(key_prefix + "/bytes_written")
        .Set(static_cast<int64_t>(stats.global_bytes_written));
    registry.GetCounter(key_prefix + "/dram_bytes").Set(static_cast<int64_t>(stats.dram_bytes));
    registry.GetCounter(key_prefix + "/waves").Set(stats.num_waves);
    registry.GetGauge(key_prefix + "/occupancy").Set(stats.Occupancy());
    registry.GetGauge(key_prefix + "/dram_bw_util").Set(stats.DramBandwidthUtilization(config_));
    registry.GetGauge(key_prefix + "/arith_intensity").Set(stats.ArithmeticIntensity());
    registry.GetLabel(key_prefix + "/roofline").Set(RooflineClassName(stats.Roofline()));
  };
  publish(prefix + "/total", totals_);
  for (const auto& [name, stats] : kernel_aggregates()) {
    publish(prefix + "/kernel/" + name, stats);
  }
  // The config peaks the derived ratios were computed against, so a consumer
  // (minuet_prof, the regression gate) can sanity-check them and label the
  // report without guessing the device.
  registry.GetLabel(prefix + "/config/name").Set(config_.name);
  registry.GetGauge(prefix + "/config/clock_ghz").Set(config_.clock_ghz);
  registry.GetGauge(prefix + "/config/dram_gbps").Set(config_.dram_gbps);
  registry.GetGauge(prefix + "/config/gemm_tflops").Set(config_.gemm_tflops);
  registry.GetGauge(prefix + "/config/launch_overhead_cycles")
      .Set(config_.launch_overhead_cycles);
  registry.GetCounter(prefix + "/config/num_sms").Set(config_.num_sms);
  registry.GetCounter(prefix + "/config/l2_bytes").Set(static_cast<int64_t>(config_.l2_bytes));
}

}  // namespace minuet
