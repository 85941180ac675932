// DeviceMemory: placement policy (best fit, splitting, coalescing, lowest
// address on ties), the device-address invariant (stats depend only on the
// device allocation sequence, never on the host heap), and the line
// accounting over device addresses, checked against a per-byte reference.
#include "src/gpusim/device_memory.h"

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "src/gpusim/device.h"
#include "src/gpusim/device_config.h"

namespace minuet {
namespace {

uint64_t Offset(const DeviceMemory& memory, const void* ptr) {
  return reinterpret_cast<uintptr_t>(ptr) - memory.base();
}

TEST(DeviceMemoryTest, PlacesAtGranularityFromTheBase) {
  DeviceMemory memory;
  void* a = memory.Allocate(1);
  void* b = memory.Allocate(300);
  void* c = memory.Allocate(256);
  EXPECT_EQ(Offset(memory, a), 0u);
  EXPECT_EQ(Offset(memory, b), 256u);
  EXPECT_EQ(Offset(memory, c), 768u);
  EXPECT_EQ(memory.bytes_in_use(), 1024u);
  EXPECT_EQ(memory.high_water(), 1024u);
  memory.Deallocate(a, 1);
  memory.Deallocate(b, 300);
  memory.Deallocate(c, 256);
  EXPECT_EQ(memory.bytes_in_use(), 0u);
}

TEST(DeviceMemoryTest, BestFitPrefersSmallestRangeThenLowestAddress) {
  DeviceMemory memory;
  // Layout: [A 1K][x 256][B 512][x 256][C 512][x 256]; then free A, B, C.
  void* a = memory.Allocate(1024);
  void* x1 = memory.Allocate(256);
  void* b = memory.Allocate(512);
  void* x2 = memory.Allocate(256);
  void* c = memory.Allocate(512);
  void* x3 = memory.Allocate(256);
  memory.Deallocate(a, 1024);
  memory.Deallocate(b, 512);
  memory.Deallocate(c, 512);
  // 512 fits B and C exactly: the lower address (B) wins the tie.
  void* d = memory.Allocate(512);
  EXPECT_EQ(d, b);
  // 300 B rounds to 512: C is the smallest fit, ahead of the larger A.
  void* e = memory.Allocate(300);
  EXPECT_EQ(e, c);
  // 256 B splits A and takes its low end.
  void* f = memory.Allocate(256);
  EXPECT_EQ(f, a);
  void* g = memory.Allocate(768);
  EXPECT_EQ(Offset(memory, g), 256u);  // the rest of A, exactly
  EXPECT_EQ(memory.high_water(), 2816u);  // nothing went past x3
  const std::vector<std::pair<void*, size_t>> live = {{x1, 256}, {x2, 256}, {x3, 256}, {d, 512},
                                                      {e, 300},  {f, 256},  {g, 768}};
  for (auto [p, n] : live) {
    memory.Deallocate(p, n);
  }
  EXPECT_EQ(memory.bytes_in_use(), 0u);
}

TEST(DeviceMemoryTest, FreedNeighboursCoalesceAndTheTopComesDown) {
  DeviceMemory memory;
  void* a = memory.Allocate(256);
  void* b = memory.Allocate(256);
  void* c = memory.Allocate(256);
  void* d = memory.Allocate(256);
  memory.Deallocate(a, 256);
  memory.Deallocate(c, 256);
  // Freeing b joins a and c into one 768-byte range at offset 0.
  memory.Deallocate(b, 256);
  void* e = memory.Allocate(768);
  EXPECT_EQ(Offset(memory, e), 0u);
  memory.Deallocate(e, 768);
  // Freeing the topmost buffer lowers the top over the coalesced range too:
  // the next allocation starts from the base again.
  memory.Deallocate(d, 256);
  void* f = memory.Allocate(1024);
  EXPECT_EQ(Offset(memory, f), 0u);
  EXPECT_EQ(memory.high_water(), 1024u);
  memory.Deallocate(f, 1024);
}

TEST(DeviceMemoryTest, AllocatorTravelsWithTheData) {
  DeviceMemory memory;
  DeviceVector<uint64_t> v(100, 7, &memory);
  DeviceVector<uint64_t> copy = v;
  DeviceVector<uint64_t> assigned;
  assigned = v;
  EXPECT_EQ(copy.get_allocator().memory(), &memory);
  EXPECT_EQ(assigned.get_allocator().memory(), &memory);
  EXPECT_LT(Offset(memory, copy.data()), memory.high_water());
  std::vector<uint64_t> host = {1, 2, 3};
  DeviceVector<uint64_t> uploaded = ToDevice(&memory, host);
  EXPECT_EQ(uploaded.get_allocator().memory(), &memory);
  EXPECT_EQ(uploaded[2], 3u);
  DeviceVector<uint64_t> on_host(4);
  EXPECT_EQ(on_host.get_allocator().memory(), nullptr);
}

DeviceConfig SmallDevice() {
  DeviceConfig c = MakeRtx3090();
  c.num_sms = 2;
  c.l2_bytes = 64 << 10;  // 64 KiB / 16 ways / 128 B -> 32 sets
  c.launch_overhead_cycles = 100.0;
  return c;
}

// A fixed program: allocate three buffers, free the middle one, allocate a
// fourth into the hole, then run a strided kernel over all of them. Returns
// the device offsets and the kernel's stats.
struct ProgramResult {
  std::vector<uint64_t> offsets;
  KernelStats stats;
};

ProgramResult RunProgram(Device& device) {
  ProgramResult out;
  DeviceVector<float> a(10000, 1.0f, device.memory());
  auto b = std::make_unique<DeviceVector<uint32_t>>(3000, 2u, device.memory());
  DeviceVector<uint64_t> c(777, 3u, device.memory());
  b.reset();
  DeviceVector<uint16_t> d(2500, 4u, device.memory());
  for (const void* p : {static_cast<const void*>(a.data()), static_cast<const void*>(c.data()),
                        static_cast<const void*>(d.data())}) {
    out.offsets.push_back(Offset(*device.memory(), p));
  }
  out.stats = device.Launch("test/program", LaunchDims{8, 64, 0}, [&](BlockCtx& ctx) {
    for (size_t i = static_cast<size_t>(ctx.block_index()); i < a.size(); i += 37) {
      ctx.GlobalRead(&a[i], sizeof(float) * 3);
      ctx.GlobalWrite(&d[i % d.size()], sizeof(uint16_t));
      ctx.GlobalRead(&c[(i * 5) % c.size()], sizeof(uint64_t));
    }
  });
  return out;
}

TEST(DeviceMemoryTest, StatsIndependentOfHostHeap) {
  auto first = std::make_unique<Device>(SmallDevice());
  ProgramResult a = RunProgram(*first);
  // Host allocations between the two devices move every later heap address;
  // they must move no device address and no simulated statistic.
  std::vector<std::unique_ptr<char[]>> ballast;
  for (size_t bytes : {16, 3000, 1 << 20, 48, 200000}) {
    ballast.push_back(std::make_unique<char[]>(bytes));
  }
  auto second = std::make_unique<Device>(SmallDevice());
  ProgramResult b = RunProgram(*second);
  EXPECT_EQ(a.offsets, b.offsets);
  EXPECT_EQ(a.stats.l2_hits, b.stats.l2_hits);
  EXPECT_EQ(a.stats.l2_misses, b.stats.l2_misses);
  EXPECT_EQ(a.stats.cycles, b.stats.cycles);
  EXPECT_EQ(a.stats.dram_bytes, b.stats.dram_bytes);
  EXPECT_GT(a.stats.l2_hits, 0u);
  EXPECT_GT(a.stats.l2_misses, 0u);
}

TEST(DeviceMemoryDeathTest, GlobalReadOfHostMemoryDies) {
  EXPECT_DEATH(
      {
        Device device(SmallDevice());
        std::vector<float> host(64);
        device.Launch("test/host_read", LaunchDims{1, 32, 0},
                      [&](BlockCtx& ctx) { ctx.GlobalRead(host.data(), 64); });
      },
      "outside device memory");
}

// Reference accounting with no fast paths: walks every byte, forms its line
// from the device address, dedups consecutive bytes of one line, then runs
// the documented 128-line direct-mapped read L1 and a modulo-set LRU L2.
class ReferenceAccounting {
 public:
  ReferenceAccounting(uintptr_t base, size_t l2_bytes, int l2_ways, int line_bytes)
      : base_(base),
        line_bytes_(static_cast<uint64_t>(line_bytes)),
        num_sets_(l2_bytes / static_cast<size_t>(line_bytes) / static_cast<size_t>(l2_ways)),
        ways_(l2_ways),
        storage_(num_sets_ * static_cast<size_t>(l2_ways)) {
    l1_tags_.fill(UINT64_MAX);
  }

  void Touch(const void* addr, size_t bytes, bool is_read) {
    const uint64_t start = reinterpret_cast<uintptr_t>(addr) - base_;
    uint64_t prev_line = ~uint64_t{0};
    for (uint64_t byte = start; byte < start + bytes; ++byte) {
      const uint64_t line = byte / line_bytes_;
      if (line == prev_line) {
        continue;
      }
      prev_line = line;
      ++lines_;
      if (is_read) {
        const size_t slot = static_cast<size_t>(line % l1_tags_.size());
        if (l1_tags_[slot] == line) {
          continue;  // L1 hit: never reaches the L2
        }
        l1_tags_[slot] = line;
      }
      AccessL2(line);
    }
  }

  uint64_t lines() const { return lines_; }
  uint64_t l2_hits() const { return hits_; }
  uint64_t l2_misses() const { return misses_; }

 private:
  struct Way {
    uint64_t tag = 0;
    uint64_t stamp = 0;
    bool valid = false;
  };

  void AccessL2(uint64_t line) {
    const size_t set = static_cast<size_t>((line * 0x9e3779b97f4a7c15ULL) % num_sets_);
    Way* row = &storage_[set * static_cast<size_t>(ways_)];
    ++clock_;
    int victim = 0;
    uint64_t oldest = UINT64_MAX;
    for (int w = 0; w < ways_; ++w) {
      if (row[w].valid && row[w].tag == line) {
        row[w].stamp = clock_;
        ++hits_;
        return;
      }
      const uint64_t stamp = row[w].valid ? row[w].stamp : 0;
      if (stamp < oldest) {
        oldest = stamp;
        victim = w;
      }
    }
    row[victim] = Way{line, clock_, true};
    ++misses_;
  }

  uintptr_t base_;
  uint64_t line_bytes_;
  std::array<uint64_t, 128> l1_tags_;  // kL1Lines, direct mapped
  size_t num_sets_;
  int ways_;
  std::vector<Way> storage_;
  uint64_t clock_ = 0;
  uint64_t lines_ = 0;
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
};

TEST(DeviceMemoryTest, StraddlingAccessCountsEveryLineItCovers) {
  Device device(SmallDevice());
  DeviceVector<char> buffer(4096, 0, device.memory());
  // 130 bytes starting 1 byte before a line boundary cover three lines.
  ReferenceAccounting ref(device.memory()->base(), device.config().l2_bytes,
                          device.config().l2_ways, device.config().line_bytes);
  ref.Touch(buffer.data() + 127, 130, /*is_read=*/false);
  EXPECT_EQ(ref.lines(), 3u);
  KernelStats stats = device.Launch("test/straddle", LaunchDims{1, 32, 0}, [&](BlockCtx& ctx) {
    ctx.GlobalWrite(buffer.data() + 127, 130);
  });
  EXPECT_EQ(stats.l2_hits + stats.l2_misses, ref.lines());
  EXPECT_EQ(stats.l2_misses, ref.l2_misses());
}

TEST(DeviceMemoryTest, AccountingMatchesPerByteReference) {
  // A pseudorandom pattern of reads and writes of varying sizes and
  // alignments, replayed through one block (a single L1, like the reference).
  // SmallDevice's L2 has a power-of-two set count, so the device runs the
  // mask path while the reference runs the modulo.
  struct Access {
    uint32_t offset;
    uint16_t bytes;
    bool is_read;
  };
  const size_t region = 256 << 10;
  Device device(SmallDevice());
  DeviceVector<char> backing(region + 512, 0, device.memory());
  std::vector<Access> pattern;
  uint64_t state = 0x123456789ABCDEFull;
  for (int i = 0; i < 6000; ++i) {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    Access a;
    a.offset = static_cast<uint32_t>(state % region);
    a.bytes = static_cast<uint16_t>(1 + (state >> 32) % 256);
    a.is_read = (state & 12) != 0;  // ~3/4 reads
    pattern.push_back(a);
  }
  KernelStats stats = device.Launch("test/golden_replay", LaunchDims{1, 64, 0}, [&](BlockCtx& ctx) {
    for (const Access& a : pattern) {
      if (a.is_read) {
        ctx.GlobalRead(backing.data() + a.offset, a.bytes);
      } else {
        ctx.GlobalWrite(backing.data() + a.offset, a.bytes);
      }
    }
  });
  ReferenceAccounting ref(device.memory()->base(), device.config().l2_bytes,
                          device.config().l2_ways, device.config().line_bytes);
  for (const Access& a : pattern) {
    ref.Touch(backing.data() + a.offset, a.bytes, a.is_read);
  }
  EXPECT_EQ(stats.l2_hits, ref.l2_hits());
  EXPECT_EQ(stats.l2_misses, ref.l2_misses());
  EXPECT_GT(stats.l2_hits, 0u);
  EXPECT_GT(stats.l2_misses, 0u);
}

}  // namespace
}  // namespace minuet
