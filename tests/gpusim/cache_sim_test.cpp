#include "src/gpusim/cache_sim.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "src/gpusim/device.h"
#include "src/gpusim/device_config.h"

namespace minuet {

struct CacheSimPeer {
  // Sends 16-way updates down the way search and shift, as on a host
  // without AVX2.
  static void UseGenericPath(CacheSim& cache) { cache.sixteen_way_avx2_ = false; }
  static bool UsesAvx2(const CacheSim& cache) { return cache.sixteen_way_avx2_; }
  static std::vector<uint32_t> Tags(const CacheSim& cache) {
    return {cache.tags_, cache.tags_ + cache.num_sets_ * static_cast<size_t>(cache.ways_)};
  }
};

namespace {

// Straight-line reference for the golden-sequence tests below: the documented
// model (multiplicative tag mix, modulo set selection, LRU by stamp) with no
// fast paths. CacheSim's recency-ordered sets, its power-of-two mask path and
// its vector set compare must reproduce its hit/miss decisions access for
// access.
class ReferenceLru {
 public:
  ReferenceLru(size_t capacity_bytes, int ways, int line_bytes)
      : num_sets_(capacity_bytes / static_cast<size_t>(line_bytes) /
                  static_cast<size_t>(ways)),
        ways_(ways),
        storage_(num_sets_ * static_cast<size_t>(ways)) {}

  bool AccessLine(uint64_t line) {
    const size_t set =
        static_cast<size_t>((line * 0x9e3779b97f4a7c15ULL) % num_sets_);
    Way* base = &storage_[set * static_cast<size_t>(ways_)];
    ++clock_;
    int victim = 0;
    uint64_t oldest = UINT64_MAX;
    for (int w = 0; w < ways_; ++w) {
      if (base[w].valid && base[w].tag == line) {
        base[w].stamp = clock_;
        return true;
      }
      const uint64_t stamp = base[w].valid ? base[w].stamp : 0;
      if (stamp < oldest) {
        oldest = stamp;
        victim = w;
      }
    }
    base[victim] = Way{line, clock_, true};
    return false;
  }

  void Flush() { std::fill(storage_.begin(), storage_.end(), Way{}); }

 private:
  struct Way {
    uint64_t tag = 0;
    uint64_t stamp = 0;
    bool valid = false;
  };
  size_t num_sets_;
  int ways_;
  std::vector<Way> storage_;
  uint64_t clock_ = 0;
};

// A deterministic access recording: pseudorandom line touches with enough
// locality (a small working window revisited between jumps) that both hits
// and misses occur in quantity.
std::vector<uint64_t> RecordedLineSequence(size_t count, uint64_t line_space) {
  std::vector<uint64_t> lines;
  lines.reserve(count);
  uint64_t state = 0x2545F4914F6CDD1Dull;
  uint64_t window = 0;
  for (size_t i = 0; i < count; ++i) {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    if (i % 64 == 0) {
      window = state % line_space;
    }
    // Three of four touches stay near the window base; the rest jump.
    const uint64_t line =
        (state & 3) != 0 ? (window + (state % 97)) % line_space : state % line_space;
    lines.push_back(line);
  }
  return lines;
}

// Replays `lines` through both models, asserting identical hit/miss
// decisions; with `flush_at` < lines.size() both are flushed before that
// access.
void ExpectMatchesReference(CacheSim& cache, ReferenceLru& ref,
                            const std::vector<uint64_t>& lines,
                            size_t flush_at = SIZE_MAX) {
  for (size_t i = 0; i < lines.size(); ++i) {
    if (i == flush_at) {
      cache.Flush();
      ref.Flush();
    }
    ASSERT_EQ(cache.AccessLine(lines[i]), ref.AccessLine(lines[i]))
        << "diverged at access " << i << " (line " << lines[i] << ")";
  }
}

TEST(CacheSimTest, FirstAccessMissesSecondHits) {
  CacheSim cache(1 << 20, 16, 128);
  EXPECT_FALSE(cache.Access(0));
  EXPECT_TRUE(cache.Access(0));
  EXPECT_TRUE(cache.Access(64));  // same 128B line
  EXPECT_FALSE(cache.Access(128));
  EXPECT_EQ(cache.hits(), 2u);
  EXPECT_EQ(cache.misses(), 2u);
}

TEST(CacheSimTest, HitRatio) {
  CacheSim cache(1 << 20, 16, 128);
  EXPECT_EQ(cache.HitRatio(), 0.0);
  cache.Access(0);
  cache.Access(0);
  cache.Access(0);
  cache.Access(0);
  EXPECT_DOUBLE_EQ(cache.HitRatio(), 0.75);
}

TEST(CacheSimTest, WorkingSetWithinCapacityAlwaysHitsOnSecondPass) {
  // 64 KiB cache, 16 KiB working set: after one pass everything is resident.
  CacheSim cache(64 << 10, 16, 128);
  for (int pass = 0; pass < 2; ++pass) {
    for (uint64_t addr = 0; addr < (16 << 10); addr += 128) {
      cache.Access(addr);
    }
  }
  EXPECT_EQ(cache.misses(), 128u);  // only the first pass
  EXPECT_EQ(cache.hits(), 128u);
}

TEST(CacheSimTest, WorkingSetBeyondCapacityThrashes) {
  // Direct-ish scan of 4x the capacity twice: second pass still misses
  // (LRU on a streaming pattern keeps evicting what the next pass needs).
  CacheSim cache(16 << 10, 4, 128);
  size_t span = 64 << 10;
  for (int pass = 0; pass < 2; ++pass) {
    for (uint64_t addr = 0; addr < span; addr += 128) {
      cache.Access(addr);
    }
  }
  EXPECT_LT(cache.HitRatio(), 0.05);
}

TEST(CacheSimTest, LruEvictsOldest) {
  // 1 set x 2 ways x 128B lines = 256 bytes. Note set selection mixes the
  // tag, but with exactly one set every line maps there.
  CacheSim cache(256, 2, 128);
  EXPECT_EQ(cache.num_sets(), 1u);
  EXPECT_FALSE(cache.Access(0));      // A miss -> {A}
  EXPECT_FALSE(cache.Access(128));    // B miss -> {A, B}
  EXPECT_TRUE(cache.Access(0));       // A hit  -> B is LRU
  EXPECT_FALSE(cache.Access(256));    // C miss, evicts B -> {A, C}
  EXPECT_TRUE(cache.Access(0));       // A still resident
  EXPECT_FALSE(cache.Access(128));    // B was evicted
}

TEST(CacheSimTest, FlushClearsEverything) {
  CacheSim cache(1 << 16, 8, 128);
  cache.Access(0);
  cache.Access(0);
  cache.Flush();
  EXPECT_EQ(cache.hits(), 0u);
  EXPECT_EQ(cache.misses(), 0u);
  EXPECT_FALSE(cache.Access(0));
}

// Golden sequence for a preset's L2 geometry. The line space is twice the
// cache's capacity, so sets overflow and LRU picks victims.
void ExpectPresetMatchesReference(const DeviceConfig& config, size_t expected_sets) {
  SCOPED_TRACE(config.name);
  CacheSim cache(config.l2_bytes, config.l2_ways, config.line_bytes);
  ASSERT_EQ(cache.num_sets(), expected_sets);
  ReferenceLru ref(config.l2_bytes, config.l2_ways, config.line_bytes);
  const size_t capacity_lines = expected_sets * static_cast<size_t>(config.l2_ways);
  ExpectMatchesReference(cache, ref,
                         RecordedLineSequence(4 * capacity_lines, 2 * capacity_lines));
  EXPECT_GT(cache.hits(), 0u);
  EXPECT_GT(cache.misses(), capacity_lines);  // more misses than ways: evictions
}

TEST(CacheSimTest, MaskFastPathMatchesModuloReferenceSequence) {
  // The RTX 2070 Super's 4 MiB / 16 ways / 128 B lines = 2048 sets: a power
  // of two, so CacheSim takes the mask path. The reference always computes
  // the modulo. Every individual hit/miss decision must agree — the
  // golden-sequence guarantee the host-performance work rests on.
  ExpectPresetMatchesReference(MakeRtx2070Super(), 2048);
}

TEST(CacheSimTest, ModuloPathMatchesReferenceSequence) {
  // The other presets' set counts are not powers of two and stay on the
  // modulo path; they must agree with the reference as well.
  ExpectPresetMatchesReference(MakeRtx2080Ti(), 2816);
  ExpectPresetMatchesReference(MakeRtx3090(), 3072);
  ExpectPresetMatchesReference(MakeA100(), 20480);
}

TEST(CacheSimTest, LowAssociativityWithFlushMatchesReferenceSequence) {
  // 2-, 4- and 8-way sets over a power-of-two (64 KiB) and a modulo (48 KiB)
  // set count, flushed halfway: the recency order restarts from empty ways
  // exactly as the stamp model's valid bits do.
  for (size_t capacity : {size_t{64} << 10, size_t{48} << 10}) {
    for (int ways : {2, 4, 8}) {
      SCOPED_TRACE(testing::Message() << capacity << " bytes, " << ways << " ways");
      CacheSim cache(capacity, ways, 128);
      ReferenceLru ref(capacity, ways, 128);
      const std::vector<uint64_t> lines = RecordedLineSequence(40000, 2000);
      ExpectMatchesReference(cache, ref, lines, /*flush_at=*/lines.size() / 2);
      EXPECT_GT(cache.hits(), 0u);
      EXPECT_GT(cache.misses(), capacity / 128);
    }
  }
}

TEST(CacheSimTest, EveryAssociativityMatchesReferenceSequence) {
  // The vector set compare (ways a multiple of 4) and the scalar find (the
  // rest), over mask-path (64) and modulo-path (48, 44) set counts, flushed
  // halfway.
  for (size_t sets : {size_t{64}, size_t{48}, size_t{44}}) {
    for (int ways : {1, 2, 4, 6, 8, 12, 16, 32}) {
      SCOPED_TRACE(testing::Message() << sets << " sets, " << ways << " ways");
      const size_t capacity = sets * static_cast<size_t>(ways) * 128;
      CacheSim cache(capacity, ways, 128);
      ASSERT_EQ(cache.num_sets(), sets);
      ReferenceLru ref(capacity, ways, 128);
      const size_t capacity_lines = sets * static_cast<size_t>(ways);
      const std::vector<uint64_t> lines =
          RecordedLineSequence(8 * capacity_lines + 4000, 2 * capacity_lines + 64);
      ExpectMatchesReference(cache, ref, lines, /*flush_at=*/lines.size() / 2);
      EXPECT_GT(cache.hits(), 0u);
      EXPECT_GT(cache.misses(), capacity_lines / 2);
    }
  }
}

TEST(CacheSimTest, SixteenWayPathsMakeTheSameUpdates) {
  // The AVX2 update (when this host runs it) and the generic one, access for
  // access and tag for tag, on every preset geometry: one set filled, then
  // hit at every recency position and missed; then a recorded sequence.
  for (const DeviceConfig& config : AllDeviceConfigs()) {
    SCOPED_TRACE(config.name);
    ASSERT_EQ(config.l2_ways, 16);
    CacheSim fast(config.l2_bytes, config.l2_ways, config.line_bytes);
    CacheSim generic(config.l2_bytes, config.l2_ways, config.line_bytes);
    CacheSimPeer::UseGenericPath(generic);
    EXPECT_FALSE(CacheSimPeer::UsesAvx2(generic));
    std::vector<uint64_t> lines;
    const uint64_t sets = fast.num_sets();
    for (uint64_t line = 0; lines.size() < 17; line += 1) {
      if ((line * 0x9e3779b97f4a7c15ULL) % sets == 0) {  // set 0, as ReferenceLru maps it
        lines.push_back(line);
      }
    }
    std::vector<uint64_t> sequence(lines.begin(), lines.begin() + 16);
    for (int way = 0; way < 16; ++way) {
      sequence.push_back(lines[static_cast<size_t>(15 - way)]);
    }
    sequence.push_back(lines[16]);
    const std::vector<uint64_t> recorded = RecordedLineSequence(
        200000, 2 * config.l2_bytes / static_cast<size_t>(config.line_bytes));
    sequence.insert(sequence.end(), recorded.begin(), recorded.end());
    for (size_t i = 0; i < sequence.size(); ++i) {
      if (i == 33) {
        ASSERT_EQ(fast.hits(), 16u) << "one hit at each of the 16 recency positions";
      }
      ASSERT_EQ(fast.AccessLine(sequence[i]), generic.AccessLine(sequence[i]))
          << "diverged at access " << i;
    }
    EXPECT_EQ(CacheSimPeer::Tags(fast), CacheSimPeer::Tags(generic));
    EXPECT_GT(fast.hits(), 0u);
    EXPECT_GT(fast.misses(), 0u);
  }
}

// Replays `lines` through AccessLines in spans whose lengths cycle through
// `span_lengths`, and through the reference one access at a time: each span
// must return the reference's hit count, and the counters must add up. With
// `flush_at` < lines.size() both are flushed before the span holding that
// access.
void ExpectSpansMatchReference(CacheSim& cache, ReferenceLru& ref,
                               const std::vector<uint64_t>& lines,
                               const std::vector<size_t>& span_lengths,
                               size_t flush_at = SIZE_MAX) {
  const std::vector<uint32_t> tags(lines.begin(), lines.end());
  uint64_t hits = 0;
  uint64_t accesses = 0;
  bool flushed = false;
  size_t begin = 0;
  for (size_t span = 0; begin < tags.size(); ++span) {
    const size_t end = std::min(tags.size(), begin + span_lengths[span % span_lengths.size()]);
    if (!flushed && end > flush_at) {
      cache.Flush();
      ref.Flush();
      hits = 0;
      accesses = 0;
      flushed = true;
    }
    uint64_t want = 0;
    for (size_t i = begin; i < end; ++i) {
      want += ref.AccessLine(lines[i]);
    }
    ASSERT_EQ(cache.AccessLines({tags.data() + begin, end - begin}), want)
        << "diverged in the span [" << begin << ", " << end << ")";
    hits += want;
    accesses += end - begin;
    begin = end;
  }
  EXPECT_EQ(cache.hits(), hits);
  EXPECT_EQ(cache.misses(), accesses - hits);
}

// Span lengths around the internal batch (32 lines) and far beyond it.
const std::vector<size_t> kSpanLengths = {1, 7, 31, 32, 33, 64, 100, 1000, 5000, 20000};

TEST(CacheSimTest, AccessLinesMatchesReferenceOnEveryPreset) {
  for (const DeviceConfig& config : AllDeviceConfigs()) {
    SCOPED_TRACE(config.name);
    CacheSim cache(config.l2_bytes, config.l2_ways, config.line_bytes);
    ReferenceLru ref(config.l2_bytes, config.l2_ways, config.line_bytes);
    const size_t capacity_lines = cache.num_sets() * static_cast<size_t>(config.l2_ways);
    const std::vector<uint64_t> lines =
        RecordedLineSequence(3 * capacity_lines, 2 * capacity_lines);
    ExpectSpansMatchReference(cache, ref, lines, kSpanLengths, /*flush_at=*/lines.size() / 2);
    EXPECT_GT(cache.hits(), 0u);
    EXPECT_GT(cache.misses(), capacity_lines / 2);
  }
}

TEST(CacheSimTest, AccessLinesMatchesReferenceAtEveryAssociativity) {
  // 1- to 32-way sets over mask-path (64) and modulo-path (48) set counts,
  // flushed halfway; spans are one whole sequence, then cycled lengths.
  for (size_t sets : {size_t{64}, size_t{48}}) {
    for (int ways = 1; ways <= 32; ++ways) {
      SCOPED_TRACE(testing::Message() << sets << " sets, " << ways << " ways");
      const size_t capacity = sets * static_cast<size_t>(ways) * 128;
      const size_t capacity_lines = sets * static_cast<size_t>(ways);
      const std::vector<uint64_t> lines =
          RecordedLineSequence(6 * capacity_lines + 4000, 2 * capacity_lines + 64);
      {
        CacheSim cache(capacity, ways, 128);
        ReferenceLru ref(capacity, ways, 128);
        ExpectSpansMatchReference(cache, ref, lines, {lines.size()});
      }
      CacheSim cache(capacity, ways, 128);
      ReferenceLru ref(capacity, ways, 128);
      ExpectSpansMatchReference(cache, ref, lines, kSpanLengths, /*flush_at=*/lines.size() / 2);
      EXPECT_GT(cache.hits(), 0u);
      EXPECT_GT(cache.misses(), 0u);
    }
  }
}

TEST(CacheSimTest, AccessLinesOfAnEmptySpanChangesNothing) {
  CacheSim cache(1 << 16, 8, 128);
  EXPECT_EQ(cache.AccessLines({}), 0u);
  EXPECT_EQ(cache.hits() + cache.misses(), 0u);
}

TEST(CacheSimDeathTest, DeviceRejectsLinesBeyondThirtyTwoBitTags) {
  // 16-byte lines split the 64 GiB arena into 2^32 lines, so the last line
  // number would equal the empty-way tag.
  DeviceConfig config = MakeRtx3090();
  config.line_bytes = 16;
  EXPECT_DEATH(Device device(config), "32-bit L2 tags");
  // 32-byte lines (2^31) still fit.
  config.line_bytes = 32;
  Device device(config);
  EXPECT_EQ(device.l2().line_bytes(), 32);
}

TEST(CacheSimTest, ResetCountersKeepsContents) {
  CacheSim cache(1 << 16, 8, 128);
  cache.Access(0);
  cache.ResetCounters();
  EXPECT_TRUE(cache.Access(0));
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 0u);
}

}  // namespace
}  // namespace minuet
