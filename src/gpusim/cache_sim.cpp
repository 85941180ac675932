#include "src/gpusim/cache_sim.h"

#include <algorithm>
#include <bit>
#include <cstring>

#if defined(__x86_64__) && defined(__GNUC__)
#define MINUET_CACHE_SIM_AVX2 1
#include <immintrin.h>
#endif

#include "src/util/check.h"

namespace minuet {

namespace {

// Four ways compared at once as a GCC/Clang vector type: one SSE2 register
// on x86-64, one NEON register on aarch64.
using TagLanes = uint32_t __attribute__((vector_size(16)));
using TagHalves = uint64_t __attribute__((vector_size(16)));

// The first way in [0, ways) holding `tag`, or ways - 1 (the least recent)
// when none does; ways is a multiple of 4. Groups are scanned most recent
// first, so a hit on a recent way costs one compare. A tag sits in at most
// one way of its set, so each group's matches, masked to (lane + 1), OR down
// to that lane + 1, or to 0 on no match.
int FindWayVector(const uint32_t* tags, int ways, uint32_t tag) {
  const TagLanes needle = TagLanes{} + tag;
  for (int group = 0; group < ways; group += 4) {
    TagLanes lanes;
    std::memcpy(&lanes, tags + group, sizeof(lanes));
    const TagLanes matches = reinterpret_cast<TagLanes>(lanes == needle);
    const TagHalves halves = reinterpret_cast<TagHalves>(matches & TagLanes{1, 2, 3, 4});
    const uint64_t either = halves[0] | halves[1];
    const uint32_t lane_plus_one = static_cast<uint32_t>(either | (either >> 32));
    if (lane_plus_one != 0) {
      return group + static_cast<int>(lane_plus_one) - 1;
    }
  }
  return ways - 1;
}

// The LRU update of one set of `ways` for `tag`; true on a hit.
bool TouchSet(uint32_t* tags, int ways, uint32_t tag) {
  // The tag's way on a hit, the last (least recent) way on a miss. Either
  // way, the ways in front of it move down one and the tag goes first.
  uint32_t* way = ways % 4 == 0 ? tags + FindWayVector(tags, ways, tag)
                                : std::find(tags, tags + ways - 1, tag);
  const bool hit = *way == tag;
  std::copy_backward(tags, way, way + 1);
  tags[0] = tag;
  return hit;
}

// Whether WalkBatchSixteenWaysAvx2 can run here: checked once per cache, without
// an ifunc resolver, which ThreadSanitizer builds cannot run.
bool HostHasAvx2() {
#if MINUET_CACHE_SIM_AVX2
  __builtin_cpu_init();
  return __builtin_cpu_supports("avx2");
#else
  return false;
#endif
}

}  // namespace

CacheSim::CacheSim(size_t capacity_bytes, int ways, int line_bytes)
    : ways_(ways), line_bytes_(line_bytes) {
  MINUET_CHECK_GT(ways, 0);
  MINUET_CHECK_GT(line_bytes, 0);
  MINUET_CHECK(std::has_single_bit(static_cast<unsigned>(line_bytes)));
  line_shift_ = std::countr_zero(static_cast<unsigned>(line_bytes));
  size_t lines = capacity_bytes / static_cast<size_t>(line_bytes);
  MINUET_CHECK_GE(lines, static_cast<size_t>(ways));
  num_sets_ = lines / static_cast<size_t>(ways);
  MINUET_CHECK_GT(num_sets_, 0u);
  if (std::has_single_bit(num_sets_)) {
    set_mask_ = num_sets_ - 1;
  }
  sixteen_way_avx2_ = ways_ == 16 && HostHasAvx2();
  constexpr size_t kHostLineTags = 64 / sizeof(uint32_t);
  storage_.assign(num_sets_ * static_cast<size_t>(ways_) + kHostLineTags - 1, kEmpty);
  const size_t misalignment = reinterpret_cast<uintptr_t>(storage_.data()) % 64;
  tags_ = storage_.data() + (misalignment == 0 ? 0 : (64 - misalignment) / sizeof(uint32_t));
}

uint64_t CacheSim::AccessLines(std::span<const uint32_t> lines) {
  uint64_t hits = 0;
  uint32_t* sets[kBatch];
  for (size_t begin = 0; begin < lines.size(); begin += kBatch) {
    const size_t count = std::min(kBatch, lines.size() - begin);
    const uint32_t* batch = lines.data() + begin;
    for (size_t i = 0; i < count; ++i) {
      MINUET_DCHECK(batch[i] != kEmpty);
      sets[i] = &tags_[SetOf(batch[i]) * static_cast<size_t>(ways_)];
      __builtin_prefetch(sets[i], /*rw=*/1);
    }
#if MINUET_CACHE_SIM_AVX2
    if (sixteen_way_avx2_) {
      hits += WalkBatchSixteenWaysAvx2(sets, batch, count);
      continue;
    }
#endif
    hits += WalkBatch(sets, batch, count);
  }
  hits_ += hits;
  misses_ += lines.size() - hits;
  return hits;
}

uint64_t CacheSim::WalkBatch(uint32_t* const* sets, const uint32_t* lines, size_t count) const {
  uint64_t hits = 0;
  for (size_t i = 0; i < count; ++i) {
    hits += TouchSet(sets[i], ways_, lines[i]);
  }
  return hits;
}

#if MINUET_CACHE_SIM_AVX2
// The update of a 16-way set (every preset's L2), without a branch, in two
// AVX2 registers: the set is one 64-byte host line. The tag's way is the
// lowest of the 16 lane matches, or way 15 (the least recent) on a miss.
// Ways [0, way] then take the tag of the way in front of them (way 0 takes
// the new tag) and the ways behind keep theirs: the generic path's
// shift-and-insert. Ways 1-7's front neighbours are a lane permute of ways
// 0-7; ways 8-15's are an unaligned load one tag back, still inside the set.
// Hits are summed without a branch: whether a line hits is as unpredictable
// as the stream, and a mispredict costs more than the set update.
__attribute__((target("avx2"))) uint64_t CacheSim::WalkBatchSixteenWaysAvx2(
    uint32_t* const* sets, const uint32_t* lines, size_t count) {
  uint64_t hits = 0;
  for (size_t i = 0; i < count; ++i) {
    uint32_t* tags = sets[i];
    auto* const front_ways = reinterpret_cast<__m256i*>(tags);
    auto* const back_ways = reinterpret_cast<__m256i*>(tags + 8);
    const __m256i front = _mm256_load_si256(front_ways);
    const __m256i back = _mm256_load_si256(back_ways);
    const __m256i needle = _mm256_set1_epi32(static_cast<int>(lines[i]));
    const unsigned front_matches = static_cast<unsigned>(
        _mm256_movemask_ps(_mm256_castsi256_ps(_mm256_cmpeq_epi32(front, needle))));
    const unsigned back_matches = static_cast<unsigned>(
        _mm256_movemask_ps(_mm256_castsi256_ps(_mm256_cmpeq_epi32(back, needle))));
    const unsigned matches = front_matches | back_matches << 8;
    const __m256i way = _mm256_set1_epi32(std::countr_zero(matches | 0x8000u));
    const __m256i front_shifted = _mm256_blend_epi32(
        _mm256_permutevar8x32_epi32(front, _mm256_setr_epi32(0, 0, 1, 2, 3, 4, 5, 6)), needle,
        1);
    const __m256i back_shifted = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(tags + 7));
    const __m256i keep_front = _mm256_cmpgt_epi32(_mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7), way);
    const __m256i keep_back =
        _mm256_cmpgt_epi32(_mm256_setr_epi32(8, 9, 10, 11, 12, 13, 14, 15), way);
    _mm256_store_si256(front_ways, _mm256_blendv_epi8(front_shifted, front, keep_front));
    _mm256_store_si256(back_ways, _mm256_blendv_epi8(back_shifted, back, keep_back));
    hits += matches != 0;
  }
  return hits;
}
#endif

void CacheSim::Flush() {
  std::fill(storage_.begin(), storage_.end(), kEmpty);
  ResetCounters();
}

void CacheSim::ResetCounters() {
  hits_ = 0;
  misses_ = 0;
}

double CacheSim::HitRatio() const {
  uint64_t total = hits_ + misses_;
  if (total == 0) {
    return 0.0;
  }
  return static_cast<double>(hits_) / static_cast<double>(total);
}

}  // namespace minuet
