#include "src/data/sequence.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numeric>
#include <unordered_set>

#include "src/util/check.h"
#include "src/util/json_writer.h"
#include "src/util/rng.h"

namespace minuet {

namespace {

// True iff c + d lies in the lattice. The sum is taken in int64, since a
// motion of up to max_step per axis can pass INT32_MAX when added.
bool ShiftInRange(const Coord3& c, const Coord3& d) {
  const auto in_range = [](int32_t a, int32_t b) {
    const int64_t sum = int64_t{a} + b;
    return sum >= kCoordMin && sum <= kCoordMax;
  };
  return in_range(c.x, d.x) && in_range(c.y, d.y) && in_range(c.z, d.z);
}

// Applies (motion, deleted, inserted) to `prev`, producing the next frame's
// cloud. This is the single definition of the frame recurrence: generation
// and replay both call it, which is what makes a structural dump replay
// bit-identically. Returns false (with *error set) when the deltas are
// inconsistent with `prev` — a deleted voxel that is absent, an inserted one
// that already exists, or a translation that leaves the lattice.
bool AdvanceFrame(const PointCloud& prev, const Coord3& motion,
                  const std::vector<Coord3>& deleted, const std::vector<Coord3>& inserted,
                  uint64_t seed, int64_t frame, PointCloud* out, std::string* error) {
  const int64_t n = prev.num_points();
  const int64_t channels = prev.channels();

  // Rigid translation: order-preserving on packed keys, so the translated
  // cloud is still sorted.
  std::vector<Coord3> moved(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) {
    moved[static_cast<size_t>(i)] = prev.coords[static_cast<size_t>(i)] + motion;
    if (!CoordInRange(moved[static_cast<size_t>(i)])) {
      *error = "frame " + std::to_string(frame) + " motion pushes a voxel out of the lattice";
      return false;
    }
  }

  std::vector<uint64_t> moved_keys = PackCoords(moved);
  std::vector<uint64_t> deleted_keys = PackCoords(deleted);
  std::vector<uint64_t> inserted_keys = PackCoords(inserted);
  MINUET_CHECK(std::is_sorted(deleted_keys.begin(), deleted_keys.end()));
  MINUET_CHECK(std::is_sorted(inserted_keys.begin(), inserted_keys.end()));

  // Mark deletions with one sorted two-pointer sweep.
  std::vector<char> dead(static_cast<size_t>(n), 0);
  size_t di = 0;
  for (int64_t i = 0; i < n && di < deleted_keys.size(); ++i) {
    if (moved_keys[static_cast<size_t>(i)] == deleted_keys[di]) {
      dead[static_cast<size_t>(i)] = 1;
      ++di;
    }
  }
  if (di != deleted_keys.size()) {
    *error = "frame " + std::to_string(frame) + " deletes a voxel that is not present";
    return false;
  }

  out->coords.clear();
  out->coords.reserve(static_cast<size_t>(n) - deleted_keys.size() + inserted_keys.size());
  out->features = FeatureMatrix(
      n - static_cast<int64_t>(deleted_keys.size()) + static_cast<int64_t>(inserted_keys.size()),
      channels);

  // Merge survivors with insertions (both key-sorted). Survivor rows travel
  // with their voxel; inserted rows come from the pure feature function.
  int64_t row = 0;
  size_t ii = 0;
  for (int64_t i = 0; i < n; ++i) {
    if (dead[static_cast<size_t>(i)]) {
      continue;
    }
    const uint64_t key = moved_keys[static_cast<size_t>(i)];
    while (ii < inserted_keys.size() && inserted_keys[ii] < key) {
      out->coords.push_back(inserted[ii]);
      InsertedFeatureRow(seed, frame, inserted_keys[ii], out->features.Row(row));
      ++row;
      ++ii;
    }
    if (ii < inserted_keys.size() && inserted_keys[ii] == key) {
      *error = "frame " + std::to_string(frame) + " inserts a voxel that already exists";
      return false;
    }
    out->coords.push_back(moved[static_cast<size_t>(i)]);
    std::span<const float> src = prev.features.Row(i);
    std::copy(src.begin(), src.end(), out->features.Row(row).begin());
    ++row;
  }
  for (; ii < inserted_keys.size(); ++ii) {
    out->coords.push_back(inserted[ii]);
    InsertedFeatureRow(seed, frame, inserted_keys[ii], out->features.Row(row));
    ++row;
  }
  return true;
}

// Sorts a coordinate list by packed key in place.
void SortByKey(std::vector<Coord3>& coords) {
  std::sort(coords.begin(), coords.end(),
            [](const Coord3& a, const Coord3& b) { return PackCoord(a) < PackCoord(b); });
}

void WriteCoordArray(JsonWriter& w, std::string_view key, const std::vector<Coord3>& coords) {
  w.Key(key);
  w.BeginArray();
  for (const Coord3& c : coords) {
    w.BeginArray();
    w.Value(static_cast<int64_t>(c.x));
    w.Value(static_cast<int64_t>(c.y));
    w.Value(static_cast<int64_t>(c.z));
    w.EndArray();
  }
  w.EndArray();
}

bool ParseCoordTriple(const JsonValue& value, Coord3* out, std::string* error,
                      const std::string& context) {
  if (!value.is_array() || value.size() != 3) {
    *error = context + ": coordinate is not an [x,y,z] triple";
    return false;
  }
  int32_t axes[3];
  for (size_t a = 0; a < 3; ++a) {
    if (!value.at(a).is_number()) {
      *error = context + ": coordinate axis is not a number";
      return false;
    }
    axes[a] = static_cast<int32_t>(value.at(a).AsDouble());
  }
  *out = Coord3{axes[0], axes[1], axes[2]};
  if (!CoordInRange(*out)) {
    *error = context + ": coordinate out of lattice range";
    return false;
  }
  return true;
}

bool ParseCoordArray(const JsonValue* value, std::vector<Coord3>* out, std::string* error,
                     const std::string& context) {
  out->clear();
  if (value == nullptr) {
    return true;  // absent list means empty
  }
  if (!value->is_array()) {
    *error = context + " is not an array";
    return false;
  }
  out->reserve(value->size());
  for (size_t i = 0; i < value->size(); ++i) {
    Coord3 c;
    if (!ParseCoordTriple(value->at(i), &c, error, context)) {
      return false;
    }
    out->push_back(c);
  }
  return true;
}

}  // namespace

void InsertedFeatureRow(uint64_t seed, int64_t frame, uint64_t key, std::span<float> row) {
  // Hash (seed, frame, key) into an independent Pcg32 so the row depends on
  // nothing but voxel identity — the property that lets a structural dump
  // regenerate features without storing them.
  uint64_t state = seed + 0x9e3779b97f4a7c15ULL * static_cast<uint64_t>(frame + 1);
  uint64_t h = SplitMix64(state);
  state ^= key;
  h ^= SplitMix64(state);
  Pcg32 rng(h, /*stream=*/0x5ecf3a);
  for (float& v : row) {
    v = static_cast<float>(rng.NextGaussian());
  }
}

Sequence GenerateSequence(const SequenceConfig& config) {
  MINUET_CHECK_GE(config.base_points, 0);
  MINUET_CHECK_GT(config.channels, 0);
  MINUET_CHECK_GE(config.num_frames, 1);
  MINUET_CHECK_GE(config.churn_rate, 0.0);
  MINUET_CHECK_LE(config.churn_rate, 1.0);
  MINUET_CHECK_GE(config.max_step, 0);

  Sequence sequence;
  sequence.config = config;
  sequence.frames.resize(static_cast<size_t>(config.num_frames));

  // Frame 0: dataset-shaped coordinates, feature rows from the pure function
  // (birth frame 0) so replay never needs the generator's feature stream.
  SequenceFrame& first = sequence.frames[0];
  first.frame = 0;
  first.cloud.coords = GenerateCoords(config.dataset, config.base_points, config.seed);
  first.cloud.features =
      FeatureMatrix(static_cast<int64_t>(first.cloud.coords.size()), config.channels);
  for (int64_t i = 0; i < first.cloud.num_points(); ++i) {
    InsertedFeatureRow(config.seed, 0, PackCoord(first.cloud.coords[static_cast<size_t>(i)]),
                       first.cloud.features.Row(i));
  }

  Pcg32 motion_rng(config.seed, /*stream=*/0x5ecf10);
  Pcg32 churn_rng(config.seed, /*stream=*/0x5ecf22);

  for (int64_t t = 1; t < config.num_frames; ++t) {
    const PointCloud& prev = sequence.frames[static_cast<size_t>(t - 1)].cloud;
    const int64_t n = prev.num_points();
    SequenceFrame& frame = sequence.frames[static_cast<size_t>(t)];
    frame.frame = t;

    // Ego motion, per-axis zeroed if it would push the bounding box out of
    // the lattice (cannot happen for realistic configs; keeps pathological
    // ones deterministic instead of crashing).
    frame.motion = Coord3{motion_rng.NextInt(-config.max_step, config.max_step),
                          motion_rng.NextInt(-config.max_step, config.max_step),
                          motion_rng.NextInt(-config.max_step, config.max_step)};
    if (n > 0) {
      Coord3 lo = prev.coords[0];
      Coord3 hi = prev.coords[0];
      for (const Coord3& c : prev.coords) {
        lo = Coord3{std::min(lo.x, c.x), std::min(lo.y, c.y), std::min(lo.z, c.z)};
        hi = Coord3{std::max(hi.x, c.x), std::max(hi.y, c.y), std::max(hi.z, c.z)};
      }
      if (!ShiftInRange(lo, frame.motion) || !ShiftInRange(hi, frame.motion)) {
        frame.motion = Coord3{};
      }
    }

    // Churn: delete a seeded random subset, insert the same count of fresh
    // voxels jittered around survivors (uniform in the kRandom volume when
    // nothing survives, e.g. at 100% churn).
    const int64_t delete_count = static_cast<int64_t>(std::llround(config.churn_rate * n));
    std::vector<uint32_t> order(static_cast<size_t>(n));
    std::iota(order.begin(), order.end(), 0u);
    for (int64_t i = 0; i < delete_count; ++i) {
      const uint32_t j =
          static_cast<uint32_t>(i) + churn_rng.NextBounded(static_cast<uint32_t>(n - i));
      std::swap(order[static_cast<size_t>(i)], order[j]);
    }
    std::vector<uint32_t> dead(order.begin(), order.begin() + delete_count);
    std::sort(dead.begin(), dead.end());

    frame.deleted.reserve(dead.size());
    std::vector<Coord3> survivors;
    survivors.reserve(static_cast<size_t>(n) - dead.size());
    std::unordered_set<uint64_t> present;
    present.reserve(static_cast<size_t>(n));
    size_t dk = 0;
    for (int64_t i = 0; i < n; ++i) {
      const Coord3 c = prev.coords[static_cast<size_t>(i)] + frame.motion;
      if (dk < dead.size() && dead[dk] == static_cast<uint32_t>(i)) {
        frame.deleted.push_back(c);
        ++dk;
      } else {
        survivors.push_back(c);
        present.insert(PackCoord(c));
      }
    }

    frame.inserted.reserve(static_cast<size_t>(delete_count));
    for (int64_t i = 0; i < delete_count; ++i) {
      Coord3 cand;
      for (int attempt = 0;; ++attempt) {
        if (!survivors.empty() && attempt < 64) {
          const Coord3& anchor =
              survivors[churn_rng.NextBounded(static_cast<uint32_t>(survivors.size()))];
          cand = anchor + Coord3{churn_rng.NextInt(-3, 3), churn_rng.NextInt(-3, 3),
                                 churn_rng.NextInt(-3, 3)};
        } else {
          cand = Coord3{churn_rng.NextInt(-config.random_volume, config.random_volume),
                        churn_rng.NextInt(-config.random_volume, config.random_volume),
                        churn_rng.NextInt(-config.random_volume, config.random_volume)};
        }
        if (CoordInRange(cand) && present.insert(PackCoord(cand)).second) {
          break;
        }
      }
      frame.inserted.push_back(cand);
    }
    SortByKey(frame.inserted);

    std::string error;
    MINUET_CHECK(AdvanceFrame(prev, frame.motion, frame.deleted, frame.inserted, config.seed, t,
                              &frame.cloud, &error))
        << error;
  }
  return sequence;
}

std::string SequenceTraceJson(const Sequence& sequence) {
  const SequenceConfig& config = sequence.config;
  JsonWriter w;
  w.BeginObject();
  w.KV("sequence_trace", 1);
  w.KV("dataset", DatasetName(config.dataset));
  w.KV("base_points", config.base_points);
  w.KV("channels", config.channels);
  w.KV("num_frames", config.num_frames);
  w.KV("seed", config.seed);
  w.KV("churn_rate", config.churn_rate);
  w.KV("max_step", static_cast<int64_t>(config.max_step));
  w.KV("random_volume", static_cast<int64_t>(config.random_volume));
  w.Key("frames");
  w.BeginArray();
  for (const SequenceFrame& frame : sequence.frames) {
    w.BeginObject();
    w.KV("frame", frame.frame);
    w.Key("motion");
    w.BeginArray();
    w.Value(static_cast<int64_t>(frame.motion.x));
    w.Value(static_cast<int64_t>(frame.motion.y));
    w.Value(static_cast<int64_t>(frame.motion.z));
    w.EndArray();
    if (frame.frame == 0) {
      WriteCoordArray(w, "coords", frame.cloud.coords);
    } else {
      WriteCoordArray(w, "deleted", frame.deleted);
      WriteCoordArray(w, "inserted", frame.inserted);
    }
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  return w.TakeString();
}

bool WriteSequenceTrace(const Sequence& sequence, const std::string& path) {
  return WriteTextFile(path, SequenceTraceJson(sequence));
}

bool ParseSequenceTrace(const JsonValue& doc, Sequence* out, std::string* error) {
  const JsonValue* version = doc.Find("sequence_trace");
  if (version == nullptr) {
    *error = "not a sequence trace (no sequence_trace version key)";
    return false;
  }
  SequenceConfig config;
  if (const JsonValue* v = doc.Find("dataset"); v != nullptr && v->is_string()) {
    if (!ParseDatasetName(v->AsString(), &config.dataset)) {
      *error = "sequence trace has unknown dataset \"" + v->AsString() + "\"";
      return false;
    }
  }
  if (const JsonValue* v = doc.Find("base_points")) {
    config.base_points = static_cast<int64_t>(v->DoubleOr(0.0));
  }
  if (const JsonValue* v = doc.Find("channels")) {
    config.channels = static_cast<int64_t>(v->DoubleOr(4.0));
  }
  if (config.channels <= 0) {
    *error = "sequence trace has non-positive channels";
    return false;
  }
  if (const JsonValue* v = doc.Find("seed")) {
    config.seed = static_cast<uint64_t>(v->DoubleOr(1.0));
  }
  if (const JsonValue* v = doc.Find("churn_rate")) {
    config.churn_rate = v->DoubleOr(0.0);
  }
  if (const JsonValue* v = doc.Find("max_step")) {
    config.max_step = static_cast<int32_t>(v->DoubleOr(0.0));
  }
  if (const JsonValue* v = doc.Find("random_volume")) {
    config.random_volume = static_cast<int32_t>(v->DoubleOr(400.0));
  }

  const JsonValue* frames = doc.Find("frames");
  if (frames == nullptr || !frames->is_array() || frames->size() == 0) {
    *error = "sequence trace has no frames array";
    return false;
  }
  config.num_frames = static_cast<int64_t>(frames->size());

  out->config = config;
  out->frames.clear();
  out->frames.resize(frames->size());
  for (size_t i = 0; i < frames->size(); ++i) {
    const JsonValue& entry = frames->at(i);
    const std::string context = "sequence trace frame " + std::to_string(i);
    if (!entry.is_object()) {
      *error = context + " is not an object";
      return false;
    }
    SequenceFrame& frame = out->frames[i];
    frame.frame = static_cast<int64_t>(i);
    if (const JsonValue* motion = entry.Find("motion")) {
      if (!ParseCoordTriple(*motion, &frame.motion, error, context + " motion")) {
        return false;
      }
    }
    if (i == 0) {
      std::vector<Coord3> coords;
      if (!ParseCoordArray(entry.Find("coords"), &coords, error, context + " coords")) {
        return false;
      }
      SortByKey(coords);
      frame.cloud.coords = std::move(coords);
      frame.cloud.features =
          FeatureMatrix(static_cast<int64_t>(frame.cloud.coords.size()), config.channels);
      if (!HasUniqueCoords(frame.cloud.coords)) {
        *error = context + " has duplicate coordinates";
        return false;
      }
      for (int64_t r = 0; r < frame.cloud.num_points(); ++r) {
        InsertedFeatureRow(config.seed, 0, PackCoord(frame.cloud.coords[static_cast<size_t>(r)]),
                           frame.cloud.features.Row(r));
      }
    } else {
      if (!ParseCoordArray(entry.Find("deleted"), &frame.deleted, error, context + " deleted") ||
          !ParseCoordArray(entry.Find("inserted"), &frame.inserted, error,
                           context + " inserted")) {
        return false;
      }
      SortByKey(frame.deleted);
      SortByKey(frame.inserted);
      if (!AdvanceFrame(out->frames[i - 1].cloud, frame.motion, frame.deleted, frame.inserted,
                        config.seed, frame.frame, &frame.cloud, error)) {
        return false;
      }
    }
  }
  return true;
}

bool ReadSequenceTraceFile(const std::string& path, Sequence* out, std::string* error) {
  JsonValue doc;
  if (!ReadJsonFile(path, &doc, error)) {
    return false;
  }
  return ParseSequenceTrace(doc, out, error);
}

}  // namespace minuet
