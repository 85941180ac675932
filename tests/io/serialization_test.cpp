#include "src/io/serialization.h"

#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <initializer_list>
#include <string>

#include <gtest/gtest.h>

#include "src/data/generators.h"

namespace minuet {
namespace {

std::string TempPath(const char* name) { return ::testing::TempDir() + "/" + name; }

TEST(SerializationTest, PointCloudRoundTrip) {
  GeneratorConfig gen;
  gen.target_points = 2000;
  gen.channels = 5;
  gen.seed = 3;
  PointCloud original = GenerateCloud(DatasetKind::kKitti, gen);

  std::string path = TempPath("cloud.mnpc");
  ASSERT_TRUE(SavePointCloud(original, path));
  PointCloud loaded;
  ASSERT_TRUE(LoadPointCloud(path, &loaded));
  EXPECT_EQ(loaded.coords, original.coords);
  EXPECT_EQ(MaxAbsDiff(loaded.features, original.features), 0.0f);
}

TEST(SerializationTest, EmptyPointCloudRoundTrip) {
  PointCloud empty;
  empty.features = FeatureMatrix(0, 3);
  std::string path = TempPath("empty.mnpc");
  ASSERT_TRUE(SavePointCloud(empty, path));
  PointCloud loaded;
  ASSERT_TRUE(LoadPointCloud(path, &loaded));
  EXPECT_EQ(loaded.num_points(), 0);
  EXPECT_EQ(loaded.features.cols(), 3);
}

TEST(SerializationTest, MissingFileFails) {
  PointCloud cloud;
  EXPECT_FALSE(LoadPointCloud(TempPath("does_not_exist.mnpc"), &cloud));
}

// Writes `words` as the raw bytes of a file and returns its path.
std::string WriteRaw(const char* name, std::initializer_list<uint64_t> words) {
  std::string path = TempPath(name);
  std::FILE* f = std::fopen(path.c_str(), "wb");
  EXPECT_NE(f, nullptr);
  for (uint64_t w : words) {
    std::fwrite(&w, sizeof(w), 1, f);
  }
  std::fclose(f);
  return path;
}

// Header word: magic in the low half, version 1 in the high half.
constexpr uint64_t kCloudHeader = 0x4350'4E4Dull | (uint64_t{1} << 32);  // "MNPC", v1

TEST(SerializationTest, WrongMagicFails) {
  GeneratorConfig gen;
  gen.target_points = 100;
  PointCloud cloud = GenerateCloud(DatasetKind::kRandom, gen);
  std::string path = TempPath("mixed.mnpc");
  ASSERT_TRUE(SavePointCloud(cloud, path));
  PointCloud loaded;
  ASSERT_TRUE(LoadPointCloud(path, &loaded));
  // The same file with another record's magic ("MNFM") is not a cloud.
  std::FILE* f = std::fopen(path.c_str(), "r+b");
  ASSERT_NE(f, nullptr);
  const uint32_t other_magic = 0x4D46'4E4Du;
  ASSERT_EQ(std::fwrite(&other_magic, sizeof(other_magic), 1, f), 1u);
  std::fclose(f);
  EXPECT_FALSE(LoadPointCloud(path, &loaded));
}

TEST(SerializationTest, HeaderCountsBeyondTheFileFail) {
  // Each count is rejected before it sizes an allocation: n = 2^62 would
  // throw std::length_error, n = 2^34 would ask for 192 GB.
  PointCloud loaded;
  EXPECT_FALSE(LoadPointCloud(WriteRaw("huge_n.mnpc", {kCloudHeader, uint64_t{1} << 62}), &loaded));
  EXPECT_FALSE(LoadPointCloud(WriteRaw("big_n.mnpc", {kCloudHeader, uint64_t{1} << 34}), &loaded));
  // An empty cloud whose matrix claims rows * cols beyond the file, and one
  // whose product overflows int64.
  EXPECT_FALSE(LoadPointCloud(WriteRaw("huge_rows.mnpc", {kCloudHeader, 0, uint64_t{1} << 61, 2}),
                              &loaded));
  EXPECT_FALSE(LoadPointCloud(
      WriteRaw("overflow.mnpc", {kCloudHeader, 0, uint64_t{1} << 33, uint64_t{1} << 33}), &loaded));
  // The control: a valid empty cloud written the same way loads.
  EXPECT_TRUE(LoadPointCloud(WriteRaw("empty_raw.mnpc", {kCloudHeader, 0, 0, 3}), &loaded));
  EXPECT_EQ(loaded.num_points(), 0);
  EXPECT_EQ(loaded.features.cols(), 3);
}

TEST(SerializationTest, TruncatedFileFails) {
  GeneratorConfig gen;
  gen.target_points = 500;
  PointCloud cloud = GenerateCloud(DatasetKind::kRandom, gen);
  std::string path = TempPath("trunc.mnpc");
  ASSERT_TRUE(SavePointCloud(cloud, path));
  // Truncate to half.
  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::fseek(f, 0, SEEK_END);
  long size = std::ftell(f);
  std::fclose(f);
  ASSERT_EQ(truncate(path.c_str(), size / 2), 0);
  PointCloud loaded;
  EXPECT_FALSE(LoadPointCloud(path, &loaded));
}

}  // namespace
}  // namespace minuet
