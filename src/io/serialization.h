// Binary serialization for point clouds.
//
// A tiny tagged little-endian format (magic + version per record) so sample
// clouds can be saved once and reloaded by tools and tests. Not an
// interchange format; layout may change between versions of this library.
#ifndef SRC_IO_SERIALIZATION_H_
#define SRC_IO_SERIALIZATION_H_

#include <string>

#include "src/core/point_cloud.h"

namespace minuet {

// Point clouds: coordinates + feature rows. LoadPointCloud returns false on a
// missing, truncated or foreign file, and on a header whose counts overflow
// or need more bytes than the file holds (checked before allocating).
bool SavePointCloud(const PointCloud& cloud, const std::string& path);
bool LoadPointCloud(const std::string& path, PointCloud* cloud);

}  // namespace minuet

#endif  // SRC_IO_SERIALIZATION_H_
