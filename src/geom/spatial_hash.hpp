// Spatial hash index for radius queries over a static point set.
//
// DLS estimates each link's interference from the senders within its
// sensing radius; a bucketed index makes that query (expected)
// output-sensitive instead of O(N) per link.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <unordered_map>
#include <vector>

#include "geom/grid.hpp"
#include "geom/vec2.hpp"

namespace fadesched::geom {

class SpatialHash {
 public:
  /// Builds an index over `points` with the given bucket size. Indices
  /// into the original span are what queries return.
  SpatialHash(std::span<const Vec2> points, double bucket_size);

  [[nodiscard]] std::size_t NumPoints() const { return points_.size(); }

  /// All point indices within `radius` of `center` (inclusive).
  [[nodiscard]] std::vector<std::size_t> QueryRadius(Vec2 center,
                                                     double radius) const;

  /// Visit point indices within `radius` of `center` without allocating.
  void ForEachInRadius(Vec2 center, double radius,
                       const std::function<void(std::size_t)>& visit) const;

 private:
  std::vector<Vec2> points_;
  SquareGrid grid_;
  std::unordered_map<CellIndex, std::vector<std::size_t>, CellIndexHash> buckets_;
};

}  // namespace fadesched::geom
