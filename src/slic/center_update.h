// Sigma accumulation and center recomputation shared by every SLIC variant
// (paper Section 4.3: the sigma registers hold accumulated L, a, b, x, y
// and the member-pixel count; the Center Update Unit divides them out).
#pragma once

#include <cstdint>
#include <vector>

#include "image/image.h"
#include "slic/instrumentation.h"
#include "slic/types.h"

namespace sslic {

/// One sigma accumulator: six fields, exactly the hardware register layout.
struct Sigma {
  double L = 0.0;
  double a = 0.0;
  double b = 0.0;
  double x = 0.0;
  double y = 0.0;
  std::uint64_t count = 0;

  void add(const LabF& color, int px, int py) {
    L += static_cast<double>(color.L);
    a += static_cast<double>(color.a);
    b += static_cast<double>(color.b);
    x += px;
    y += py;
    count += 1;
  }

  /// Field-order merge (L, a, b, x, y, count — the same order `add` uses).
  /// Every reduction in the codebase folds partials through this operator
  /// so the IEEE summation sequence is fixed by construction.
  Sigma& operator+=(const Sigma& other) {
    L += other.L;
    a += other.a;
    b += other.b;
    x += other.x;
    y += other.y;
    count += other.count;
    return *this;
  }

  void clear() { *this = Sigma{}; }
};

/// Recomputes `centers[i]` from `sigmas[i]` for every i with
/// `active[i] && sigmas[i].count > 0`; pass an empty `active` to update all.
/// Returns the mean L1 (x, y) movement of the centers actually updated
/// (0 when none were). Counts 5 divides per updated center and 6 adds per
/// accumulated pixel into `ops` when provided.
inline double update_centers(std::vector<ClusterCenter>& centers,
                             const std::vector<Sigma>& sigmas,
                             const std::vector<std::uint8_t>& active,
                             OpCounts* ops = nullptr) {
  double movement = 0.0;
  std::size_t updated = 0;
  for (std::size_t i = 0; i < centers.size(); ++i) {
    if (!active.empty() && !active[i]) continue;
    const Sigma& s = sigmas[i];
    if (s.count == 0) continue;
    const double inv = 1.0 / static_cast<double>(s.count);
    ClusterCenter next{s.L * inv, s.a * inv, s.b * inv, s.x * inv, s.y * inv};
    movement += std::abs(next.x - centers[i].x) + std::abs(next.y - centers[i].y);
    centers[i] = next;
    ++updated;
    if (ops != nullptr) ops->divide_ops += 5;
  }
  return updated == 0 ? 0.0 : movement / static_cast<double>(updated);
}

}  // namespace sslic
