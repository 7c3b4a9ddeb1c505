// The scan-order flood fill that enforce_connectivity's run union-find is
// checked against. It states the connectivity contract of
// slic/connectivity.h directly: components are discovered in raster order
// of their first pixel, and a component smaller than min_size takes the
// label of the last already-labelled 4-neighbour (left, right, up, down) of
// its first pixel.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "slic/connectivity.h"

namespace sslic {

/// Relabels `labels` (w x h, row-major) into `out`, which must not alias
/// it and is fully overwritten.
inline ConnectivityResult flood_fill_connectivity(const std::int32_t* labels,
                                                  std::int32_t* out, int w,
                                                  int h,
                                                  int expected_superpixels) {
  constexpr int kDx[4] = {-1, 1, 0, 0};
  constexpr int kDy[4] = {0, 0, -1, 1};
  const std::size_t n = static_cast<std::size_t>(w) * static_cast<std::size_t>(h);
  const std::size_t min_size = std::max<std::size_t>(
      1, n / static_cast<std::size_t>(expected_superpixels) / 4);
  const auto at = [w](int x, int y) {
    return static_cast<std::size_t>(y) * static_cast<std::size_t>(w) +
           static_cast<std::size_t>(x);
  };
  std::fill(out, out + n, std::int32_t{-1});
  std::vector<std::size_t> stack;
  std::vector<std::size_t> members;
  ConnectivityResult result;
  std::int32_t next_label = 0;

  for (int y = 0; y < h; ++y) {
    for (int x = 0; x < w; ++x) {
      if (out[at(x, y)] >= 0) continue;

      // The label a stray fragment takes: the last already-labelled
      // 4-neighbour in left, right, up, down order (every component but
      // the first has one).
      std::int32_t adjacent_label = next_label > 0 ? 0 : -1;
      for (int d = 0; d < 4; ++d) {
        const int nx = x + kDx[d];
        const int ny = y + kDy[d];
        if (nx >= 0 && nx < w && ny >= 0 && ny < h && out[at(nx, ny)] >= 0)
          adjacent_label = out[at(nx, ny)];
      }

      const std::int32_t original = labels[at(x, y)];
      out[at(x, y)] = next_label;
      stack.assign(1, at(x, y));
      members.assign(1, at(x, y));
      while (!stack.empty()) {
        const std::size_t flat = stack.back();
        stack.pop_back();
        const int cx = static_cast<int>(flat % static_cast<std::size_t>(w));
        const int cy = static_cast<int>(flat / static_cast<std::size_t>(w));
        for (int d = 0; d < 4; ++d) {
          const int nx = cx + kDx[d];
          const int ny = cy + kDy[d];
          if (nx < 0 || nx >= w || ny < 0 || ny >= h) continue;
          const std::size_t nf = at(nx, ny);
          if (out[nf] >= 0 || labels[nf] != original) continue;
          out[nf] = next_label;
          stack.push_back(nf);
          members.push_back(nf);
        }
      }

      if (members.size() < min_size && adjacent_label >= 0) {
        for (const std::size_t flat : members) out[flat] = adjacent_label;
        result.components_merged += 1;
        result.pixels_moved += members.size();
      } else {
        ++next_label;
      }
    }
  }
  result.final_label_count = next_label;
  return result;
}

}  // namespace sslic
