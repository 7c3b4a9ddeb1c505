#include "slic/connectivity.h"

#include <algorithm>
#include <vector>

#include "common/check.h"
#include "common/thread_pool.h"
#include "common/trace.h"

namespace sslic {
namespace {

constexpr int kDx[4] = {-1, 1, 0, 0};
constexpr int kDy[4] = {0, 0, -1, 1};

using Run = ConnectivityScratch::Run;

// Row y of a w-wide plane.
template <typename T>
T* row_of(T* plane, int w, int y) {
  return plane + static_cast<std::size_t>(y) * static_cast<std::size_t>(w);
}

// Root of run r. Parents point at smaller indices, so a root is the least
// index of its region: its first run in raster order.
std::int32_t find_root(Run* runs, std::int32_t r) {
  while (runs[r].parent != r) {
    const std::int32_t grandparent = runs[runs[r].parent].parent;
    runs[r].parent = grandparent;  // path halving
    r = grandparent;
  }
  return r;
}

// Unions the overlapping same-label runs of rows y - 1 and y, linking the
// larger root to the smaller.
void union_rows(const std::int32_t* plane, int w, int y,
                const std::int32_t* row_begin, Run* runs) {
  const std::int32_t* above = row_of(plane, w, y - 1);
  const std::int32_t* row = row_of(plane, w, y);
  std::int32_t i = row_begin[y - 1];
  std::int32_t j = row_begin[y];
  const std::int32_t i_end = row_begin[y];
  const std::int32_t j_end = row_begin[y + 1];
  // Invariant: runs i and j overlap.
  while (i < i_end && j < j_end) {
    if (above[runs[i].x] == row[runs[j].x]) {
      const std::int32_t a = find_root(runs, i);
      const std::int32_t b = find_root(runs, j);
      if (a < b) {
        runs[b].parent = a;
      } else if (b < a) {
        runs[a].parent = b;
      }
    }
    const int i_hi = i + 1 < i_end ? runs[i + 1].x : w;
    const int j_hi = j + 1 < j_end ? runs[j + 1].x : w;
    if (i_hi <= j_hi) ++i;
    if (j_hi <= i_hi) ++j;
  }
}

}  // namespace

ConnectivityResult enforce_connectivity_span(
    const std::int32_t* labels, std::int32_t* out, int w, int h,
    int expected_superpixels, ConnectivitySpanScratch& scratch,
    const std::function<void(int y)>& on_row_done, bool out_prefilled) {
  SSLIC_CHECK(expected_superpixels >= 1);
  SSLIC_CHECK(w > 0 && h > 0);
  SSLIC_CHECK(labels != nullptr && out != nullptr && labels != out);
  const std::size_t n = static_cast<std::size_t>(w) * static_cast<std::size_t>(h);
  const std::size_t min_size =
      std::max<std::size_t>(1, n / static_cast<std::size_t>(expected_superpixels) / 4);

  if (!out_prefilled) std::fill(out, out + n, std::int32_t{-1});
  std::vector<std::int64_t>& stack = scratch.stack;
  std::vector<std::int64_t>& member_indices = scratch.members;
  ConnectivityResult result;
  std::int32_t next_label = 0;
  const auto stride = static_cast<std::int64_t>(w);
  const auto at = [&](int x, int y) -> std::int64_t {
    return static_cast<std::int64_t>(y) * stride + x;
  };

  for (int y = 0; y < h; ++y) {
    for (int x = 0; x < w; ++x) {
      if (out[at(x, y)] >= 0) continue;

      // The component merged into when this one turns out to be a stray
      // fragment: the most recent already-relabelled 4-neighbour in scan
      // order (exists for every component except the first).
      std::int32_t adjacent_label = next_label > 0 ? 0 : -1;
      for (int d = 0; d < 4; ++d) {
        const int nx2 = x + kDx[d];
        const int ny2 = y + kDy[d];
        if (nx2 >= 0 && nx2 < w && ny2 >= 0 && ny2 < h && out[at(nx2, ny2)] >= 0)
          adjacent_label = out[at(nx2, ny2)];
      }

      // Flood-fill this component under the original labelling. Members are
      // recorded only while the component could still be absorbed (fewer
      // than min_size pixels seen) — a larger component keeps its label, so
      // tracking its remaining members would only burn memory.
      const std::int32_t original = labels[at(x, y)];
      out[at(x, y)] = next_label;
      stack.clear();
      stack.push_back(at(x, y));
      member_indices.clear();
      member_indices.push_back(stack.back());
      std::size_t member_count = 1;
      while (!stack.empty()) {
        const std::int64_t flat = stack.back();
        stack.pop_back();
        const int cx = static_cast<int>(flat % stride);
        const int cy = static_cast<int>(flat / stride);
        for (int d = 0; d < 4; ++d) {
          const int nx2 = cx + kDx[d];
          const int ny2 = cy + kDy[d];
          if (nx2 < 0 || nx2 >= w || ny2 < 0 || ny2 >= h) continue;
          const std::int64_t nf = at(nx2, ny2);
          if (out[nf] >= 0 || labels[nf] != original) continue;
          out[nf] = next_label;
          stack.push_back(nf);
          if (member_count < min_size) member_indices.push_back(nf);
          ++member_count;
        }
      }

      if (member_count < min_size && adjacent_label >= 0) {
        for (const std::int64_t flat : member_indices) out[flat] = adjacent_label;
        result.components_merged += 1;
        result.pixels_moved += member_count;
      } else {
        ++next_label;
      }
    }
    if (on_row_done) on_row_done(y);
  }

  result.final_label_count = next_label;
  return result;
}

ConnectivityResult enforce_connectivity(LabelImage& labels,
                                        int expected_superpixels,
                                        ConnectivityScratch* scratch) {
  SSLIC_TRACE_SCOPE("slic.connectivity");
  SSLIC_CHECK(expected_superpixels >= 1);
  const int w = labels.width();
  const int h = labels.height();
  SSLIC_CHECK(w > 0 && h > 0);
  const std::size_t n = labels.size();
  SSLIC_CHECK_MSG(n < (std::size_t{1} << 31),
                  "enforce_connectivity indexes runs with int32; a "
                      << w << 'x' << h
                      << " raster needs TiledSegmenter's 64-bit pass");
  const std::size_t min_size = std::max<std::size_t>(
      1, n / static_cast<std::size_t>(expected_superpixels) / 4);

  ConnectivityScratch local_scratch;
  ConnectivityScratch& sc = scratch != nullptr ? *scratch : local_scratch;
  // Worst case is one run per pixel. Reserving it once per image size keeps
  // every later call allocation-free; untouched records never get paged in.
  sc.runs.reserve(n);
  sc.row_begin.resize(static_cast<std::size_t>(h) + 1);
  std::int32_t* const plane = labels.pixels().data();
  std::int32_t* const row_begin = sc.row_begin.data();

  // One band per pool thread. Roots are minimum run indices whatever the
  // banding, so the band count cannot change a byte.
  ThreadPool& pool = ThreadPool::global();
  const std::size_t bands =
      pool.threads() <= 1 || ThreadPool::in_parallel_region()
          ? 1
          : std::min(static_cast<std::size_t>(pool.threads()),
                     static_cast<std::size_t>(h));
  const auto for_each_band = [&](const auto& body) {
    const auto band_fn = [&](std::size_t band) {
      const auto [y0, y1] = detail::chunk_bounds(0, h, bands, band);
      body(static_cast<int>(y0), static_cast<int>(y1));
    };
    if (bands == 1) {
      band_fn(0);
    } else {
      pool.run_chunks(bands, band_fn);
    }
  };

  // Phase 1 (bands): runs per row, stored one slot ahead for the prefix sum.
  for_each_band([&](int y0, int y1) {
    SSLIC_TRACE_SCOPE_AT(1, "connectivity.count", y0);
    for (int y = y0; y < y1; ++y) {
      const std::int32_t* row = row_of(plane, w, y);
      std::int32_t count = 1;
      for (int x = 1; x < w; ++x) count += row[x] != row[x - 1] ? 1 : 0;
      row_begin[y + 1] = count;
    }
  });
  row_begin[0] = 0;
  for (int y = 0; y < h; ++y) row_begin[y + 1] += row_begin[y];
  sc.runs.resize(static_cast<std::size_t>(row_begin[h]));
  Run* const runs = sc.runs.data();

  // Phase 2 (bands): write the runs, then union the rows inside the band.
  for_each_band([&](int y0, int y1) {
    SSLIC_TRACE_SCOPE_AT(1, "connectivity.runs", y0);
    for (int y = y0; y < y1; ++y) {
      const std::int32_t* row = row_of(plane, w, y);
      const std::int32_t first = row_begin[y];
      const std::int32_t last = row_begin[y + 1] - 1;
      // Branch-free: every pixel writes its column into the next run's
      // slot, which keeps it only when the pixel starts that run. Pixels of
      // the row's last run write to a sink instead of the next row.
      runs[first].x = 0;
      std::int32_t sink = 0;
      std::int32_t r = first;
      for (int x = 1; x < w; ++x) {
        std::int32_t* slot = r < last ? &runs[r + 1].x : &sink;
        *slot = x;
        r += row[x] != row[x - 1] ? 1 : 0;
      }
      for (r = first; r <= last; ++r) {
        const int end = r < last ? runs[r + 1].x : w;
        runs[r].parent = r;
        runs[r].value = end - runs[r].x;
      }
      if (y > y0) union_rows(plane, w, y, row_begin, runs);
    }
  });

  // Phase 3: union across the band seams.
  for (std::size_t band = 1; band < bands; ++band) {
    const auto seam = detail::chunk_bounds(0, h, bands, band).first;
    union_rows(plane, w, static_cast<int>(seam), row_begin, runs);
  }

  // Phase 4: resolve every run to its root in one ascending pass (a parent
  // is always a smaller, already-resolved index) and sum region sizes.
  const std::int32_t num_runs = row_begin[h];
  for (std::int32_t r = 0; r < num_runs; ++r) {
    const std::int32_t parent = runs[r].parent;
    if (parent == r) continue;
    const std::int32_t root = runs[parent].parent;
    runs[r].parent = root;
    runs[root].value += runs[r].value;
  }

  // Phase 5: replay the flood fill's absorption rule over the roots in
  // raster order, overwriting each root's size with its final label. The
  // flood fill keeps the last already-labelled neighbour of a region's
  // first pixel in left, right, up, down order, and up and left always
  // start earlier. So a small region takes down if its region starts
  // earlier (has a smaller root), else up; in row 0, right if its region
  // starts earlier, else left. The cursors find the runs below and above
  // the first pixel; roots come in raster order, so they only move forward.
  ConnectivityResult result;
  std::int32_t next_label = 0;
  int y = 0;  // row of root r
  std::int32_t up = 0;
  std::int32_t down = 0;
  for (std::int32_t r = 0; r < num_runs; ++r) {
    if (runs[r].parent != r) continue;
    while (row_begin[y + 1] <= r) ++y;
    const auto size = static_cast<std::size_t>(runs[r].value);
    if (size >= min_size) {
      runs[r].value = next_label++;
      continue;
    }
    const int x = runs[r].x;
    std::int32_t neighbour = -1;  // root of the region to absorb into
    if (y + 1 < h) {
      down = std::max(down, row_begin[y + 1]);
      while (down + 1 < row_begin[y + 2] && runs[down + 1].x <= x) ++down;
      if (runs[down].parent < r) neighbour = runs[down].parent;
    }
    if (neighbour < 0 && y > 0) {
      up = std::max(up, row_begin[y - 1]);
      while (up + 1 < row_begin[y] && runs[up + 1].x <= x) ++up;
      neighbour = runs[up].parent;
    }
    if (neighbour < 0 && r + 1 < row_begin[y + 1] && runs[r + 1].x == x + 1 &&
        runs[r + 1].parent < r)
      neighbour = runs[r + 1].parent;
    if (neighbour < 0 && x > 0) neighbour = runs[r - 1].parent;
    const std::int32_t adjacent_label =
        neighbour >= 0 ? runs[neighbour].value : (next_label > 0 ? 0 : -1);
    if (adjacent_label >= 0) {
      runs[r].value = adjacent_label;
      result.components_merged += 1;
      result.pixels_moved += size;
    } else {
      runs[r].value = next_label++;
    }
  }
  result.final_label_count = next_label;

  // Phase 6 (bands): write every run's final label over its raw one.
  for_each_band([&](int y0, int y1) {
    SSLIC_TRACE_SCOPE_AT(1, "connectivity.relabel", y0);
    for (int row_y = y0; row_y < y1; ++row_y) {
      std::int32_t* row = row_of(plane, w, row_y);
      const std::int32_t last = row_begin[row_y + 1] - 1;
      for (std::int32_t r = row_begin[row_y]; r <= last; ++r) {
        const int x1 = r < last ? runs[r + 1].x : w;
        std::fill(row + runs[r].x, row + x1, runs[runs[r].parent].value);
      }
    }
  });
  return result;
}

bool is_fully_connected(const LabelImage& labels) {
  const int w = labels.width();
  const int h = labels.height();
  if (w == 0 || h == 0) return true;
  Image<std::uint8_t> seen(w, h, 0);
  std::vector<bool> label_seen;
  std::vector<std::int32_t> stack;

  for (int y = 0; y < h; ++y) {
    for (int x = 0; x < w; ++x) {
      if (seen(x, y)) continue;
      const std::int32_t label = labels(x, y);
      SSLIC_CHECK(label >= 0);
      if (static_cast<std::size_t>(label) >= label_seen.size())
        label_seen.resize(static_cast<std::size_t>(label) + 1, false);
      if (label_seen[static_cast<std::size_t>(label)]) return false;  // 2nd component
      label_seen[static_cast<std::size_t>(label)] = true;

      seen(x, y) = 1;
      stack.clear();
      stack.push_back(static_cast<std::int32_t>(y) * w + x);
      while (!stack.empty()) {
        const std::int32_t flat = stack.back();
        stack.pop_back();
        const int cx = flat % w;
        const int cy = flat / w;
        for (int d = 0; d < 4; ++d) {
          const int nx2 = cx + kDx[d];
          const int ny2 = cy + kDy[d];
          if (nx2 < 0 || nx2 >= w || ny2 < 0 || ny2 >= h) continue;
          if (seen(nx2, ny2) || labels(nx2, ny2) != label) continue;
          seen(nx2, ny2) = 1;
          stack.push_back(static_cast<std::int32_t>(ny2) * w + nx2);
        }
      }
    }
  }
  return true;
}

}  // namespace sslic
