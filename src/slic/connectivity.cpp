#include "slic/connectivity.h"

#include <algorithm>
#include <memory>
#include <vector>

#include "common/check.h"
#include "common/thread_pool.h"
#include "common/trace.h"
#include "slic/iteration.h"

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

// Page release behind one cursor of the pass, through the planes' hook,
// kReleaseStride rows at a time. Label rows go as soon as the cursor is
// past them; run records, which root lookups revisit, `look_back` rows
// later. Record ranges come from the prefix sums, so the counting phase
// releases labels only.
enum Held { kLabels = 1, kRuns = 2 };
class Release {
 public:
  Release(const ConnectivityPlanes& planes, int held, int y0)
      : p_(planes),
        labels_(held & kLabels ? y0 : planes.height),
        runs_(held & kRuns ? y0 : planes.height) {}

  // Rows above `y` are done; `all` also drops the look-back and the
  // remainder of a stride, for a cursor that reads none of them again.
  void behind(int y, bool all = false) {
    if (p_.release == nullptr) return;
    const int stride = all ? 1 : kReleaseStride;
    if (y - labels_ >= stride) {
      p_.release(p_.release_context, row_of(p_.labels, p_.width, labels_),
                 row_of(p_.labels, p_.width, y));
      labels_ = y;
    }
    const int upto = all ? y : y - p_.look_back;
    if (upto - runs_ >= stride) {
      p_.release(p_.release_context, p_.runs + p_.row_begin[runs_],
                 p_.runs + p_.row_begin[upto]);
      runs_ = upto;
    }
  }

 private:
  const ConnectivityPlanes& p_;
  int labels_;  // first label row not yet released
  int runs_;    // first row whose records are not yet released
};

}  // namespace

ConnectivityResult enforce_connectivity(const ConnectivityPlanes& planes,
                                        int expected_superpixels) {
  SSLIC_CHECK(expected_superpixels >= 1);
  const int w = planes.width;
  const int h = planes.height;
  SSLIC_CHECK(w > 0 && h > 0);
  SSLIC_CHECK(planes.labels != nullptr && planes.runs != nullptr &&
              planes.row_begin != nullptr);
  const std::size_t n = static_cast<std::size_t>(w) * static_cast<std::size_t>(h);
  const std::size_t min_size = std::max<std::size_t>(
      1, n / static_cast<std::size_t>(expected_superpixels) / 4);
  std::int32_t* const plane = planes.labels;
  std::int32_t* const row_begin = planes.row_begin;
  Run* const runs = planes.runs;

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
    Release done(planes, kLabels, y0);
    for (int y = y0; y < y1; ++y) {
      const std::int32_t* row = row_of(plane, w, y);
      std::int32_t count = 1;
      for (int x = 1; x < w; ++x) count += row[x] != row[x - 1] ? 1 : 0;
      row_begin[y + 1] = count;
      done.behind(y + 1);
    }
    done.behind(y1, true);
  });
  // Runs are counted in 64 bits; the records index them with int32.
  row_begin[0] = 0;
  std::int64_t num_runs = 0;
  for (int y = 0; y < h; ++y) {
    num_runs += row_begin[y + 1];
    row_begin[y + 1] = static_cast<std::int32_t>(num_runs);
  }
  SSLIC_CHECK_MSG(num_runs < (std::int64_t{1} << 31),
                  "connectivity indexes row runs with int32; the "
                      << w << 'x' << h << " raster has " << num_runs
                      << " runs, past the limit of 2^31 - 1");

  // Phase 2 (bands): write the runs, then union the rows inside the band.
  for_each_band([&](int y0, int y1) {
    SSLIC_TRACE_SCOPE_AT(1, "connectivity.runs", y0);
    Release done(planes, kLabels | kRuns, y0);
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
      done.behind(y);  // row y is the row above y + 1
    }
    done.behind(y1, true);
  });

  // Phase 3: union across the band seams.
  for (std::size_t band = 1; band < bands; ++band) {
    const auto seam = detail::chunk_bounds(0, h, bands, band).first;
    union_rows(plane, w, static_cast<int>(seam), row_begin, runs);
  }

  // Phase 4: resolve every run to its root in one ascending pass (a parent
  // is always a smaller, already-resolved index) and sum region sizes.
  {
    Release done(planes, kRuns, 0);
    for (int y = 0; y < h; ++y) {
      for (std::int32_t r = row_begin[y]; r < row_begin[y + 1]; ++r) {
        const std::int32_t parent = runs[r].parent;
        if (parent == r) continue;
        const std::int32_t root = runs[parent].parent;
        runs[r].parent = root;
        runs[root].value += runs[r].value;
      }
      done.behind(y + 1);
    }
    done.behind(h, true);
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
  {
    Release done(planes, kRuns, 0);
    std::int32_t up = 0;
    std::int32_t down = 0;
    for (int y = 0; y < h; ++y) {
      for (std::int32_t r = row_begin[y]; r < row_begin[y + 1]; ++r) {
        if (runs[r].parent != r) continue;
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
        if (neighbour < 0 && r + 1 < row_begin[y + 1] &&
            runs[r + 1].x == x + 1 && runs[r + 1].parent < r)
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
      done.behind(y);  // row y is the row above y + 1
    }
    done.behind(h, true);
  }
  result.final_label_count = next_label;

  // Phase 6 (bands): write every run's final label over its raw one.
  for_each_band([&](int y0, int y1) {
    SSLIC_TRACE_SCOPE_AT(1, "connectivity.relabel", y0);
    Release done(planes, kLabels | kRuns, y0);
    for (int y = y0; y < y1; ++y) {
      std::int32_t* row = row_of(plane, w, y);
      const std::int32_t last = row_begin[y + 1] - 1;
      for (std::int32_t r = row_begin[y]; r <= last; ++r) {
        const int x1 = r < last ? runs[r + 1].x : w;
        std::fill(row + runs[r].x, row + x1, runs[runs[r].parent].value);
      }
      done.behind(y + 1);
    }
    done.behind(y1, true);
  });
  return result;
}

ConnectivityResult enforce_connectivity(LabelImage& labels,
                                        int expected_superpixels,
                                        ConnectivityScratch* scratch) {
  const int w = labels.width();
  const int h = labels.height();
  const std::size_t n = labels.size();
  SSLIC_CHECK_MSG(n < (std::size_t{1} << 31),
                  "enforce_connectivity takes rasters under 2^31 pixels; a "
                      << w << 'x' << h << " raster goes through TiledSegmenter");

  ConnectivityScratch local_scratch;
  ConnectivityScratch& sc = scratch != nullptr ? *scratch : local_scratch;
  // Worst case is one run per pixel. Allocating it once per image size
  // keeps every later call allocation-free; untouched records never get
  // paged in.
  if (sc.run_capacity < n) {
    sc.runs = std::make_unique_for_overwrite<Run[]>(n);
    sc.run_capacity = n;
  }
  sc.row_begin.resize(static_cast<std::size_t>(h) + 1);
  return enforce_connectivity({.labels = labels.pixels().data(),
                               .width = w,
                               .height = h,
                               .runs = sc.runs.get(),
                               .row_begin = sc.row_begin.data()},
                              expected_superpixels);
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
