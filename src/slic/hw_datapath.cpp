#include "slic/hw_datapath.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>

#include "common/check.h"
#include "common/trace.h"
#include "slic/assign_kernels.h"
#include "slic/connectivity.h"
#include "slic/grid.h"
#include "slic/subset_schedule.h"

namespace sslic {

HwSlic::HwSlic(HwConfig config) : config_(config), color_unit_(config.color) {
  SSLIC_CHECK(config_.num_superpixels >= 1);
  SSLIC_CHECK(config_.compactness > 0.0);
  SSLIC_CHECK(config_.iterations >= 1);
  SSLIC_CHECK(config_.distance_register_bits == 0 ||
              (config_.distance_register_bits >= 4 &&
               config_.distance_register_bits <= 24));
}

std::int32_t HwSlic::integer_distance(const Lab8& pixel, int px, int py,
                                      const HwCenter& center,
                                      std::int32_t weight_q8) {
  const std::int32_t dl = static_cast<std::int32_t>(pixel.L) - center.L;
  const std::int32_t da = static_cast<std::int32_t>(pixel.a) - center.a;
  const std::int32_t db = static_cast<std::int32_t>(pixel.b) - center.b;
  const std::int32_t dx = px - center.x;
  const std::int32_t dy = py - center.y;
  const std::int32_t dc2 = dl * dl + da * da + db * db;   // <= 3*255^2, 18 bits
  const std::int32_t ds2 = dx * dx + dy * dy;             // <= 2*(2S)^2
  // Spatial weighting m^2/S^2 as a Q8 multiplier, shifted back down — one
  // multiply and one shift in hardware.
  const std::int32_t spatial = static_cast<std::int32_t>(
      (static_cast<std::int64_t>(weight_q8) * ds2) >> 8);
  return dc2 + spatial;
}

std::int32_t HwSlic::quantize_distance(std::int32_t d, int bits, int shift) {
  if (bits == 0) return d;
  const std::int32_t reduced = d >> shift;
  const std::int32_t max_val = (std::int32_t{1} << bits) - 1;
  return std::min(reduced, max_val);
}

Segmentation HwSlic::segment(const RgbImage& image, HwRunStats* stats) const {
  SSLIC_CHECK(!image.empty());
  SSLIC_TRACE_SCOPE("hw.segment");
  const int w = image.width();
  const int h = image.height();
  const std::size_t n = image.size();

  HwRunStats local_stats;
  HwRunStats& st = stats != nullptr ? *stats : local_stats;
  st = HwRunStats{};

  // --- Color conversion: RGB loaded into channel memories, converted via
  // the LUT unit, written back as L/a/b planes (Section 4.3). ---
  trace::Interval color_span;
  const Planar8 planes = color_unit_.convert(image);
  color_span.complete("hw.color_convert");
  st.pixels_converted = n;
  st.dram_image_read += 3 * n;  // RGB bytes in

  // --- Static initialization: grid, candidate tiling, initial labels. ---
  const CenterGrid grid(w, h, config_.num_superpixels);
  const std::vector<CandidateList> candidates = build_candidate_map(grid);
  const SubsetSchedule schedule =
      SubsetSchedule::from_ratio(config_.subsample_ratio);

  const std::int32_t weight_q8 = std::max<std::int32_t>(
      1, static_cast<std::int32_t>(std::lround(
             config_.compactness * config_.compactness /
             (grid.spacing() * grid.spacing()) * 256.0)));

  // Distance-register reduction shift: keep the top `bits` of the widest
  // representable combined distance.
  int dist_shift = 0;
  if (config_.distance_register_bits != 0) {
    const double max_ds2 = 2.0 * (2.0 * grid.spacing()) * (2.0 * grid.spacing());
    const double max_combined =
        3.0 * 255.0 * 255.0 + (weight_q8 * max_ds2) / 256.0;
    int bits_needed = 1;
    while (std::ldexp(1.0, bits_needed) <= max_combined) ++bits_needed;
    dist_shift = std::max(0, bits_needed - config_.distance_register_bits);
  }

  const int num_centers = grid.num_centers();
  std::vector<HwCenter> centers(static_cast<std::size_t>(num_centers));
  for (int gy = 0; gy < grid.ny(); ++gy) {
    for (int gx = 0; gx < grid.nx(); ++gx) {
      const int px = std::clamp(static_cast<int>(grid.center_pos_x(gx)), 0, w - 1);
      const int py = std::clamp(static_cast<int>(grid.center_pos_y(gy)), 0, h - 1);
      HwCenter& c = centers[static_cast<std::size_t>(grid.center_index(gx, gy))];
      c.L = planes.ch1(px, py);
      c.a = planes.ch2(px, py);
      c.b = planes.ch3(px, py);
      c.x = px;
      c.y = py;
    }
  }

  Segmentation result;
  result.labels = initial_labels(grid);

  // Six-field integer sigma registers, one set per center (the hardware
  // keeps 9 live in the cluster update unit and spills per tile to the
  // center update unit; the total accumulation is identical).
  struct HwSigma {
    std::int64_t L = 0, a = 0, b = 0, x = 0, y = 0, count = 0;
  };
  std::vector<HwSigma> sigmas(static_cast<std::size_t>(num_centers));

  // The Planar8 channel memories are already the SoA layout the vectorized
  // datapath kernel consumes; the subset mask is materialized per row.
  const kernels::KernelTable& kt = kernels::active();
  std::vector<std::uint8_t> row_active(static_cast<std::size_t>(w), 0);
  std::int32_t* labels_ptr = result.labels.pixels().data();
  const bool all_active = schedule.count() == 1;

  for (int iter = 0; iter < config_.iterations; ++iter) {
    SSLIC_TRACE_SCOPE("hw.iter", iter);
    IterationStats iter_stats;
    iter_stats.iteration = iter;
    for (auto& s : sigmas) s = HwSigma{};

    for (int gy = 0; gy < grid.ny(); ++gy) {
      const int y0 = gy * h / grid.ny();
      const int y1 = (gy + 1) * h / grid.ny();
      for (int gx = 0; gx < grid.nx(); ++gx) {
        SSLIC_TRACE_SCOPE_AT(1, "hw.tile", grid.center_index(gx, gy));
        const int x0 = gx * w / grid.nx();
        const int x1 = (gx + 1) * w / grid.nx();
        const CandidateList& cand =
            candidates[static_cast<std::size_t>(grid.center_index(gx, gy))];
        st.tiles_processed += 1;
        // Tile streaming: 3 channel bytes per pixel in, 1 index byte in and
        // out (whole tiles move in DRAM bursts regardless of the subset).
        const std::uint64_t tile_pixels =
            static_cast<std::uint64_t>(x1 - x0) * static_cast<std::uint64_t>(y1 - y0);
        st.dram_image_read += 3 * tile_pixels;
        st.dram_index_read += tile_pixels;
        st.dram_index_write += tile_pixels;
        st.dram_center_read += 9 * 8;

        // Visited-pixel counting is hoisted out of the pixel loop: one
        // register-resident tile counter, added back per tile, keeps the
        // totals exact without taxing the datapath's inner loop.
        // Nine distance calculators feeding the 9:1 minimum tree; ties
        // resolve to the lowest slot, as a hardware tree does. The center
        // registers are snapshotted into kernel operands in slot order.
        std::array<kernels::HwCenterOperand, 9> cand_ops;
        for (std::size_t k = 0; k < cand.size(); ++k) {
          const HwCenter& hc = centers[static_cast<std::size_t>(cand[k])];
          cand_ops[k] = {hc.L, hc.a, hc.b, hc.x, hc.y, cand[k]};
        }
        const std::int32_t count = x1 - x0;

        std::uint64_t tile_visited = 0;
        for (int y = y0; y < y1; ++y) {
          const std::size_t off =
              static_cast<std::size_t>(y) * static_cast<std::size_t>(w) +
              static_cast<std::size_t>(x0);
          std::uint64_t visited = static_cast<std::uint64_t>(count);
          const std::uint8_t* mask = nullptr;
          if (!all_active) {
            visited = 0;
            for (int x = x0; x < x1; ++x) {
              const bool is_active = schedule.active(x, y, iter);
              row_active[static_cast<std::size_t>(x - x0)] =
                  is_active ? std::uint8_t{1} : std::uint8_t{0};
              visited += is_active ? 1 : 0;
            }
            if (visited == 0) continue;
            mask = row_active.data();
          }
          SSLIC_TRACE_SCOPE_AT(2, "hw.kernel.row", y);
          kt.assign_candidates_row_u8(
              planes.ch1.data() + off, planes.ch2.data() + off,
              planes.ch3.data() + off, x0, count, y, cand_ops.data(),
              static_cast<std::int32_t>(cand.size()), weight_q8,
              config_.distance_register_bits, dist_shift, mask,
              labels_ptr + off);

          // Cluster-update accumulation from the freshly written labels —
          // same x-ascending order and integer sums as the fused loop.
          for (int x = x0; x < x1; ++x) {
            if (mask != nullptr &&
                row_active[static_cast<std::size_t>(x - x0)] == 0) {
              continue;
            }
            const std::size_t flat =
                off + static_cast<std::size_t>(x - x0);
            HwSigma& s = sigmas[static_cast<std::size_t>(labels_ptr[flat])];
            s.L += planes.ch1.pixels()[flat];
            s.a += planes.ch2.pixels()[flat];
            s.b += planes.ch3.pixels()[flat];
            s.x += x;
            s.y += y;
            s.count += 1;
          }
          tile_visited += visited;
        }
        st.pixels_visited += tile_visited;
        iter_stats.pixels_visited += tile_visited;
      }
    }

    // --- Center update unit: one rounded integer division per field. ---
    SSLIC_TRACE_SCOPE("hw.update", iter);
    double movement = 0.0;
    std::size_t updated = 0;
    for (std::size_t ci = 0; ci < centers.size(); ++ci) {
      const HwSigma& s = sigmas[ci];
      if (s.count == 0) continue;
      const auto divide = [&](std::int64_t sum) {
        return static_cast<std::int32_t>((sum + s.count / 2) / s.count);
      };
      HwCenter next{divide(s.L), divide(s.a), divide(s.b), divide(s.x),
                    divide(s.y)};
      movement += std::abs(next.x - centers[ci].x) +
                  std::abs(next.y - centers[ci].y);
      centers[ci] = next;
      ++updated;
      st.center_updates += 1;
      st.dram_center_write += 8;
    }
    iter_stats.center_movement =
        updated == 0 ? 0.0 : movement / static_cast<double>(updated);
    st.iterations += 1;
    result.iterations_run = iter + 1;
    result.trace.push_back(iter_stats);
  }

  // Export final centers in the common floating-point form (decoded Lab8).
  result.centers.resize(centers.size());
  for (std::size_t i = 0; i < centers.size(); ++i) {
    const LabF lab = decode_lab8({static_cast<std::uint8_t>(centers[i].L),
                                  static_cast<std::uint8_t>(centers[i].a),
                                  static_cast<std::uint8_t>(centers[i].b)});
    result.centers[i] = {static_cast<double>(lab.L), static_cast<double>(lab.a),
                         static_cast<double>(lab.b),
                         static_cast<double>(centers[i].x),
                         static_cast<double>(centers[i].y)};
  }

  if (config_.enforce_connectivity) {
    SSLIC_TRACE_SCOPE("hw.connectivity");
    enforce_connectivity(result.labels, config_.num_superpixels);
  }
  return result;
}

}  // namespace sslic
