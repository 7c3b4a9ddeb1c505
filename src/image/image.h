// Owning image containers.
//
// Image<T> is a single-plane row-major raster; RgbImage is an interleaved
// 8-bit RGB raster (the accelerator's external-memory input format: single-
// byte R,G,B per pixel stored contiguously in raster-scan order, Section
// 4.3); LabImage is a three-plane floating-point CIELAB raster, one plane
// per channel like the accelerator's channel memories (Fig. 4): the color
// conversion writes the planes and the vectorized row kernels read them,
// so the frame keeps one layout from conversion to accumulation.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/span2d.h"

namespace sslic {

/// Owning single-plane row-major raster of T.
template <typename T>
class Image {
 public:
  Image() = default;

  Image(int width, int height, T fill = T{})
      : width_(width),
        height_(height),
        data_(static_cast<std::size_t>(width) * static_cast<std::size_t>(height),
              fill) {
    SSLIC_CHECK(width >= 0 && height >= 0);
  }

  [[nodiscard]] int width() const { return width_; }
  [[nodiscard]] int height() const { return height_; }
  [[nodiscard]] std::size_t size() const { return data_.size(); }
  [[nodiscard]] bool empty() const { return data_.empty(); }

  [[nodiscard]] Span2d<T> view() { return {data_.data(), width_, height_}; }
  [[nodiscard]] Span2d<const T> view() const {
    return {data_.data(), width_, height_};
  }

  T& operator()(int x, int y) {
    SSLIC_DCHECK(x >= 0 && x < width_ && y >= 0 && y < height_);
    return data_[static_cast<std::size_t>(y) * static_cast<std::size_t>(width_) +
                 static_cast<std::size_t>(x)];
  }
  const T& operator()(int x, int y) const {
    SSLIC_DCHECK(x >= 0 && x < width_ && y >= 0 && y < height_);
    return data_[static_cast<std::size_t>(y) * static_cast<std::size_t>(width_) +
                 static_cast<std::size_t>(x)];
  }

  [[nodiscard]] T* data() { return data_.data(); }
  [[nodiscard]] const T* data() const { return data_.data(); }

  [[nodiscard]] std::vector<T>& pixels() { return data_; }
  [[nodiscard]] const std::vector<T>& pixels() const { return data_; }

  void fill(T value) { data_.assign(data_.size(), value); }

  friend bool operator==(const Image& a, const Image& b) {
    return a.width_ == b.width_ && a.height_ == b.height_ && a.data_ == b.data_;
  }

 private:
  int width_ = 0;
  int height_ = 0;
  std::vector<T> data_;
};

/// One interleaved 8-bit RGB pixel.
struct Rgb8 {
  std::uint8_t r = 0;
  std::uint8_t g = 0;
  std::uint8_t b = 0;

  friend bool operator==(const Rgb8&, const Rgb8&) = default;
};

/// Interleaved 8-bit RGB raster — the accelerator's DRAM input layout.
using RgbImage = Image<Rgb8>;

/// One CIELAB pixel in floating point (reference algorithm path).
struct LabF {
  float L = 0.0f;  // lightness, nominal range [0, 100]
  float a = 0.0f;  // green–red, roughly [-110, 110]
  float b = 0.0f;  // blue–yellow, roughly [-110, 110]

  friend bool operator==(const LabF&, const LabF&) = default;
};

/// Floating-point CIELAB raster stored as three planes. A SIMD lane wants
/// consecutive L values, not L/a/b triples, so the row kernels take
/// `L.data() + offset` and the matching `a` and `b` pointers; scalar code
/// reads and writes whole pixels through operator() and set().
struct LabImage {
  Image<float> L;
  Image<float> a;
  Image<float> b;

  LabImage() = default;
  LabImage(int width, int height, LabF fill = {})
      : L(width, height, fill.L),
        a(width, height, fill.a),
        b(width, height, fill.b) {}

  [[nodiscard]] int width() const { return L.width(); }
  [[nodiscard]] int height() const { return L.height(); }
  [[nodiscard]] std::size_t size() const { return L.size(); }
  [[nodiscard]] bool empty() const { return L.empty(); }

  LabF operator()(int x, int y) const { return {L(x, y), a(x, y), b(x, y)}; }
  void set(int x, int y, LabF value) {
    L(x, y) = value.L;
    a(x, y) = value.a;
    b(x, y) = value.b;
  }
};

/// Label map produced by segmentation: one superpixel index per pixel.
using LabelImage = Image<std::int32_t>;

/// Three separate 8-bit planes — the accelerator's scratch-pad channel
/// layout (channel memories 1..3 of Fig. 4).
struct Planar8 {
  Image<std::uint8_t> ch1;  // L (or R before conversion)
  Image<std::uint8_t> ch2;  // a (or G)
  Image<std::uint8_t> ch3;  // b (or B)

  Planar8() = default;
  Planar8(int width, int height)
      : ch1(width, height), ch2(width, height), ch3(width, height) {}

  [[nodiscard]] int width() const { return ch1.width(); }
  [[nodiscard]] int height() const { return ch1.height(); }
};

}  // namespace sslic
