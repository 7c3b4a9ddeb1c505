// Unit tests for src/image: containers, PPM/PGM I/O, gradients, drawing.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "image/draw.h"
#include "image/gradient.h"
#include "image/image.h"
#include "image/io.h"
#include "image/stream_io.h"

namespace sslic {
namespace {

std::string temp_path(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

// -------------------------------------------------------------------- Image

TEST(Image, ConstructionFills) {
  Image<int> img(4, 3, 7);
  EXPECT_EQ(img.width(), 4);
  EXPECT_EQ(img.height(), 3);
  EXPECT_EQ(img.size(), 12u);
  for (int y = 0; y < 3; ++y)
    for (int x = 0; x < 4; ++x) EXPECT_EQ(img(x, y), 7);
}

TEST(Image, ViewAliasesStorage) {
  Image<int> img(3, 3, 0);
  img.view()(1, 2) = 5;
  EXPECT_EQ(img(1, 2), 5);
}

TEST(Image, EqualityComparesContents) {
  Image<int> a(2, 2, 1), b(2, 2, 1);
  EXPECT_EQ(a, b);
  b(0, 0) = 2;
  EXPECT_FALSE(a == b);
}

TEST(Image, FillOverwrites) {
  Image<int> img(2, 2, 1);
  img.fill(9);
  EXPECT_EQ(img(1, 1), 9);
}

// ----------------------------------------------------------------- PPM I/O

TEST(PpmIo, RoundTripBinary) {
  RgbImage img(5, 4);
  for (int y = 0; y < 4; ++y)
    for (int x = 0; x < 5; ++x)
      img(x, y) = {static_cast<std::uint8_t>(x * 50),
                   static_cast<std::uint8_t>(y * 60),
                   static_cast<std::uint8_t>(x + y)};
  const std::string path = temp_path("sslic_roundtrip.ppm");
  write_ppm(path, img);
  const RgbImage back = read_ppm(path);
  EXPECT_EQ(img, back);
  std::remove(path.c_str());
}

TEST(PpmIo, ReadsAsciiP3) {
  const std::string path = temp_path("sslic_ascii.ppm");
  {
    std::ofstream out(path);
    out << "P3\n# comment line\n2 1\n255\n255 0 0  0 255 0\n";
  }
  const RgbImage img = read_ppm(path);
  EXPECT_EQ(img.width(), 2);
  EXPECT_EQ(img.height(), 1);
  EXPECT_EQ(img(0, 0), (Rgb8{255, 0, 0}));
  EXPECT_EQ(img(1, 0), (Rgb8{0, 255, 0}));
  std::remove(path.c_str());
}

TEST(PpmIo, MissingFileThrows) {
  EXPECT_THROW(read_ppm("/nonexistent/definitely_missing.ppm"),
               std::runtime_error);
}

TEST(PpmIo, BadMagicThrows) {
  const std::string path = temp_path("sslic_bad.ppm");
  {
    std::ofstream out(path);
    out << "Q9\n2 2\n255\n";
  }
  EXPECT_THROW(read_ppm(path), std::runtime_error);
  std::remove(path.c_str());
}

TEST(PpmIo, TruncatedPixelDataThrows) {
  const std::string path = temp_path("sslic_trunc.ppm");
  {
    std::ofstream out(path, std::ios::binary);
    out << "P6\n4 4\n255\n";
    out << "onlyafewbytes";
  }
  EXPECT_THROW(read_ppm(path), std::runtime_error);
  std::remove(path.c_str());
}

TEST(PpmIo, AbsurdDimensionsRejectedBeforeAllocation) {
  // A hostile header must fail in the parser, not as a giant allocation or
  // a size_t overflow: dimensions above 2^20 are rejected outright, and the
  // payload size is computed with an explicit 64-bit overflow check.
  const std::string path = temp_path("sslic_absurd.ppm");
  for (const char* header : {"P6\n2000000 2000000\n255\n", "P6\n4 4\n65535\n",
                             "P6\n-3 4\n255\n", "P6\n0 4\n255\n"}) {
    {
      std::ofstream out(path, std::ios::binary);
      out << header;
    }
    EXPECT_THROW(read_ppm(path), std::runtime_error) << header;
  }
  std::remove(path.c_str());
}

TEST(PgmIo, TruncatedPixelDataThrows) {
  const std::string path = temp_path("sslic_trunc.pgm");
  {
    std::ofstream out(path, std::ios::binary);
    out << "P5\n8 8\n255\nshort";
  }
  EXPECT_THROW(read_pgm(path), std::runtime_error);
  std::remove(path.c_str());
}

// ------------------------------------------------------------ streaming I/O

TEST(StreamIo, PpmRowRoundTripInBands) {
  RgbImage img(7, 9);
  for (int y = 0; y < 9; ++y)
    for (int x = 0; x < 7; ++x)
      img(x, y) = {static_cast<std::uint8_t>(x * 31),
                   static_cast<std::uint8_t>(y * 23),
                   static_cast<std::uint8_t>(x ^ y)};
  const std::string path = temp_path("sslic_stream.ppm");
  {
    PpmRowWriter writer(path, 7, 9);
    // Ragged bands: 4 + 4 + 1 rows.
    writer.write_rows(img.pixels().data(), 4);
    writer.write_rows(img.pixels().data() + 4 * 7, 4);
    writer.write_rows(img.pixels().data() + 8 * 7, 1);
    writer.finish();
  }
  // The streamed file must be bit-identical to the monolithic writer's.
  const RgbImage whole = read_ppm(path);
  EXPECT_EQ(whole, img);

  PpmRowReader reader(path);
  EXPECT_EQ(reader.width(), 7);
  EXPECT_EQ(reader.height(), 9);
  RgbImage back(7, 9);
  reader.read_rows(back.pixels().data(), 3);
  reader.read_rows(back.pixels().data() + 3 * 7, 6);
  EXPECT_EQ(reader.rows_read(), 9);
  EXPECT_EQ(back, img);
  std::remove(path.c_str());
}

TEST(StreamIo, ReaderReportsTruncationWithByteCounts) {
  const std::string path = temp_path("sslic_stream_trunc.ppm");
  {
    std::ofstream out(path, std::ios::binary);
    out << "P6\n4 4\n255\n";
    out << "only six byte";  // 13 bytes of a 48-byte payload
  }
  PpmRowReader reader(path);
  std::vector<Rgb8> rows(16);
  try {
    reader.read_rows(rows.data(), 4);
    FAIL() << "expected truncation error";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("expected"), std::string::npos) << what;
    EXPECT_NE(what.find(path), std::string::npos) << what;
  }
  std::remove(path.c_str());
}

TEST(StreamIo, PgmRowWriterMatchesMonolithicWriter) {
  Image<std::uint8_t> grey(5, 6);
  for (int y = 0; y < 6; ++y)
    for (int x = 0; x < 5; ++x)
      grey(x, y) = static_cast<std::uint8_t>(x * 40 + y);
  const std::string streamed = temp_path("sslic_stream.pgm");
  const std::string whole = temp_path("sslic_whole.pgm");
  {
    PgmRowWriter writer(streamed, 5, 6);
    writer.write_rows(grey.data(), 2);
    writer.write_rows(grey.data() + 2 * 5, 4);
    writer.finish();
  }
  write_pgm(whole, grey);
  std::ifstream a(streamed, std::ios::binary), b(whole, std::ios::binary);
  const std::string sa((std::istreambuf_iterator<char>(a)),
                       std::istreambuf_iterator<char>());
  const std::string sb((std::istreambuf_iterator<char>(b)),
                       std::istreambuf_iterator<char>());
  EXPECT_EQ(sa, sb);
  std::remove(streamed.c_str());
  std::remove(whole.c_str());
}

TEST(PgmIo, WritesLabelMap) {
  LabelImage labels(4, 4, 0);
  labels(2, 2) = 3;
  const std::string path = temp_path("sslic_labels.pgm");
  write_label_pgm(path, labels);
  std::ifstream in(path, std::ios::binary);
  std::string magic;
  in >> magic;
  EXPECT_EQ(magic, "P5");
  std::remove(path.c_str());
}

// ---------------------------------------------------------------- gradient

TEST(Gradient, FlatImageHasZeroGradient) {
  LabImage lab(8, 8, LabF{50.0f, 0.0f, 0.0f});
  const Image<float> g = lab_gradient_magnitude(lab);
  for (const float v : g.pixels()) EXPECT_FLOAT_EQ(v, 0.0f);
}

TEST(Gradient, VerticalEdgeDetected) {
  LabImage lab(8, 8, LabF{20.0f, 0.0f, 0.0f});
  for (int y = 0; y < 8; ++y)
    for (int x = 4; x < 8; ++x) lab.set(x, y, {80.0f, 0.0f, 0.0f});
  const Image<float> g = lab_gradient_magnitude(lab);
  // Gradient peaks on the columns adjacent to the edge.
  EXPECT_GT(g(4, 4), g(1, 4));
  EXPECT_GT(g(3, 4), g(6, 4));
}

TEST(Gradient, ArgminAvoidsEdgePixel) {
  Image<float> g(8, 8, 1.0f);
  g(4, 4) = 100.0f;  // high-gradient pixel
  g(5, 4) = 0.1f;    // low-gradient neighbour
  const Point p = argmin_gradient_3x3(g, 4, 4);
  EXPECT_EQ(p.x, 5);
  EXPECT_EQ(p.y, 4);
}

TEST(Gradient, ArgminClampsNearBorder) {
  Image<float> g(8, 8, 1.0f);
  const Point p = argmin_gradient_3x3(g, 0, 0);
  EXPECT_GE(p.x, 0);
  EXPECT_GE(p.y, 0);
  EXPECT_LT(p.x, 8);
  EXPECT_LT(p.y, 8);
}

TEST(Gradient, SobelFlatIsZero) {
  Image<std::uint8_t> grey(6, 6, 100);
  const Image<float> g = sobel_magnitude(grey);
  for (const float v : g.pixels()) EXPECT_FLOAT_EQ(v, 0.0f);
}

// -------------------------------------------------------------------- draw

TEST(Draw, BoundaryMaskMarksLabelChanges) {
  LabelImage labels(4, 2, 0);
  labels(2, 0) = labels(3, 0) = labels(2, 1) = labels(3, 1) = 1;
  const Image<std::uint8_t> mask = boundary_mask(labels);
  EXPECT_EQ(mask(1, 0), 1);  // right neighbour differs
  EXPECT_EQ(mask(0, 0), 0);
  EXPECT_EQ(mask(3, 1), 0);
}

TEST(Draw, OverlayPaintsBoundaries) {
  RgbImage img(4, 2, Rgb8{0, 0, 0});
  LabelImage labels(4, 2, 0);
  labels(2, 0) = labels(3, 0) = labels(2, 1) = labels(3, 1) = 1;
  const RgbImage out = overlay_boundaries(img, labels, {255, 0, 0});
  EXPECT_EQ(out(1, 0), (Rgb8{255, 0, 0}));
  EXPECT_EQ(out(0, 0), (Rgb8{0, 0, 0}));
}

TEST(Draw, MeanColorAbstractionAveragesRegions) {
  RgbImage img(4, 1);
  img(0, 0) = {10, 0, 0};
  img(1, 0) = {30, 0, 0};
  img(2, 0) = {100, 200, 0};
  img(3, 0) = {100, 200, 0};
  LabelImage labels(4, 1, 0);
  labels(2, 0) = labels(3, 0) = 1;
  const RgbImage out = mean_color_abstraction(img, labels);
  EXPECT_EQ(out(0, 0).r, 20);
  EXPECT_EQ(out(1, 0).r, 20);
  EXPECT_EQ(out(2, 0), (Rgb8{100, 200, 0}));
}

TEST(Draw, MismatchedSizesThrow) {
  RgbImage img(4, 4);
  LabelImage labels(3, 3, 0);
  EXPECT_THROW(overlay_boundaries(img, labels), ContractViolation);
  EXPECT_THROW(mean_color_abstraction(img, labels), ContractViolation);
}

}  // namespace
}  // namespace sslic
