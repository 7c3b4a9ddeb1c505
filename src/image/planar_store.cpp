#include "image/planar_store.h"

#include <algorithm>
#include <cerrno>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <vector>

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/resource.h>
#include <unistd.h>

#include "common/check.h"

namespace sslic {
namespace {

[[noreturn]] void store_fail(const std::string& what) {
  throw std::runtime_error("planar store: " + what + ": " + std::strerror(errno));
}

std::size_t page_size() {
  static const std::size_t size = static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
  return size;
}

std::size_t round_up_page(std::size_t bytes) {
  const std::size_t page = page_size();
  return (bytes + page - 1) / page * page;
}

}  // namespace

PlanarStore::~PlanarStore() { close(); }

void PlanarStore::open(int width, int height, bool with_min_dist,
                       const Config& config) {
  SSLIC_CHECK(width >= 1 && height >= 1);
  close();
  width_ = width;
  height_ = height;
  const std::size_t n =
      static_cast<std::size_t>(width) * static_cast<std::size_t>(height);

  // Each plane starts on a page boundary so release_rows can drop one
  // plane's rows without touching its neighbour's tail bytes.
  const std::size_t f32_plane = round_up_page(n * sizeof(float));
  const std::size_t i32_plane = round_up_page(n * sizeof(std::int32_t));
  const std::size_t f64_plane =
      with_min_dist ? round_up_page(n * sizeof(double)) : 0;
  total_bytes_ = 3 * f32_plane + i32_plane + f64_plane;

  void* mapped = MAP_FAILED;
  if (config.spill_to_disk) {
    std::string dir = config.spill_dir;
    if (dir.empty()) {
      const char* tmpdir = std::getenv("TMPDIR");
      dir = tmpdir != nullptr && tmpdir[0] != '\0' ? tmpdir : "/tmp";
    }
    std::string templ = dir + "/sslic-store-XXXXXX";
    std::vector<char> path(templ.begin(), templ.end());
    path.push_back('\0');
    const int fd = mkstemp(path.data());
    if (fd < 0) store_fail("mkstemp in " + dir);
    // Unlink immediately: the backing file lives only as long as the
    // mapping, and a crashed run leaves nothing behind.
    ::unlink(path.data());
    if (ftruncate(fd, static_cast<off_t>(total_bytes_)) != 0) {
      ::close(fd);
      store_fail("ftruncate to " + std::to_string(total_bytes_) + " bytes");
    }
    mapped = mmap(nullptr, total_bytes_, PROT_READ | PROT_WRITE, MAP_SHARED, fd, 0);
    ::close(fd);  // the mapping keeps the file alive
    disk_backed_ = true;
  } else {
    mapped = mmap(nullptr, total_bytes_, PROT_READ | PROT_WRITE,
                  MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    disk_backed_ = false;
  }
  if (mapped == MAP_FAILED) {
    const std::size_t wanted = total_bytes_;
    total_bytes_ = 0;
    store_fail("mmap of " + std::to_string(wanted) + " bytes");
  }
  base_ = static_cast<std::byte*>(mapped);

  std::byte* cursor = base_;
  lab_l_ = reinterpret_cast<float*>(cursor);
  cursor += f32_plane;
  lab_a_ = reinterpret_cast<float*>(cursor);
  cursor += f32_plane;
  lab_b_ = reinterpret_cast<float*>(cursor);
  cursor += f32_plane;
  labels_ = reinterpret_cast<std::int32_t*>(cursor);
  cursor += i32_plane;
  min_dist_ = with_min_dist ? reinterpret_cast<double*>(cursor) : nullptr;
}

void PlanarStore::close() {
  if (base_ != nullptr) munmap(base_, total_bytes_);
  base_ = nullptr;
  total_bytes_ = 0;
  width_ = 0;
  height_ = 0;
  disk_backed_ = false;
  lab_l_ = nullptr;
  lab_a_ = nullptr;
  lab_b_ = nullptr;
  labels_ = nullptr;
  min_dist_ = nullptr;
}

std::byte* PlanarStore::plane_base(Plane plane, std::size_t* elem_size) const {
  switch (plane) {
    case Plane::kLabL:
      *elem_size = sizeof(float);
      return reinterpret_cast<std::byte*>(lab_l_);
    case Plane::kLabA:
      *elem_size = sizeof(float);
      return reinterpret_cast<std::byte*>(lab_a_);
    case Plane::kLabB:
      *elem_size = sizeof(float);
      return reinterpret_cast<std::byte*>(lab_b_);
    case Plane::kLabels:
      *elem_size = sizeof(std::int32_t);
      return reinterpret_cast<std::byte*>(labels_);
    case Plane::kMinDist:
      *elem_size = sizeof(double);
      return reinterpret_cast<std::byte*>(min_dist_);
  }
  *elem_size = 0;
  return nullptr;
}

void PlanarStore::release_range(const std::byte* begin, const std::byte* end) {
  const std::size_t page = page_size();
  auto lo = reinterpret_cast<std::uintptr_t>(begin);
  auto hi = reinterpret_cast<std::uintptr_t>(end);
  lo = (lo + page - 1) / page * page;  // round inward: never drop a page a
  hi = hi / page * page;               // neighbouring band still owns
  if (lo >= hi) return;
  // Data-safe on MAP_SHARED file mappings: DONTNEED drops the PTEs (and the
  // RSS charge); dirty pages are written back and refault from the page
  // cache or disk on the next touch.
  madvise(reinterpret_cast<void*>(lo), hi - lo, MADV_DONTNEED);
}

void PlanarStore::release_plane_rows(Plane plane, int y0, int y1) {
  if (!disk_backed_ || base_ == nullptr) return;
  y0 = std::max(0, y0);
  y1 = std::min(height_, y1);
  if (y0 >= y1) return;
  std::size_t elem = 0;
  const std::byte* base = plane_base(plane, &elem);
  if (base == nullptr) return;
  const std::size_t row_bytes = static_cast<std::size_t>(width_) * elem;
  release_range(base + static_cast<std::size_t>(y0) * row_bytes,
                base + static_cast<std::size_t>(y1) * row_bytes);
}

void PlanarStore::release_bytes(const void* begin, const void* end) {
  if (!disk_backed_ || base_ == nullptr) return;
  const auto* lo = static_cast<const std::byte*>(begin);
  const auto* hi = static_cast<const std::byte*>(end);
  SSLIC_CHECK(base_ <= lo && lo <= hi && hi <= base_ + total_bytes_);
  release_range(lo, hi);
}

void PlanarStore::release_rows(int y0, int y1) {
  if (!disk_backed_ || base_ == nullptr) return;
  for (const Plane plane :
       {Plane::kLabL, Plane::kLabA, Plane::kLabB, Plane::kLabels}) {
    release_plane_rows(plane, y0, y1);
  }
  if (min_dist_ != nullptr) release_plane_rows(Plane::kMinDist, y0, y1);
}

std::size_t peak_rss_bytes() {
  struct rusage usage {};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
  // Linux reports ru_maxrss in kilobytes.
  return static_cast<std::size_t>(usage.ru_maxrss) * 1024;
}

}  // namespace sslic
