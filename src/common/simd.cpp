#include "common/simd.h"

#include <atomic>
#include <cstdlib>
#include <mutex>

#include "common/logging.h"
#include "common/telemetry.h"

namespace sslic::simd {
namespace {

/// Every name parse_isa accepts, for the unknown-SSLIC_SIMD warning.
constexpr const char* kAcceptedNames =
    "scalar|off|none|sse2|avx2|avx512|neon";

std::string to_lower(const std::string& s) {
  std::string out = s;
  for (char& c : out) {
    if (c >= 'A' && c <= 'Z') c = static_cast<char>(c - 'A' + 'a');
  }
  return out;
}

/// Process-wide preference state. A plain mutex-guarded value: selection
/// happens at startup / between runs, never on the hot path (callers cache
/// the resolved kernel table per segmentation run).
struct Preference {
  std::mutex mutex;
  bool overridden = false;
  Isa value = Isa::kScalar;
};

Preference& preference_state() {
  static Preference p;
  return p;
}

/// Position on the x86 preference ladder (-1 for the ARM lane).
int x86_rank(Isa isa) {
  switch (isa) {
    case Isa::kScalar:
      return 0;
    case Isa::kSse2:
      return 1;
    case Isa::kAvx2:
      return 2;
    case Isa::kAvx512:
      return 3;
    case Isa::kNeon:
      return -1;
  }
  return 0;
}

/// Clamps a requested ISA to what the CPU can execute: an x86 request
/// degrades down the ladder avx512 -> avx2 -> sse2 -> scalar; a
/// cross-architecture request (NEON on x86, SSE/AVX on ARM) degrades
/// straight to scalar.
Isa clamp_to_cpu(Isa want) {
  if (cpu_supports(want)) return want;
  for (const Isa step : {Isa::kAvx2, Isa::kSse2}) {
    if (x86_rank(step) < x86_rank(want) && cpu_supports(step)) return step;
  }
  return Isa::kScalar;
}

Isa env_or_detected() {
  const char* env = std::getenv("SSLIC_SIMD");
  if (env != nullptr && env[0] != '\0') {
    Isa parsed = Isa::kScalar;
    if (parse_isa(env, &parsed)) return parsed;
    // One warning per process: the preference is memoized by the caller,
    // so a typo would otherwise silently fall back to auto-detection.
    static const bool warned = [&] {
      SSLIC_WARN("unknown SSLIC_SIMD value \""
                 << env << "\"; accepted: " << kAcceptedNames
                 << " — falling back to CPU detection");
      return true;
    }();
    (void)warned;
  }
  return detect_cpu_isa();
}

}  // namespace

const char* isa_name(Isa isa) {
  switch (isa) {
    case Isa::kScalar:
      return "scalar";
    case Isa::kSse2:
      return "sse2";
    case Isa::kAvx2:
      return "avx2";
    case Isa::kNeon:
      return "neon";
    case Isa::kAvx512:
      return "avx512";
  }
  return "scalar";
}

bool parse_isa(const std::string& text, Isa* out) {
  const std::string name = to_lower(text);
  if (name == "scalar" || name == "off" || name == "none") {
    *out = Isa::kScalar;
  } else if (name == "sse2") {
    *out = Isa::kSse2;
  } else if (name == "avx2") {
    *out = Isa::kAvx2;
  } else if (name == "neon") {
    *out = Isa::kNeon;
  } else if (name == "avx512") {
    *out = Isa::kAvx512;
  } else {
    return false;
  }
  return true;
}

Isa detect_cpu_isa() {
  static const Isa detected = [] {
#if defined(__aarch64__)
    return Isa::kNeon;  // Advanced SIMD is baseline on AArch64
#elif defined(__x86_64__) || defined(__i386__)
#if defined(__GNUC__) || defined(__clang__)
    // The AVX-512 backend uses F (f64/i32 math, masks), BW (byte-mask
    // loads), DQ, and VL (256-bit label blends) — the Skylake-SP set.
    if (__builtin_cpu_supports("avx512f") &&
        __builtin_cpu_supports("avx512bw") &&
        __builtin_cpu_supports("avx512dq") &&
        __builtin_cpu_supports("avx512vl")) {
      return Isa::kAvx512;
    }
    if (__builtin_cpu_supports("avx2")) return Isa::kAvx2;
    if (__builtin_cpu_supports("sse2")) return Isa::kSse2;
    return Isa::kScalar;
#else
    return Isa::kSse2;  // x86-64 baseline
#endif
#else
    return Isa::kScalar;
#endif
  }();
  return detected;
}

bool cpu_supports(Isa isa) {
  if (isa == Isa::kScalar) return true;
  const Isa best = detect_cpu_isa();
  if (isa == Isa::kNeon) return best == Isa::kNeon;
  if (best == Isa::kNeon) return false;
  return x86_rank(isa) <= x86_rank(best);
}

Isa preferred_isa() {
  Preference& p = preference_state();
  const std::lock_guard<std::mutex> lock(p.mutex);
  if (!p.overridden) {
    p.value = env_or_detected();
    p.overridden = true;
  }
  return clamp_to_cpu(p.value);
}

void set_preferred_isa(Isa isa) {
  Preference& p = preference_state();
  const std::lock_guard<std::mutex> lock(p.mutex);
  p.overridden = true;
  p.value = isa;
}

bool set_preferred_isa(const std::string& text) {
  Isa parsed = Isa::kScalar;
  if (!parse_isa(text, &parsed)) return false;
  set_preferred_isa(parsed);
  return true;
}

void reset_preferred_isa() {
  Preference& p = preference_state();
  const std::lock_guard<std::mutex> lock(p.mutex);
  p.overridden = false;
}

bool backend_compiled(Isa isa) {
  switch (isa) {
    case Isa::kScalar:
      return true;
    case Isa::kSse2:
#if defined(SSLIC_KERNELS_SSE2)
      return true;
#else
      return false;
#endif
    case Isa::kAvx2:
#if defined(SSLIC_KERNELS_AVX2)
      return true;
#else
      return false;
#endif
    case Isa::kNeon:
#if defined(SSLIC_KERNELS_NEON)
      return true;
#else
      return false;
#endif
    case Isa::kAvx512:
#if defined(SSLIC_KERNELS_AVX512)
      return true;
#else
      return false;
#endif
  }
  return false;
}

Isa active_isa() {
  Isa isa = preferred_isa();
  // Degrade along the same ladder the CPU clamp uses, but against the
  // backends compiled into this binary.
  if (isa == Isa::kAvx512 && !backend_compiled(isa)) isa = Isa::kAvx2;
  if (isa == Isa::kAvx2 && !backend_compiled(isa)) isa = Isa::kSse2;
  if (!backend_compiled(isa)) isa = Isa::kScalar;
  // Gauge, not counter: re-resolution is idempotent, and tests/tools read
  // the *effective* backend after env/CPU/binary clamping. Published only
  // when the resolved value changes — the registry lookup takes a mutex
  // and builds a std::string key, neither of which belongs on the
  // per-frame path (test_fused asserts steady-state frames allocate
  // nothing). A gauge reference is never cached across calls because
  // MetricsRegistry::clear() invalidates it.
  static std::atomic<int> last_published{-1};
  const int value = static_cast<int>(isa);
  if (last_published.exchange(value, std::memory_order_relaxed) != value) {
    telemetry::MetricsRegistry::global()
        .gauge("sslic.simd.active_isa")
        .set(static_cast<double>(value));
  }
  return isa;
}

}  // namespace sslic::simd
