// Portable SIMD instruction-set selection: runtime CPU detection plus a
// process-wide preference that benches, examples, and tests can override
// (`SSLIC_SIMD` environment variable or a `--simd=NAME` flag).
//
// This header names instruction sets and resolves which one runs; the
// vector kernels themselves live in per-ISA translation units
// (slic/assign_kernels.h, color/color_kernels.h) compiled with the matching
// architecture flags. `active_isa()` is the one clamp ladder both kernel
// families resolve through: the preference, clamped to the CPU, then to the
// backends this binary compiled. Selection is resolved once (first query
// reads the environment) and is cheap to re-query afterwards.
#pragma once

#include <string>

namespace sslic::simd {

/// Instruction sets a kernel backend can target. The x86 lanes form a
/// preference ladder (kAvx512 over kAvx2 over kSse2 over kScalar); kNeon
/// is the ARM lane.
enum class Isa {
  kScalar = 0,  ///< plain C++, always available
  kSse2 = 1,    ///< x86-64 baseline, 2 f64 / 4 i32 lanes
  kAvx2 = 2,    ///< 4 f64 / 8 i32 lanes
  kNeon = 3,    ///< AArch64 baseline, 2 f64 / 4 i32 lanes
  kAvx512 = 4,  ///< 8 f64 / 16 i32 lanes (requires F+BW+DQ+VL)
};

/// Lower-case name used by `SSLIC_SIMD` / `--simd` ("scalar", "sse2",
/// "avx2", "neon", "avx512"). Round-trips through parse_isa for every
/// enum value.
const char* isa_name(Isa isa);

/// Parses an ISA name (case-insensitive; "off" is an alias for "scalar").
/// Returns false and leaves `out` untouched on an unknown name.
bool parse_isa(const std::string& text, Isa* out);

/// Best instruction set the *CPU this process runs on* supports
/// (independent of what was compiled). Detected once via CPUID (x86) or
/// the architecture baseline (AArch64), then cached.
Isa detect_cpu_isa();

/// True when the running CPU can execute `isa` (kScalar always can).
bool cpu_supports(Isa isa);

/// The ISA the process should use: the `SSLIC_SIMD` environment variable
/// or the last `set_preferred_isa` call, clamped to what the CPU supports
/// (an unsupported request degrades down the x86 ladder
/// avx512 -> avx2 -> sse2 -> scalar; a cross-architecture request degrades
/// straight to kScalar). Defaults to `detect_cpu_isa()`. An unrecognized
/// `SSLIC_SIMD` value logs one WARN naming the accepted set and falls back
/// to detection.
Isa preferred_isa();

/// Overrides the preference (e.g. from a `--simd=NAME` flag or a test
/// that pins the scalar path). Clamped to CPU support on the next
/// `preferred_isa()` query.
void set_preferred_isa(Isa isa);

/// String-flavoured override; returns false (and changes nothing) when
/// `text` is not a recognized ISA name.
bool set_preferred_isa(const std::string& text);

/// Drops any override and re-reads `SSLIC_SIMD` on the next query (used
/// by tests that sweep backends).
void reset_preferred_isa();

/// True when this binary compiled the kernel TUs for `isa` (scalar always;
/// the vector ISAs depend on the target architecture and the SSLIC_SIMD
/// build option, src/CMakeLists.txt).
bool backend_compiled(Isa isa);

/// The ISA the kernels actually run: preferred_isa() (env/flag override,
/// CPU clamped) further clamped to the compiled backends, degrading
/// avx512 -> avx2 -> sse2 -> scalar and neon -> scalar. The assignment
/// kernels and the sRGB->Lab conversion both resolve through it, so the
/// wide event's `isa` field names what ran. Publishes the resolved value as
/// the telemetry gauge `sslic.simd.active_isa` (the numeric Isa enum value).
Isa active_isa();

}  // namespace sslic::simd
