// Runtime switch between CpaSlic's fused single-pass iteration loop
// (assignment and sigma accumulation in one band sweep — the software
// analogue of the accelerator's tile-resident update unit, paper Section
// 5) and the original two-pass loop it replaced. PpaSlic has a single
// schedule and does not read the switch.
//
// Fusion is on by default; the two-pass path is kept alive as an escape
// hatch for A/B measurement and for CI golden cross-checks (labels and
// centers are bit-identical either way — tests/test_fused.cpp enforces it).
// Resolution order: a set_fusion() override wins, otherwise the SSLIC_FUSE
// environment variable ("0" disables), otherwise on. Benches and examples
// expose a `--no-fuse` flag that calls set_fusion(false).
#pragma once

namespace sslic {

/// True when CpaSlic should run the fused single-pass iteration loop.
bool fusion_enabled();

/// Process-wide override (e.g. from a `--no-fuse` flag or a test sweeping
/// both paths). Call at quiescent points only — mid-segmentation toggles
/// are not observed until the next segment() call.
void set_fusion(bool enabled);

/// Drops any override and falls back to the SSLIC_FUSE environment default
/// (used by tests that sweep both paths).
void clear_fusion_override();

/// RAII helper for tests: pins fusion on/off, restores the previous
/// resolution on destruction.
class FusionGuard {
 public:
  explicit FusionGuard(bool enabled);
  ~FusionGuard();

  FusionGuard(const FusionGuard&) = delete;
  FusionGuard& operator=(const FusionGuard&) = delete;

 private:
  int previous_override_;  // -1 = none
};

}  // namespace sslic
