#!/usr/bin/env python3
"""Bench regression gate: compare BENCH_*.json artifacts against baselines.

Every bench binary emits a normalized ``gate`` section (see
``bench/bench_common.h``, ``GateMetrics``)::

    "gate": {
      "schema_version": 1,
      "metrics": {
        "serial_ms_per_frame": {
          "value": 118.6, "unit": "ms",
          "direction": "lower_is_better", "tolerance": 0.25
        }, ...
      }
    }

plus a top-level ``machine`` block (CPU model, hardware threads, selected
SIMD ISA, kernel release, page size, cpufreq governor) that acts as the
machine fingerprint. This tool pairs each current artifact with the
checked-in baseline of the same name under ``bench/baselines/`` and fails
(exit 2) when any metric regresses beyond its tolerance in its bad
direction. Improvements beyond tolerance are reported but never fail.

Noise handling is two-level: each metric carries its own relative
tolerance (wall-clock metrics are wide, deterministic analytic metrics are
tight), and the recommended workflow feeds the gate median-of-N artifacts
(run the bench N times, pass ``--median-of`` the run directories or let the
bench itself report medians, as this repo's benches do).

Machine fingerprints guard against comparing apples to oranges:
``--fingerprint-policy strict`` fails on mismatch, ``warn`` (default)
reports and widens nothing, ``ignore`` skips the check. Wall-clock
comparisons across different CPU models are meaningless; CI pins the
runner type and uses ``warn`` so a fleet change is visible in the log.

Exit codes: 0 ok, 1 usage/IO error, 2 regression (or strict fingerprint
mismatch).

Usage:
  bench_gate.py --current DIR --baseline DIR [--report out.md]
                [--fingerprint-policy strict|warn|ignore]
                [--inject-slowdown BENCH:METRIC:FACTOR]
  bench_gate.py --self-test
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import tempfile

SCHEMA_VERSION = 1

# Fingerprint fields, in severity order. A cpu_model or simd mismatch makes
# wall-clock comparison meaningless; kernel/page-size/governor changes are
# softer but worth surfacing.
FINGERPRINT_FIELDS = (
    "cpu_model",
    "hardware_threads",
    "simd_isa_selected",
    "kernel_release",
    "page_size_bytes",
    "cpufreq_governor",
)


class GateError(Exception):
    pass


def load_artifact(path):
    try:
        with open(path, "r", encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, ValueError) as err:
        raise GateError(f"{path}: unreadable artifact: {err}")
    gate = doc.get("gate")
    if not isinstance(gate, dict):
        return None  # artifact predates the gate schema; skipped
    version = gate.get("schema_version")
    if version != SCHEMA_VERSION:
        raise GateError(
            f"{path}: gate schema_version {version} (tool speaks {SCHEMA_VERSION})"
        )
    metrics = gate.get("metrics")
    if not isinstance(metrics, dict):
        raise GateError(f"{path}: gate.metrics missing")
    for name, m in metrics.items():
        for field in ("value", "unit", "direction", "tolerance"):
            if field not in m:
                raise GateError(f"{path}: metric {name!r} lacks {field!r}")
        if m["direction"] not in ("lower_is_better", "higher_is_better"):
            raise GateError(
                f"{path}: metric {name!r} direction {m['direction']!r} unknown"
            )
    return {"metrics": metrics, "machine": doc.get("machine", {})}


def discover(directory):
    """Maps bench name -> artifact path for every BENCH_*.json in directory."""
    found = {}
    try:
        entries = sorted(os.listdir(directory))
    except OSError as err:
        raise GateError(f"{directory}: {err}")
    for entry in entries:
        if entry.startswith("BENCH_") and entry.endswith(".json"):
            found[entry] = os.path.join(directory, entry)
    return found


def median_merge(artifacts):
    """Merges N same-bench artifacts into one by per-metric median."""
    merged = {"metrics": {}, "machine": artifacts[0]["machine"]}
    names = artifacts[0]["metrics"].keys()
    for name in names:
        entries = [a["metrics"][name] for a in artifacts if name in a["metrics"]]
        m = dict(entries[0])
        m["value"] = statistics.median(e["value"] for e in entries)
        merged["metrics"][name] = m
    return merged


def compare_fingerprint(name, baseline, current):
    mismatches = []
    base_machine = baseline.get("machine", {})
    cur_machine = current.get("machine", {})
    for field in FINGERPRINT_FIELDS:
        b, c = base_machine.get(field), cur_machine.get(field)
        if b is not None and c is not None and b != c:
            mismatches.append((name, field, b, c))
    return mismatches


def compare_metrics(name, baseline, current):
    """Returns a list of row dicts, one per metric present in both."""
    rows = []
    base_metrics = baseline["metrics"]
    cur_metrics = current["metrics"]
    for metric, base in sorted(base_metrics.items()):
        cur = cur_metrics.get(metric)
        if cur is None:
            rows.append({
                "bench": name, "metric": metric, "status": "MISSING",
                "baseline": base["value"], "current": None,
                "delta_pct": None, "tolerance_pct": base["tolerance"] * 100.0,
                "unit": base["unit"],
            })
            continue
        bval, cval = float(base["value"]), float(cur["value"])
        tolerance = float(base["tolerance"])
        direction = base["direction"]
        if bval != 0.0:
            rel = (cval - bval) / abs(bval)
        else:
            rel = 0.0 if cval == 0.0 else float("inf")
        # Normalize so positive `worse` means regression.
        worse = rel if direction == "lower_is_better" else -rel
        if worse > tolerance:
            status = "REGRESSION"
        elif worse < -tolerance:
            status = "improved"
        else:
            status = "ok"
        rows.append({
            "bench": name, "metric": metric, "status": status,
            "baseline": bval, "current": cval,
            "delta_pct": rel * 100.0, "tolerance_pct": tolerance * 100.0,
            "unit": base["unit"],
        })
    for metric in sorted(set(cur_metrics) - set(base_metrics)):
        rows.append({
            "bench": name, "metric": metric, "status": "new",
            "baseline": None, "current": cur_metrics[metric]["value"],
            "delta_pct": None,
            "tolerance_pct": cur_metrics[metric]["tolerance"] * 100.0,
            "unit": cur_metrics[metric]["unit"],
        })
    return rows


def fmt_value(v):
    if v is None:
        return "-"
    if abs(v) >= 1000:
        return f"{v:.0f}"
    return f"{v:.4g}"


def render_table(rows, fingerprint_mismatches, policy):
    lines = []
    lines.append("| bench | metric | baseline | current | delta | tolerance | status |")
    lines.append("|---|---|---:|---:|---:|---:|---|")
    for r in rows:
        delta = "-" if r["delta_pct"] is None else f"{r['delta_pct']:+.1f}%"
        status = r["status"]
        marker = {"REGRESSION": "❌ REGRESSION", "improved": "✅ improved",
                  "MISSING": "⚠️ MISSING"}.get(status, status)
        lines.append(
            f"| {r['bench']} | {r['metric']} | {fmt_value(r['baseline'])}"
            f" {r['unit']} | {fmt_value(r['current'])} {r['unit']} | {delta}"
            f" | ±{r['tolerance_pct']:.0f}% | {marker} |"
        )
    if fingerprint_mismatches:
        lines.append("")
        lines.append(f"Machine fingerprint mismatches (policy: {policy}):")
        for bench, field, b, c in fingerprint_mismatches:
            lines.append(f"- {bench}: {field}: baseline `{b}` vs current `{c}`")
    return "\n".join(lines)


def run_gate(args):
    current_dir = args.current
    baseline_dir = args.baseline
    current_map = discover(current_dir)
    baseline_map = discover(baseline_dir)
    if not baseline_map:
        raise GateError(f"no BENCH_*.json baselines in {baseline_dir}")

    inject = {}
    for spec in args.inject_slowdown or []:
        try:
            bench, metric, factor = spec.split(":")
            inject[(bench, metric)] = float(factor)
        except ValueError:
            raise GateError(
                f"--inject-slowdown {spec!r}: expected BENCH_file.json:metric:factor"
            )

    rows = []
    fingerprint_mismatches = []
    compared = 0
    for name, base_path in sorted(baseline_map.items()):
        baseline = load_artifact(base_path)
        if baseline is None:
            print(f"note: baseline {name} has no gate section; skipped")
            continue
        cur_path = current_map.get(name)
        if cur_path is None:
            print(f"warning: no current artifact for baseline {name}")
            rows.append({
                "bench": name, "metric": "(artifact)", "status": "MISSING",
                "baseline": None, "current": None, "delta_pct": None,
                "tolerance_pct": 0.0, "unit": "",
            })
            continue
        current = load_artifact(cur_path)
        if current is None:
            raise GateError(f"{cur_path}: current artifact has no gate section")
        for (bench, metric), factor in inject.items():
            if bench == name and metric in current["metrics"]:
                m = current["metrics"][metric]
                direction = m["direction"]
                # "Slowdown" worsens the metric in its bad direction.
                m["value"] = (m["value"] * factor
                              if direction == "lower_is_better"
                              else m["value"] / factor)
                print(f"note: injected x{factor} slowdown into {name}:{metric}")
        fingerprint_mismatches += compare_fingerprint(name, baseline, current)
        rows += compare_metrics(name, baseline, current)
        compared += 1

    table = render_table(rows, fingerprint_mismatches, args.fingerprint_policy)
    print()
    print(table)
    if args.report:
        with open(args.report, "w", encoding="utf-8") as f:
            f.write("# Bench gate report\n\n" + table + "\n")
        print(f"\nwrote {args.report}")

    regressions = [r for r in rows if r["status"] in ("REGRESSION", "MISSING")]
    if fingerprint_mismatches and args.fingerprint_policy == "strict":
        print(f"\nFAIL: machine fingerprint mismatch under strict policy")
        return 2
    if regressions:
        print(f"\nFAIL: {len(regressions)} regression(s) across "
              f"{compared} bench artifact(s)")
        return 2
    print(f"\nOK: {compared} bench artifact(s) within tolerance")
    return 0


def make_synthetic_artifact(path, value_scale=1.0, machine=None):
    doc = {
        "bench": "synthetic",
        "gate": {
            "schema_version": SCHEMA_VERSION,
            "metrics": {
                "frame_ms": {
                    "value": 10.0 * value_scale, "unit": "ms",
                    "direction": "lower_is_better", "tolerance": 0.10,
                },
                "throughput_fps": {
                    "value": 100.0 / value_scale, "unit": "fps",
                    "direction": "higher_is_better", "tolerance": 0.10,
                },
                "model_bytes": {
                    "value": 1234.0, "unit": "bytes",
                    "direction": "lower_is_better", "tolerance": 0.01,
                },
            },
        },
        "machine": machine or {
            "cpu_model": "SelfTest CPU", "hardware_threads": 4,
            "simd_isa_selected": "avx2", "kernel_release": "6.0-selftest",
            "page_size_bytes": 4096, "cpufreq_governor": "performance",
        },
    }
    with open(path, "w", encoding="utf-8") as f:
        json.dump(doc, f, indent=2)


def self_test():
    """End-to-end check: identical artifacts pass; a 20% slowdown fails."""
    failures = []
    with tempfile.TemporaryDirectory() as tmp:
        base_dir = os.path.join(tmp, "baseline")
        cur_dir = os.path.join(tmp, "current")
        os.mkdir(base_dir)
        os.mkdir(cur_dir)
        make_synthetic_artifact(os.path.join(base_dir, "BENCH_selftest.json"))
        make_synthetic_artifact(os.path.join(cur_dir, "BENCH_selftest.json"))

        ns = argparse.Namespace(current=cur_dir, baseline=base_dir,
                                report=None, fingerprint_policy="warn",
                                inject_slowdown=[])
        print("--- self-test 1: identical artifacts must pass ---")
        if run_gate(ns) != 0:
            failures.append("identical artifacts did not pass")

        print("\n--- self-test 2: 5% drift inside 10% tolerance must pass ---")
        make_synthetic_artifact(
            os.path.join(cur_dir, "BENCH_selftest.json"), value_scale=1.05)
        if run_gate(ns) != 0:
            failures.append("5% drift within tolerance did not pass")

        print("\n--- self-test 3: 20% slowdown must fail ---")
        make_synthetic_artifact(
            os.path.join(cur_dir, "BENCH_selftest.json"), value_scale=1.20)
        if run_gate(ns) != 2:
            failures.append("20% slowdown did not fail the gate")

        print("\n--- self-test 4: injected slowdown on clean artifacts must fail ---")
        make_synthetic_artifact(os.path.join(cur_dir, "BENCH_selftest.json"))
        ns.inject_slowdown = ["BENCH_selftest.json:frame_ms:1.2"]
        if run_gate(ns) != 2:
            failures.append("--inject-slowdown did not fail the gate")
        ns.inject_slowdown = []

        print("\n--- self-test 5: fingerprint mismatch fails only under strict ---")
        make_synthetic_artifact(
            os.path.join(cur_dir, "BENCH_selftest.json"),
            machine={"cpu_model": "Different CPU", "hardware_threads": 4,
                     "simd_isa_selected": "avx2",
                     "kernel_release": "6.0-selftest",
                     "page_size_bytes": 4096,
                     "cpufreq_governor": "performance"})
        if run_gate(ns) != 0:
            failures.append("fingerprint mismatch failed under warn policy")
        ns.fingerprint_policy = "strict"
        if run_gate(ns) != 2:
            failures.append("fingerprint mismatch passed under strict policy")

    print()
    if failures:
        for f in failures:
            print(f"SELF-TEST FAIL: {f}")
        return 2
    print("SELF-TEST OK: all 5 scenarios behaved")
    return 0


def main(argv):
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--current", help="directory with current BENCH_*.json")
    parser.add_argument("--baseline", help="directory with baseline BENCH_*.json")
    parser.add_argument("--report", help="write the diff table to this markdown file")
    parser.add_argument("--fingerprint-policy",
                        choices=("strict", "warn", "ignore"), default="warn")
    parser.add_argument("--inject-slowdown", action="append", metavar="BENCH:METRIC:FACTOR",
                        help="multiply a current metric into its bad direction "
                             "(demonstrates the gate fails; repeatable)")
    parser.add_argument("--self-test", action="store_true",
                        help="run the built-in end-to-end scenarios and exit")
    args = parser.parse_args(argv)

    if args.self_test:
        return self_test()
    if not args.current or not args.baseline:
        parser.error("--current and --baseline are required (or --self-test)")
    try:
        return run_gate(args)
    except GateError as err:
        print(f"bench_gate: error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
