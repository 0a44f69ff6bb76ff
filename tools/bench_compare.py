#!/usr/bin/env python3
"""Compare two BENCH_engine.json snapshots and fail on regressions.

Usage:
    tools/bench_compare.py BASELINE.json CANDIDATE.json [--threshold 0.15]

For every configuration present in both files (matched by section and
name) the candidate's wall time may not exceed the baseline's by more
than the threshold (default 15%).  The determinism contract flag must
also still hold in the candidate, and the
structural pre-pass must stay cheap: every `structural_prepass` and
`range_prepass` entry in the candidate must report an `added_fraction`
below --prepass-threshold (default 0.01, i.e. <1% of its MC scenario's
wall time).  Exit status is 0 when everything passes, 1 otherwise --
suitable for CI gating.

Wall-clock timings are noisy; the harness already reports best-of-N,
and the 15% margin absorbs ordinary scheduler jitter.  Treat a failure
as "investigate", not necessarily "revert".
"""

import argparse
import json
import sys

SECTIONS = ("mc_configs", "chip_mc_configs", "ac_grid_configs",
            "transient_configs", "pss_configs", "mc_transient_configs",
            "budget_overhead", "assembly_configs", "serve_configs")
CONTRACT_FLAGS = (
    "stats_bit_identical_across_threads",
)


def load(path):
    try:
        with open(path, "r", encoding="utf-8") as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        sys.exit(f"error: cannot read {path}: {e}")


def by_name(section):
    return {cfg["name"]: cfg for cfg in section}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("baseline")
    ap.add_argument("candidate")
    ap.add_argument(
        "--threshold",
        type=float,
        default=0.15,
        help="allowed fractional wall-time regression (default 0.15)",
    )
    ap.add_argument(
        "--tran-threshold",
        type=float,
        default=0.9,
        help="min transient speedup_vs_full_newton the candidate must "
        "keep on every transient_configs entry (default 0.9: the reuse "
        "controller guarantees parity on stamp-dominated circuits, and "
        "0.1 absorbs wall-clock noise around 1.0x)",
    )
    ap.add_argument(
        "--budget-threshold",
        type=float,
        default=0.01,
        help="max fractional slowdown an armed-but-idle RunBudget may "
        "add to the transient benches (default 0.01: the cooperative "
        "cancellation polls must stay under 1%%)",
    )
    ap.add_argument(
        "--pss-threshold",
        type=float,
        default=5.0,
        help="min period_ratio (verified-settle periods / PSS periods) "
        "the candidate must keep on every pss_configs entry (default "
        "5.0: the shooting analysis must integrate at least 5x fewer "
        "tone periods than the doubling-verified settle oracle; "
        "ignored when the candidate predates the pss section)",
    )
    ap.add_argument(
        "--serve-threshold",
        type=float,
        default=3.0,
        help="min serve_warm_speedup (warm-memo jobs/sec over cold "
        "one-shot jobs/sec on the mixed mic-amp stream) the candidate "
        "must report, with zero pattern searches and bit-identical "
        "output on the warm passes (default 3.0; ignored when the "
        "candidate predates the serve section)",
    )
    ap.add_argument(
        "--prepass-threshold",
        type=float,
        default=0.01,
        help="max structural pre-pass share of MC scenario wall time "
        "(default 0.01)",
    )
    args = ap.parse_args()

    base = load(args.baseline)
    cand = load(args.candidate)

    failures = []
    compared = 0
    for section in SECTIONS:
        b = by_name(base.get(section, []))
        c = by_name(cand.get(section, []))
        for name in sorted(b.keys() & c.keys()):
            old = b[name]["wall_ms"]
            new = c[name]["wall_ms"]
            ratio = new / old if old > 0 else float("inf")
            compared += 1
            marker = "ok"
            if ratio > 1.0 + args.threshold:
                marker = "REGRESSION"
                failures.append(f"{section}/{name}: {old:.1f} ms -> "
                                f"{new:.1f} ms ({ratio:.2f}x)")
            print(f"  {section}/{name:<24} {old:9.1f} ms -> {new:9.1f} ms "
                  f"({ratio:5.2f}x) [{marker}]")
        for name in sorted(b.keys() - c.keys()):
            failures.append(f"{section}/{name}: missing from candidate")

    # The pre-passes are judged absolutely (against the scenario they
    # ride on), not against the baseline: they must stay in the noise.
    # `range_prepass` rows (value-range interval analysis) share the
    # structural gate since both are paid before the first factorization.
    for section in ("structural_prepass", "range_prepass"):
        for cfg in cand.get(section, []):
            frac = cfg.get("added_fraction")
            name = cfg.get("name", "?")
            if frac is None:
                failures.append(f"{section}/{name}: "
                                f"missing added_fraction")
                continue
            marker = "ok"
            if frac >= args.prepass_threshold:
                marker = "TOO EXPENSIVE"
                failures.append(
                    f"{section}/{name}: adds {100 * frac:.2f}% of "
                    f"scenario wall time "
                    f"(limit {100 * args.prepass_threshold:.2f}%)")
            print(f"  {section}/{name:<16} adds {100 * frac:6.3f}% "
                  f"of MC wall [{marker}]")

    # Budget-overhead gate, judged absolutely on the candidate: an
    # armed-but-idle RunBudget (cancellation polls only, never expiring)
    # must cost under --budget-threshold of the plain run, and the
    # budgeted waveform must be bit-identical to the unbudgeted one.
    for cfg in cand.get("budget_overhead", []):
        name = cfg.get("name", "?")
        frac = cfg.get("overhead_fraction")
        if frac is None:
            failures.append(f"budget_overhead/{name}: "
                            f"missing overhead_fraction")
            continue
        marker = "ok"
        if frac >= args.budget_threshold:
            marker = "TOO EXPENSIVE"
            failures.append(
                f"budget_overhead/{name}: armed-but-idle budget adds "
                f"{100 * frac:.2f}% wall time "
                f"(limit {100 * args.budget_threshold:.2f}%)")
        if not cfg.get("waveforms_agree", False):
            marker = "DISAGREE"
            failures.append(f"budget_overhead/{name}: budgeted and "
                            f"plain waveforms disagree")
        print(f"  budget_overhead/{name:<18} adds {100 * frac:6.3f}% "
              f"wall time [{marker}]")

    # Transient fast-path gate, judged absolutely on the candidate: the
    # modified-Newton / linear-fast-path policy must keep beating the
    # factor-every-iteration baseline, and the two policies' waveforms
    # must still agree.
    for cfg in cand.get("transient_configs", []):
        name = cfg.get("name", "?")
        speedup = cfg.get("speedup_vs_full_newton")
        if speedup is None:
            failures.append(f"transient_configs/{name}: "
                            f"missing speedup_vs_full_newton")
            continue
        marker = "ok"
        if speedup < args.tran_threshold:
            marker = "TOO SLOW"
            failures.append(
                f"transient_configs/{name}: fast path only "
                f"{speedup:.2f}x vs full Newton "
                f"(limit {args.tran_threshold:.2f}x)")
        if not cfg.get("waveforms_agree", False):
            marker = "DISAGREE"
            failures.append(f"transient_configs/{name}: fast-path and "
                            f"full-Newton waveforms disagree")
        print(f"  transient_configs/{name:<18} speedup "
              f"{speedup:5.2f}x vs full Newton [{marker}]")

    # PSS gate, judged absolutely on the candidate: shooting PSS must
    # integrate at least --pss-threshold times fewer tone periods than
    # the doubling-verified settle oracle, and its THD must agree with
    # the oracle within the harness's relative-agreement gate (the
    # thd_agree flag computed by bench_engine).
    for cfg in cand.get("pss_configs", []):
        name = cfg.get("name", "?")
        ratio = cfg.get("period_ratio")
        if ratio is None:
            failures.append(f"pss_configs/{name}: missing period_ratio")
            continue
        marker = "ok"
        if ratio < args.pss_threshold:
            marker = "TOO MANY PERIODS"
            failures.append(
                f"pss_configs/{name}: PSS only {ratio:.2f}x fewer "
                f"periods than verified settle "
                f"(limit {args.pss_threshold:.2f}x)")
        if not cfg.get("thd_agree", False):
            marker = "DISAGREE"
            failures.append(f"pss_configs/{name}: PSS THD disagrees "
                            f"with the settle oracle")
        print(f"  pss_configs/{name:<18} {cfg.get('pss_periods', 0):.2f} "
              f"vs {cfg.get('settle_periods', 0):.1f} periods "
              f"({ratio:5.2f}x) thd drel {cfg.get('thd_rel_err', 0):.1e} "
              f"[{marker}]")

    # Zero-lookup gate, judged absolutely on the candidate: production
    # re-assembly must stamp with zero pattern searches (the contract
    # the slot cache exists to provide).
    for cfg in cand.get("assembly_configs", []):
        name = cfg.get("name", "?")
        if cfg.get("lookups_per_assembly", 0) != 0:
            failures.append(
                f"assembly_configs/{name}: "
                f"{cfg['lookups_per_assembly']} pattern searches per "
                f"assembly (slot replay must need zero)")

    # Monte-Carlo transient agreement, judged absolutely on the
    # candidate: every row's per-sample finals must agree with its
    # rig's unshared sweep (no speed multiple is gated).
    for cfg in cand.get("mc_transient_configs", []):
        name = cfg.get("name", "?")
        marker = "ok"
        if not cfg.get("finals_agree", False):
            marker = "DISAGREE"
            failures.append(f"mc_transient_configs/{name}: per-sample "
                            f"finals disagree with the unshared sweep")
        print(f"  mc_transient_configs/{name:<16} "
              f"{cfg.get('samples_per_sec', 0):8.1f} samples/s "
              f"({cfg.get('speedup_vs_unshared', 0):.2f}x) [{marker}]")

    # Serve gate, judged absolutely on the candidate: warm (memoized)
    # service must clear --serve-threshold times the cold one-shot
    # throughput on the mixed mic-amp stream, the warm passes must
    # replay with zero sparse pattern searches and byte-identical
    # output, and the registry must have seen no fingerprint collisions.
    if "serve_configs" in cand:
        for cfg in cand.get("serve_configs", []):
            name = cfg.get("name", "?")
            marker = "ok"
            if not cfg.get("all_jobs_ok", False):
                marker = "JOBS FAILED"
                failures.append(f"serve_configs/{name}: some jobs "
                                f"exited nonzero")
            if (name != "cold" and cfg.get("pattern_searches", 1) != 0):
                marker = "SEARCHED"
                failures.append(
                    f"serve_configs/{name}: {cfg['pattern_searches']} "
                    f"pattern searches on a warm pass (must be zero)")
            print(f"  serve_configs/{name:<18} "
                  f"{cfg.get('jobs_per_sec', 0):9.1f} jobs/s "
                  f"({cfg.get('speedup_vs_cold', 0):6.2f}x) [{marker}]")
        warm = cand.get("serve_warm_speedup")
        if warm is None:
            failures.append("missing serve_warm_speedup")
        else:
            marker = "ok"
            if warm < args.serve_threshold:
                marker = "TOO SLOW"
                failures.append(
                    f"serve warm speedup {warm:.2f}x below limit "
                    f"{args.serve_threshold:.2f}x")
            print(f"  serve warm speedup {warm:8.2f}x vs cold one-shot "
                  f"[{marker}]")
        if not cand.get("serve_outputs_identical", False):
            failures.append("serve warm output not bit-identical to "
                            "cold")
        if not cand.get("serve_warm_zero_searches", False):
            failures.append("serve warm passes performed pattern "
                            "searches")
        reg = cand.get("serve_registry", {})
        if reg.get("fingerprint_collisions", 0) != 0:
            failures.append(
                f"serve registry saw {reg['fingerprint_collisions']} "
                f"fingerprint collision(s)")

    for flag in CONTRACT_FLAGS:
        if flag in base and not cand.get(flag, False):
            failures.append(f"contract flag {flag} no longer true")

    if compared == 0:
        failures.append("no comparable configurations found")

    if failures:
        print(f"\nFAIL: {len(failures)} issue(s):", file=sys.stderr)
        for f in failures:
            print(f"  {f}", file=sys.stderr)
        return 1
    print(f"\nOK: {compared} configurations within "
          f"{100 * args.threshold:.0f}% of baseline")
    return 0


if __name__ == "__main__":
    sys.exit(main())
