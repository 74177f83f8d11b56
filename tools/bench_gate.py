#!/usr/bin/env python3
"""Gate hot-path bench smoke runs against the tracked baseline.

Usage: bench_gate.py BASELINE_JSON SMOKE_JSON

Rows compared (bench_hotpath emits its n=256 rows in every mode precisely so
the smoke run has baseline rows to land on):

  * engine_eval rows, keyed (n, engine), and the sampler entry -- always
    gated;
  * campaign rows, keyed (n, kind) -- always gated.  Every campaign row
    times code against code on one topology; none times one thread or
    process count against another, whose ratio would be a host property
    (tests pin that bit-identity, jobbench the wall time);
  * a smoke row with no baseline row (the normal state right after a new
    row lands, before the baseline is regenerated) is printed as tracked,
    not gated.

A row regresses when BOTH signals drop more than the tolerance below the
baseline (default 10%, override with FECIM_BENCH_TOLERANCE=0.15 etc.):

  * speedup        -- optimized / reference ratio; robust to a uniformly
                      slow machine, sensitive to reference-side flukes;
  * absolute opt   -- optimized evals/s, or run-iterations/s for campaign
                      rows; robust to reference flukes, sensitive to
                      machine load.

Requiring both to fall catches real optimized-path regressions (which drag
both signals down) while tolerating the single-signal noise a seconds-scale
smoke run on a busy machine produces.  Exit code 1 on any regression, or
when no row is comparable.
"""
import json
import os
import sys


def fmt(value):
    return f"{value:,.0f}" if value >= 1000 else f"{value:.2f}"


def main():
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    with open(sys.argv[1]) as f:
        baseline = json.load(f)
    with open(sys.argv[2]) as f:
        smoke = json.load(f)
    tolerance = float(os.environ.get("FECIM_BENCH_TOLERANCE", "0.10"))
    floor = 1.0 - tolerance

    failures = []
    checked = 0

    def check(label, smoke_ratio, base_ratio, smoke_abs, base_abs):
        nonlocal checked
        checked += 1
        ratio_ok = smoke_ratio >= base_ratio * floor
        abs_ok = smoke_abs >= base_abs * floor
        verdict = "ok" if (ratio_ok or abs_ok) else "REGRESSION"
        print(f"  {label:<28} speedup {fmt(smoke_ratio)} vs {fmt(base_ratio)}"
              f" | opt/s {fmt(smoke_abs)} vs {fmt(base_abs)} ... {verdict}")
        if verdict != "ok":
            failures.append(label)

    base_rows = {(r["n"], r["engine"]): r for r in baseline.get("engine_eval", [])}
    for row in smoke.get("engine_eval", []):
        base = base_rows.get((row["n"], row["engine"]))
        if base is None:
            # A row added since the baseline was written has nothing to
            # compare against until the baseline is regenerated -- print it
            # so the number is on the record.
            print(f"  n={row['n']} {row['engine']}: speedup "
                  f"{fmt(row['speedup'])}, opt/s "
                  f"{fmt(row['evals_per_sec_optimized'])}"
                  " ... tracked, not gated (no baseline row)")
            continue
        check(f"n={row['n']} {row['engine']}", row["speedup"], base["speedup"],
              row["evals_per_sec_optimized"], base["evals_per_sec_optimized"])

    def campaign_throughput(row):
        wall = row.get("wall_seconds_optimized", 0.0)
        if wall <= 0.0:
            return 0.0
        return row["runs"] * row["iterations"] / wall

    base_campaigns = {(r["n"], r.get("kind", "analog")): r
                      for r in baseline.get("campaign", [])}
    for row in smoke.get("campaign", []):
        kind = row.get("kind", "analog")
        base = base_campaigns.get((row["n"], kind))
        if base is None:
            print(f"  campaign n={row['n']} {kind}: speedup "
                  f"{fmt(row['speedup'])}, opt run-iters/s "
                  f"{fmt(campaign_throughput(row))}"
                  " ... tracked, not gated (no baseline row)")
            continue
        check(f"campaign n={row['n']} {kind}",
              row["speedup"], base["speedup"],
              campaign_throughput(row), campaign_throughput(base))

    if "sampler" in smoke and "sampler" in baseline:
        check("normal sampler", smoke["sampler"]["speedup"],
              baseline["sampler"]["speedup"],
              smoke["sampler"]["normals_per_sec_ziggurat"],
              baseline["sampler"]["normals_per_sec_ziggurat"])

    if checked == 0:
        print("bench_gate: no comparable rows between smoke and baseline",
              file=sys.stderr)
        return 1
    if failures:
        print(f"bench_gate: {len(failures)} regression(s) beyond "
              f"{tolerance:.0%}: {', '.join(failures)}", file=sys.stderr)
        return 1
    print(f"bench_gate: {checked} row(s) within {tolerance:.0%} of baseline")
    return 0


if __name__ == "__main__":
    sys.exit(main())
