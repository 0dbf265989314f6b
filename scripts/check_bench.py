#!/usr/bin/env python3
"""Validate the committed perf-trajectory artifacts (BENCH_<pr>.json).

Three checks, all against files committed to the repository — the script
never runs a benchmark itself:

 1. every artifact is well-formed and carries the fields its bench kind
    promises (tidset rows, shards rows, the index report's kernel and
    consolidation sections, the standing report's notify-latency rows,
    or the advisor report's calibration and skewed-workload sections —
    where the guardrail replay must have passed, plan-choice accuracy
    and mean latency must not collapse after a unit swap, and the
    queries the secondary index reclaimed from forced-ARM must actually
    have gotten faster);
 2. inside every "index" report that measured the retired pointer
    layout beside the flat slabs (BENCH_8.json, the committed record of
    that comparison; later reports carry flat rows only) the flat layout
    must win (or tie) each physical kernel — it is why the pointer
    layout was deleted;
 3. consolidation pauses must not regress across PRs: for each shard
    count reported by both the newest artifact carrying pauses and the
    most recent earlier one, the new pause may exceed the old by at most
    REGRESSION_SLACK (these are single-shot wall-clock measurements, so
    a noise allowance is deliberate).

Exit status is nonzero on the first failed check, so CI can gate on it.
"""

import glob
import json
import os
import re
import sys

REGRESSION_SLACK = 0.20  # fraction a pause may grow PR-over-PR

KERNEL_SECTIONS = ("closure", "lookup", "rtree_probe")


def fail(msg):
    print(f"check_bench: FAIL: {msg}")
    sys.exit(1)


def load_artifacts(root):
    arts = []
    for path in glob.glob(os.path.join(root, "BENCH_*.json")):
        m = re.fullmatch(r"BENCH_(\d+)\.json", os.path.basename(path))
        if not m:
            fail(f"{path}: name does not match BENCH_<pr>.json")
        try:
            with open(path) as f:
                rep = json.load(f)
        except json.JSONDecodeError as e:
            fail(f"{path}: invalid JSON: {e}")
        if rep.get("pr") != int(m.group(1)):
            fail(f"{path}: pr field {rep.get('pr')!r} disagrees with file name")
        if "bench" not in rep:
            fail(f"{path}: missing bench kind")
        arts.append((int(m.group(1)), os.path.basename(path), rep))
    if not arts:
        fail("no BENCH_*.json artifacts found")
    arts.sort()
    return arts


def validate_shape(name, rep):
    kind = rep["bench"]
    if kind == "tidset":
        if not rep.get("rows"):
            fail(f"{name}: tidset report has no rows")
    elif kind == "shards":
        rows = rep.get("rows")
        if not rows:
            fail(f"{name}: shards report has no rows")
        for row in rows:
            if "shards" not in row or "rebuild_pause_ns" not in row:
                fail(f"{name}: shards row missing shards/rebuild_pause_ns: {row}")
    elif kind == "index":
        for sec in KERNEL_SECTIONS:
            rows = rep.get(sec)
            if not rows:
                fail(f"{name}: index report has no {sec} rows")
            layouts = {r.get("layout") for r in rows}
            if "flat" not in layouts:
                fail(f"{name}: {sec} has no flat-layout row, got {sorted(layouts)}")
        if not rep.get("consolidation"):
            fail(f"{name}: index report has no consolidation rows")
        if not rep.get("shard_index_build"):
            fail(f"{name}: index report has no shard_index_build rows")
    elif kind == "standing":
        rows = rep.get("rows")
        if not rows:
            fail(f"{name}: standing report has no rows")
        for row in rows:
            for field in ("subscriptions", "batches", "events",
                          "diffs_computed", "notify_p50_ns", "notify_p99_ns",
                          "diff_p50_ns", "remine_p50_ns"):
                if field not in row:
                    fail(f"{name}: standing row missing {field}: {row}")
            if row["notify_p50_ns"] <= 0 or row["notify_p99_ns"] < row["notify_p50_ns"]:
                fail(f"{name}: standing row has a degenerate notify-latency "
                     f"shape (p50 {row['notify_p50_ns']}, p99 {row['notify_p99_ns']})")
            if row["events"] <= 0 or row["diffs_computed"] <= 0:
                fail(f"{name}: standing row delivered no events: {row}")
            ceiling = row["subscriptions"] * row["batches"]
            if row["diffs_computed"] > 2 * ceiling:
                fail(f"{name}: standing row computed {row['diffs_computed']} diffs "
                     f"for only {ceiling} (subscription x batch) pairs")
    elif kind == "advisor":
        validate_advisor(name, rep)
    else:
        fail(f"{name}: unknown bench kind {kind!r}")


# Post-recalibration accuracy may dip on near-tie plan choices (the
# measurements behind "correct" are single-shot wall clocks), and the
# skewed-workload mean absorbs the per-query cost of pricing the extra
# secondary index; both get a noise/overhead allowance. The reclaimed
# differential is the hard claim and gets none.
ACCURACY_SLACK = 0.15          # absolute plan-choice accuracy drop allowed
CALIBRATION_MEAN_SLACK = 1.25  # mean-latency growth allowed after a unit swap
SKEWED_MEAN_SLACK = 1.50       # overall-mean growth allowed after index install


def validate_advisor(name, rep):
    cal = rep.get("calibration")
    if not cal:
        fail(f"{name}: advisor report has no calibration section")
    for field in ("accuracy_before", "accuracy_after", "mean_before_ns",
                  "mean_after_ns", "samples", "guardrail_window",
                  "guardrail_worst_regret", "guardrail_tolerance"):
        if field not in cal:
            fail(f"{name}: calibration section missing {field}")
    if cal["samples"] <= 0:
        fail(f"{name}: recalibration ran on zero timing samples")
    if cal.get("recalibrated"):
        if not cal.get("guardrail_passed"):
            fail(f"{name}: units were swapped without a passing guardrail replay")
        if cal["guardrail_worst_regret"] > cal["guardrail_tolerance"]:
            fail(f"{name}: guardrail worst regret {cal['guardrail_worst_regret']:.3f} "
                 f"exceeds tolerance {cal['guardrail_tolerance']:.3f}")
    if cal["accuracy_after"] < cal["accuracy_before"] - ACCURACY_SLACK:
        fail(f"{name}: plan-choice accuracy collapsed after recalibration "
             f"({cal['accuracy_before']:.3f} -> {cal['accuracy_after']:.3f})")
    if cal["mean_after_ns"] > cal["mean_before_ns"] * CALIBRATION_MEAN_SLACK:
        fail(f"{name}: mean mine latency regressed >{CALIBRATION_MEAN_SLACK - 1:.0%} "
             f"after recalibration ({cal['mean_before_ns']} -> {cal['mean_after_ns']} ns)")
    print(f"check_bench: {name}: recalibration accuracy "
          f"{cal['accuracy_before']:.3f} -> {cal['accuracy_after']:.3f}, guardrail "
          f"worst regret {cal['guardrail_worst_regret']:.3f} "
          f"<= {cal['guardrail_tolerance']:.3f}")

    sk = rep.get("skewed")
    if not sk:
        fail(f"{name}: advisor report has no skewed section")
    for field in ("base_primary", "secondary_primary", "forced_arm",
                  "secondary_wins", "skewed_mean_before_ns", "skewed_mean_after_ns",
                  "reclaimed_mean_before_ns", "reclaimed_mean_after_ns"):
        if field not in sk:
            fail(f"{name}: skewed section missing {field}")
    if sk["forced_arm"] <= 0:
        fail(f"{name}: skewed workload never hit the applicability gate, "
             f"so there was nothing for the advisor to reclaim")
    if not 0 < sk["secondary_primary"] < sk["base_primary"]:
        fail(f"{name}: recommended secondary primary {sk['secondary_primary']} "
             f"does not undercut the base index's {sk['base_primary']}")
    if sk["secondary_wins"] < 1:
        fail(f"{name}: the recommended secondary index won zero queries")
    if sk["reclaimed_mean_after_ns"] >= sk["reclaimed_mean_before_ns"]:
        fail(f"{name}: reclaimed queries did not get faster "
             f"({sk['reclaimed_mean_before_ns']} -> {sk['reclaimed_mean_after_ns']} ns)")
    if sk["skewed_mean_after_ns"] > sk["skewed_mean_before_ns"] * SKEWED_MEAN_SLACK:
        fail(f"{name}: overall skewed mean regressed >{SKEWED_MEAN_SLACK - 1:.0%} "
             f"after index install ({sk['skewed_mean_before_ns']} -> "
             f"{sk['skewed_mean_after_ns']} ns)")
    print(f"check_bench: {name}: secondary at primary "
          f"{sk['secondary_primary']:.3f} won {sk['secondary_wins']} queries, "
          f"reclaimed mean {sk['reclaimed_mean_before_ns']} -> "
          f"{sk['reclaimed_mean_after_ns']} ns")


def kernel_ns(rep, section, layout):
    for row in rep[section]:
        if row["layout"] == layout:
            return row["ns_per_op"]
    return None


def check_flat_wins(name, rep):
    for sec in KERNEL_SECTIONS:
        flat = kernel_ns(rep, sec, "flat")
        ptr = kernel_ns(rep, sec, "pointer")
        if ptr is None:
            continue
        if flat > ptr:
            fail(f"{name}: {sec}: flat layout ({flat:.1f} ns/op) is slower than "
                 f"pointer ({ptr:.1f} ns/op)")
        print(f"check_bench: {name}: {sec}: flat {flat:.1f} <= pointer {ptr:.1f} ns/op")


def pauses_of(rep):
    """shard count -> rebuild pause, for any report kind that has them."""
    if rep["bench"] == "shards":
        return {r["shards"]: r["rebuild_pause_ns"] for r in rep["rows"]}
    if rep["bench"] == "index":
        return {r["shards"]: r["rebuild_pause_ns"] for r in rep["consolidation"]}
    return {}


def check_pause_trajectory(arts):
    with_pauses = [(pr, name, pauses_of(rep)) for pr, name, rep in arts if pauses_of(rep)]
    if len(with_pauses) < 2:
        print("check_bench: fewer than two artifacts report consolidation pauses; "
              "trajectory check skipped")
        return
    (_, prev_name, prev), (_, cur_name, cur) = with_pauses[-2], with_pauses[-1]
    shared = sorted(set(prev) & set(cur))
    if not shared:
        fail(f"{cur_name} and {prev_name} share no shard counts; the pause "
             f"trajectory is unverifiable")
    for k in shared:
        limit = prev[k] * (1 + REGRESSION_SLACK)
        if cur[k] > limit:
            fail(f"{cur_name}: K={k} consolidation pause {cur[k]} ns regressed "
                 f">{REGRESSION_SLACK:.0%} over {prev_name} ({prev[k]} ns)")
        print(f"check_bench: K={k}: {cur_name} pause {cur[k]} ns vs "
              f"{prev_name} {prev[k]} ns (limit {limit:.0f})")


def main():
    root = sys.argv[1] if len(sys.argv) > 1 else os.path.join(
        os.path.dirname(os.path.abspath(__file__)), "..")
    arts = load_artifacts(root)
    for _, name, rep in arts:
        validate_shape(name, rep)
        if rep["bench"] == "index":
            check_flat_wins(name, rep)
    check_pause_trajectory(arts)
    print(f"check_bench: OK ({len(arts)} artifacts)")


if __name__ == "__main__":
    main()
