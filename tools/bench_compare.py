#!/usr/bin/env python3
"""Compare two BENCH_*.json artifacts (bench_common.h bench_json output).

Matches records between a baseline and a candidate document by their
configuration fields (everything that is not a measurement), then reports:

  * per matched record: each ``*seconds`` (lower is better) and ``*_gbps``
    (higher is better) measurement's relative change, flagged as a
    REGRESSION when the candidate is worse than baseline by more than
    --threshold (default 25% — shared-runner noise is real);
  * engine counters (the embedded "engine" object): pass/io counter deltas,
    flagged when read or write BYTES grow by more than --io-threshold
    (default 10%) — time is noisy on shared runners, I/O volume is not;
  * records present on only one side (flagged: the sweep grid changed).

Exit 1 when any regression is flagged, unless --advisory (CI uses advisory
mode: the report lands in the log but noise never blocks a merge).

With --attribute, the two files are instead flashr-prof-v1 profile-history
records (obs/prof_store.cpp, prof-*.json files in FLASHR_PROF_DIR): sample
counts are converted to time via each record's sample period, and the
report names which folded stack (thread;state;frames) accounts for the
regression — per-stack time deltas, flagged past --threshold (with a
--min-samples noise floor, default 5). Per-node time is the pass profile's
measured kernel_ns, not a sample count: a record's "nodes" array, which
older records carry, is ignored.

Usage: bench_compare.py BASELINE.json CANDIDATE.json
                        [--threshold 0.25] [--io-threshold 0.10]
                        [--attribute] [--min-samples 5]
                        [--advisory] [--self-test]
"""

from __future__ import annotations

import argparse
import json
import sys


def is_measurement(key: str) -> bool:
    """Fields whose values vary run-to-run; everything else identifies the
    record.  Derived ratios (speedup, occupancy) are measurements too — keying
    on them would make records unmatchable across runs — and so are the
    emulated-SSD settings bench_pipeline calibrates from the measured compute
    rate of the machine it runs on."""
    return (key == "seconds" or key.endswith("_seconds")
            or key.endswith("_gbps")
            or "speedup" in key or "occupancy" in key
            or key in ("wall_ns", "kernel_ns", "utilization", "throttle_mbps",
                       "latency_spike_us"))


def record_key(rec: dict) -> tuple:
    """Identity of a record = its sorted non-measurement fields."""
    return tuple(sorted(
        (k, v) for k, v in rec.items() if not is_measurement(k)))


def fmt_key(key: tuple) -> str:
    return ", ".join(f"{k}={v}" for k, v in key) or "<empty>"


def compare(base: dict, cand: dict, threshold: float,
            io_threshold: float) -> tuple[list[str], list[str]]:
    """Returns (report_lines, regression_lines)."""
    report: list[str] = []
    regressions: list[str] = []

    base_recs = {record_key(r): r for r in base.get("records", [])}
    cand_recs = {record_key(r): r for r in cand.get("records", [])}

    for key in sorted(set(base_recs) | set(cand_recs), key=str):
        if key not in cand_recs:
            line = f"MISSING in candidate: {fmt_key(key)}"
            report.append(line)
            regressions.append(line)
            continue
        if key not in base_recs:
            report.append(f"new in candidate: {fmt_key(key)}")
            continue
        b, c = base_recs[key], cand_recs[key]
        for mkey in sorted(b):
            if not is_measurement(mkey) or mkey not in c:
                continue
            bv, cv = float(b[mkey]), float(c[mkey])
            if bv <= 0:
                continue
            delta = (cv - bv) / bv
            line = (f"{fmt_key(key)}: {mkey} {bv:.4g} -> {cv:.4g} "
                    f"({delta:+.1%})")
            slower = (delta > threshold if mkey.endswith("seconds")
                      else -delta > threshold if mkey.endswith("_gbps")
                      else False)
            if slower:
                line = "REGRESSION " + line
                regressions.append(line)
            report.append(line)

    be = base.get("engine", {})
    ce = cand.get("engine", {})
    for section in ("io", "pass"):
        bs, cs = be.get(section, {}), ce.get(section, {})
        for counter in sorted(bs):
            bv, cv = bs.get(counter), cs.get(counter)
            if not isinstance(bv, (int, float)) or \
               not isinstance(cv, (int, float)):
                continue
            if bv == 0 and cv == 0:
                continue
            delta = (cv - bv) / bv if bv else float("inf")
            line = (f"engine.{section}.{counter}: {bv} -> {cv} "
                    f"({delta:+.1%})")
            if counter.endswith("bytes") and delta > io_threshold:
                line = "REGRESSION " + line
                regressions.append(line)
            report.append(line)

    return report, regressions


def load_prof(doc: dict, name: str) -> tuple[int, dict]:
    """Validate a flashr-prof-v1 record; returns (period_ns, stacks), with
    stacks = {folded_stack: samples}."""
    if doc.get("schema") != "flashr-prof-v1":
        raise ValueError(f"{name}: schema is {doc.get('schema')!r}, "
                         f"expected 'flashr-prof-v1'")
    period = doc.get("period_ns")
    if not isinstance(period, int) or period <= 0:
        raise ValueError(f"{name}: missing positive period_ns (was the "
                         f"sampler running when this record was written?)")
    stacks = {s["stack"]: int(s["count"]) for s in doc.get("stacks", [])}
    return period, stacks


def attribute(base: dict, cand: dict, threshold: float,
              min_samples: int) -> tuple[list[str], list[str]]:
    """Diff two profile records; name the regressed stacks."""
    report: list[str] = []
    regressions: list[str] = []
    worst: tuple[float, str] | None = None
    bperiod, bstacks = load_prof(base, "baseline")
    cperiod, cstacks = load_prof(cand, "candidate")

    def ms(samples: int, period: int) -> float:
        return samples * period / 1e6

    report.append(f"sample period: baseline {bperiod} ns, candidate "
                  f"{cperiod} ns")
    for stack in sorted(set(bstacks) | set(cstacks)):
        bs, cs = bstacks.get(stack, 0), cstacks.get(stack, 0)
        b_ms, c_ms = ms(bs, bperiod), ms(cs, cperiod)
        grew = c_ms - b_ms
        rel = grew / b_ms if b_ms > 0 else float("inf")
        # Noise floor: a regression needs both enough candidate samples to
        # trust and relative growth past the threshold.
        if cs >= min_samples and rel > threshold:
            line = (f"REGRESSION stack {stack}: {b_ms:.2f} ms -> "
                    f"{c_ms:.2f} ms ({rel:+.1%})")
            regressions.append(line)
            if worst is None or grew > worst[0]:
                worst = (grew, line)
            report.append(line)

    # Lead the report with the single worst offender so a CI log scan
    # answers "what regressed" in one line.
    if worst is not None:
        report.insert(0, f"worst stack: {worst[1]}")
    return report, regressions


def self_test() -> int:
    base = {
        "bench": "pipeline",
        "records": [
            {"depth": 0, "mode": "cache-fuse", "seconds": 1.00},
            {"depth": 4, "mode": "cache-fuse", "seconds": 0.50},
            {"depth": 8, "mode": "cache-fuse", "seconds": 0.45},
        ],
        "engine": {"io": {"read_bytes": 1000, "write_bytes": 100},
                   "pass": {"passes": 3, "read_bytes": 1000}},
    }
    cand = {
        "bench": "pipeline",
        "records": [
            {"depth": 0, "mode": "cache-fuse", "seconds": 1.02},  # noise
            {"depth": 4, "mode": "cache-fuse", "seconds": 0.80},  # regression
            {"depth": 16, "mode": "cache-fuse", "seconds": 0.40},  # new row
        ],  # depth 8 went missing
        "engine": {"io": {"read_bytes": 1500, "write_bytes": 100},  # +50%
                   "pass": {"passes": 3, "read_bytes": 1000}},
    }
    report, regressions = compare(base, cand, 0.25, 0.10)
    assert any("depth=4" in r and r.startswith("REGRESSION")
               for r in regressions), regressions
    # Throughput (*_gbps) is higher-is-better: a drop past the threshold is
    # a regression, a gain never is.
    tbase = {"bench": "microops",
             "records": [{"mode": "cache-fuse", "one_op_gbps": 5.0},
                         {"mode": "eager", "one_op_gbps": 1.0}]}
    tcand = {"bench": "microops",
             "records": [{"mode": "cache-fuse", "one_op_gbps": 3.0},  # -40%
                         {"mode": "eager", "one_op_gbps": 1.5}]}      # +50%
    treport, tregs = compare(tbase, tcand, 0.25, 0.10)
    assert any("mode=cache-fuse" in r and r.startswith("REGRESSION")
               for r in tregs), tregs
    assert not any("mode=eager" in r for r in tregs), tregs
    assert any("MISSING" not in r for r in treport), treport
    assert any("MISSING" in r and "depth=8" in r for r in regressions)
    assert any("read_bytes" in r and r.startswith("REGRESSION")
               for r in regressions)
    assert not any("depth=0" in r for r in regressions), "noise flagged"
    assert any("new in candidate" in r and "depth=16" in r for r in report)
    identical, none_reg = compare(base, base, 0.25, 0.10)
    assert not none_reg, none_reg
    assert identical

    # --attribute: profile-history records, stack naming.
    pbase = {
        "schema": "flashr-prof-v1", "label": "bench", "period_ns": 10000000,
        "samples": 130, "dropped": 0,
        "stacks": [{"stack": "worker-0;cpu;dgemm_kernel", "count": 100},
                   {"stack": "worker-0;cpu;scale_kernel", "count": 20},
                   {"stack": "worker-0;io_wait;pop", "count": 10}],
    }
    pcand = {
        "schema": "flashr-prof-v1", "label": "bench", "period_ns": 10000000,
        "samples": 240, "dropped": 0,
        "stacks": [{"stack": "worker-0;cpu;dgemm_kernel", "count": 102},
                   {"stack": "worker-0;cpu;scale_kernel", "count": 120},
                   {"stack": "worker-0;io_wait;pop", "count": 11},
                   {"stack": "worker-0;lock_wait;wait_for", "count": 7}],
    }
    areport, aregs = attribute(pbase, pcand, 0.25, 5)
    assert any("scale_kernel" in r for r in aregs), aregs
    assert not any("dgemm_kernel" in r for r in aregs), "noise flagged"
    assert not any("io_wait" in r for r in aregs), "noise flagged"
    assert areport[0].startswith("worst stack:"), areport[0]
    assert "scale_kernel" in areport[0], areport[0]
    # A stack that grew from nothing (infinite relative growth) is flagged.
    assert any("lock_wait;wait_for" in r for r in aregs), aregs
    _, clean = attribute(pbase, pbase, 0.25, 5)
    assert not clean, clean
    # Older records also carry a per-(pass, node) "nodes" array; they still
    # load, and only their stacks are compared.
    old = dict(pbase, nodes=[{"pass": 1, "node": 3, "cpu": 100,
                              "io_wait": 10, "lock_wait": 0, "idle": 0}])
    _, old_clean = attribute(old, pbase, 0.25, 5)
    assert not old_clean, old_clean
    _, old_regs = attribute(old, pcand, 0.25, 5)
    assert old_regs == aregs, old_regs
    try:
        attribute({"schema": "nope"}, pcand, 0.25, 5)
        raise AssertionError("bad schema not rejected")
    except ValueError:
        pass
    print("bench_compare: self-test OK")
    return 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("baseline", nargs="?", help="baseline BENCH_*.json")
    ap.add_argument("candidate", nargs="?", help="candidate BENCH_*.json")
    ap.add_argument("--threshold", type=float, default=0.25,
                    help="relative slowdown that flags a time regression "
                         "(default 0.25)")
    ap.add_argument("--io-threshold", type=float, default=0.10,
                    help="relative growth that flags an I/O-bytes regression "
                         "(default 0.10)")
    ap.add_argument("--attribute", action="store_true",
                    help="inputs are flashr-prof-v1 profile records; "
                         "attribute the regression to folded stacks")
    ap.add_argument("--min-samples", type=int, default=5,
                    help="--attribute noise floor: candidate needs at least "
                         "N samples before a stack is flagged (default 5)")
    ap.add_argument("--advisory", action="store_true",
                    help="always exit 0 (report only)")
    ap.add_argument("--self-test", action="store_true",
                    help="run the built-in fixtures and exit")
    args = ap.parse_args()

    if args.self_test:
        return self_test()
    if not args.baseline or not args.candidate:
        ap.error("need BASELINE and CANDIDATE (or --self-test)")

    try:
        with open(args.baseline, encoding="utf-8") as f:
            base = json.load(f)
        with open(args.candidate, encoding="utf-8") as f:
            cand = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"bench_compare: FAIL: {e}")
        return 1

    if args.attribute:
        try:
            report, regressions = attribute(base, cand, args.threshold,
                                            args.min_samples)
        except ValueError as e:
            print(f"bench_compare: FAIL: {e}")
            return 1
        print(f"bench_compare: profile {base.get('label', '?')} -> "
              f"{cand.get('label', '?')}: {len(report)} comparisons, "
              f"{len(regressions)} flagged")
    else:
        report, regressions = compare(base, cand, args.threshold,
                                      args.io_threshold)
        print(f"bench_compare: {base.get('bench', '?')}: "
              f"{len(report)} comparisons, {len(regressions)} flagged")
    for line in report:
        print(f"  {line}")
    if regressions and not args.advisory:
        return 1
    if regressions:
        print("bench_compare: advisory mode — regressions reported, not "
              "enforced")
    return 0


if __name__ == "__main__":
    sys.exit(main())
