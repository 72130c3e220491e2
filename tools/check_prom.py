#!/usr/bin/env python3
"""Validate Prometheus text exposition (format 0.0.4) written to a file.

The input is ``metrics_registry::global().to_prometheus()`` saved to disk
(bench_fig7 writes fig7_metrics_1.prom and fig7_metrics_2.prom next to
BENCH_fig7.json), or any other scrape of the same format.

Checks:
  1. every line is a comment, blank, or a ``name{labels}? value`` sample;
  2. metric names match [a-zA-Z_:][a-zA-Z0-9_:]*; label values use only the
     legal escapes (\\\\, \\", \\n) and every brace/quote closes;
  3. every sample family carries # HELP and # TYPE lines (the family of
     ``x_sum``/``x_count``/``x_bucket`` samples is ``x`` when x is a
     summary/histogram), each declared exactly once, with a known type;
  4. samples appear after their family's # TYPE line;
  5. with a second file: counters (and any --monotone names) must not
     decrease between the first and second file.

Exit 0 with a one-line summary on success; exit 1 with the first failure.
CI runs it over both files of a traced bench_fig7 run.

Usage: check_prom.py SCRAPE1 [SCRAPE2] [--require NAME ...]
                     [--monotone NAME ...] [--self-test]
"""

from __future__ import annotations

import argparse
import re
import sys

NAME_RE = re.compile(r"[a-zA-Z_:][a-zA-Z0-9_:]*$")
VALUE_RE = re.compile(
    r"[+-]?(?:[0-9]*\.?[0-9]+(?:[eE][+-]?[0-9]+)?|Inf|NaN)$")
KNOWN_TYPES = {"counter", "gauge", "summary", "histogram", "untyped"}


class PromError(Exception):
    pass


def parse_labels(s: str, lineno: int) -> str:
    """Validate the {...} label block; returns the remainder after '}'."""
    assert s[0] == "{"
    i = 1
    while True:
        if i >= len(s):
            raise PromError(f"line {lineno}: unterminated label block")
        if s[i] == "}":
            return s[i + 1:]
        m = re.match(r"([a-zA-Z_][a-zA-Z0-9_]*)=\"", s[i:])
        if not m:
            raise PromError(f"line {lineno}: malformed label at {s[i:]!r}")
        i += m.end()
        while True:  # label value, with escape validation
            if i >= len(s):
                raise PromError(f"line {lineno}: unterminated label value")
            c = s[i]
            if c == "\\":
                if i + 1 >= len(s) or s[i + 1] not in ("\\", '"', "n"):
                    raise PromError(
                        f"line {lineno}: illegal escape in label value")
                i += 2
                continue
            if c == '"':
                i += 1
                break
            if c == "\n":
                raise PromError(f"line {lineno}: newline in label value")
            i += 1
        if i < len(s) and s[i] == ",":
            i += 1


def family_of(name: str, typed: dict[str, str]) -> str:
    """Strip summary/histogram sample suffixes down to the declared family."""
    for suffix in ("_sum", "_count", "_bucket"):
        base = name[: -len(suffix)] if name.endswith(suffix) else None
        if base and typed.get(base) in ("summary", "histogram"):
            return base
    return name


def parse_exposition(text: str) -> dict[str, dict]:
    """Parse + validate; returns {family: {"type": t, "samples": {name: v}}}."""
    families: dict[str, dict] = {}
    typed: dict[str, str] = {}
    helped: set[str] = set()
    for lineno, line in enumerate(text.split("\n"), start=1):
        if not line.strip():
            continue
        if line.startswith("# HELP "):
            rest = line[len("# HELP "):]
            name = rest.split(" ", 1)[0]
            if not NAME_RE.match(name):
                raise PromError(f"line {lineno}: bad HELP metric name {name!r}")
            if name in helped:
                raise PromError(f"line {lineno}: duplicate HELP for {name}")
            helped.add(name)
            continue
        if line.startswith("# TYPE "):
            parts = line[len("# TYPE "):].split(" ")
            if len(parts) != 2:
                raise PromError(f"line {lineno}: malformed TYPE line")
            name, typ = parts
            if not NAME_RE.match(name):
                raise PromError(f"line {lineno}: bad TYPE metric name {name!r}")
            if typ not in KNOWN_TYPES:
                raise PromError(f"line {lineno}: unknown type {typ!r}")
            if name in typed:
                raise PromError(f"line {lineno}: duplicate TYPE for {name}")
            typed[name] = typ
            families[name] = {"type": typ, "samples": {}}
            continue
        if line.startswith("#"):
            continue  # plain comment
        # Sample line: name{labels}? value
        m = re.match(r"([a-zA-Z_:][a-zA-Z0-9_:]*)", line)
        if not m:
            raise PromError(f"line {lineno}: malformed sample {line!r}")
        name = m.group(1)
        rest = line[m.end():]
        if rest.startswith("{"):
            rest = parse_labels(rest, lineno)
        if not rest.startswith(" "):
            raise PromError(f"line {lineno}: missing space before value")
        value_str = rest.strip()
        if not VALUE_RE.match(value_str):
            raise PromError(f"line {lineno}: bad sample value {value_str!r}")
        fam = family_of(name, typed)
        if fam not in typed:
            raise PromError(
                f"line {lineno}: sample {name} has no preceding # TYPE")
        if fam not in helped:
            raise PromError(f"line {lineno}: sample {name} has no # HELP")
        # Key on the full line head (name + labels) so quantile samples of
        # one summary don't collide.
        key = line[: len(line) - len(rest) + 1].strip()
        families[fam]["samples"][key] = float(value_str)
    return families


def check_monotone(first: dict[str, dict], second: dict[str, dict],
                   extra: list[str]) -> int:
    """Counters (and `extra` names) must not decrease between scrapes."""
    checked = 0
    for fam, info in first.items():
        monotone = info["type"] == "counter" or fam in extra
        if not monotone or fam not in second:
            continue
        for key, v1 in info["samples"].items():
            v2 = second[fam]["samples"].get(key)
            if v2 is None:
                raise PromError(f"{key}: present in scrape 1 but not 2")
            if v2 < v1:
                raise PromError(
                    f"{key}: went backwards between scrapes ({v1} -> {v2})")
            checked += 1
    return checked


def self_test() -> int:
    good = (
        "# HELP flashr_reads total reads\n"
        "# TYPE flashr_reads counter\n"
        "flashr_reads 41\n"
        "# HELP flashr_lat latency\n"
        "# TYPE flashr_lat summary\n"
        'flashr_lat{quantile="0.5"} 10.0\n'
        'flashr_lat{quantile="0.99"} 99.5\n'
        "flashr_lat_sum 1000\n"
        "flashr_lat_count 100\n"
        "# HELP flashr_esc escapes \\\\ and \\n\n"
        "# TYPE flashr_esc gauge\n"
        'flashr_esc{path="a\\\\b\\"c\\n"} 1\n'
    )
    good2 = good.replace("flashr_reads 41", "flashr_reads 42")
    bad_cases = {
        "no TYPE": "# HELP flashr_x x\nflashr_x 1\n",
        "no HELP": "# TYPE flashr_x counter\nflashr_x 1\n",
        "bad type": "# HELP flashr_x x\n# TYPE flashr_x meter\nflashr_x 1\n",
        "dup TYPE": ("# HELP flashr_x x\n# TYPE flashr_x counter\n"
                     "# TYPE flashr_x counter\nflashr_x 1\n"),
        "bad value": "# HELP flashr_x x\n# TYPE flashr_x counter\nflashr_x one\n",
        "bad escape": ("# HELP flashr_x x\n# TYPE flashr_x gauge\n"
                       'flashr_x{l="a\\tb"} 1\n'),
        "unterminated labels": ("# HELP flashr_x x\n# TYPE flashr_x gauge\n"
                                'flashr_x{l="a" 1\n'),
    }

    fams = parse_exposition(good)
    assert fams["flashr_reads"]["type"] == "counter"
    assert fams["flashr_lat"]["type"] == "summary"
    assert len(fams["flashr_lat"]["samples"]) == 4
    assert check_monotone(fams, parse_exposition(good2), []) == 1
    try:
        check_monotone(parse_exposition(good2), fams, [])
        raise AssertionError("backwards counter not detected")
    except PromError:
        pass
    # Gauges are exempt unless named via --monotone.
    check_monotone(fams, parse_exposition(good), [])  # equal scrapes pass
    dropped = good.replace('c\\n"} 1\n', 'c\\n"} 0\n')
    check_monotone(fams, parse_exposition(dropped), [])  # gauge may drop
    try:
        check_monotone(fams, parse_exposition(dropped), ["flashr_esc"])
        raise AssertionError("--monotone did not widen the check")
    except PromError:
        pass
    for label, text in bad_cases.items():
        try:
            parse_exposition(text)
            print(f"check_prom: SELF-TEST FAIL: {label!r} not rejected")
            return 1
        except PromError:
            pass
    print("check_prom: self-test OK")
    return 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("scrape", nargs="?", help="exposition file to validate")
    ap.add_argument("scrape2", nargs="?",
                    help="later file; counters must be monotone across")
    ap.add_argument("--require", action="append", default=[],
                    help="metric family that must be present (repeatable)")
    ap.add_argument("--monotone", action="append", default=[],
                    help="non-counter family to include in the monotone "
                         "cross-scrape check (repeatable)")
    ap.add_argument("--self-test", action="store_true",
                    help="run the built-in fixtures and exit")
    args = ap.parse_args()

    if args.self_test:
        return self_test()
    if not args.scrape:
        ap.error("scrape file required (or --self-test)")

    try:
        with open(args.scrape, encoding="utf-8") as f:
            first = parse_exposition(f.read())
        second = None
        if args.scrape2:
            with open(args.scrape2, encoding="utf-8") as f:
                second = parse_exposition(f.read())
        for name in args.require:
            if name not in first:
                raise PromError(f"required metric {name!r} not exposed")
        checked = 0
        if second is not None:
            checked = check_monotone(first, second, args.monotone)
    except OSError as e:
        print(f"check_prom: FAIL: {e}")
        return 1
    except PromError as e:
        print(f"check_prom: FAIL: {e}")
        return 1

    nsamples = sum(len(i["samples"]) for i in first.values())
    extra = f", {checked} monotone across scrapes" if second is not None else ""
    print(f"check_prom: OK: {len(first)} families, {nsamples} samples{extra}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
