#!/usr/bin/env python3
"""Validate FlashR folded stacks (obs::write_folded / FLASHR_SAMPLE output).

The sampling profiler emits flamegraph.pl collapsed format, one line per
distinct stack::

    track;state;outer_frame;...;inner_frame count

Checks, in order:
  1. every non-empty line splits into a stack and a positive integer count
     (exactly one space before the count, no tabs, no trailing spaces);
  2. the first frame is a known track (``main``, ``worker-N``, ``io-N``,
     ``watchdog``, ``incident``, ``sampler-collect``, or the ``thread``
     fallback for unnamed threads);
  3. the second frame is a sample state: ``cpu``, ``io_wait``,
     ``lock_wait`` or ``idle``;
  4. every further frame is non-empty, contains no whitespace, and is
     a symbol, an ``<object>+0x<offset>`` frame under no exported symbol,
     or an unresolved ``0x...`` address;
  5. no duplicate (identical) stack lines — the collector folds, so a
     repeat means the fold key broke;
  6. each --require-frame PATTERN (fnmatch) matches at least one frame of
     at least one stack — how CI asserts a ``blas::*`` and an ``io*``
     frame actually got sampled.

Exit 0 and a one-line summary on success; exit 1 with the first failure
otherwise. CI runs this over the folded output of the traced bench_fig7
run (FLASHR_SAMPLE=<path>).

Usage: check_stacks.py FOLDED.txt [--min-samples N] [--min-stacks N]
                       [--require-frame PATTERN ...] [--require-state S ...]
                       [--self-test]

--self-test validates the fixtures in tools/stack_fixtures/: good_*.txt
must pass, bad_*.txt must fail.
"""

from __future__ import annotations

import argparse
import fnmatch
import os
import re
import sys

KNOWN_STATES = ("cpu", "io_wait", "lock_wait", "idle")
TRACK_RE = re.compile(
    r"^(main|thread|watchdog|incident|sampler-collect"
    r"|worker-\d+|io-\d+)$")
FRAME_RE = re.compile(r"^\S+$")


class StackError(Exception):
    pass


def validate(text: str, min_samples: int, min_stacks: int,
             require_frames: list[str],
             require_states: list[str]) -> str:
    """Raises StackError on the first problem; returns the OK summary."""
    total = 0
    stacks = 0
    seen: set[str] = set()
    states_seen: set[str] = set()
    frames_seen: set[str] = set()
    for lineno, line in enumerate(text.split("\n"), start=1):
        if not line:
            continue
        if line != line.strip() or "\t" in line:
            raise StackError(f"line {lineno}: stray whitespace: {line!r}")
        head, sep, count_s = line.rpartition(" ")
        if not sep or not count_s.isdigit():
            raise StackError(
                f"line {lineno}: no trailing sample count: {line!r}")
        count = int(count_s)
        if count < 1:
            raise StackError(f"line {lineno}: zero sample count")
        frames = head.split(";")
        if len(frames) < 2:
            raise StackError(
                f"line {lineno}: need at least track;state frames: {line!r}")
        if not TRACK_RE.match(frames[0]):
            raise StackError(
                f"line {lineno}: unknown track {frames[0]!r}")
        if frames[1] not in KNOWN_STATES:
            raise StackError(
                f"line {lineno}: unknown sample state {frames[1]!r}")
        for f in frames[2:]:
            if not f or not FRAME_RE.match(f):
                raise StackError(f"line {lineno}: malformed frame {f!r}")
        if head in seen:
            raise StackError(
                f"line {lineno}: duplicate stack (fold key broke): {head!r}")
        seen.add(head)
        states_seen.add(frames[1])
        frames_seen.update(frames)
        total += count
        stacks += 1

    if stacks < min_stacks:
        raise StackError(f"only {stacks} stack(s), need >= {min_stacks}")
    if total < min_samples:
        raise StackError(f"only {total} sample(s), need >= {min_samples}")
    for pat in require_frames:
        if not any(fnmatch.fnmatchcase(f, pat) for f in frames_seen):
            raise StackError(f"no frame matches required pattern {pat!r}")
    for st in require_states:
        if st not in states_seen:
            raise StackError(f"no stack in required state {st!r}")
    return (f"{stacks} stack(s), {total} sample(s), "
            f"states {sorted(states_seen)}")


def self_test() -> int:
    fixtures = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                            "stack_fixtures")
    files = sorted(os.listdir(fixtures))
    good = [f for f in files if f.startswith("good_")]
    bad = [f for f in files if f.startswith("bad_")]
    if not good or not bad:
        print(f"check_stacks: SELF-TEST FAIL: no fixtures in {fixtures}")
        return 1
    for fname in good + bad:
        with open(os.path.join(fixtures, fname), encoding="utf-8") as f:
            text = f.read()
        try:
            validate(text, min_samples=1, min_stacks=1,
                     require_frames=[], require_states=[])
            ok = True
            err = None
        except StackError as e:
            ok = False
            err = e
        if fname.startswith("good_") and not ok:
            print(f"check_stacks: SELF-TEST FAIL: {fname} rejected: {err}")
            return 1
        if fname.startswith("bad_") and ok:
            print(f"check_stacks: SELF-TEST FAIL: {fname} accepted")
            return 1
    # Requirement flags fire on the good fixture.
    with open(os.path.join(fixtures, good[0]), encoding="utf-8") as f:
        text = f.read()
    try:
        validate(text, 1, 1, ["no_such_frame_*"], [])
        print("check_stacks: SELF-TEST FAIL: --require-frame not enforced")
        return 1
    except StackError:
        pass
    try:
        validate(text, 10**9, 1, [], [])
        print("check_stacks: SELF-TEST FAIL: --min-samples not enforced")
        return 1
    except StackError:
        pass
    print(f"check_stacks: self-test OK ({len(good)} good, {len(bad)} bad "
          "fixtures)")
    return 0


def main() -> int:
    ap = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("folded", nargs="?", help="folded-stack file to validate")
    ap.add_argument("--min-samples", type=int, default=1,
                    help="total sample count must be at least N (default 1)")
    ap.add_argument("--min-stacks", type=int, default=1,
                    help="distinct stack count must be at least N (default 1)")
    ap.add_argument("--require-frame", action="append", default=[],
                    help="fnmatch pattern that must match at least one frame "
                         "(repeatable), e.g. 'blas::*'")
    ap.add_argument("--require-state", action="append", default=[],
                    choices=KNOWN_STATES,
                    help="sample state that must appear (repeatable)")
    ap.add_argument("--self-test", action="store_true",
                    help="validate the fixtures in tools/stack_fixtures/")
    args = ap.parse_args()

    if args.self_test:
        return self_test()
    if not args.folded:
        ap.error("folded-stack file required (or --self-test)")

    try:
        with open(args.folded, encoding="utf-8") as f:
            text = f.read()
        summary = validate(text, args.min_samples, args.min_stacks,
                           args.require_frame, args.require_state)
    except OSError as e:
        print(f"check_stacks: FAIL: {e}")
        return 1
    except StackError as e:
        print(f"check_stacks: FAIL: {args.folded}: {e}")
        return 1
    print(f"check_stacks: OK: {os.path.basename(args.folded)}: {summary}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
