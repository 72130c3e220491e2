#!/usr/bin/env python3
"""Validate a FlashR trace file (obs::write_trace / FLASHR_TRACE output).

Checks, in order:
  1. the file parses as JSON and has a non-empty ``traceEvents`` array;
  2. every event carries the Chrome trace-event fields Perfetto needs
     (name, ph, pid, tid; ts for B/E/i/C);
  3. span events balance per (pid, tid) track: every E closes an open B,
     no track ends with an open span, and timestamps within a track are
     monotonically non-decreasing — i.e. the flush-time re-pairing in
     src/obs/trace.cpp did its job;
  4. counter events (ph "C", OBS_COUNTER) carry an args object with at
     least one numeric series value;
  5. every track that has events also has exactly one ``thread_name``
     metadata record (ph "M") with a non-empty string name, so Perfetto
     can label the track.

Exit 0 and a one-line summary on success; exit 1 with the first failure
otherwise. CI runs this over the traced bench_fig7 artifact.

Usage: check_trace.py TRACE.json [--min-events N] [--require-name NAME ...]
                      [--require-counter NAME ...]
                      [--require-track PATTERN ...] [--self-test]

--require-track takes an fnmatch pattern (e.g. ``io-*``) that must match
the thread_name label of at least one track that carries events — how CI
asserts that a family of named threads actually traced.

--self-test validates the fixtures in tools/trace_fixtures/: good_*.json
must pass, bad_*.json must fail.
"""

from __future__ import annotations

import argparse
import fnmatch
import json
import os
import sys


class TraceError(Exception):
    pass


def validate(doc, min_events: int, require_names: list[str],
             require_counters: list[str],
             require_tracks: list[str] | None = None) -> str:
    """Raises TraceError on the first problem; returns the OK summary."""
    events = doc.get("traceEvents")
    if not isinstance(events, list):
        raise TraceError("no traceEvents array")

    counted = 0
    names = set()
    counter_names = set()
    open_spans: dict[tuple, list] = {}
    last_ts: dict[tuple, float] = {}
    track_names: dict[tuple, str] = {}
    event_tracks: set[tuple] = set()
    for i, ev in enumerate(events):
        if not isinstance(ev, dict):
            raise TraceError(f"event {i} is not an object")
        ph = ev.get("ph")
        name = ev.get("name")
        if ph is None or name is None:
            raise TraceError(f"event {i} lacks ph/name")
        if "pid" not in ev or "tid" not in ev:
            raise TraceError(f"event {i} ({name}/{ph}) lacks pid/tid")
        track = (ev["pid"], ev["tid"])
        if ph == "M":
            # Metadata (track labels); no timestamp.
            if name == "thread_name":
                tname = ev.get("args", {}).get("name")
                if not isinstance(tname, str) or not tname:
                    raise TraceError(
                        f"event {i}: thread_name without a string name")
                if track in track_names:
                    raise TraceError(
                        f"duplicate thread_name for track {track}")
                track_names[track] = tname
            continue
        if ph not in ("B", "E", "i", "C"):
            raise TraceError(f"event {i} has unexpected ph {ph!r}")
        ts = ev.get("ts")
        if not isinstance(ts, (int, float)):
            raise TraceError(f"event {i} ({name}/{ph}) lacks numeric ts")
        if ts < last_ts.get(track, float("-inf")):
            raise TraceError(
                f"event {i} ({name}/{ph}) goes backwards in time on "
                f"track {track}: {ts} < {last_ts[track]}")
        last_ts[track] = ts
        event_tracks.add(track)
        counted += 1
        names.add(name)
        if ph == "C":
            # Counter series: args must hold at least one numeric value.
            args = ev.get("args")
            if not isinstance(args, dict) or not any(
                    isinstance(v, (int, float)) for v in args.values()):
                raise TraceError(
                    f"event {i}: counter ({name}) without numeric args")
            counter_names.add(name)
        elif ph == "B":
            open_spans.setdefault(track, []).append(name)
        elif ph == "E":
            stack = open_spans.get(track)
            if not stack:
                raise TraceError(
                    f"event {i}: E ({name}) with no open span on "
                    f"track {track}")
            stack.pop()

    for track, stack in open_spans.items():
        if stack:
            raise TraceError(f"track {track} ends with open span(s): {stack}")
    for track in sorted(event_tracks, key=str):
        if track not in track_names:
            raise TraceError(f"track {track} has events but no thread_name "
                             "metadata")

    if counted < min_events:
        raise TraceError(f"only {counted} events, expected >= {min_events}")
    for required in require_names:
        if required not in names:
            raise TraceError(f"required event name {required!r} never appears")
    for required in require_counters:
        if required not in counter_names:
            raise TraceError(
                f"required counter {required!r} never appears as a C event")
    for pattern in require_tracks or []:
        labels = [track_names[t] for t in event_tracks if t in track_names]
        if not any(fnmatch.fnmatch(label, pattern) for label in labels):
            raise TraceError(
                f"no event-carrying track label matches {pattern!r} "
                f"(labels: {sorted(labels)})")

    dropped = doc.get("otherData", {}).get("dropped", 0)
    return (f"{counted} events on {len(event_tracks)} track(s), "
            f"{len(names)} distinct names, {len(counter_names)} counter "
            f"series, {dropped} dropped")


def self_test() -> int:
    fixtures = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                            "trace_fixtures")
    files = sorted(os.listdir(fixtures))
    good = [f for f in files if f.startswith("good_")]
    bad = [f for f in files if f.startswith("bad_")]
    if not good or not bad:
        print(f"check_trace: SELF-TEST FAIL: no fixtures under {fixtures}")
        return 1
    for fname in good + bad:
        with open(os.path.join(fixtures, fname), encoding="utf-8") as f:
            doc = json.load(f)
        try:
            validate(doc, min_events=1, require_names=[], require_counters=[])
            ok = True
        except TraceError as e:
            ok = False
            err = e
        if fname.startswith("good_") and not ok:
            print(f"check_trace: SELF-TEST FAIL: {fname} rejected: {err}")
            return 1
        if fname.startswith("bad_") and ok:
            print(f"check_trace: SELF-TEST FAIL: {fname} accepted")
            return 1
    # Requirement flags fire on the good fixture.
    with open(os.path.join(fixtures, good[0]), encoding="utf-8") as f:
        doc = json.load(f)
    try:
        validate(doc, min_events=1, require_names=[], require_counters=[],
                 require_tracks=["*"])
    except TraceError as e:
        print(f"check_trace: SELF-TEST FAIL: require-track '*' rejected "
              f"on {good[0]}: {e}")
        return 1
    for kwargs in ({"require_names": ["absent.name"], "require_counters": []},
                   {"require_names": [], "require_counters": ["absent.ctr"]},
                   {"require_names": [], "require_counters": [],
                    "require_tracks": ["absent-track-*"]}):
        try:
            validate(doc, min_events=1, **kwargs)
            print(f"check_trace: SELF-TEST FAIL: {kwargs} not enforced")
            return 1
        except TraceError:
            pass
    print(f"check_trace: self-test OK ({len(good)} good, {len(bad)} bad "
          "fixtures)")
    return 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("trace", nargs="?", help="trace JSON file to validate")
    ap.add_argument("--min-events", type=int, default=1,
                    help="minimum number of non-metadata events (default 1)")
    ap.add_argument("--require-name", action="append", default=[],
                    help="event name that must appear at least once "
                         "(repeatable)")
    ap.add_argument("--require-counter", action="append", default=[],
                    help="counter series (ph C) that must appear at least "
                         "once (repeatable)")
    ap.add_argument("--require-track", action="append", default=[],
                    help="fnmatch pattern that must match at least one "
                         "event-carrying track's thread_name label, e.g. "
                         "'io-*' (repeatable)")
    ap.add_argument("--self-test", action="store_true",
                    help="validate the fixtures in tools/trace_fixtures/")
    args = ap.parse_args()

    if args.self_test:
        return self_test()
    if not args.trace:
        ap.error("trace file required (or --self-test)")

    try:
        with open(args.trace, encoding="utf-8") as f:
            doc = json.load(f)
    except OSError as e:
        print(f"check_trace: FAIL: cannot read {args.trace}: {e}")
        return 1
    except json.JSONDecodeError as e:
        print(f"check_trace: FAIL: {args.trace} is not valid JSON: {e}")
        return 1

    try:
        summary = validate(doc, args.min_events, args.require_name,
                           args.require_counter, args.require_track)
    except TraceError as e:
        print(f"check_trace: FAIL: {e}")
        return 1
    print(f"check_trace: OK: {summary}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
