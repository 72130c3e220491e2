#!/usr/bin/env python3
"""Validate FlashR post-mortem artifacts (obs/incident.cpp output).

Accepts any mix of:

  * incident bundles  — ``incident-*.json``, schema ``flashr-incident-v1``,
    written by the incident monitor on a trip/abort/manual trigger;
  * raw crash dumps   — ``crash-*.bin``, magic ``FLRCRSH1``, written by the
    async-signal-safe handler after SIGSEGV/SIGBUS/SIGABRT/SIGFPE;
  * reassembled crash JSON — schema ``flashr-crash-v1``, the output of
    obs::reassemble_crash_dump over a raw dump.

Bundle checks:
  1. every required section is present (schema, trigger, time, build,
     config, flight, stacks, passes, governor, io_backend, metrics,
     samples, log_tail) and the trigger kind is a known incident kind;
  2. the filename (when it follows the incident-<ts>-<kind>.json
     convention) agrees with the trigger kind, and the trigger timestamp
     does not postdate the composition timestamp;
  3. flight-recorder tracks are well-formed: ph in B/E/i/C, timestamps
     monotone non-decreasing per track, and spans balanced (the composer
     re-pairs them, so an unbalanced track means the re-pairing broke);
  4. per-thread held lock ranks (the stacks section) are strictly
     increasing and every (name, value) pair matches the rank table in
     DESIGN.md §12.1 — the same table src/common/thread_safety.h declares;
  5. the sampler section (samples) carries non-negative counters and
     well-formed folded stack lines (track;state;frames + positive count).

Raw-dump checks: magic, section framing (HDR1 first, known tags, in-bounds
lengths), END0 termination (unless --allow-truncated), and a decodable
STRT name table for every FRNG ring. Reassembled-crash checks mirror the
bundle checks where they apply; raw ring slots are stored in array order
(not time order once the ring has wrapped), so crash flight events are NOT
required to be monotone or balanced.

Exit 0 and one OK line per file on success; exit 1 with the first failure
otherwise. CI runs this over the bundles produced by the incident-smoke
job (SIGUSR2 manual trigger + SIGSEGV crash dump).

Usage: check_incident.py FILE... [--design DESIGN.md] [--allow-truncated]
                         [--require-kind KIND] [--require-signal N]
                         [--self-test]

--self-test validates the fixtures in tools/incident_fixtures/: good_*
must pass, bad_* must fail, and the repo DESIGN.md rank table must parse.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import struct
import sys

KNOWN_KINDS = {
    "manual", "watchdog-trip", "governor-overload", "invariant-abort",
    "lock-rank-abort", "io-exhausted", "checksum",
}

BUNDLE_SECTIONS = ("schema", "trigger", "time", "build", "config", "flight",
                   "stacks", "passes", "governor", "io_backend", "metrics",
                   "samples", "log_tail")

DUMP_MAGIC = b"FLRCRSH1"
DUMP_TAGS = {b"HDR1", b"STAT", b"LOGR", b"RANK", b"FRNG", b"STRT", b"METR",
             b"END0"}

BUNDLE_NAME_RE = re.compile(r"^incident-(\d{20})-([a-z-]+)\.json$")
RANK_ROW_RE = re.compile(r"^\|\s*`([a-z_]+)`\s*\|\s*(\d+)\s*\|", re.M)


class IncidentError(Exception):
    pass


def load_rank_table(design_path: str) -> dict[str, int]:
    """Parse DESIGN.md §12.1 (| `name` | value | ... rows) into name->value."""
    try:
        with open(design_path, encoding="utf-8") as f:
            text = f.read()
    except OSError as e:
        raise IncidentError(f"cannot read rank table {design_path}: {e}")
    table = {m.group(1): int(m.group(2))
             for m in RANK_ROW_RE.finditer(text)}
    if not table:
        raise IncidentError(f"no rank-table rows found in {design_path}")
    return table


# ---------------------------------------------------------------------------
# Shared flight / rank validators
# ---------------------------------------------------------------------------


def check_flight_track(track, idx: int, ordered: bool) -> int:
    """Validate one flight thread object; returns its event count."""
    where = f"flight thread {idx}"
    if not isinstance(track, dict):
        raise IncidentError(f"{where} is not an object")
    for key in ("tid", "name", "events"):
        if key not in track:
            raise IncidentError(f"{where} lacks {key!r}")
    events = track["events"]
    if not isinstance(events, list):
        raise IncidentError(f"{where}: events is not a list")
    last_ts = None
    open_spans: list[str] = []
    for i, ev in enumerate(events):
        if not isinstance(ev, dict):
            raise IncidentError(f"{where} event {i} is not an object")
        ph = ev.get("ph")
        name = ev.get("name")
        ts = ev.get("ts_ns")
        if ph not in ("B", "E", "i", "C"):
            raise IncidentError(f"{where} event {i}: unexpected ph {ph!r}")
        if not isinstance(name, str) or not name:
            raise IncidentError(f"{where} event {i}: missing name")
        if not isinstance(ts, int):
            raise IncidentError(f"{where} event {i}: non-integer ts_ns")
        if ordered:
            if last_ts is not None and ts < last_ts:
                raise IncidentError(
                    f"{where} event {i} ({name}/{ph}) goes backwards in "
                    f"time: {ts} < {last_ts}")
            last_ts = ts
            if ph == "B":
                open_spans.append(name)
            elif ph == "E":
                if not open_spans:
                    raise IncidentError(
                        f"{where} event {i}: E ({name}) closes nothing")
                open_spans.pop()
    if ordered and open_spans:
        raise IncidentError(
            f"{where} ends with open span(s): {open_spans} — the composer's "
            f"re-pairing should have emitted synthetic ends")
    return len(events)


def check_rank_stack(values: list[int], names: list[str] | None,
                     table: dict[str, int], where: str):
    """Held ranks must be known and strictly increasing (the lock order)."""
    by_value = {v: k for k, v in table.items()}
    prev = None
    for j, v in enumerate(values):
        if not isinstance(v, int):
            raise IncidentError(f"{where}: rank {j} is not an integer")
        if v not in by_value:
            raise IncidentError(
                f"{where}: rank value {v} is not in the DESIGN §12.1 table")
        if names is not None:
            n = names[j]
            if table.get(n) != v:
                raise IncidentError(
                    f"{where}: rank {j} claims {n!r}={v} but the table says "
                    f"{n!r}={table.get(n)}")
        if prev is not None and v <= prev:
            raise IncidentError(
                f"{where}: held ranks not strictly increasing "
                f"({prev} then {v}) — a recorded lock-order inversion")
        prev = v


# ---------------------------------------------------------------------------
# Incident bundles (flashr-incident-v1)
# ---------------------------------------------------------------------------


def validate_bundle(doc, table: dict[str, int], fname: str,
                    require_kind: str | None) -> str:
    for key in BUNDLE_SECTIONS:
        if key not in doc:
            raise IncidentError(f"missing required section {key!r}")
    if doc["schema"] != "flashr-incident-v1":
        raise IncidentError(f"unexpected schema {doc['schema']!r}")

    trig = doc["trigger"]
    kind = trig.get("kind")
    if kind not in KNOWN_KINDS:
        raise IncidentError(f"unknown trigger kind {kind!r}")
    if require_kind is not None and kind != require_kind:
        raise IncidentError(f"trigger kind {kind!r}, expected "
                            f"{require_kind!r}")
    ts = trig.get("ts_ns")
    if not isinstance(ts, int) or ts <= 0:
        raise IncidentError("trigger lacks a positive integer ts_ns")
    mono = doc["time"].get("mono_ns")
    if not isinstance(mono, int) or mono < ts:
        raise IncidentError(
            f"composition time {mono} predates the trigger {ts}")

    m = BUNDLE_NAME_RE.match(os.path.basename(fname))
    if m and m.group(2) != kind:
        raise IncidentError(
            f"filename says kind {m.group(2)!r} but the trigger says "
            f"{kind!r}")

    for key in ("obs_flight", "obs_flight_secs", "incident_dir",
                "incident_max_bundles"):
        if key not in doc["config"]:
            raise IncidentError(f"config section lacks {key!r}")

    flight = doc["flight"]
    threads = flight.get("threads")
    if not isinstance(threads, list):
        raise IncidentError("flight.threads is not a list")
    n_events = sum(check_flight_track(t, i, ordered=True)
                   for i, t in enumerate(threads))

    stacks = doc["stacks"].get("threads")
    if not isinstance(stacks, list):
        raise IncidentError("stacks.threads is not a list")
    for i, th in enumerate(stacks):
        ranks = th.get("ranks")
        if not isinstance(ranks, list):
            raise IncidentError(f"stacks thread {i} lacks a ranks list")
        check_rank_stack([r.get("value") for r in ranks],
                         [r.get("name") for r in ranks],
                         table, f"stacks thread {i} (tid {th.get('tid')})")

    passes = doc["passes"]
    if not isinstance(passes.get("active"), list):
        raise IncidentError("passes.active is not a list")
    if "ok" not in doc["governor"]:
        raise IncidentError("governor section lacks 'ok'")
    io = doc["io_backend"]
    if not isinstance(io.get("name"), str) or not io["name"]:
        raise IncidentError("io_backend lacks a backend name")
    snap = io.get("snapshot")
    if not isinstance(snap, dict) or "write_budget" not in snap:
        raise IncidentError("io_backend.snapshot lacks write_budget")
    if not isinstance(doc["metrics"], dict):
        raise IncidentError("metrics is not an object")
    samp = doc["samples"]
    if not isinstance(samp, dict):
        raise IncidentError("samples is not an object")
    for key in ("hz", "samples", "dropped", "folded"):
        if key not in samp:
            raise IncidentError(f"samples section lacks {key!r}")
    for key in ("hz", "samples", "dropped"):
        if not isinstance(samp[key], int) or samp[key] < 0:
            raise IncidentError(
                f"samples.{key} is not a non-negative integer")
    folded = samp["folded"]
    if not isinstance(folded, list) or \
            not all(isinstance(s, str) for s in folded):
        raise IncidentError("samples.folded is not a list of strings")
    for i, line in enumerate(folded):
        # Folded lines are "track;state;frame;...;frame count".
        parts = line.rsplit(" ", 1)
        if len(parts) != 2 or not parts[1].isdigit() or int(parts[1]) < 1:
            raise IncidentError(
                f"samples.folded[{i}] lacks a positive trailing count: "
                f"{line!r}")
        if len(parts[0].split(";")) < 2:
            raise IncidentError(
                f"samples.folded[{i}] lacks track;state frames: {line!r}")
    tail = doc["log_tail"]
    if not isinstance(tail, list) or \
            not all(isinstance(s, str) for s in tail):
        raise IncidentError("log_tail is not a list of strings")

    return (f"bundle kind={kind} {len(threads)} flight track(s), "
            f"{n_events} event(s), {len(stacks)} stack(s)")


# ---------------------------------------------------------------------------
# Crash dumps: raw binary and reassembled JSON
# ---------------------------------------------------------------------------


def validate_raw_dump(data: bytes, allow_truncated: bool,
                      require_signal: int | None) -> str:
    if not data.startswith(DUMP_MAGIC):
        raise IncidentError("bad magic (not a FlashR crash dump)")
    off = len(DUMP_MAGIC)
    sections = []
    complete = False
    while off + 12 <= len(data):
        tag = data[off:off + 4]
        (length,) = struct.unpack_from("<Q", data, off + 4)
        if tag not in DUMP_TAGS:
            raise IncidentError(f"unknown section tag {tag!r} at {off}")
        if off + 12 + length > len(data):
            break  # truncated final section
        sections.append((tag, off + 12, int(length)))
        off += 12 + int(length)
        if tag == b"END0":
            complete = True
            break
    if not sections:
        raise IncidentError("no complete sections")
    if sections[0][0] != b"HDR1":
        raise IncidentError(f"first section is {sections[0][0]!r}, "
                            f"expected HDR1")
    if not complete and not allow_truncated:
        raise IncidentError("no END0 terminator (truncated dump); pass "
                            "--allow-truncated to accept")
    hdr_off, hdr_len = sections[0][1], sections[0][2]
    if hdr_len < 32:
        raise IncidentError(f"HDR1 too short ({hdr_len} bytes)")
    signal, pid = struct.unpack_from("<II", data, hdr_off + 4)
    if require_signal is not None and signal != require_signal:
        raise IncidentError(f"dump records signal {signal}, expected "
                            f"{require_signal}")

    # Every FRNG needs the STRT pointer->name table to be decodable.
    tags = [t for t, _, _ in sections]
    n_rings = tags.count(b"FRNG")
    if n_rings and b"STRT" not in tags:
        raise IncidentError(f"{n_rings} FRNG ring(s) but no STRT name table")
    n_names = 0
    for tag, soff, slen in sections:
        if tag != b"STRT" or slen < 4:
            continue
        (n,) = struct.unpack_from("<I", data, soff)
        p = soff + 4
        for _ in range(n):
            if p + 12 > soff + slen:
                raise IncidentError("STRT entry out of bounds")
            (_ptr, nlen) = struct.unpack_from("<QI", data, p)
            if p + 12 + nlen > soff + slen:
                raise IncidentError("STRT name bytes out of bounds")
            p += 12 + nlen
            n_names += 1
    return (f"raw dump signal={signal} pid={pid} {len(sections)} "
            f"section(s), {n_rings} ring(s), {n_names} interned name(s), "
            f"complete={str(complete).lower()}")


def validate_crash_json(doc, table: dict[str, int], allow_truncated: bool,
                        require_signal: int | None) -> str:
    if doc.get("schema") != "flashr-crash-v1":
        raise IncidentError(f"unexpected schema {doc.get('schema')!r}")
    if not doc.get("complete", False) and not allow_truncated:
        raise IncidentError("reassembly reports an incomplete dump; pass "
                            "--allow-truncated to accept")
    signal = doc.get("signal")
    if require_signal is not None and signal != require_signal:
        raise IncidentError(f"dump records signal {signal}, expected "
                            f"{require_signal}")
    if not isinstance(doc.get("reason"), str):
        raise IncidentError("missing reason string")
    for key in ("held_ranks", "flight", "log", "metrics_snapshots"):
        if key not in doc:
            raise IncidentError(f"missing {key!r}")
    for i, th in enumerate(doc["held_ranks"]):
        check_rank_stack(th.get("ranks", []), None, table,
                         f"held_ranks thread {i} (tid {th.get('tid')})")
    threads = doc["flight"].get("threads")
    if not isinstance(threads, list):
        raise IncidentError("flight.threads is not a list")
    # Raw ring slots are dumped in array order, which is no longer time
    # order once the ring has wrapped — so no monotonicity/balance here.
    n_events = sum(check_flight_track(t, i, ordered=False)
                   for i, t in enumerate(threads))
    return (f"crash signal={signal} reason={doc['reason']!r:.40} "
            f"{len(threads)} ring(s), {n_events} event(s)")


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------


def validate_file(path: str, table: dict[str, int], allow_truncated: bool,
                  require_kind: str | None,
                  require_signal: int | None) -> str:
    with open(path, "rb") as f:
        data = f.read()
    if data.startswith(DUMP_MAGIC):
        return validate_raw_dump(data, allow_truncated, require_signal)
    try:
        doc = json.loads(data.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise IncidentError(f"not a crash dump and not valid JSON: {e}")
    if not isinstance(doc, dict):
        raise IncidentError("top level is not an object")
    if doc.get("schema") == "flashr-crash-v1":
        return validate_crash_json(doc, table, allow_truncated,
                                   require_signal)
    return validate_bundle(doc, table, path, require_kind)


def self_test(design: str) -> int:
    table = load_rank_table(design)
    if table.get("incident") != 900 or table.get("sampler") != 770:
        print(f"check_incident: SELF-TEST FAIL: rank table looks wrong: "
              f"{table}")
        return 1
    fixtures = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                            "incident_fixtures")
    files = sorted(os.listdir(fixtures))
    good = [f for f in files if f.startswith("good_")]
    bad = [f for f in files if f.startswith("bad_")]
    if not good or not bad:
        print(f"check_incident: SELF-TEST FAIL: no fixtures in {fixtures}")
        return 1
    for fname in good + bad:
        try:
            validate_file(os.path.join(fixtures, fname), table,
                          allow_truncated=False, require_kind=None,
                          require_signal=None)
            ok = True
            err = None
        except IncidentError as e:
            ok = False
            err = e
        if fname.startswith("good_") and not ok:
            print(f"check_incident: SELF-TEST FAIL: {fname} rejected: {err}")
            return 1
        if fname.startswith("bad_") and ok:
            print(f"check_incident: SELF-TEST FAIL: {fname} accepted")
            return 1
    # Requirement flags fire on the good bundle fixture.
    bundle = next((f for f in good if f.endswith(".json")), None)
    if bundle:
        try:
            validate_file(os.path.join(fixtures, bundle), table,
                          allow_truncated=False,
                          require_kind="watchdog-trip", require_signal=None)
            print("check_incident: SELF-TEST FAIL: --require-kind not "
                  "enforced")
            return 1
        except IncidentError:
            pass
    print(f"check_incident: self-test OK ({len(good)} good, {len(bad)} bad "
          "fixtures)")
    return 0


def main() -> int:
    ap = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("files", nargs="*",
                    help="bundle .json / crash .bin / reassembled .json")
    ap.add_argument("--design", default=None,
                    help="DESIGN.md holding the §12.1 rank table "
                         "(default: ../DESIGN.md next to this script)")
    ap.add_argument("--allow-truncated", action="store_true",
                    help="accept crash dumps without an END0 terminator")
    ap.add_argument("--require-kind", default=None, choices=sorted(KNOWN_KINDS),
                    help="bundles must have this trigger kind")
    ap.add_argument("--require-signal", type=int, default=None,
                    help="crash dumps must record this signal number")
    ap.add_argument("--self-test", action="store_true",
                    help="validate the fixtures in tools/incident_fixtures/")
    args = ap.parse_args()

    design = args.design or os.path.join(
        os.path.dirname(os.path.abspath(__file__)), os.pardir, "DESIGN.md")

    if args.self_test:
        return self_test(design)
    if not args.files:
        ap.error("at least one file required (or --self-test)")

    try:
        table = load_rank_table(design)
    except IncidentError as e:
        print(f"check_incident: FAIL: {e}")
        return 1

    for path in args.files:
        try:
            summary = validate_file(path, table, args.allow_truncated,
                                    args.require_kind, args.require_signal)
        except OSError as e:
            print(f"check_incident: FAIL: {path}: {e}")
            return 1
        except IncidentError as e:
            print(f"check_incident: FAIL: {path}: {e}")
            return 1
        print(f"check_incident: OK: {os.path.basename(path)}: {summary}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
