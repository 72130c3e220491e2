#!/usr/bin/env python3
"""Project-specific lint rules for the FlashR engine tree.

Rules (each with a stable ID used in messages and suppressions):

  raw-io      Raw POSIX I/O calls (open/pread/pwrite and 64-bit variants)
              are only allowed inside src/io/ — everything else must go
              through the safs/async_io layer so fault injection, retry and
              checksumming see every byte. Method calls (``f.open(...)``)
              and the io layer's own shims are fine.

  naked-new   No naked ``new T[...]`` / ``malloc`` in src/core/ and
              src/matrix/: buffers there must come from mem/buffer_pool (or
              a container), otherwise the pool's peak-memory accounting and
              the invariant validator lose sight of them.

  mutex-ann   Headers declaring mutex-protected members must use
              flashr::mutex (common/thread_safety.h) rather than a bare
              std::mutex, and a header that declares a mutex member must
              annotate at least one field/function with GUARDED_BY /
              REQUIRES so clang's thread-safety analysis has something to
              check.

  raw-clock   Direct ``steady_clock/system_clock/high_resolution_clock
              ::now()`` calls are only allowed in common/timer.h (the
              engine's one clock source, flashr::now_ns) and src/obs/ —
              instrumentation timestamps must all come from the same
              monotonic clock or trace/metric timelines drift apart.

  std-future  No ``std::future``, ``std::shared_future``, ``std::promise``,
              ``std::packaged_task``, ``std::async`` or ``<future>`` under
              src/. Every read completes through its async_io callback; a
              caller that must wait joins its reads with a read_join
              (io/async_io.h), which waits for every member read before it
              rethrows the first error. A future per read lets the first
              failure surface while sibling reads still write into buffers
              the unwinding caller returns to the pool.

  unread-option
              Every field of ``struct options`` (src/common/config.h) must
              be read somewhere under src/, as ``.field`` or ``->field``.
              A knob nothing reads is documented behaviour that does not
              exist.

A line can opt out with a trailing ``// lint-ok: <rule-id>`` comment.

Usage:
  lint_flashr.py [--root DIR]          lint the tree, exit 1 on violations
  lint_flashr.py --self-test           run the rules over tools/lint_fixtures
"""

from __future__ import annotations

import argparse
import pathlib
import re
import sys

SRC_EXTS = {".cpp", ".h", ".hpp", ".cc"}

RAW_IO_RE = re.compile(
    r"(?<![\w.>:])(?:open|pread|pwrite|pread64|pwrite64"
    r"|preadv|pwritev|preadv2|pwritev2|readv|writev"
    r"|aio_read|aio_write|aio_suspend|io_submit|io_getevents|io_uring_\w+"
    r")\s*\("
)
NAKED_NEW_RE = re.compile(r"\bnew\s+[A-Za-z_][\w:<>]*\s*\[")
MALLOC_RE = re.compile(r"(?<![\w.>:])(?:malloc|calloc|realloc)\s*\(")
RAW_CLOCK_RE = re.compile(
    r"\b(?:steady_clock|system_clock|high_resolution_clock)\s*::\s*now\s*\("
)
STD_FUTURE_RE = re.compile(
    r"\bstd\s*::\s*(?:future|shared_future|promise|packaged_task|async)\b"
    r"|#\s*include\s*<future>"
)
STD_MUTEX_MEMBER_RE = re.compile(r"\bstd::(?:recursive_)?mutex\s+\w+\s*;")
FLASHR_MUTEX_MEMBER_RE = re.compile(
    r"(?<![:\w])mutex\s+\w+\s*(?:LOCK_RANK\s*\(\s*\w+\s*\))?\s*;")
ANNOTATION_RE = re.compile(r"\b(?:GUARDED_BY|PT_GUARDED_BY|REQUIRES)\s*\(")
OPTIONS_STRUCT_RE = re.compile(r"\bstruct\s+options\s*\{")
# A data member: type, name, then an initializer or the end of the
# declaration (a member function's name is followed by '(' instead).
FIELD_RE = re.compile(r"^\s*[\w:]+(?:\s*<[^;=]*>)?\s+(\w+)\s*[={;]")
MEMBER_ACCESS_RE = re.compile(r"(?:\.|->)\s*([A-Za-z_]\w*)")

SUPPRESS_RE = re.compile(r"//\s*lint-ok:\s*([\w-]+)")

# The annotated wrapper itself legitimately holds a std::mutex.
MUTEX_ALLOWLIST = {"src/common/thread_safety.h"}

# The engine's single clock source, plus the obs layer built on it.
CLOCK_ALLOWLIST_PREFIXES = ("src/common/timer.h", "src/obs/")

# Where struct options is declared.
OPTIONS_HEADER = "src/common/config.h"


def strip_comments_and_strings(line: str) -> str:
    """Blank out string/char literals and // comments (keeps offsets)."""
    out = []
    i, n = 0, len(line)
    while i < n:
        c = line[i]
        if c == "/" and i + 1 < n and line[i + 1] == "/":
            break
        if c in "\"'":
            quote = c
            out.append(" ")
            i += 1
            while i < n and line[i] != quote:
                out.append(" ")
                i += 2 if line[i] == "\\" else 1
            i += 1
            out.append(" ")
            continue
        out.append(c)
        i += 1
    return "".join(out)


class Violation:
    def __init__(self, path: str, lineno: int, rule: str, msg: str):
        self.path, self.lineno, self.rule, self.msg = path, lineno, rule, msg

    def __str__(self) -> str:
        return f"{self.path}:{self.lineno}: [{self.rule}] {self.msg}"


def lint_file(path: pathlib.Path, rel: str) -> list[Violation]:
    violations: list[Violation] = []
    try:
        text = path.read_text(encoding="utf-8", errors="replace")
    except OSError as e:
        return [Violation(rel, 0, "io-error", str(e))]

    lines = text.splitlines()
    in_io_layer = rel.startswith("src/io/")
    clock_allowed = rel.startswith(CLOCK_ALLOWLIST_PREFIXES)
    in_pool_scope = rel.startswith(("src/core/", "src/matrix/"))
    is_header = path.suffix in {".h", ".hpp"}

    has_flashr_mutex_member = False
    has_annotation = ANNOTATION_RE.search(text) is not None
    first_mutex_line = 0

    for lineno, raw in enumerate(lines, 1):
        suppressed = {m.group(1) for m in SUPPRESS_RE.finditer(raw)}
        line = strip_comments_and_strings(raw)

        if not in_io_layer and "raw-io" not in suppressed:
            if RAW_IO_RE.search(line):
                violations.append(Violation(
                    rel, lineno, "raw-io",
                    "raw POSIX I/O call outside src/io/; use the "
                    "safs/async_io layer"))

        if not clock_allowed and "raw-clock" not in suppressed:
            if RAW_CLOCK_RE.search(line):
                violations.append(Violation(
                    rel, lineno, "raw-clock",
                    "direct clock ::now() outside common/timer.h and "
                    "src/obs/; use flashr::now_ns() / flashr::timer"))

        if "std-future" not in suppressed and STD_FUTURE_RE.search(line):
            violations.append(Violation(
                rel, lineno, "std-future",
                "future/promise/async under src/; complete reads through "
                "their async_io callback and wait with a read_join"))

        if in_pool_scope and "naked-new" not in suppressed:
            if NAKED_NEW_RE.search(line) or MALLOC_RE.search(line):
                violations.append(Violation(
                    rel, lineno, "naked-new",
                    "naked array new/malloc in the engine core; allocate "
                    "through mem/buffer_pool or a container"))

        if is_header and "mutex-ann" not in suppressed:
            if (STD_MUTEX_MEMBER_RE.search(line)
                    and rel not in MUTEX_ALLOWLIST):
                violations.append(Violation(
                    rel, lineno, "mutex-ann",
                    "bare std::mutex member; use flashr::mutex from "
                    "common/thread_safety.h so the clang thread-safety "
                    "analysis sees it"))
            if FLASHR_MUTEX_MEMBER_RE.search(line):
                has_flashr_mutex_member = True
                first_mutex_line = first_mutex_line or lineno

    if (is_header and has_flashr_mutex_member and not has_annotation
            and rel not in MUTEX_ALLOWLIST):
        violations.append(Violation(
            rel, first_mutex_line, "mutex-ann",
            "header declares a mutex member but no GUARDED_BY/REQUIRES "
            "annotation; annotate the fields the mutex protects"))

    return violations


def options_fields(text: str) -> list[tuple[int, str]]:
    """(line number, name) of each data member of ``struct options``."""
    fields: list[tuple[int, str]] = []
    depth = 0
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = strip_comments_and_strings(raw)
        if depth == 0:
            if OPTIONS_STRUCT_RE.search(line):
                depth = 1
            continue
        if depth == 1 and "unread-option" not in SUPPRESS_RE.findall(raw):
            m = FIELD_RE.match(line)
            if m:
                fields.append((lineno, m.group(1)))
        depth += line.count("{") - line.count("}")
    return fields


def unread_options(header: pathlib.Path, rel: str,
                   sources: list[pathlib.Path]) -> list[Violation]:
    """Fields of the struct options in `header` that no source reads."""
    try:
        fields = options_fields(
            header.read_text(encoding="utf-8", errors="replace"))
    except OSError as e:
        return [Violation(rel, 0, "io-error", str(e))]
    read: set[str] = set()
    for path in sources:
        text = path.read_text(encoding="utf-8", errors="replace")
        for line in text.splitlines():
            read.update(
                MEMBER_ACCESS_RE.findall(strip_comments_and_strings(line)))
    return [Violation(rel, lineno, "unread-option",
                      f"options::{name} is read nowhere under src/ (no "
                      f".{name} or ->{name}); delete it or read it")
            for lineno, name in fields if name not in read]


def lint_tree(root: pathlib.Path) -> list[Violation]:
    violations: list[Violation] = []
    sources: list[pathlib.Path] = []
    for sub in ("src",):
        base = root / sub
        if not base.is_dir():
            continue
        for path in sorted(base.rglob("*")):
            if path.suffix in SRC_EXTS and path.is_file():
                rel = path.relative_to(root).as_posix()
                violations.extend(lint_file(path, rel))
                sources.append(path)
    header = root / OPTIONS_HEADER
    if header.is_file():
        violations.extend(unread_options(header, OPTIONS_HEADER, sources))
    return violations


def lint_fixture(path: pathlib.Path) -> list[Violation]:
    """Every rule over one fixture, which stands in for a file in
    src/core/ and, for unread-option, for the whole tree as well."""
    rel = f"src/core/{path.name}"
    return lint_file(path, rel) + unread_options(path, rel, [path])


def self_test(root: pathlib.Path) -> int:
    """Prove every rule fires on its fixture and stays quiet on clean code."""
    fixtures = root / "tools" / "lint_fixtures"
    # Fixtures emulate files inside the restricted directories.
    expect = {
        "bad_raw_io.cpp": "raw-io",
        "bad_raw_io_pipeline.cpp": "raw-io",
        "bad_naked_new.cpp": "naked-new",
        "bad_raw_clock.cpp": "raw-clock",
        "bad_std_future.cpp": "std-future",
        "bad_mutex_member.h": "mutex-ann",
        "bad_unannotated_mutex.h": "mutex-ann",
        "bad_unread_option.h": "unread-option",
    }
    failures = 0
    for name, rule in expect.items():
        got = lint_fixture(fixtures / name)
        if not any(v.rule == rule for v in got):
            print(f"SELF-TEST FAIL: {name}: rule {rule} did not fire "
                  f"(got: {[str(v) for v in got]})")
            failures += 1
        else:
            print(f"self-test ok: {name} -> {rule}")
    got: list[Violation] = []
    for name in ("clean_sample.cpp", "clean_header.h",
                 "clean_pipeline_queue.h", "clean_read_options.h",
                 "clean_read_join.cpp"):
        got += lint_fixture(fixtures / name)
    if got:
        print("SELF-TEST FAIL: clean fixtures produced violations:")
        for v in got:
            print(f"  {v}")
        failures += 1
    else:
        print("self-test ok: clean fixtures are quiet")
    return 1 if failures else 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--root", default=None,
                    help="repository root (default: this script's ../)")
    ap.add_argument("--self-test", action="store_true",
                    help="run the rule self-test over tools/lint_fixtures")
    args = ap.parse_args()

    root = pathlib.Path(args.root) if args.root else \
        pathlib.Path(__file__).resolve().parent.parent

    if args.self_test:
        return self_test(root)

    violations = lint_tree(root)
    for v in violations:
        print(v)
    if violations:
        print(f"lint_flashr: {len(violations)} violation(s)")
        return 1
    print("lint_flashr: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
