#!/usr/bin/env python3
"""Check that no code wider than the x86-64 baseline escapes a level entry.

core/vmath.cpp and core/kernels.cpp compile their kernels once per
instruction-set level (baseline, x86-64-v3, x86-64-v4) and pick one at run
time from the CPU. Only the functions compiled for a level may hold AVX
code: anything else runs on every CPU, so one AVX instruction there (say, a
template instantiation compiled inside an AVX-512 function and handed to a
baseline caller by the linker) is a SIGILL on a CPU without it.

The check disassembles an archive or object with ``objdump -d`` and fails
if a function holds a VEX or EVEX instruction (AT&T mnemonics starting with
``v``, the BMI1/BMI2 general-register instructions, mask-register
instructions) or names a ``%ymm``, ``%zmm`` or ``%k`` register, unless it is
level code: its own name, or a namespace, class or function it is nested
in, is ``run_v3``/``run_v4`` or ends in ``_v3``/``_v4`` (vmath's
``run_v4``, kernels.cpp's ``level_v4`` namespace, a lambda inside
``crossprod_v4``). Names inside template arguments do not count, so an
instantiation of an outer template, ``std::min<double>`` or
``dispatch_type<level_v4 lambda>``, is never level code.

Usage: check_isa.py LIBRARY [--objdump PATH] [--list]
       check_isa.py --self-test

--list prints every function that holds AVX code, tagged or not.
Exit 0 with a one-line summary when clean, 1 with the offenders otherwise.
"""

from __future__ import annotations

import argparse
import re
import subprocess
import sys

HEADER_RE = re.compile(r"^[0-9a-f]+ <(.+)>:$")
INSN_RE = re.compile(r"^\s*[0-9a-f]+:\s+(?:(?:[0-9a-f]{2} )+\s*)?([a-z][a-z0-9.]*)\b(.*)$")
WIDE_REG_RE = re.compile(r"%(?:[yz]mm\d+|k[0-7])\b")
# General-register instructions with a VEX encoding (BMI1, BMI2).
VEX_GPR = {"andn", "bextr", "blsi", "blsmsk", "blsr", "bzhi", "mulx", "pdep",
           "pext", "rorx", "sarx", "shlx", "shrx"}
# Legacy-encoded mnemonics that happen to start with v.
NOT_VEX = {"verr", "verw"}
TAG_RE = re.compile(r"(?:^run_v[34]|_v[34])$")


def strip_group(s: str, close: str) -> str:
    """s without its trailing balanced group ending in `close`."""
    if not s.endswith(close):
        return s
    depth = 0
    for i in range(len(s) - 1, -1, -1):
        if s[i] in ")>}":
            depth += 1
        elif s[i] in "(<{":
            depth -= 1
            if depth == 0:
                return s[:i]
    return s


def top_level_split(s: str, sep: str) -> list[str]:
    parts, depth, start, i = [], 0, 0, 0
    while i < len(s):
        if s[i] in "(<{":
            depth += 1
        elif s[i] in ")>}":
            depth -= 1
        elif depth == 0 and s.startswith(sep, i):
            parts.append(s[start:i])
            start = i + len(sep)
            i = start
            continue
        i += 1
    parts.append(s[start:])
    return parts


def name_path(symbol: str) -> list[str]:
    """The components of a demangled symbol's qualified name, without
    template arguments or parameter lists: `R ns::cls<A>::f<B>(int) const
    [clone .cold]` -> [ns, cls, f]."""
    s = re.sub(r" \[clone [^\]]*\]", "", symbol)
    s = s.replace("(anonymous namespace)", "{anon}").strip()
    # Member-function qualifiers, at the end or on an enclosing function.
    s = re.sub(r"\)(?: const| volatile| &&| &)+(?=$|::)", ")", s)
    s = top_level_split(bare(s), " ")[-1]  # drop a return type
    return [bare(c) for c in top_level_split(s, "::")]


def bare(name: str) -> str:
    """name without its parameter list and template arguments."""
    if not name.endswith("operator()"):
        name = strip_group(name, ")")
    return strip_group(name, ">")


def is_level_code(symbol: str) -> bool:
    return any(TAG_RE.search(c) for c in name_path(symbol))


def is_wide(mnemonic: str, operands: str) -> bool:
    if mnemonic.startswith("v") and mnemonic not in NOT_VEX:
        return True
    if mnemonic.startswith("k") and WIDE_REG_RE.search(operands):
        return True
    return mnemonic in VEX_GPR or bool(WIDE_REG_RE.search(operands))


def wide_functions(disassembly: str) -> dict[str, str]:
    """Function -> its first instruction wider than the baseline."""
    found: dict[str, str] = {}
    current = None
    for line in disassembly.splitlines():
        m = HEADER_RE.match(line)
        if m:
            current = m.group(1)
            continue
        if current is None or current in found:
            continue
        m = INSN_RE.match(line)
        if m and is_wide(m.group(1), m.group(2)):
            found[current] = (m.group(1) + m.group(2)).strip()
    return found


def check(disassembly: str) -> tuple[list[str], list[str]]:
    """(tagged level entries with AVX code, untagged offenders)."""
    tagged, bad = [], []
    for fn, insn in sorted(wide_functions(disassembly).items()):
        if is_level_code(fn):
            tagged.append(fn)
        else:
            bad.append(f"{fn}: {insn}")
    return tagged, bad


CANNED = """
In archive libflashr.a:

kernels.cpp.o:     file format elf64-x86-64

Disassembly of section .text:

0000000000000000 <flashr::vmath::(anonymous namespace)::run_v4(flashr::vmath::fn, double const*, double*, unsigned long)>:
   0:\tvmovupd (%rsi),%zmm0
   6:\tkmovb  %k1,%eax
0000000000000040 <flashr::kern::level_v3::(anonymous namespace)::map2(flashr::scalar_type, flashr::bop_id)>:
  40:\tvaddpd %ymm1,%ymm0,%ymm0
0000000000000080 <void flashr::kern::(anonymous namespace)::crossprod_block_v4<0ul, 1ul>(std::integer_sequence<unsigned long, 0ul, 1ul>, double const* const*)>:
  80:\tvpermt2pd %zmm2,%zmm1,%zmm0
00000000000000c0 <void flashr::kern::level_v4::(anonymous namespace)::sapply(flashr::scalar_type)::{lambda<typename $T0>()#2}::operator()<double>() const [clone .cold]>:
  c0:\tvzeroupper
0000000000000100 <flashr::kern::sapply(flashr::scalar_type, flashr::uop_id)>:
 100:\tmovupd (%rsi),%xmm0
 104:\taddpd  %xmm1,%xmm0
 108:\tret
"""

# Each case: extra disassembly appended to CANNED, and whether it passes.
CASES = [
    ("tagged entries only", "", True),
    ("COMDAT template instance with zmm",
     "0000000000000200 <double std::min<double>(double const&, double const&)>:\n"
     " 200:\tvminpd %zmm1,%zmm0,%zmm0\n", False),
    ("ymm in an untagged function",
     "0000000000000240 <flashr::kern::map2(flashr::scalar_type)>:\n"
     " 240:\tmovapd %xmm0,%xmm1\n"
     " 244:\tvmovapd %ymm0,%ymm1\n", False),
    ("VEX-encoded xmm (VEX.128) in an untagged function",
     "0000000000000280 <flashr::blas::gemm_nn<double>(unsigned long)>:\n"
     " 280:\t c5 fb 58 c1          \tvaddsd %xmm1,%xmm0,%xmm0\n", False),
    ("mask register in an untagged function",
     "00000000000002c0 <flashr::kern::copy(flashr::scalar_type)>:\n"
     " 2c0:\tkortestw %k0,%k1\n", False),
    ("BMI2 in an untagged function",
     "0000000000000300 <flashr::kern::cast(flashr::scalar_type)>:\n"
     " 300:\tshlx   %rax,%rbx,%rcx\n", False),
    ("a lambda inside a tagged function is level code",
     "0000000000000340 <flashr::kern::(anonymous namespace)::crossprod_v4(flashr::kern::view)::{lambda<unsigned long $T0>(unsigned long)#1}::operator()<8ul>(unsigned long) const>:\n"
     " 340:\tvmovupd %zmm0,(%rdi)\n", True),
    ("an outer template instantiated on a level's lambda is not",
     "0000000000000400 <decltype(auto) flashr::dispatch_type<flashr::kern::level_v4::(anonymous namespace)::map2(flashr::scalar_type)::{lambda<typename $T0>()#1}>(flashr::scalar_type, flashr::kern::level_v4::(anonymous namespace)::map2(flashr::scalar_type)::{lambda<typename $T0>()#1}&&)>:\n"
     " 400:\tvmovupd %ymm0,(%rdi)\n", False),
    ("a name that only contains a tag is not tagged",
     "0000000000000380 <flashr::kern::run_v4_helper(int)>:\n"
     " 380:\tvmovupd %ymm0,(%rdi)\n", False),
    ("verw is not VEX",
     "00000000000003c0 <flashr::kern::cum_row(flashr::scalar_type)>:\n"
     " 3c0:\tverw   (%rax)\n", True),
]


def self_test() -> int:
    failures = 0
    names = {
        "flashr::vmath::(anonymous namespace)::run_v3(int)":
            ["flashr", "vmath", "{anon}", "run_v3"],
        "void flashr::kern::(anonymous namespace)::crossprod_block_v4<0ul>(std::integer_sequence<unsigned long, 0ul>) [clone .part.0]":
            ["flashr", "kern", "{anon}", "crossprod_block_v4"],
        "flashr::kern::f(int)::{lambda()#1}::operator()() const":
            ["flashr", "kern", "f", "{lambda()#1}", "operator()"],
        "auto ns::level_v3::g(int)::{lambda()#1}::operator()<double>() const::{lambda(auto:1)#1}::operator()<std::less<double> >(std::less<double>) const [clone .constprop.0]":
            ["ns", "level_v3", "g", "{lambda()#1}", "operator()",
             "{lambda(auto:1)#1}", "operator()"],
        "double std::min<double>(double const&, double const&)":
            ["std", "min"],
    }
    for sym, want in names.items():
        got = name_path(sym)
        if got != want:
            print(f"FAIL name_path({sym!r}) = {got!r}, want {want!r}")
            failures += 1
    for label, extra, want_ok in CASES:
        tagged, bad = check(CANNED + extra)
        ok = not bad
        want_tagged = 4 + (1 if want_ok and "zmm" in extra else 0)
        if ok != want_ok or len(tagged) != want_tagged:
            print(f"FAIL {label}: {'clean' if ok else 'flagged'} with "
                  f"{len(tagged)} tagged entries; offenders {bad}")
            failures += 1
    if failures:
        return 1
    print(f"self-test OK ({len(names)} names, {len(CASES)} cases)")
    return 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("library", nargs="?")
    ap.add_argument("--objdump", default="objdump")
    ap.add_argument("--list", action="store_true")
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if args.self_test:
        return self_test()
    if not args.library:
        ap.error("LIBRARY is required")
    out = subprocess.run([args.objdump, "-d", "-C", "--no-show-raw-insn",
                          args.library], check=True, capture_output=True,
                         text=True).stdout
    tagged, bad = check(out)
    if args.list:
        for fn in tagged:
            print(f"level entry: {fn}")
    if bad:
        print(f"check_isa: {len(bad)} function(s) outside a level entry hold "
              f"code wider than the baseline:")
        for line in bad:
            print(f"  {line}")
        return 1
    print(f"check_isa: OK ({len(tagged)} level entries hold AVX code, "
          f"nothing else does)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
