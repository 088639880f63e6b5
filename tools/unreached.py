#!/usr/bin/env python3
"""Report library functions that no shipped binary reaches.

    python3 tools/unreached.py <build-dir> [--allowlist FILE]

<build-dir> must hold an -O0 build compiled with -ffunction-sections and
linked with -Wl,--gc-sections, so the linker drops every function no
shipped binary calls and the compiler inlines none away. One tree holds
all the shipped binaries when it is configured from perfbench/ (see
docs/static_analysis.md, "Unreached library code").

The script collects the global text (T) symbols of libneuro_*.a and
subtracts every symbol defined in a shipped binary: the executables in
the tree's bench/, examples/ and tools/ directories plus
perfbench_driver. What is left is library code that only tests reach.
It exits non-zero when such a function is missing from the allowlist,
and when an allowlist entry is stale: reached, or no longer defined.

Allowlist lines hold one demangled signature and a reason that names
its keep case: "<signature>  # (a|b|c) <why>". Blank lines and lines
starting with '#' are comments.
"""

import argparse
import os
import pathlib
import re
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
SHIPPED_DIRS = ("bench", "examples", "tools")
REQUIRED = ("neurocmp", "perfbench_driver")
REASON = re.compile(r"\((a|b|c)\) \S")


def nm_symbols(path, text_only):
    """Mangled names nm lists as defined in @p path."""
    out = subprocess.run(["nm", "--defined-only", "-P", str(path)],
                         check=True, capture_output=True, text=True).stdout
    names = set()
    for line in out.splitlines():
        fields = line.split()
        # Archive members print as "lib.a[member.o]:" header lines.
        if len(fields) < 2 or fields[0].endswith(":"):
            continue
        if not text_only or fields[1] == "T":
            names.add(fields[0])
    return names


def demangle(names):
    out = subprocess.run(["c++filt"], input="\n".join(names), check=True,
                         capture_output=True, text=True).stdout
    return dict(zip(names, out.splitlines()))


def is_elf_executable(path):
    if not path.is_file() or not os.access(path, os.X_OK):
        return False
    with open(path, "rb") as f:
        return f.read(4) == b"\x7fELF"


def shipped_binaries(build):
    found = [p for p in build.rglob("perfbench_driver")
             if is_elf_executable(p)]
    for p in build.rglob("*"):
        if p.parent.name in SHIPPED_DIRS and is_elf_executable(p):
            found.append(p)
    return found


def load_allowlist(path):
    """@return {signature: line number}; exits on a malformed line."""
    entries = {}
    for number, line in enumerate(path.read_text().splitlines(), 1):
        if not line.strip() or line.startswith("#"):
            continue
        signature, sep, reason = line.partition("#")
        signature = signature.strip()
        if not sep or not REASON.match(reason.strip()):
            sys.exit(f"{path}:{number}: expected '<signature>  # (a|b|c) "
                     f"<reason>', got: {line}")
        if signature in entries:
            sys.exit(f"{path}:{number}: duplicate entry: {signature}")
        entries[signature] = number
    return entries


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("build", type=pathlib.Path)
    parser.add_argument("--allowlist", type=pathlib.Path,
                        default=ROOT / "tools" / "unreached_allowlist.txt")
    args = parser.parse_args()

    archives = sorted(args.build.rglob("libneuro_*.a"))
    binaries = shipped_binaries(args.build)
    names = {p.name for p in binaries}
    missing = [r for r in REQUIRED if r not in names]
    if not archives or missing:
        sys.exit(f"{args.build}: need libneuro_*.a and the shipped "
                 f"binaries; missing: {missing or 'libneuro_*.a'}")

    library = set()
    for archive in archives:
        library |= nm_symbols(archive, text_only=True)
    shipped = set()
    for binary in binaries:
        shipped |= nm_symbols(binary, text_only=False)

    # A constructor or destructor has several mangled variants with one
    # demangled name; the function is reached if any variant is.
    signatures = demangle(sorted(library))
    reached = {signatures[n] for n in library if n in shipped}
    defined = set(signatures.values())
    unreached = defined - reached

    allowlist = load_allowlist(args.allowlist)
    new = sorted(unreached - allowlist.keys())
    stale = sorted((allowlist[s], s) for s in allowlist.keys() - unreached)

    print(f"{len(defined)} library functions, {len(binaries)} shipped "
          f"binaries, {len(unreached)} unreached, "
          f"{len(allowlist)} allowlisted")
    for signature in new:
        print(f"unreached, not allowlisted: {signature}")
    for number, signature in stale:
        why = "reached" if signature in reached else "not defined"
        print(f"{args.allowlist.name}:{number}: stale ({why}): {signature}")
    if new:
        print("Call these from a shipped binary, delete them, or allowlist "
              "them with the keep case (docs/static_analysis.md).")
    return 1 if new or stale else 0


if __name__ == "__main__":
    sys.exit(main())
