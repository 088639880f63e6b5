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
the tree's bench/ and tools/ directories plus perfbench_driver. What is
left is library code that only tests or examples reach; what an
examples/ executable reaches is reported as "reached only by
examples". It exits non-zero when such a function is missing from the
allowlist, and when an allowlist entry is stale: reached, no longer
defined, or in the other category.

Allowlist lines hold one demangled signature and a reason that names
its keep case: "<signature>  # (a|b|c) <why>" for a function only tests
reach, "<signature>  # (d) examples/<name> <why>" for one only examples
reach. Blank lines and lines starting with '#' are comments.
"""

import argparse
import os
import pathlib
import re
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
SHIPPED_DIRS = ("bench", "tools")
EXAMPLES_DIR = "examples"
REQUIRED = ("neurocmp", "perfbench_driver")
REASON = re.compile(r"\((a|b|c)\) \S|\(d\) examples/\w")


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


def defined_in(binaries):
    """Mangled names any of @p binaries defines."""
    names = set()
    for binary in binaries:
        names |= nm_symbols(binary, text_only=False)
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


def binaries_in(build, dirs):
    return [p for p in build.rglob("*")
            if p.parent.name in dirs and is_elf_executable(p)]


def shipped_binaries(build):
    found = [p for p in build.rglob("perfbench_driver")
             if is_elf_executable(p)]
    return found + binaries_in(build, SHIPPED_DIRS)


def load_allowlist(path):
    """@return {signature: (line number, keep case)}; exits on a
    malformed line."""
    entries = {}
    for number, line in enumerate(path.read_text().splitlines(), 1):
        if not line.strip() or line.startswith("#"):
            continue
        signature, sep, reason = line.partition("#")
        signature = signature.strip()
        if not sep or not REASON.match(reason.strip()):
            sys.exit(f"{path}:{number}: expected '<signature>  # (a|b|c) "
                     f"<reason>' or '<signature>  # (d) examples/<name> "
                     f"<reason>', got: {line}")
        if signature in entries:
            sys.exit(f"{path}:{number}: duplicate entry: {signature}")
        entries[signature] = (number, reason.strip()[1])
    return entries


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("build", type=pathlib.Path)
    parser.add_argument("--allowlist", type=pathlib.Path,
                        default=ROOT / "tools" / "unreached_allowlist.txt")
    args = parser.parse_args()

    archives = sorted(args.build.rglob("libneuro_*.a"))
    binaries = shipped_binaries(args.build)
    examples = binaries_in(args.build, (EXAMPLES_DIR,))
    names = {p.name for p in binaries}
    missing = [r for r in REQUIRED if r not in names]
    if not archives or missing:
        sys.exit(f"{args.build}: need libneuro_*.a and the shipped "
                 f"binaries; missing: {missing or 'libneuro_*.a'}")

    library = set()
    for archive in archives:
        library |= nm_symbols(archive, text_only=True)
    shipped = defined_in(binaries)
    in_examples = defined_in(examples)

    # A constructor or destructor has several mangled variants with one
    # demangled name; the function is reached if any variant is.
    signatures = demangle(sorted(library))
    reached = {signatures[n] for n in library if n in shipped}
    defined = set(signatures.values())
    unreached = defined - reached
    example_only = unreached & {signatures[n] for n in library
                                if n in in_examples}
    test_only = unreached - example_only

    allowlist = load_allowlist(args.allowlist)
    new = sorted(test_only - allowlist.keys())
    new_example_only = sorted(example_only - allowlist.keys())
    stale = []
    for signature, (number, case) in allowlist.items():
        if signature not in defined:
            why = "not defined"
        elif signature in reached:
            why = "reached"
        elif case == "d" and signature in test_only:
            why = "no example reaches it"
        elif case != "d" and signature in example_only:
            why = "reached only by examples, needs case (d)"
        else:
            continue
        stale.append((number, signature, why))

    print(f"{len(defined)} library functions, {len(binaries)} shipped "
          f"binaries, {len(examples)} examples, {len(unreached)} "
          f"unreached ({len(example_only)} reached only by examples), "
          f"{len(allowlist)} allowlisted")
    for signature in new:
        print(f"unreached, not allowlisted: {signature}")
    for signature in new_example_only:
        print(f"reached only by examples, not allowlisted: {signature}")
    for number, signature, why in sorted(stale):
        print(f"{args.allowlist.name}:{number}: stale ({why}): {signature}")
    if new or new_example_only:
        print("Call these from a shipped binary, delete them, or allowlist "
              "them with the keep case (docs/static_analysis.md).")
    return 1 if new or new_example_only or stale else 0


if __name__ == "__main__":
    sys.exit(main())
