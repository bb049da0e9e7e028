#!/usr/bin/env python3
"""Report library functions that no executable of the repository links.

    python3 tools/reachability.py [--build-dir .reachability_build]

Configures an -O0 -ffunction-sections build linked with -Wl,--gc-sections
(tests off; tools, benches and examples on), builds every target, and
builds hpcem_perfbench from perfbench/ as the existing project it is.  At
-O0 nothing is inlined, so a function whose section the linker dropped
from every executable is one that no executable calls.

The script compares the external hpcem:: text symbols (nm types T and W)
defined in the build's lib*.a archives against the union of the symbols
defined in the executables, and prints each one no executable defines.
Local symbols (t) and std:: template instances are not considered.  Each
line of the allowlist, tools/reachability_allow.txt, names one function,
qualified, without parameters (so it covers every overload), then `#`
and the reason it stays; the function's tests are the usual reason.  The
exit code is 1 when an unreached symbol is not allowlisted or an
allowlist entry matches nothing unreached (the entry is stale: delete
it), 2 when the build fails.
"""

import argparse
import os
import re
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ALLOWLIST = os.path.join(ROOT, "tools", "reachability_allow.txt")
JOBS = os.cpu_count() or 1

# Mangled names nested in namespace hpcem, with optional cv/ref
# qualifiers and an optional thunk prefix (_ZThn8_, _ZTv0_n24_).
HPCEM_SYMBOL = re.compile(r"^_Z(?:T[hv][0-9n_]*)?N[KVRO]*5hpcem")
TEXT_TYPES = {"T", "W"}
# Demangled ABI tags ("name[abi:cxx11](...)") are not part of the name.
ABI_TAG = re.compile(r"\[abi:[^]]*\]")
FLAGS = [
    "-DCMAKE_BUILD_TYPE=None",
    "-DCMAKE_CXX_FLAGS=-O0 -ffunction-sections",
    "-DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections",
]


def run(cmd):
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        raise SystemExit(2)


def build(source, build_dir, extra, target):
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        run(["cmake", "-S", source, "-B", build_dir] + generator + FLAGS +
            extra)
    cmd = ["cmake", "--build", build_dir, "-j", str(JOBS)]
    if target:
        cmd += ["--target", target]
    run(cmd)


def is_elf(path):
    with open(path, "rb") as f:
        return f.read(4) == b"\x7fELF"


def artefacts(build_dir):
    """The lib*.a archives and the executables under build_dir."""
    libs, exes = [], []
    for dirpath, dirnames, filenames in os.walk(build_dir):
        dirnames[:] = [d for d in dirnames if d != "CMakeFiles"]
        for name in filenames:
            path = os.path.join(dirpath, name)
            if name.startswith("lib") and name.endswith(".a"):
                libs.append(path)
            elif (os.access(path, os.X_OK) and not name.endswith(".so")
                  and is_elf(path)):
                exes.append(path)
    return sorted(libs), sorted(exes)


def text_symbols(paths):
    """External hpcem:: text symbols defined in the given files."""
    out = subprocess.run(["nm", "--defined-only", "--format=posix"] + paths,
                         stdout=subprocess.PIPE, text=True, check=True).stdout
    symbols = set()
    for line in out.splitlines():
        fields = line.split()
        if (len(fields) >= 2 and fields[1] in TEXT_TYPES
                and HPCEM_SYMBOL.match(fields[0])):
            symbols.add(fields[0])
    return symbols


def demangle(symbols):
    ordered = sorted(symbols)
    out = subprocess.run(["c++filt"], input="\n".join(ordered) + "\n",
                         stdout=subprocess.PIPE, text=True, check=True).stdout
    return sorted(set(out.splitlines()))


def read_allowlist(path):
    entries = []
    with open(path) as f:
        for number, line in enumerate(f, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            name, _, reason = line.partition("#")
            if not reason.strip():
                raise SystemExit("error: %s:%d: entry gives no reason"
                                 % (path, number))
            entries.append(name.strip())
    return entries


def allowed_by(entry, symbol):
    symbol = ABI_TAG.sub("", symbol)
    return symbol == entry or symbol.startswith(entry + "(")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--build-dir",
                        default=os.path.join(ROOT, ".reachability_build"))
    args = parser.parse_args()

    repo_build = os.path.join(args.build_dir, "repo")
    perf_build = os.path.join(args.build_dir, "perfbench")
    build(ROOT, repo_build, ["-DHPCEM_BUILD_TESTS=OFF",
                             "-DHPCEM_WARNINGS_AS_ERRORS=OFF"],
          None)
    build(os.path.join(ROOT, "perfbench"), perf_build, [], "hpcem_perfbench")

    libs, exes = artefacts(repo_build)
    exes.append(os.path.join(perf_build, "hpcem_perfbench"))
    defined = text_symbols(libs)
    reached = text_symbols(exes)
    unreached = demangle(defined - reached)
    allow = read_allowlist(ALLOWLIST)

    print("%d executables, %d archives: %d hpcem:: text symbols, "
          "%d reached by no executable"
          % (len(exes), len(libs), len(defined), len(unreached)))
    failures = 0
    for symbol in unreached:
        if any(allowed_by(e, symbol) for e in allow):
            print("  allowed  %s" % symbol)
        else:
            print("  UNREACHED  %s" % symbol)
            failures += 1
    for entry in allow:
        if not any(allowed_by(entry, s) for s in unreached):
            print("  STALE allowlist entry  %s" % entry)
            failures += 1
    if failures:
        print("%d finding(s): delete the unreached code (and the tests that "
              "only test it), or allowlist it with a reason" % failures)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
