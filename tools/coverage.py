#!/usr/bin/env python3
"""Line coverage of src/ from a gcc --coverage build, with a ratchet floor.

Build with gcc and --coverage, run the ctest suite, then:

    cmake -B build-cov -S . -DCMAKE_BUILD_TYPE=Debug -DKGEVAL_NATIVE=OFF \\
        -DCMAKE_CXX_FLAGS=--coverage -DCMAKE_EXE_LINKER_FLAGS=--coverage
    cmake --build build-cov -j && ctest --test-dir build-cov -j 2
    python3 tools/coverage.py build-cov

Every .gcda file under the build directory is read with plain
`gcov --json-format --stdout` (no gcovr or lcov needed). A line of a file
under src/ counts as executed when any translation unit executed it, since
headers are compiled into many. The script prints executed/total lines and
exits 1 when the percentage is below the floor.

The floor is a ratchet: raise FLOOR_PCT when a change raises coverage, never
lower it.
"""

import json
import os
import subprocess
import sys
from collections import defaultdict

FLOOR_PCT = 96.2

# Lines that run only on some CPUs: the AVX-512 kernel table executes only
# where the runner has AVX-512F, so counting it would make the floor depend
# on the machine. kernels_test checks it wherever it can run.
EXCLUDED = ("src/la/kernels/kernels_avx512.cc",)

REPO = os.path.dirname(os.path.dirname(os.path.realpath(__file__)))


def gcda_by_directory(build_dir):
    groups = defaultdict(list)
    for directory, _, names in os.walk(build_dir):
        for name in names:
            if name.endswith(".gcda"):
                groups[directory].append(name)
    return groups


def collect(build_dir):
    """Returns {source path relative to the repo: {line: executed}}."""
    src = os.path.join(REPO, "src") + os.sep
    lines = defaultdict(dict)
    for directory, names in sorted(gcda_by_directory(build_dir).items()):
        out = subprocess.run(
            ["gcov", "--json-format", "--stdout"] + sorted(names),
            cwd=directory, capture_output=True, text=True, check=True).stdout
        for doc in out.splitlines():
            if not doc.strip():
                continue
            unit = json.loads(doc)
            cwd = unit.get("current_working_directory", directory)
            for entry in unit["files"]:
                path = os.path.realpath(os.path.join(cwd, entry["file"]))
                if not path.startswith(src):
                    continue
                rel = os.path.relpath(path, REPO)
                if rel in EXCLUDED:
                    continue
                seen = lines[rel]
                for line in entry["lines"]:
                    number = line["line_number"]
                    seen[number] = seen.get(number, False) or line["count"] > 0
    return lines


def main():
    if len(sys.argv) != 2:
        print(f"usage: {sys.argv[0]} BUILD_DIR", file=sys.stderr)
        return 2
    lines = collect(sys.argv[1])
    total = sum(len(seen) for seen in lines.values())
    executed = sum(sum(seen.values()) for seen in lines.values())
    if total == 0:
        print("coverage: no src/ lines found; was the build made with "
              "--coverage and ctest run?", file=sys.stderr)
        return 1
    pct = 100.0 * executed / total
    print(f"coverage: {executed} of {total} src/ lines executed "
          f"({pct:.2f}%), floor {FLOOR_PCT:.1f}%")
    if pct < FLOOR_PCT:
        print(f"coverage: below the floor by {FLOOR_PCT - pct:.2f} pp",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
