#!/usr/bin/env python3
"""Line coverage of src/ from a gcc --coverage build, with a ratchet floor,
and the list of src/ functions that only the tests execute.

Build with gcc and --coverage, run the ctest suite, then:

    cmake -B build-cov -S . -DCMAKE_BUILD_TYPE=Debug -DKGEVAL_NATIVE=OFF \\
        -DCMAKE_CXX_FLAGS=--coverage -DCMAKE_EXE_LINKER_FLAGS=--coverage
    cmake --build build-cov -j && ctest --test-dir build-cov -j 2
    python3 tools/coverage.py build-cov
    python3 tools/coverage.py --shipped build-cov

Every .gcda file under the build directory is read with plain
`gcov --json-format --stdout` (no gcovr or lcov needed). A line of a file
under src/ counts as executed when any translation unit executed it, since
headers are compiled into many. The first form prints executed/total lines
and exits 1 when the percentage is below the floor.

The floor is a ratchet: raise FLOOR_PCT when a change raises coverage, never
lower it.

--shipped is a review aid, not a gate. It deletes every .gcda file under the
build directory, then runs the shipped set from it: every kgeval_reproduce
target (on codex-s for one epoch, as the reproduce_smoke ctest runs them:
the full --fast plan takes many minutes in a Debug --coverage build and
reaches the same functions), every example as ctest runs it, and a
scripted kgeval-server session that sends every verb and error form. It
prints the src/ functions the shipped set never executed: code that only
tests keep alive. It erases the suite's counts, so run it after the floor
check.
"""

import json
import os
import shutil
import signal
import socket
import subprocess
import sys
import tempfile
import time
from collections import defaultdict

FLOOR_PCT = 96.6

# Lines that run only on some CPUs: the AVX-512 kernel table executes only
# where the runner has AVX-512F, so counting it would make the floor depend
# on the machine. kernels_test checks it wherever it can run.
EXCLUDED = ("src/la/kernels/kernels_avx512.cc",)

REPO = os.path.dirname(os.path.dirname(os.path.realpath(__file__)))

# The example runs ctest makes (CMakeLists.txt, kgeval_example_smoke).
EXAMPLES = (
    ["quickstart"],
    ["compare_samplers", "codex-s", "2"],
    ["evaluate_tsv"],
    ["training_monitor", "codex-s", "3", "2"],
    ["training_monitor", "codex-s", "3", "2", "--from-disk"],
)


def files_by_directory(build_dir, extension):
    groups = defaultdict(list)
    for directory, _, names in os.walk(build_dir):
        for name in names:
            if name.endswith(extension):
                groups[directory].append(name)
    return groups


def collect(build_dir, extension=".gcda"):
    """Returns ({src path: {line: executed}}, {(src path, first line,
    demangled name): executed}), paths relative to the repo. A function
    counts as executed when any of its symbols did (a constructor has two).

    Reading the .gcno notes instead of the .gcda counts also lists the
    functions of objects no run produced counts for, all unexecuted."""
    src = os.path.join(REPO, "src") + os.sep
    lines = defaultdict(dict)
    functions = defaultdict(bool)
    for directory, names in sorted(
            files_by_directory(build_dir, extension).items()):
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
                for fn in entry["functions"]:
                    key = (rel, fn["start_line"], fn["demangled_name"])
                    functions[key] |= fn["execution_count"] > 0
    return lines, functions


def floor_check(build_dir):
    lines, _ = collect(build_dir)
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


class Client:
    """One protocol connection: send a line, read one reply."""

    def __init__(self, port):
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=600)
        self.reader = self.sock.makefile("r", encoding="utf-8")
        self.readline()  # Banner.

    def readline(self):
        line = self.reader.readline()
        if not line:
            raise RuntimeError("server closed the connection")
        return line.rstrip("\n")

    def send(self, line):
        self.sock.sendall(line.encode() + b"\n")

    def reply(self):
        """The reply's terminal line (ITEM lines are skipped)."""
        while True:
            line = self.readline()
            if line.split(" ", 1)[0] in ("OK", "DONE", "ERR"):
                return line

    def close(self):
        self.reader.close()
        self.sock.close()


class Server:
    """A kgeval-server child on an ephemeral port; killed on leaving a
    `with` block it is still running in."""

    def __init__(self, build_dir, *flags):
        self.proc = subprocess.Popen(
            [os.path.join(build_dir, "kgeval-server"), "--port=0", *flags],
            stdout=subprocess.PIPE, text=True)
        words = self.proc.stdout.readline().split()
        if len(words) != 2 or words[0] != "LISTENING":
            self.proc.kill()
            raise RuntimeError("kgeval-server did not start")
        self.port = int(words[1])

    def __enter__(self):
        return self

    def __exit__(self, *_):
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()

    def stop(self):
        self.proc.send_signal(signal.SIGTERM)
        if self.proc.wait(timeout=60) != 0:
            raise RuntimeError("kgeval-server exited %d" % self.proc.returncode)


def expect(client, line, prefix):
    client.send(line)
    got = client.reply()
    if not got.startswith(prefix):
        raise RuntimeError(f"{line[:60]!r}: expected {prefix!r}, got {got!r}")


def served_session(build_dir, scratch, ckpt):
    """Every verb and every error form a script can provoke on purpose."""
    ckpt_dir = os.path.dirname(ckpt)
    missing = os.path.join(scratch, "missing")
    fifo = os.path.join(scratch, "fifo.ckpt")
    os.mkfifo(fifo)
    empty = os.path.join(scratch, "empty")
    os.mkdir(empty)

    with Server(build_dir) as server:
        client = Client(server.port)
        client.send("  ")  # Blank: no reply.
        for line, prefix in (
                ("PING", "OK pong"),
                ("FROB", "ERR unknown-verb"),
                ("PING extra", "ERR arity"),
                ("EVAL " + ckpt, "ERR no-dataset"),
                ("SWEEP " + ckpt_dir, "ERR no-dataset"),
                ("WATCH " + ckpt_dir + " 1", "ERR no-dataset"),
                ("STATS", "OK "),
                ("LOAD no-such-preset", "ERR bad-argument"),
                ("LOAD codex-s valid", "OK "),
                ("EVAL " + ckpt, "OK "),
                ("EVAL " + ckpt + " 0.05", "OK "),
                ("EVAL " + ckpt + " temporal", "OK "),
                ("EVAL " + ckpt + " 0.05 static", "OK "),
                ("EVAL " + ckpt + " nan", "ERR bad-argument"),
                ("EVAL " + ckpt + " bogus", "ERR unknown-protocol"),
                ("EVAL " + missing, "ERR eval-failed"),
                ("EVAL " + fifo, "ERR eval-failed"),
                ("SWEEP " + ckpt_dir, "DONE "),
                ("SWEEP " + missing, "ERR io"),
                ("WATCH " + ckpt_dir + " 2 5", "DONE 2 timeout=0"),
                ("WATCH " + empty + " 1 0.1", "DONE 0 timeout=1"),
                ("WATCH " + missing + " 1", "ERR io"),
                ("WATCH " + ckpt_dir + " 0", "ERR bad-argument"),
                ("WATCH " + ckpt_dir + " 1 inf", "ERR bad-argument"),
                ("x" * 5000, "ERR line-too-long"),
                ("LOAD codex-s", "OK "),
                ("STATS", "OK "),
                ("QUIT", "OK")):
            expect(client, line, prefix)
        client.close()
        # Shutdown with a command in flight: the WATCH is abandoned.
        client = Client(server.port)
        client.send(f"WATCH {empty} 1 30")
        time.sleep(0.2)
        server.stop()
        client.close()

    # One executor, one queue slot, a one-second deadline that counts the
    # queue wait: a third command is shed while two short WATCHes hold the
    # executor and the slot, a WATCH longer than the deadline is abandoned,
    # and a silent connection is reaped.
    with Server(build_dir, "--executors=1", "--max-queued=1", "--deadline=1",
                "--idle-timeout=2", "--preload=codex-s") as server:
        holders = [Client(server.port) for _ in range(2)]
        for holder in holders:
            holder.send(f"WATCH {empty} 1 0.3")
            time.sleep(0.05)
        client = Client(server.port)
        expect(client, "EVAL " + ckpt, "ERR busy")
        for holder in holders:
            got = holder.reply()
            if not got.startswith("DONE 0 timeout=1"):
                raise RuntimeError("holding WATCH did not time out: " + got)
            holder.close()
        expect(client, f"WATCH {empty} 1 5", "ERR deadline-exceeded")
        if client.reader.readline():
            raise RuntimeError("idle connection was not reaped")
        client.close()
        server.stop()


def run(build_dir, args, env):
    subprocess.run([os.path.join(build_dir, args[0])] + args[1:], env=env,
                   cwd=env["TMPDIR"], stdout=subprocess.DEVNULL, check=True)


def shipped(build_dir):
    build_dir = os.path.realpath(build_dir)
    for directory, names in files_by_directory(build_dir, ".gcda").items():
        for name in names:
            os.remove(os.path.join(directory, name))
    scratch = tempfile.mkdtemp(prefix="kgeval_shipped_")
    try:
        env = dict(os.environ, TMPDIR=scratch)
        run(build_dir, ["kgeval_reproduce", "--fast", "--dataset=codex-s",
                        "--epochs=1"], env)
        for args in EXAMPLES:
            run(build_dir, args, env)
        # The server's checkpoints: one epoch of DistMult on the demo TSV
        # evaluate_tsv just wrote, which has scaled codex-s's shape.
        ckpt_dir = os.path.join(scratch, "ckpts")
        os.mkdir(ckpt_dir)
        ckpt = os.path.join(ckpt_dir, "epoch_00000.ckpt")
        run(build_dir, ["evaluate_tsv", os.path.join(scratch, "kgeval_demo_tsv"),
                        "DistMult", "1", ckpt], env)
        shutil.copy(ckpt, os.path.join(ckpt_dir, "epoch_00001.ckpt"))
        with open(os.path.join(ckpt_dir, "epoch_00002.ckpt"), "wb") as out:
            out.write(b"KGEV")  # A truncated file: one ITEM ... ERR line.
        served_session(build_dir, scratch, ckpt)
    finally:
        shutil.rmtree(scratch)

    _, functions = collect(build_dir, ".gcno")
    unexecuted = sorted(key for key, done in functions.items() if not done)
    for rel, line, name in unexecuted:
        print(f"{rel}:{line}: {name}")
    print(f"shipped: {len(functions) - len(unexecuted)} of {len(functions)} "
          f"src/ functions executed; the {len(unexecuted)} listed never ran",
          file=sys.stderr)
    return 0


def main():
    args = sys.argv[1:]
    if len(args) == 2 and args[0] == "--shipped":
        return shipped(args[1])
    if len(args) == 1:
        return floor_check(args[0])
    print(f"usage: {sys.argv[0]} [--shipped] BUILD_DIR", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
