#!/usr/bin/env python3
"""Builds the benchmark from the checkout's sources and runs one workload.

    python3 perfbench/run.py --workload fleet-deep --seed 2006 --seconds 20 --trace 0

Workloads: fleet-deep, fleet-wide, session-online, offline-bounds. The last
line of standard output is the result record; the lines before it are the
machine block and the workload report (see perfbench/README.md).

Arguments are exactly --workload, --seed, --seconds and --trace (plus the
optional --size smoke|full), each given once as `--key value` or
`--key=value`. Anything else, including a stray positional token, is an
error, so a workload cannot silently run on defaults.

The library sources under src/ and the benchmark under perfbench/src/ are built
with CMake (Release) into .bench_build/perfbench; later runs rebuild only
what changed. Build output goes to standard error.
"""
import hashlib
import os
import shutil
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HERE = os.path.join(ROOT, "perfbench")
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
SCRATCH_DIR = os.path.join(ROOT, ".bench_build", "perfbench-tmp")
BINARY = os.path.join(BUILD_DIR, "recoverd_perfbench")

REQUIRED = ("workload", "seed", "seconds", "trace")
OPTIONAL = ("size",)
WORKLOADS = ("fleet-deep", "fleet-wide", "session-online", "offline-bounds")
# The benchmark itself stays well inside the 180 s a run may take.
RUN_TIMEOUT_S = 175


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def parse_args(argv):
    values = {}
    i = 0
    while i < len(argv):
        token = argv[i]
        if not token.startswith("--") or len(token) == 2:
            fail(f"unexpected argument {token!r}: arguments are --key value or --key=value")
        if "=" in token:
            key, value = token[2:].split("=", 1)
            i += 1
        else:
            key = token[2:]
            if i + 1 >= len(argv) or argv[i + 1].startswith("--"):
                fail(f"argument --{key} needs a value")
            value = argv[i + 1]
            i += 2
        if key not in REQUIRED and key not in OPTIONAL:
            fail(f"unknown argument --{key}")
        if key in values:
            fail(f"argument --{key} given twice")
        values[key] = value
    missing = [k for k in REQUIRED if k not in values]
    if missing:
        fail("missing required argument(s): " + ", ".join("--" + k for k in missing))
    if values["workload"] not in WORKLOADS:
        fail(f"unknown workload {values['workload']!r} (one of {', '.join(WORKLOADS)})")
    return values


def source_files():
    for top in (os.path.join(ROOT, "src"), os.path.join(HERE, "src")):
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith((".cpp", ".hpp", ".h")):
                    yield os.path.join(dirpath, name)
    yield os.path.join(HERE, "CMakeLists.txt")


def source_digest():
    h = hashlib.sha256()
    for path in source_files():
        h.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as f:
            h.update(f.read())
    return h.hexdigest()[:16]


def git_rev():
    # Only a repository rooted in this checkout counts; never search parents.
    git_dir = os.path.join(ROOT, ".git")
    if not os.path.exists(git_dir) or shutil.which("git") is None:
        return "unknown"
    env = dict(os.environ, GIT_DIR=git_dir, GIT_WORK_TREE=ROOT)
    out = subprocess.run(["git", "rev-parse", "HEAD"], env=env, cwd=ROOT,
                         capture_output=True, text=True, check=False)
    return out.stdout.strip() if out.returncode == 0 and out.stdout.strip() else "unknown"


def build(env):
    if not os.path.isdir(os.path.join(ROOT, "src")):
        fail("the library sources (src/) are missing from this checkout")
    if shutil.which("cmake") is None:
        fail("cmake is not installed")
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        configure = ["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release",
                     *generator]
        if subprocess.run(configure, stdout=sys.stderr, env=env,
                          check=False).returncode != 0:
            fail("CMake configure failed")
    jobs = str(os.cpu_count() or 1)
    step = ["cmake", "--build", BUILD_DIR, "-j", jobs]
    if subprocess.run(step, stdout=sys.stderr, env=env, check=False).returncode != 0:
        fail("build failed")


def main():
    values = parse_args(sys.argv[1:])
    os.makedirs(SCRATCH_DIR, exist_ok=True)
    # Compiler and run temporaries stay inside the checkout too.
    env = dict(os.environ, TMPDIR=SCRATCH_DIR)
    build(env)
    command = [BINARY] + [f"--{k}={values[k]}" for k in (*REQUIRED, *OPTIONAL)
                          if k in values]
    command += [f"--git-rev={git_rev()}", f"--source-digest={source_digest()}",
                f"--scratch-dir={SCRATCH_DIR}"]
    child = subprocess.Popen(command, cwd=ROOT, env=env)

    def forward(signum, _frame):
        child.send_signal(signum)

    signal.signal(signal.SIGTERM, forward)
    signal.signal(signal.SIGINT, forward)
    try:
        code = child.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        child.kill()
        child.wait()
        fail(f"the run exceeded {RUN_TIMEOUT_S} s and was stopped", code=3)
    sys.exit(code if code >= 0 else 128 - code)


if __name__ == "__main__":
    main()
