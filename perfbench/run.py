#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload sweep_mem [--seed N] [--seconds S]
                             [--trace 0|1]

Run from the root of a checkout. Configures and builds `bopbench` (and
the simulator libraries it links) in Release mode under
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), then runs
one workload and passes its output through: notes, one `metric` line
per metric, and as the last line the JSON result. Build output goes to
stderr. The exit code is the benchmark's: nonzero when a correctness
check failed or nothing could be built. See perfbench/README.md.
"""

import argparse
import hashlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("sweep_mem", "sweep_compute", "serve_open", "chip16_threads")
BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def source_digest():
    """Hash of the simulator and benchmark sources (no git needed)."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                h.update(str(path.relative_to(ROOT)).encode())
                h.update(path.read_bytes())
    return h.hexdigest()[:12]


def commit_id():
    rev = "unknown"
    if (ROOT / ".git").exists():
        try:
            rev = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "--short=12", "HEAD"],
                capture_output=True, text=True, check=True,
                timeout=30).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return f"{rev}+src:{source_digest()}"


def build(out):
    env = dict(os.environ)
    env["CCACHE_DISABLE"] = "1"  # keep every build product in the checkout
    jobs = str(os.cpu_count() or 1)
    steps = []
    if not (out / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "--target", "bopbench",
                  "-j", jobs])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              env=env, cwd=ROOT)
        if proc.returncode != 0:
            fail(f"build step failed: {' '.join(cmd)}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "CMakeLists.txt").exists():
        fail(f"no simulator sources under {ROOT / 'src'}")
    if shutil.which("cmake") is None:
        fail("cmake not found")

    out = build_dir()
    out.mkdir(parents=True, exist_ok=True)
    build(out)

    work = out / "work" / f"{args.workload}-{os.getpid()}"
    cmd = [str(out / "bopbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--workdir", str(work),
           "--commit", commit_id()]
    if args.trace:
        spans = out / "spans"
        spans.mkdir(exist_ok=True)
        cmd += ["--spans-out",
                str(spans / f"{args.workload}-seed{args.seed}.ndjson")]
    # The simulator reads BOP_* overrides (threads, fast-forward,
    # budgets, sharing); the benchmark fixes all of them itself.
    env = {k: v for k, v in os.environ.items() if not k.startswith("BOP_")}
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, timeout=170)
        code = proc.returncode
    except subprocess.TimeoutExpired:
        print("perfbench: benchmark timed out", file=sys.stderr)
        code = 3
    finally:
        shutil.rmtree(work, ignore_errors=True)
    sys.exit(code)


if __name__ == "__main__":
    main()
