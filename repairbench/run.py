#!/usr/bin/env python3
"""Build and run the FastPR repair benchmark.

Run from the repository root:

    python3 repairbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The first call configures and builds the FastPR libraries plus the
benchmark program from source into $CARGO_TARGET_DIR (default
`.bench_build`) under `repairbench/`; later calls only re-check the build.
Build output goes to stderr. The benchmark program's output is passed through,
so the last stdout line is the result JSON object. Exits non-zero, without
a result, if the build or the run fails.
"""

import argparse
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def build(build_dir: Path) -> Path:
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    generated = (build_dir / "build.ninja", build_dir / "Makefile")
    if not any(f.exists() for f in generated):
        cmd = ["cmake", "-S", str(HERE), "-B", str(build_dir),
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", str(build_dir), "--target",
                    "repairbench", "-j", jobs],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    return build_dir / "repairbench"


def git_sha() -> str:
    try:
        # Never look above the checkout for a repository.
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(HERE.parent.parent))
        out = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"],
                             cwd=HERE.parent, capture_output=True, text=True,
                             timeout=10, env=env)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    target = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    try:
        binary = build(target.resolve() / "repairbench")
    except (OSError, subprocess.CalledProcessError) as exc:
        print(f"repairbench: build failed: {exc}", file=sys.stderr)
        return 1

    cmd = [str(binary), "--workload", args.workload, "--seed",
           str(args.seed), "--seconds", str(args.seconds), "--trace",
           str(args.trace), "--git-sha", git_sha()]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=2 * args.seconds + 120)
    except subprocess.TimeoutExpired:
        print("repairbench: run timed out", file=sys.stderr)
        return 1
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
