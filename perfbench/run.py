#!/usr/bin/env python3
"""Builds the SALSA stack benchmark from source and runs one workload.

    python3 perfbench/run.py --workload <ingest-cms|mixed-cs|read-hot> \\
        --seed <n> --seconds <s> --trace <0|1>

Run it from the root of the repository.  The build goes to
$CARGO_TARGET_DIR (default `.bench_build`).  The benchmark's standard
output is passed through: a `META` line with host and build details, then
the result object as the last line.  A copy of both is kept under
`<target>/perfbench-results/`; with `--trace 1` the spans go beside it.
Exits non-zero, without a result, when the build fails.
"""

import json
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
# The benchmark must finish within 180 s; leave room for the build check.
RUN_TIMEOUT_S = 175


def rustc_version():
    try:
        out = subprocess.run(["rustc", "-V"], capture_output=True, text=True, timeout=30)
        return out.stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def commit():
    if not (ROOT / ".git").exists():
        return "none"
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30
        )
        return out.stdout.strip() or "none"
    except (OSError, subprocess.SubprocessError):
        return "none"


def flag(args, name):
    return args[args.index(name) + 1] if name in args and args.index(name) + 1 < len(args) else None


def main(args):
    target = pathlib.Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path",
         str(ROOT / "perfbench" / "Cargo.toml")],
        cwd=ROOT, env=env, stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: the build failed", file=sys.stderr)
        return 2

    results = target / "perfbench-results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{flag(args, '--workload')}-seed{flag(args, '--seed')}-trace{flag(args, '--trace')}"
    command = [str(target / "release" / "salsa-perfbench"), *args]
    if flag(args, "--trace") not in (None, "0"):
        command += ["--trace-out", str(results / f"{stem}.spans.json")]
    env.update(PERFBENCH_RUSTC=rustc_version(), PERFBENCH_COMMIT=commit())
    try:
        run = subprocess.run(command, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: no result within {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 3
    sys.stdout.write(run.stdout)
    lines = run.stdout.strip().splitlines()
    meta = next((json.loads(l[5:]) for l in lines if l.startswith("META ")), None)
    if lines and lines[-1].startswith("{"):
        record = {"meta": meta, "result": json.loads(lines[-1])}
        (results / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    return run.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
