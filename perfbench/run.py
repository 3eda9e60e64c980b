#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload fanin-1000 --seed 42 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all  # every workload, one after another
    python3 perfbench/run.py --record      # re-record reference digests

Builds perfbench/main.exe with dune from the checkout's sources and runs
it as a child process.  For `--trace 0` it then runs one more child that
does a single repetition and nothing else, and adds that child's peak
resident set (from wait4) as `peak_rss_mb`.  The result is printed as one
JSON object on the last line of standard output.  Exits non-zero on a
digest mismatch or any other failed check.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BENCH_DIR = os.path.basename(HERE)
EXE = os.path.join(ROOT, "_build", "default", BENCH_DIR, "main.exe")
OUT = os.path.join(HERE, "out")
REFERENCE = os.path.join(HERE, "reference.txt")
WORKLOADS = ["fanin-1000", "fanin-1000-sharded", "pilot-lartpc", "chaos-pilot"]


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")) or shutil.which("git") is None:
        return "unknown (not a git checkout)"
    try:
        head = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=True).stdout.strip()
        dirty = subprocess.run(["git", "-C", ROOT, "status", "--porcelain", "--untracked-files=no"],
                               capture_output=True, text=True, check=True).stdout.strip()
        return head + ("-dirty" if dirty else "")
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def build():
    if not (os.path.isfile(os.path.join(ROOT, "dune-project"))
            and os.path.isdir(os.path.join(ROOT, "lib"))):
        fail("no dune-project and lib/ next to the benchmark: run it from a full checkout")
    dune = shutil.which("dune")
    if dune is None:
        fail("dune is not on PATH")
    env = dict(os.environ, DUNE_CACHE="disabled")
    proc = subprocess.run([dune, "build", "--root", ROOT, f"{BENCH_DIR}/main.exe"],
                          cwd=ROOT, env=env, capture_output=True, text=True)
    if proc.returncode != 0 or not os.path.isfile(EXE):
        sys.stderr.write(proc.stdout + proc.stderr)
        fail("build failed")


def run_child(args):
    """Run main.exe; return (exit status, stdout lines, peak RSS in MB)."""
    os.makedirs(OUT, exist_ok=True)
    env = dict(os.environ, PERFBENCH_COMMIT=commit(), OCAML_RUNTIME_EVENTS_DIR=OUT)
    proc = subprocess.Popen([EXE] + args, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    lines = []
    for line in proc.stdout:
        lines.append(line.rstrip("\n"))
        if not line.startswith("RESULT "):
            sys.stdout.write(line)
            sys.stdout.flush()
    proc.stdout.close()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, lines, usage.ru_maxrss / 1024.0


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload")
    parser.add_argument("--seed")
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true", help="re-record the reference digests")
    opts = parser.parse_args()

    build()
    if opts.record:
        code, _, _ = run_child(["--record", "--reference", REFERENCE])
        sys.exit(code)
    if not opts.workload:
        fail("--workload is required")
    if opts.workload == "all":
        codes = [run_workload(name, opts) for name in WORKLOADS]
        sys.exit(max(codes))
    sys.exit(run_workload(opts.workload, opts))


def run_workload(workload, opts):
    """Run one workload, print its metrics and result line; return the exit code."""
    args = ["--workload", workload, "--seconds", str(opts.seconds),
            "--trace", str(opts.trace), "--reference", REFERENCE, "--out", OUT]
    if opts.seed is not None:
        args += ["--seed", opts.seed]
    code, lines, _ = run_child(args)
    results = [l for l in lines if l.startswith("RESULT ")]
    if not results:
        fail(f"main.exe exited with {code} and printed no result")
    result = json.loads(results[-1][len("RESULT "):])
    if opts.trace == 0:
        # A fresh process running one repetition: its peak does not
        # depend on how many repetitions fitted in the time budget.
        once_code, _, peak_rss_mb = run_child(args + ["--once"])
        if once_code != 0:
            fail(f"the one-repetition run exited with {once_code}")
        result["metrics"]["peak_rss_mb"] = {"value": peak_rss_mb, "unit": "MB"}
        print(f"  {'peak_rss_mb':<28} {peak_rss_mb:16.6g} MB      "
              "peak resident set of a process running one repetition")
    print(json.dumps(result))
    return code


if __name__ == "__main__":
    main()
