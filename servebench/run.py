#!/usr/bin/env python3
"""Build Argus from source and run one workload of the serving benchmark.

    python3 servebench/run.py --workload small-check --seed 1 --seconds 10 --trace 0
    python3 servebench/run.py --self-check

Run from the root of an Argus checkout.  The last line of standard output
is the result: {"correct", "attempted", "failed", "metrics"}, with the
end-to-end metrics under --trace 0 and the per-layer breakdown under
--trace 1.  The line before it is the full report (host fingerprint,
input facts, workload-specific metrics); it is also appended to
.servebench/trajectory.jsonl, which is never overwritten.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

WORKLOADS = ["small-check", "ingest", "edit-session"]
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
PROFILE = "release"
TIMEOUT_S = 170


def die(msg):
    print("servebench: " + msg, file=sys.stderr)
    sys.exit(2)


def build():
    for need in ("dune-project", "lib", "bin"):
        if not os.path.exists(os.path.join(ROOT, need)):
            die("no %s here: run from the root of an Argus checkout" % need)
    r = subprocess.run(
        ["dune", "build", "--root", ROOT, "--profile", PROFILE,
         "bin/argus.exe", "servebench/servebench.exe"],
        cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr)
    if r.returncode != 0:
        die("build failed")


def output(cmd):
    try:
        return subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=30).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return ""


def fs_type(path):
    """The filesystem type of the mount holding path, from /proc/mounts."""
    path = os.path.realpath(path)
    best, kind = "", "unknown"
    try:
        with open("/proc/mounts") as f:
            for line in f:
                fields = line.split()
                if len(fields) >= 3:
                    mnt = fields[1]
                    inside = path == mnt or path.startswith(mnt.rstrip("/") + "/")
                    if inside and len(mnt) >= len(best):
                        best, kind = mnt, fields[2]
    except OSError:
        pass
    return kind


def host(state_dir):
    commit = "unknown"
    if os.path.exists(os.path.join(ROOT, ".git")):
        commit = output(["git", "rev-parse", "HEAD"]) or "unknown"
    return {
        "nproc": os.cpu_count(),
        "ocaml": output(["ocamlfind", "ocamlopt", "-version"]) or "unknown",
        "dune_profile": PROFILE,
        "data_dir_fs": fs_type(state_dir),
        "git_commit": commit,
    }


def run(workload, seed, seconds, trace):
    """Run one workload; returns (exit code, report, result)."""
    state = os.path.join(ROOT, ".servebench")
    os.makedirs(state, exist_ok=True)
    work = os.path.join(state, "work-%d" % os.getpid())
    exe = os.path.join(ROOT, "_build", "default", "servebench", "servebench.exe")
    argus = os.path.join(ROOT, "_build", "default", "bin", "argus.exe")
    cmd = [exe, "--argus", argus, "--work", work, "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    # Its own session, so a timeout can take the servers it spawned too.
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        die("%s timed out after %d s" % (workload, TIMEOUT_S))
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        shutil.rmtree(work, ignore_errors=True)
    lines = out.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        return proc.returncode or 1, None, None
    report, result = json.loads(lines[-2]), json.loads(lines[-1])
    report["workload"] = workload
    report["host"] = host(state)
    report["result"] = result
    with open(os.path.join(state, "trajectory.jsonl"), "a") as f:
        f.write(json.dumps(report, sort_keys=True) + "\n")
    return 0, report, result


def self_check():
    """A short run of each workload, traced and untraced: every metric
    BENCHMARK.json names is printed with its unit, and every answer is
    correct.  The oracle's own self-tests (an altered answer and a
    recovered digest behind the last ack must both be flagged) run
    inside every run and fail it when they do not hold."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    failures = []
    for w in WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            code, _, result = run(w, 1, 2, trace)
            where = "%s trace=%d" % (w, trace)
            if code != 0:
                failures.append("%s: exit %d" % (where, code))
                continue
            for m in spec[key]:
                got = result["metrics"].get(m["name"])
                if got is None or got.get("unit") != m["unit"]:
                    failures.append("%s: metric %s missing or unit differs"
                                    % (where, m["name"]))
            if not result["correct"] or result["failed"]:
                failures.append("%s: %d of %d failed"
                                % (where, result["failed"], result["attempted"]))
            print("ran %s: %d attempted" % (where, result["attempted"]))
    for f in failures:
        print("FAIL " + f)
    return 1 if failures else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--self-check", action="store_true")
    args = ap.parse_args()
    build()
    if args.self_check:
        sys.exit(self_check())
    if args.workload is None:
        die("--workload is required")
    code, report, result = run(args.workload, args.seed, args.seconds, args.trace)
    if code != 0:
        die("%s failed (exit %d)" % (args.workload, code))
    print(json.dumps(report, sort_keys=True))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
