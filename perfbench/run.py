#!/usr/bin/env python3
"""The repository's benchmark: the riommu-serve socket service at three
ring depths plus the full paper reproduction.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-check

Run from the root of a source checkout. It builds the shipped binaries
and the benchmark's own executable (perfbench/perfbench.exe) with dune,
runs one workload, checks every answer, prints a human summary, and
prints one JSON object as the last line of stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones of BENCHMARK.json,
with --trace 1 the per-layer ones. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

ROOT = os.getcwd()
BUILD = os.path.join("_build", "default")
SERVE = os.path.join(BUILD, "bin", "riommu_serve.exe")
CLI = os.path.join(BUILD, "bin", "riommu_cli.exe")
PERFBENCH = os.path.join(BUILD, "perfbench", "perfbench.exe")

REPRO_SEED = 42
# md5 of `riommu-cli all [--quick] --seed 42` stdout; identical at any --jobs.
REPRO_DIGEST = {
    False: "63bb516061971ee22beabb36ba1096e9",
    True: "6af1647fecb31a9aa797183430993298",
}
SETUPS = 15
CHILD_TIMEOUT_S = 170


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def load_spec():
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read BENCHMARK.json: %s" % e)


def nproc():
    return len(os.sched_getaffinity(0))


def build():
    for need in ("dune-project", "lib", "bin/riommu_serve.ml", "bin/riommu_cli.ml"):
        if not os.path.exists(os.path.join(ROOT, need)):
            fail("not a source checkout: %s is missing" % need)
    env = dict(os.environ, DUNE_CACHE="disabled")
    targets = ["./bin/riommu_serve.exe", "./bin/riommu_cli.exe",
               "./perfbench/perfbench.exe"]
    r = subprocess.run(
        ["dune", "build", "--root", ".", "-j", str(nproc())] + targets,
        stdout=sys.stderr, stderr=sys.stderr, env=env, timeout=850)
    if r.returncode != 0:
        fail("build failed", 3)


def run_child(argv):
    """Run perfbench.exe in its own process group (it spawns servers
    and forks replay generators); return its last stdout line as a
    dict. On a timeout or an interrupt the whole group is killed and
    reaped."""
    p = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=sys.stderr,
                         text=True, start_new_session=True)
    try:
        out, _ = p.communicate(timeout=CHILD_TIMEOUT_S)
    finally:
        if p.poll() is None:
            os.killpg(p.pid, signal.SIGKILL)
            p.wait()
    lines = out.strip().splitlines()
    if p.returncode != 0 or not lines:
        fail("%s exited %d" % (" ".join(argv[:2]), p.returncode), 4)
    return json.loads(lines[-1])


def machine():
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    ocaml = run_child([PERFBENCH, "version"])["ocaml"]
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        r = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True)
        commit = r.stdout.strip() or None
    if commit is None:
        h = hashlib.md5()
        for top in ("lib", "bin"):
            for d, _, files in sorted(os.walk(os.path.join(ROOT, top))):
                for name in sorted(files):
                    p = os.path.join(d, name)
                    h.update(os.path.relpath(p, ROOT).encode())
                    with open(p, "rb") as f:
                        h.update(f.read())
        commit = "no git metadata; lib/+bin/ source md5 " + h.hexdigest()
    return {"nproc": nproc(), "cpu": model, "ocaml": ocaml, "commit": commit}


# --- paper-repro ---------------------------------------------------------

def repro_setup(seed, jobs, quick):
    """Spawn-to-first-cell seconds, median of SETUPS processes."""
    times = []
    cells = 0
    for _ in range(SETUPS):
        argv = [PERFBENCH, "repro-setup", "--seed", str(seed), "--jobs", str(jobs)]
        t0 = time.monotonic_ns()
        out = run_child(argv + (["--quick"] if quick else []))
        times.append((out["first_cell_ns"] - t0) / 1e9)
        cells = out["cells"]
    return statistics.median(times), cells


def repro_cli(seed, jobs, quick):
    """One shipped `riommu-cli all`: wall seconds, peak RSS MiB, digest."""
    argv = [CLI, "all", "--jobs", str(jobs), "--seed", str(seed)]
    if quick:
        argv.append("--quick")
    t0 = time.monotonic_ns()
    p = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=sys.stderr)
    try:
        out = p.stdout.read()
        _, status, ru = os.wait4(p.pid, 0)
    except BaseException:
        p.kill()
        p.wait()
        raise
    finally:
        p.stdout.close()
    p.returncode = os.waitstatus_to_exitcode(status)
    wall = (time.monotonic_ns() - t0) / 1e9
    if p.returncode != 0:
        fail("riommu-cli all exited %d" % p.returncode, 4)
    return wall, ru.ru_maxrss / 1024.0, hashlib.md5(out).hexdigest()


def digest_ok(seed, quick, digests, notes):
    """Every run printed the same output and, at the default seed, the
    committed one. At other seeds the digest is recorded so runs of two
    commits can be compared."""
    ok = len(set(digests)) == 1
    if seed == REPRO_SEED:
        ok = ok and digests[0] == REPRO_DIGEST[quick]
        notes.append("repro digest %s (committed %s): %s"
                     % (" ".join(sorted(set(digests))), REPRO_DIGEST[quick],
                        "match" if ok else "MISMATCH"))
    else:
        notes.append("repro digest at seed %d: %s (recorded; no committed value)%s"
                     % (seed, " ".join(sorted(set(digests))),
                        "" if ok else " MISMATCH between runs"))
    return ok


def paper_repro(seed, seconds, trace, quick, notes):
    """Whole `riommu-cli all` runs, as many as fit in `seconds` (at
    least one). The unit of work is the whole output, so p50_us and
    p99_us are the median and the slowest run."""
    jobs = nproc()
    notes.append("riommu-cli all --jobs %d --seed %d%s" % (jobs, seed, " --quick" if quick else ""))
    setup_s, cells = repro_setup(seed, jobs, quick)
    walls, rsss, digests = [], [], []
    start = time.monotonic()
    while not walls or time.monotonic() - start + statistics.median(walls) <= seconds:
        wall, rss, digest = repro_cli(seed, jobs, quick)
        walls.append(wall)
        rsss.append(rss)
        digests.append(digest)
    ok = digest_ok(seed, quick, digests, notes)
    repro_s = statistics.median(walls)
    m = {
        "ops_per_s": cells / repro_s,
        "p50_us": repro_s * 1e6,
        "p99_us": max(walls) * 1e6,
        "latency_samples": len(walls),
        "ok_ratio": 1.0 if ok else 0.0,
        "setup_s": setup_s,
        "peak_rss_mb": statistics.median(rsss),
        "repro_s": repro_s,
        "fail_ratio": 0.0 if ok else 1.0,
    }
    notes.append("cells %d; %d whole runs: %s s"
                 % (cells, len(walls), " ".join("%.3f" % w for w in walls)))
    if trace:
        argv = [PERFBENCH, "repro-trace", "--seed", str(seed), "--jobs", str(jobs)]
        t = run_child(argv + (["--quick"] if quick else []))
        traced_ok = t["digest"] == digests[0]
        notes.append("traced digest %s: %s" % (t["digest"], "match" if traced_ok else "MISMATCH"))
        ok = ok and traced_ok
        for k, v in t.items():
            if k.startswith("exp.") or k.startswith("pool."):
                m[k] = v
        m["trace.overhead_ratio"] = t["traced_repro_s"] / repro_s
    return {"correct": ok, "attempted": len(walls), "failed": 0 if ok else len(walls),
            "metrics": m}


# --- socket workloads ----------------------------------------------------

def socket_workload(name, seed, seconds, trace, rundir, notes, corrupt=0):
    argv = [PERFBENCH, "socket", "--workload", name, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "1" if trace else "0",
            "--serve", SERVE, "--rundir", rundir]
    if corrupt:
        argv += ["--corrupt-translate", str(corrupt)]
    out = run_child(argv)
    notes.append("server: riommu-serve --listen unix:<rundir>/sN.sock " + out.pop("info.server_flags"))
    notes.append("transport: unix-domain socket on one host (no link); "
                 "2 connections, one closed-loop generator thread; "
                 + out.pop("info.pinning"))
    info = {k[5:]: out.pop(k) for k in list(out) if k.startswith("info.")}
    notes.append("checks: " + ", ".join("%s %s" % kv for kv in sorted(info.items())))
    res = {k: out.pop(k) for k in ("correct", "attempted", "failed")}
    res["metrics"] = out
    if trace and "replay.layer_sum_ns_per_op" in out:
        notes.append(
            "reconcile: server.cpu_ns_per_op %.1f = replay layer sum %.1f + "
            "unattributed %.1f ns/op (replay process CPU %.1f ns/op)"
            % (out["server.cpu_ns_per_op"], out["replay.layer_sum_ns_per_op"],
               out["unattributed_server_ns_per_op"], out["replay.cpu_ns_per_op"]))
    return res


def run_workload(spec, name, seed, seconds, trace, quick=False, corrupt=0):
    """Run one workload; returns (result, notes). Metrics a workload has
    no layer for are reported as 0 and listed in the notes."""
    notes = []
    if name == "paper-repro":
        res = paper_repro(seed, seconds, trace, quick, notes)
    else:
        rundir = os.path.join(".perfbench_run", str(os.getpid()))
        os.makedirs(rundir, exist_ok=True)
        try:
            res = socket_workload(name, seed, seconds, trace, rundir, notes, corrupt)
        finally:
            shutil.rmtree(rundir, ignore_errors=True)
            try:
                os.rmdir(".perfbench_run")
            except OSError:
                pass
    if not trace and "p99_us" in res["metrics"]:
        notes.append("p99_us %.3f us over %d samples (ungated; a per-layer metric)"
                     % (res["metrics"]["p99_us"], res["metrics"]["latency_samples"]))
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = {}
    absent = []
    for m in declared:
        v = res["metrics"].get(m["name"])
        if v is None:
            absent.append(m["name"])
            v = 0.0
        metrics[m["name"]] = {"value": v, "unit": m["unit"]}
    if absent:
        notes.append("not measured on this workload (reported as 0): " + ", ".join(absent))
    res["metrics"] = metrics
    res["absent"] = absent
    return res, notes


def print_summary(name, seed, seconds, trace, mach, res, notes):
    print("perfbench: workload %s, seed %d, %s s, trace %d"
          % (name, seed, seconds, 1 if trace else 0))
    print("machine: nproc %d, cpu %s, ocaml %s, commit %s"
          % (mach["nproc"], mach["cpu"], mach["ocaml"], mach["commit"]))
    for n in notes:
        print("  " + n)
    for k, m in res["metrics"].items():
        print("  %-36s %18.6g %s" % (k, m["value"], m["unit"]))
    print("  correct %s, attempted %d, failed %d"
          % (res["correct"], res["attempted"], res["failed"]))


def self_check(spec):
    """Minimal-length pass over every workload in both modes: every
    end-to-end metric is measured on every workload, every per-layer
    metric on at least one, all with their units; then a deliberately
    corrupted translate answer must be caught."""
    problems = []
    measured = set()
    for w in spec["workloads"]:
        name = w["name"]
        for trace in (False, True):
            res, _ = run_workload(spec, name, 1, 1, trace, quick=True)
            declared = spec["per_layer"] if trace else spec["end_to_end"]
            for m in declared:
                got = res["metrics"].get(m["name"])
                if got is None or got.get("unit") != m["unit"]:
                    problems.append("%s trace %d: %s missing or wrong unit"
                                    % (name, trace, m["name"]))
            if not trace and res["absent"]:
                problems.append("%s: end-to-end metrics not measured: %s"
                                % (name, ", ".join(res["absent"])))
            measured |= {m["name"] for m in declared} - set(res["absent"])
            if not res["correct"] or res["failed"]:
                problems.append("%s trace %d: correct %s failed %d"
                                % (name, trace, res["correct"], res["failed"]))
            print("self-check: %s trace %d ran" % (name, trace))
    never = [m["name"] for m in spec["per_layer"] if m["name"] not in measured]
    if never:
        problems.append("per-layer metrics no workload measures: " + ", ".join(never))
    res, _ = run_workload(spec, "translate-deep", 1, 1, False, corrupt=1)
    if res["failed"] != 1 or not res["correct"]:
        problems.append("corrupted translate answer not caught: failed %d correct %s"
                        % (res["failed"], res["correct"]))
    else:
        print("self-check: corrupted translate answer caught (failed 1)")
    for p in problems:
        print("self-check: FAIL " + p, file=sys.stderr)
    print("self-check: %s" % ("FAILED" if problems else "ok"))
    return 1 if problems else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=REPRO_SEED)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-check", action="store_true")
    a = ap.parse_args()
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    if not a.self_check and a.workload not in names:
        fail("--workload must be one of " + ", ".join(names))
    build()
    # SIGTERM from a supervisor still runs the children's cleanup
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(5))
    if a.self_check:
        sys.exit(self_check(spec))
    mach = machine()
    res, notes = run_workload(spec, a.workload, a.seed, a.seconds, a.trace == 1)
    print_summary(a.workload, a.seed, a.seconds, a.trace, mach, res, notes)
    print(json.dumps({"correct": res["correct"], "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": res["metrics"]}))


if __name__ == "__main__":
    main()
