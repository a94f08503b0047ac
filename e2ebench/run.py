#!/usr/bin/env python3
"""End-to-end benchmark of the v6d solver.

    python3 e2ebench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Builds `v6d` and the traced-run program
from source into .bench_build/ (first run only), then:

  --trace 0  runs the workload through the real `v6d` CLI, repeatedly, for
             S seconds, checks every run's output, and prints the
             end-to-end metrics (step_s_p50, tts_s, setup_s, peak_rss_mb,
             fail_frac) with units and sample counts;
  --trace 1  runs e2ebench_traced on the same workload state and prints
             the per-layer ledger.

The last line of stdout is one JSON object: correct, attempted, failed and
the metrics BENCHMARK.json lists for the mode.  --save PATH also writes the
result with its run context; `--compare A B` compares two saved results
and refuses when their contexts differ.  See e2ebench/README.md.
"""

import argparse
import ctypes
import hashlib
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")
CMAKE_DIR = os.path.join(BUILD, "cmake")
V6D = os.path.join(CMAKE_DIR, "v6d", "apps", "v6d")
TRACED = os.path.join(CMAKE_DIR, "e2ebench_traced")

LEG_TIMEOUT_S = 150.0
RUN_LIMIT_S = 170.0  # the whole command must end within 180 s


class Workload:
    """One fixed configuration.  `legs(dir, seed)` gives the v6d argv of one
    run (a second leg resumes the first one's checkpoint)."""

    def __init__(self, name, omp_threads, world, transport, steps, mass_tol,
                 legs, final_checkpoint, traced):
        self.name = name
        self.omp_threads = omp_threads
        self.world = world
        self.transport = transport
        self.steps = steps            # telemetry rows expected per leg
        self.mass_tol = mass_tol      # |mass drift| the test suite asserts
        self.legs = legs
        self.final_checkpoint = final_checkpoint
        self.traced = traced          # (step budget, config of the same state)


def _vlasov_wide_legs(d, seed):
    return [["run", "vlasov_only", "nx=8", "nu=32", f"seed={seed}",
             "max_steps=6", "checkpoint_dir="]]


def _hybrid_tcp4_legs(d, seed):
    leg1 = os.path.join(d, "leg1")
    leg2 = os.path.join(d, "leg2")
    return [["run", "neutrino_box", "nx=16", "nu=12", "np=16", "spawn=4",
             f"seed={seed}", "max_steps=4", "checkpoint_every=2",
             f"checkpoint_dir={leg1}"],
            ["resume", leg1, "spawn=4", "max_steps=8", "checkpoint_every=2",
             f"checkpoint_dir={leg2}"]]


# Mass tolerances are the ones tests/ asserts for each scenario:
# test_vlasov_solver (1e-4), test_hybrid TotalMassConserved (1e-3).
WORKLOADS = {
    "vlasov_wide": Workload(
        "vlasov_wide", 4, 1, "none", [6], 1e-4, _vlasov_wide_legs, None,
        (12, ["scenario=vlasov_only", "nx=8", "nu=32", "checkpoint_dir="])),
    "hybrid_tcp4": Workload(
        "hybrid_tcp4", 1, 4, "tcp", [4, 4], 1e-3, _hybrid_tcp4_legs, "leg2",
        (16, ["scenario=neutrino_box", "nx=16", "nu=12", "np=16", "ranks=4",
              "checkpoint_dir="])),
}

# Per-layer metrics of layers the workload's solver never calls.  The
# traced program leaves them out; the result line still needs a number for
# each, so it carries 0 there, and --save / --compare mark them n/a.
OFF_PATH = {
    "vlasov_wide": {
        # the serial solver has no communicator, halo, slab or FFT exchange
        "comm.bytes_per_step", "comm.messages_per_step", "comm.recv_wait_s",
        "mesh.halo_s", "mesh.halo_wait_s", "fft.pfft_s", "parallel.slab_s",
        "parallel.cfl_s", "parallel.step_s",
        # no particles: no push, no tree
        "nbody.push_s", "gravity.tree_build_s", "gravity.tree_walk_s",
        "gravity.p2p_interactions"},
    "hybrid_tcp4": {
        # the distributed solver steps neither HybridSolver::step nor the
        # serial PoissonSolver (it solves through fft.pfft_s)
        "hybrid.step_s", "gravity.poisson_s"},
}

# Measured zeros: buckets of the solver's own timer registry that must stay
# empty because the table says the layer is bypassed there.  On serial
# workloads the e2e run also checks that telemetry reports no comm bytes.
BYPASS = {
    "vlasov_wide": ["timers.tree_s", "timers.halo_s", "timers.halo-wait_s",
                    "timers.fold-wait_s", "timers.slab-wait_s"],
    "hybrid_tcp4": [],
}


def log(msg):
    print(msg, flush=True)


def fail(msg):
    print(f"e2ebench: {msg}", file=sys.stderr, flush=True)
    sys.exit(1)


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read {path}: {e}")


# ---------------------------------------------------------------------------
# Build
# ---------------------------------------------------------------------------

def build():
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")):
        fail("no CMakeLists.txt at the checkout root; nothing to build")
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    jobs = str(max(1, os.cpu_count() or 1))
    with open(log_path, "w") as out:
        if not os.path.isfile(os.path.join(CMAKE_DIR, "CMakeCache.txt")):
            cmd = ["cmake", "-S", os.path.join(ROOT, "e2ebench"), "-B",
                   CMAKE_DIR, "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            if subprocess.call(cmd, stdout=out, stderr=subprocess.STDOUT):
                shutil.rmtree(CMAKE_DIR, ignore_errors=True)
                fail(f"cmake configure failed (see {log_path})")
        cmd = ["cmake", "--build", CMAKE_DIR, "-j", jobs, "--target",
               "v6d_cli", "e2ebench_traced"]
        if subprocess.call(cmd, stdout=out, stderr=subprocess.STDOUT):
            fail(f"build failed (see {log_path})")


def source_digest():
    """sha256 over the sources the benchmark builds (the checkout is not
    always a git repository, so this stands in for the commit)."""
    h = hashlib.sha256()
    files = [os.path.join(ROOT, "CMakeLists.txt")]
    for top in ("src", "apps", "e2ebench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            files += [os.path.join(dirpath, n) for n in sorted(filenames)]
    for path in files:
        h.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as f:
            h.update(f.read())
    return h.hexdigest()[:16]


def git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "none"
    try:
        return subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True,
                              timeout=10).stdout.strip() or "none"
    except (OSError, subprocess.SubprocessError):
        return "none"


# ---------------------------------------------------------------------------
# Process handling
# ---------------------------------------------------------------------------

def become_subreaper():
    """Orphaned grandchildren (the ranks `spawn=` forks) re-parent to this
    process, so a killed run's ranks can be reaped here too."""
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        libc.prctl(36, 1, 0, 0, 0)  # PR_SET_CHILD_SUBREAPER
    except (OSError, AttributeError):
        pass


def reap_all(limit_s=10.0):
    """Wait for every remaining descendant (ranks of a killed group)."""
    deadline = time.perf_counter() + limit_s
    while time.perf_counter() < deadline:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid == 0:
            time.sleep(0.01)


def child_env(omp_threads):
    env = {k: v for k, v in os.environ.items() if not k.startswith("V6D_")}
    env["OMP_NUM_THREADS"] = str(omp_threads)
    env["TMPDIR"] = os.path.join(BUILD, "tmp")
    os.makedirs(env["TMPDIR"], exist_ok=True)
    return env


def first_row(path):
    try:
        with open(path, "rb") as f:
            data = f.read(1 << 16)
    except OSError:
        return None
    nl = data.find(b"\n")
    return json.loads(data[:nl]) if nl >= 0 else None


def run_leg(argv, env, telemetry, timeout):
    """Run one v6d leg.  Returns the launch-to-first-step time, the exit
    code and the peak RSS [MB] of the leg's largest process."""
    err_path = telemetry + ".stderr"
    with open(err_path, "wb") as err:
        t_launch = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, stdout=subprocess.DEVNULL,
                                stderr=err, start_new_session=True)
    killed = []

    def kill():
        killed.append(True)
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    timer = threading.Timer(timeout, kill)
    timer.start()
    # Poll for the first telemetry row: it lands when step 1 ends, and
    # step 1 began step_seconds earlier.  Stop polling once it is seen.
    setup = None
    while True:
        pid, status, rusage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            break
        row = first_row(telemetry)
        if row is not None:
            setup = (time.perf_counter() - t_launch -
                     float(row["step_seconds"]))
            _, status, rusage = os.wait4(proc.pid, 0)
            break
        time.sleep(0.002)
    timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    reap_all()
    with open(err_path, errors="replace") as f:
        stderr = f.read()
    return {"setup": setup, "code": proc.returncode,
            "timed_out": bool(killed), "stderr": stderr[-2000:],
            "rss_mb": rusage.ru_maxrss / 1024.0}


def read_rows(path):
    rows = []
    try:
        with open(path) as f:
            for line in f:
                if line.strip():
                    rows.append(json.loads(line))
    except (OSError, ValueError):
        pass
    return rows


def perf_phases(path):
    try:
        with open(path) as f:
            report = json.load(f)
    except (OSError, ValueError):
        return None, {}
    phases = {p["name"]: p["seconds"] for p in report.get("phases", [])}
    return phases, report.get("context", {})


def file_digest(h, directory):
    for name in sorted(os.listdir(directory)):
        if name.endswith(".bin"):
            h.update(name.encode())
            with open(os.path.join(directory, name), "rb") as f:
                h.update(f.read())


# ---------------------------------------------------------------------------
# End-to-end mode
# ---------------------------------------------------------------------------

def run_once(w, seed, inv_dir):
    """One solution of the workload: every leg, its checks and timings."""
    shutil.rmtree(inv_dir, ignore_errors=True)
    os.makedirs(inv_dir)
    env = child_env(w.omp_threads)
    out = {"ok": True, "why": [], "steps": [], "setup": 0.0, "tts": 0.0,
           "rss_mb": 0.0, "isa": None}
    traj = hashlib.sha256()
    mass0 = mass_last = None
    for k, legv in enumerate(w.legs(inv_dir, seed)):
        tele = os.path.join(inv_dir, f"leg{k}.jsonl")
        perf = os.path.join(inv_dir, f"leg{k}.perf.json")
        argv = [V6D] + legv + [f"telemetry={tele}", f"perf_report={perf}"]
        r = run_leg(argv, env, tele, LEG_TIMEOUT_S)
        out["rss_mb"] = max(out["rss_mb"], r["rss_mb"])
        if r["timed_out"] or r["code"] != 0:
            out["ok"] = False
            out["why"].append(f"leg {k}: exit {r['code']}"
                              f"{' (timeout)' if r['timed_out'] else ''}: "
                              f"{r['stderr'].strip()[-300:]}")
            return out
        rows = read_rows(tele)
        phases, ctx = perf_phases(perf)
        if len(rows) != w.steps[k] or phases is None or r["setup"] is None:
            out["ok"] = False
            out["why"].append(f"leg {k}: {len(rows)} telemetry rows, "
                              f"expected {w.steps[k]}")
            return out
        out["isa"] = ctx.get("isa")
        out["setup"] += r["setup"]
        out["tts"] += (phases.get("step", 0.0) + phases.get("step-control", 0.0)
                       + phases.get("checkpoint-io", 0.0))
        for row in rows:
            out["steps"].append(float(row["step_seconds"]))
            mass = float(row["mass"])
            if not math.isfinite(mass):
                out["ok"] = False
                out["why"].append(f"leg {k}: non-finite mass at step "
                                  f"{row['step']}")
            if w.world == 1 and row["comm_bytes"] != 0:
                out["ok"] = False
                out["why"].append(f"leg {k}: serial run sent "
                                  f"{row['comm_bytes']} comm bytes at step "
                                  f"{row['step']}")
            if mass0 is None:
                mass0 = mass / (1.0 + float(row["mass_drift"]))
            mass_last = mass
            traj.update(json.dumps([row[key] for key in (
                "step", "a", "da", "cfl_shift", "mass", "mass_drift",
                "comm_bytes")]).encode())
    drift = (mass_last - mass0) / mass0 if mass0 else 0.0
    out["mass_drift"] = drift
    if not abs(drift) <= w.mass_tol:
        out["ok"] = False
        out["why"].append(f"mass drift {drift:.3e} exceeds {w.mass_tol:g}")
    if w.final_checkpoint:
        ck = os.path.join(inv_dir, w.final_checkpoint)
        if not os.path.isfile(os.path.join(ck, "meta")):
            out["ok"] = False
            out["why"].append(f"no final checkpoint in {ck}")
        else:
            file_digest(traj, ck)
    out["digest"] = traj.hexdigest()
    return out


def run_e2e(w, seed, seconds, spec):
    work = os.path.join(BUILD, "work", w.name)
    t0 = time.perf_counter()
    results = []
    longest = 0.0
    # At least two runs (the determinism check compares them); more while
    # another one fits the time budget.
    while len(results) < 2 or (
            time.perf_counter() - t0 + longest <= seconds and
            time.perf_counter() - t0 + 2 * longest < RUN_LIMIT_S):
        t1 = time.perf_counter()
        results.append(run_once(w, seed,
                                os.path.join(work, f"run{len(results)}")))
        longest = max(longest, time.perf_counter() - t1)
        if time.perf_counter() - t0 + longest > RUN_LIMIT_S:
            break
    shutil.rmtree(work, ignore_errors=True)

    ok = [r for r in results if r["ok"]]
    if ok:
        ref = ok[0]["digest"]
        for r in ok[1:]:
            if r["digest"] != ref:
                r["ok"] = False
                r["why"].append("final state differs from the first run's")
    ok = [r for r in results if r["ok"]]
    attempted = len(results)
    failed = attempted - len(ok)
    for i, r in enumerate(results):
        for why in r["why"]:
            log(f"check failed (run {i}): {why}")

    steps = [s for r in ok for s in r["steps"]]
    values = {}
    counts = {}
    if ok:
        values["step_s_p50"] = statistics.median(steps)
        counts["step_s_p50"] = (len(steps), "steps")
        values["tts_s"] = statistics.median(r["tts"] for r in ok)
        values["setup_s"] = statistics.median(r["setup"] for r in ok)
        values["peak_rss_mb"] = statistics.median(r["rss_mb"] for r in ok)
        for name in ("tts_s", "setup_s", "peak_rss_mb"):
            counts[name] = (len(ok), "runs")
    values["fail_frac"] = failed / attempted
    counts["fail_frac"] = (attempted, "runs")

    context = make_context(w, isa=ok[0]["isa"] if ok else None)
    log(f"workload {w.name}: seed {seed}, {attempted} runs, "
        f"{time.perf_counter() - t0:.1f} s")
    log("context: " + " ".join(f"{k}={v}" for k, v in context.items()))
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    units["fail_frac"] = "1"
    for name, value in values.items():
        n, what = counts[name]
        log(f"  {name:<14} {value:>14.6g} {units.get(name, ''):<4} "
            f"(n={n} {what})")
    if ok:
        drifts = [abs(r["mass_drift"]) for r in ok]
        log(f"  checks: max |mass drift| {max(drifts):.3e} "
            f"(tolerance {w.mass_tol:g}); finite; "
            f"{len(ok)} identical final states"
            f"{'; no comm bytes' if w.world == 1 else ''}")
    correct = failed == 0
    metrics = {}
    for m in spec["end_to_end"]:
        if m["name"] in values:
            metrics[m["name"]] = {"value": values[m["name"]],
                                  "unit": m["unit"]}
    return correct, attempted, failed, metrics, context, set()


def make_context(w, isa):
    return {"simd": isa or "unknown", "omp_threads": w.omp_threads,
            "nproc": os.cpu_count(), "world": w.world,
            "transport": w.transport,
            "config": " | ".join(" ".join(leg) for leg in
                                 w.legs("<dir>", "<seed>")),
            "source": source_digest(), "git_commit": git_commit()}


# ---------------------------------------------------------------------------
# Traced mode
# ---------------------------------------------------------------------------

def run_traced(w, seed, seconds, spec):
    steps, cfg = w.traced
    scratch = os.path.join(BUILD, "traced", w.name)
    shutil.rmtree(scratch, ignore_errors=True)
    os.makedirs(scratch)
    argv = ([TRACED, f"seconds={seconds}", f"steps={steps}",
             f"scratch={scratch}", f"mass_tol={w.mass_tol!r}", "--"] + cfg +
            [f"seed={seed}"])
    proc = subprocess.Popen(argv, env=child_env(w.omp_threads),
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            start_new_session=True)
    try:
        stdout, stderr = proc.communicate(timeout=RUN_LIMIT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        stdout, stderr = proc.communicate()
        stderr += b"timed out"
    reap_all()
    shutil.rmtree(scratch, ignore_errors=True)
    if proc.returncode != 0:
        log(f"check failed: traced run exited {proc.returncode}: "
            f"{stderr.decode(errors='replace')[-500:]}")
        return False, 1, 1, {}, make_context(w, isa=None), set()
    report = json.loads(stdout.decode().strip().splitlines()[-1])
    m = report["metrics"]
    ledger = report["ledger"]
    step = report["traced_step_s"]
    off = OFF_PATH[w.name]

    context = make_context(w, isa=report["context"].get("isa"))
    log(f"workload {w.name} (traced run): seed {seed}, "
        f"{int(m['traced.steps'])} traced steps")
    log("context: " + " ".join(f"{k}={v}" for k, v in context.items()) +
        " " + " ".join(f"{k}={v}" for k, v in report["context"].items()))
    log("  per-step ledger (mean of traced steps; rows are disjoint)")
    for row, s in sorted(ledger.items(), key=lambda kv: -kv[1]):
        log(f"    {row:<24} {s:>12.6f} s  {100 * s / step:6.2f} %")
    log(f"    {'traced step':<24} {step:>12.6f} s")
    units = {x["name"]: x["unit"] for x in spec["per_layer"]}
    for name in sorted(units):
        value = "n/a" if name in off else f"{m.get(name, math.nan):.6g}"
        log(f"  {name:<28} {value:>16} {units[name]}")

    failures = list(report["failures"])
    for name in sorted(units):
        if name in off and name in m:
            failures.append(f"{name} measured, but listed as off the path")
        elif name not in off and name not in m:
            failures.append(f"{name} not measured")
    for name in BYPASS[w.name]:
        ok = m.get(name) == 0.0
        log(f"  bypass {name} = 0: {'ok' if ok else 'VIOLATED'}")
        if not ok:
            failures.append(f"bypass violated: {name} = {m.get(name)}")
    for f in failures:
        log(f"check failed: {f}")
    metrics = {x["name"]: {"value": float(m.get(x["name"], 0.0)),
                           "unit": x["unit"]} for x in spec["per_layer"]}
    return not failures, 1, 1 if failures else 0, metrics, context, off


# ---------------------------------------------------------------------------
# Comparison of saved results
# ---------------------------------------------------------------------------

COMPARABLE = ("simd", "omp_threads", "nproc", "world", "transport", "config")


def compare(path_a, path_b):
    with open(path_a) as f:
        a = json.load(f)
    with open(path_b) as f:
        b = json.load(f)
    diff = [k for k in COMPARABLE if a["context"].get(k) != b["context"].get(k)]
    if a["workload"] != b["workload"] or a["trace"] != b["trace"]:
        diff.append("workload/trace")
    if diff:
        print("refusing to compare: contexts differ in " + ", ".join(diff),
              file=sys.stderr)
        return 2
    for name, ma in a["metrics"].items():
        mb = b["metrics"].get(name)
        if mb is None:
            continue
        if ma["value"] is None or mb["value"] is None:
            print(f"{name:<28} {'n/a (off the workload path)':>32}")
            continue
        ratio = mb["value"] / ma["value"] if ma["value"] else float("nan")
        print(f"{name:<28} {ma['value']:>14.6g} -> {mb['value']:>14.6g} "
              f"{ma['unit']:<6} x{ratio:.4f}")
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--save", help="also write the result and its context")
    ap.add_argument("--compare", nargs=2, metavar=("A", "B"),
                    help="compare two --save files (same context only)")
    args = ap.parse_args()
    if args.compare:
        return compare(*args.compare)
    if not args.workload:
        ap.error("--workload is required")

    spec = load_spec()
    become_subreaper()
    build()
    w = WORKLOADS[args.workload]
    run = run_traced if args.trace else run_e2e
    correct, attempted, failed, metrics, context, off = run(
        w, args.seed, args.seconds, spec)
    if args.save:
        # Off-path metrics are saved as null, not as the 0 of the last line.
        saved = {k: {"value": None if k in off else v["value"],
                     "unit": v["unit"]} for k, v in metrics.items()}
        with open(args.save, "w") as f:
            json.dump({"workload": w.name, "seed": args.seed,
                       "trace": args.trace, "context": context,
                       "correct": correct, "attempted": attempted,
                       "failed": failed, "metrics": saved}, f, indent=1)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
