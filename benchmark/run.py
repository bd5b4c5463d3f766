#!/usr/bin/env python3
"""The repo benchmark: times real `risa-cli run` processes on four
workloads and, from outside the program, says where the time went.

    python3 benchmark/run.py                # warm-up + 7 reps x 4 workloads + probe
    python3 benchmark/run.py --selfcheck    # two sets of one build, compared
    python3 benchmark/run.py --smoke        # every path, sizes / 100
    python3 benchmark/run.py --workload W --seed N --seconds S --trace 0|1
                                            # one timed run; one JSON line last

Metric names, units and bounds are read from ../BENCHMARK.json; README.md
beside this file is the glossary. Standard library only.
"""

import argparse
import hashlib
import json
import math
import os
import selectors
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")

# What follows `risa-cli run`. Only flags that outlive the planned removal
# of the alternative backends: no --fel, --arrivals or --exec, and every
# RISA_* variable is scrubbed, so the default pipeline is what is measured.
WORKLOADS = {
    "paper_sat": {"algo": "RISA", "n": 2_000_000},
    "scale_admit": {"algo": "RISA", "n": 300_000, "scale": 40},
    "scale_nalb": {"algo": "NALB", "n": 300_000, "scale": 40},
    "steady_csv_faults": {"algo": "RISA", "csv_rows": 1_000_000, "faults": True},
}
SMOKE_DIVISOR = 100
REPS = 7            # timed reps per workload, after one discarded warm-up
PROBE_PASSES = 2    # of a plain run: count-type metrics must agree between them
# Two interleaved sets of one build must agree this closely (ISSUE 11's
# bound for timings; peak_rss_mb has a tighter one of its own).
# BENCHMARK.json's bounds are wider: they are for lone time-boxed runs,
# which a slow spell of this host moves as a whole.
INTERLEAVED_BOUND = 0.10

# Per-layer numbers that are counts of simulated work: they repeat exactly.
EXACT = (
    "workload.vms", "sim.events", "des.peak_fel", "sched.calls",
    "sched.admit_ratio", "sched.inter_rack_ratio", "sched.racks_scanned_per_call",
    "sched.boxes_scanned_per_call", "sched.links_scanned_per_call",
)

MASK = (1 << 64) - 1


def write_steady_csv(path, seed, rows):
    """The steady trace: exponential inter-arrivals (mean 9), CPU and RAM
    uniform 1..=32, storage 128, exponential lifetimes (mean 6300). Drawn
    from this file's own SplitMix64 by inverse CDF, so nothing depends on
    the program's generator. Written in small chunks: the children's
    ru_maxrss never reads below this process's own peak, which must
    therefore stay small. Returns the file's SHA-256."""
    state, t, digest = seed & MASK, 0.0, hashlib.sha256()

    def draw():
        nonlocal state
        state = (state + 0x9E3779B97F4A7C15) & MASK
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK
        return z ^ (z >> 31)

    with open(path + ".tmp", "wb") as f:
        chunk = ["id,cpu_cores,ram_gb,storage_gb,arrival,lifetime\n"]
        for i in range(rows):
            a, b = draw(), draw()
            # The top 53 bits make the uniform; the low bits, unused by
            # it, pick the sizes.
            t += -9.0 * math.log(1.0 - (a >> 11) / (1 << 53))
            life = -6300.0 * math.log(1.0 - (b >> 11) / (1 << 53))
            chunk.append(f"{i},{(a & 31) + 1},{(b & 31) + 1},128,{t!r},{life!r}\n")
            if len(chunk) >= 4096 or i == rows - 1:
                data = "".join(chunk).encode()
                digest.update(data)
                f.write(data)
                chunk = []
    os.replace(path + ".tmp", path)
    return digest.hexdigest()


def build():
    """Build risa-cli and the probe, release, into one target directory;
    returns the two executables. Exits non-zero if either build fails."""
    # A relative CARGO_TARGET_DIR is relative to the caller's directory,
    # as cargo itself reads it.
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", os.path.join(ROOT, "target")))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    for manifest, package in ((os.path.join(ROOT, "Cargo.toml"), ["-p", "risa-cli"]),
                              (os.path.join(HERE, "probe", "Cargo.toml"), [])):
        cmd = ["cargo", "build", "--release", "--offline", "--quiet",
               "--manifest-path", manifest, *package]
        if subprocess.run(cmd, env=env).returncode != 0:
            sys.exit(f"benchmark: build failed: {' '.join(cmd)}")
    return (os.path.join(target, "release", "risa-cli"),
            os.path.join(target, "release", "risa-probe"))


def spawn_timed(argv, env):
    """Run one child to completion with stdout and stderr drained.
    Returns (exit code, stdout, stderr, seconds from spawn to the
    `resolved:` line on stderr or None, seconds from spawn to exit,
    rusage)."""
    t0 = time.perf_counter()
    child = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    streams = {child.stdout: bytearray(), child.stderr: bytearray()}
    resolved = None
    with selectors.DefaultSelector() as sel:
        for stream in streams:
            sel.register(stream, selectors.EVENT_READ)
        while sel.get_map():
            for key, _ in sel.select():
                data = os.read(key.fd, 1 << 16)
                if not data:
                    sel.unregister(key.fileobj)
                    continue
                streams[key.fileobj] += data
                if resolved is None and b"resolved:" in streams[child.stderr]:
                    resolved = time.perf_counter() - t0
    _, status, rusage = os.wait4(child.pid, 0)
    wall = time.perf_counter() - t0
    child.returncode = os.waitstatus_to_exitcode(status)
    for stream in streams:
        stream.close()
    return (child.returncode, bytes(streams[child.stdout]),
            streams[child.stderr].decode(errors="replace"), resolved, wall, rusage)


def stripped(report):
    """A report without its one wall-clock field."""
    return {k: v for k, v in report.items() if k != "sched_seconds"}


class Bench:
    def __init__(self, seed, smoke, golden_dir, write_golden):
        self.seed, self.smoke, self.golden_dir = seed, smoke, golden_dir
        self.write_golden = write_golden
        self.nproc = len(os.sched_getaffinity(0))
        self.jobs = min(2, self.nproc)
        self.env = {k: v for k, v in os.environ.items() if not k.startswith("RISA_")}
        self.cli, self.probe = build()
        os.makedirs(OUT, exist_ok=True)
        # Median wall of `risa-cli info`: process start without a run.
        self.startup_s = statistics.median(
            spawn_timed([self.cli, "info"], self.env)[4] for _ in range(5))
        self.first_report = {}   # workload -> stripped report of its first rep
        self.golden_error = {}   # workload -> why that report is not the golden one, or None
        self.notes = []
        self.gen_s = None
        self.csv_sha = None
        self.csv_path = None

    def size(self, full):
        return max(1, full // SMOKE_DIVISOR) if self.smoke else full

    def golden_name(self, name):
        return os.path.join(self.golden_dir, f"{name}{'.smoke' if self.smoke else ''}.json")

    def prepare(self, names):
        """Generate the CSV trace if a chosen workload reads one."""
        if "steady_csv_faults" not in names:
            return
        tag = f"{self.seed}{'.smoke' if self.smoke else ''}"
        self.csv_path = os.path.join(OUT, f"steady.{tag}.csv")
        for stale in os.listdir(OUT):
            if stale.startswith("steady.") and stale.endswith((".csv", ".tmp")):
                os.remove(os.path.join(OUT, stale))
        t0 = time.perf_counter()
        rows = self.size(WORKLOADS["steady_csv_faults"]["csv_rows"])
        self.csv_sha = write_steady_csv(self.csv_path, self.seed, rows)
        self.gen_s = time.perf_counter() - t0

    def run_flags(self, name):
        w = WORKLOADS[name]
        flags = ["--algo", w["algo"], "--seed", str(self.seed)]
        if "csv_rows" in w:
            flags += ["--workload", self.csv_path]
        else:
            flags += ["--workload", "synthetic", "--n", str(self.size(w["n"]))]
        if "scale" in w:
            flags += ["--scale", str(w["scale"])]
        if w.get("faults"):
            flags.append("--faults")
        return flags

    def check(self, name, report):
        """Why this report is wrong, or None."""
        r = report
        if r["admitted"] + r["dropped"] != r["total_vms"]:
            return "admitted + dropped != total_vms"
        if r["dropped_compute"] + r["dropped_network"] != r["dropped"]:
            return "dropped_compute + dropped_network != dropped"
        if stripped(r) != self.first_report.setdefault(name, stripped(r)):
            return "report differs from this workload's first rep"
        if name not in self.golden_error:
            self.golden_error[name] = self.check_golden(name, self.first_report[name])
        return self.golden_error[name]

    def check_golden(self, name, report):
        if self.seed != 42 or self.write_golden:
            return None
        path = self.golden_name(name)
        try:
            with open(path) as f:
                golden = json.load(f)
        except OSError as e:
            return f"no golden report: {e}"
        want = golden.get("trace_sha256")
        if want is not None and want != self.csv_sha:
            self.notes.append(f"{name}: this host's libm gives other trace bytes than the "
                              "golden's; golden comparison skipped")
            return None
        if report != golden["report"]:
            return f"report differs from {os.path.relpath(path, ROOT)}"
        return None

    def save_golden(self, name):
        doc = {"report": self.first_report[name]}
        if "csv_rows" in WORKLOADS[name]:
            doc["trace_sha256"] = self.csv_sha
        with open(self.golden_name(name), "w") as f:
            json.dump(doc, f, indent=1)
            f.write("\n")

    def rep(self, name):
        """One full `risa-cli run` process: spawn to exit."""
        argv = [self.cli, "run", *self.run_flags(name), "--jobs", str(self.jobs), "--json"]
        code, out, err, resolved, wall, ru = spawn_timed(argv, self.env)
        if code != 0:
            return {"error": f"exit code {code}: {err.strip()[-200:]}"}
        if resolved is None:
            return {"error": "no 'resolved:' line on stderr"}
        try:
            report = json.loads(out)
        except ValueError:
            return {"error": "unparsable report"}
        why = self.check(name, report)
        if why:
            return {"error": why}
        return {
            "wall_s": wall,
            "setup_s": resolved,
            "run_s": wall - resolved,
            "cpu_s": ru.ru_utime + ru.ru_stime,
            "peak_rss_mb": ru.ru_maxrss / 1024,
            "events_per_s": (report["total_vms"] + report["admitted"]) / wall,
            "report": report,
        }

    def probe_pass(self, name):
        """One traced pass of the probe: its per-layer numbers or an error."""
        trace = os.path.join(OUT, f"trace.{name}.json")
        argv = [self.probe, "--name", name, *self.run_flags(name), "--trace-out", trace]
        env = dict(self.env, RISA_THREADS=str(self.jobs))
        code, out, err, _, _, _ = spawn_timed(argv, env)
        if code != 0:
            return {"error": f"probe exit code {code}: {err.strip()[-300:]}"}
        try:
            doc = json.loads(out)
        except ValueError:
            return {"error": "unparsable probe output"}
        first = self.first_report.get(name)
        if first is not None and stripped(doc["report"]) != first:
            return {"error": "the probe's in-process report differs from risa-cli's"}
        why = check_trace(trace)
        if why:
            return {"error": why}
        return {"metrics": dict(doc["metrics"], **{"cli.startup_s": self.startup_s})}


def check_trace(path):
    """Child spans must lie inside their parent and sum to no more than it."""
    with open(path) as f:
        spans = json.load(f)
    children = {}
    for s in spans:
        if s["parent"] is not None:
            p = spans[s["parent"]]
            if s["start_ns"] < p["start_ns"] or s["end_ns"] > p["end_ns"]:
                return f"trace: span {s['id']} ({s['name']}) leaves its parent"
            children[p["id"]] = children.get(p["id"], 0) + s["end_ns"] - s["start_ns"]
    for pid, total in children.items():
        if total > spans[pid]["end_ns"] - spans[pid]["start_ns"]:
            return f"trace: children of span {pid} exceed it"
    return None


def measure(bench, names, sets, reps=None, seconds=None, warmup=False, with_probe=False):
    """Closed loop, one process at a time. Rounds visit set x workload in
    turn, so a noisy spell on the host spreads over every cell instead of
    moving one of them, and every cell's reps follow the same neighbour.
    Runs `reps` rounds, after one discarded rep per workload if `warmup`,
    or as many rounds as fit in `seconds`. Returns samples[set][name]."""
    samples = [{n: {"reps": [], "passes": []} for n in names} for _ in range(sets)]
    if warmup:
        for name in names:
            warm = bench.rep(name)
            if "error" in warm:
                samples[0][name]["reps"].append(warm)
    start, rounds = time.perf_counter(), 0
    while True:
        for cell in samples:
            for name in names:
                timed = bench.rep(name)
                cell[name]["reps"].append(timed)
                # Time-boxed: one probe pass per round, so its numbers are
                # medians of as many as fit.
                if with_probe and "error" not in timed and (
                        seconds is not None or rounds < PROBE_PASSES):
                    cell[name]["passes"].append(bench.probe_pass(name))
        rounds += 1
        elapsed = time.perf_counter() - start
        # Time-boxed: stop when one more round of the size seen so far
        # would end past the window.
        done = rounds >= reps if seconds is None else elapsed + elapsed / rounds > seconds
        if done:
            return samples


def stats(metric, values):
    """One metric's samples summed up; `best` is the lowest, or the
    highest where higher is better."""
    if len(values) < 2:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    best = {"lower": min, "higher": max}[metric["better"]](values)
    return {"unit": metric["unit"], "median": statistics.median(values), "q1": q1, "q3": q3,
            "best": best, "n": len(values), "samples": values}


def summarize(spec, cell):
    """Every metric of one workload, the attempt and failure counts, the
    errors, and notes on numbers that look wrong without being failures."""
    good = [r for r in cell["reps"] if "error" not in r]
    passes = [p["metrics"] for p in cell["passes"] if "error" not in p]
    errors = [r["error"] for r in cell["reps"] + cell["passes"] if "error" in r]
    notes = []
    end_to_end, per_layer = {}, {}
    if good:
        end_to_end = {m["name"]: stats(m, [r[m["name"]] for r in good])
                      for m in spec["end_to_end"]}
    if good and passes:
        for exact in EXACT:
            if len({p[exact] for p in passes}) > 1:
                errors.append(f"{exact} differs between probe passes")
        wall_s = end_to_end["wall_s"]["median"]
        for p in passes:
            inproc = p["sim.build_s"] + p["sim.run_s"]
            p["cli.overhead_s"] = wall_s - inproc
            p["probe.inproc_vs_cli"] = inproc / wall_s
        per_layer = {m["name"]: stats(m, [p[m["name"]] for p in passes])
                     for m in spec["per_layer"]}
        ratio = per_layer["probe.inproc_vs_cli"]["median"]
        # Not a failure: it is a ratio of two host times, and a slow spell
        # of the host that covers the passes and not the reps moves it.
        if not 0.9 <= ratio <= 1.1:
            notes.append(f"probe.inproc_vs_cli = {ratio:.3f}, outside 0.9-1.1: the probe's run "
                         "and risa-cli's did not take the same time, so read the per-layer "
                         "shares of this run with care")
    return {"end_to_end": end_to_end, "per_layer": per_layer,
            "runs": len(cell["reps"]) + len(cell["passes"]), "failed_runs": len(errors),
            "errors": errors, "notes": notes}


def print_table(results):
    row = "{:<18} {:<30} {:<6} {:>12} {:>12} {:>12} {:>12} {:>3}  {}"
    print(row.format("workload", "metric", "unit", "median", "q1", "q3", "best", "n",
                     "failed/attempted"))
    for name, r in results.items():
        ratio = f"{r['failed_runs']}/{r['runs']}"
        for kind in ("end_to_end", "per_layer"):
            for metric, v in r[kind].items():
                print(row.format(name, metric, v["unit"], *(f"{v[k]:.6g}" for k in
                                 ("median", "q1", "q3", "best")), v["n"], ratio))
        for e in r["errors"]:
            print(f"{name}: FAILED: {e}")
        for note in r["notes"]:
            print(f"{name}: note: {note}")


def git_rev():
    try:
        rev = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                             text=True, check=True).stdout.strip()
        dirty = subprocess.run(["git", "-C", ROOT, "status", "--porcelain"],
                               capture_output=True, text=True, check=True).stdout.strip()
        return rev + ("+dirty" if dirty else "")
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def selfcheck(spec, results_a, results_b):
    """The medians of two interleaved sets of one build must agree within
    each metric's bound, and timings within INTERLEAVED_BOUND."""
    row = "{:<18} {:<12} {:>12} {:>12} {:>12} {:>12} {:>8} {:>7}  {}"
    print(row.format("workload", "metric", "median A", "median B", "best A", "best B", "gap",
                     "bound", ""))
    ok = True
    for name in results_a:
        for m in spec["end_to_end"]:
            a = results_a[name]["end_to_end"].get(m["name"])
            b = results_b[name]["end_to_end"].get(m["name"])
            if a is None or b is None:
                ok = False
                continue
            bound = min(m["bound"], INTERLEAVED_BOUND)
            gap = abs(a["median"] - b["median"]) / min(a["median"], b["median"])
            within = gap <= bound
            ok &= within
            print(row.format(name, m["name"], *(f"{x[k]:.6g}" for k in ("median", "best")
                             for x in (a, b)), f"{gap:.2%}", f"{bound:.0%}",
                             "" if within else "EXCEEDS BOUND"))
    return ok


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS, help="time one workload for --seconds")
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=float, help="measuring window of a --workload run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="with --workload: 0 prints end-to-end metrics, 1 per-layer metrics")
    ap.add_argument("--smoke", action="store_true", help="sizes / 100, 1 rep: exercises every path")
    ap.add_argument("--selfcheck", action="store_true", help="compare two interleaved sets")
    ap.add_argument("--golden-dir", default=os.path.join(HERE, "golden"))
    ap.add_argument("--write-golden", action="store_true",
                    help="record this run's reports as the goldens (seed 42 only)")
    args = ap.parse_args()
    if args.write_golden and args.seed != 42:
        ap.error("--write-golden needs --seed 42")
    if args.workload and args.seconds is None:
        ap.error("--workload needs --seconds")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    bench = Bench(args.seed, args.smoke, args.golden_dir, args.write_golden)
    names = [args.workload] if args.workload else list(WORKLOADS)
    bench.prepare(names)
    if bench.nproc < 2:
        bench.notes.append("1 core: ran with --jobs 1; not comparable with 2-core results")

    if args.workload:
        # No warm-up: a cold first rep cannot move the best rep, which is
        # what this form reports.
        samples = measure(bench, names, 1, seconds=args.seconds, with_probe=bool(args.trace))
    else:
        samples = measure(bench, names, 2 if args.selfcheck else 1,
                          reps=1 if args.smoke else REPS, warmup=not args.smoke,
                          with_probe=not args.selfcheck)
    results = [{n: summarize(spec, cell[n]) for n in names} for cell in samples]
    if args.write_golden:
        for name in names:
            bench.save_golden(name)

    print_table(results[0])
    ok = all(r["failed_runs"] == 0 for cell in results for r in cell.values())
    if args.selfcheck:
        print()
        ok &= selfcheck(spec, *results)
    for note in bench.notes:
        print(f"note: {note}")
    doc = {"rev": git_rev(), "nproc": bench.nproc, "jobs": bench.jobs,
           "comparable": bench.nproc >= 2, "seed": args.seed, "smoke": args.smoke,
           "gen_s": bench.gen_s, "notes": bench.notes, "workloads": results[0],
           "reports": bench.first_report}
    if args.selfcheck:
        doc["workloads_b"] = results[1]
    with open(os.path.join(OUT, "latest.json"), "w") as f:
        json.dump(doc, f, indent=1)

    if args.workload:
        r = results[0][args.workload]
        # A lone time-boxed run reports the best rep of each end-to-end
        # metric (README.md, "End-to-end metrics"), the median of each
        # per-layer one.
        kind, pick = ("per_layer", "median") if args.trace else ("end_to_end", "best")
        if len(r[kind]) != len(spec[kind]):
            ok = False
        print(json.dumps({
            "correct": ok, "attempted": r["runs"], "failed": r["failed_runs"],
            "metrics": {k: {"value": v[pick], "unit": v["unit"]} for k, v in r[kind].items()},
        }))
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
