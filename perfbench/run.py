"""zetalab benchmark harness.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]
    python3 perfbench/run.py --record

Run from anywhere; the checkout is the directory above this file, and the
program is imported from its src/. Each repetition is a fresh worker
process (perfbench/worker.py) that runs one zetalab command through
zetalab.cli.main with OMP/OpenBLAS/MKL threads at 1 and zetalab's default
--threads 1. Repetitions are closed-loop: the next starts when the last
has ended, until --seconds have passed (at least MIN_REPS of them).

--trace 0 reports the end-to-end metrics; --trace 1 alternates untraced
and traced repetitions and reports the per-layer metrics. Every
repetition's outputs are checked against reference.json. The last line of
stdout is the JSON result; the line before it records the environment.
Details go to .perfbench_out/ in the checkout.

The workload inputs are fixed by the paper's criteria; --seed is accepted
and recorded but changes nothing. --record re-writes reference.json from
the current program (full and smoke sizes).
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

MIN_REPS = 2
SETUP_PROBES = 5
# Median time of calibrate.calibration_s() on the machine this benchmark was
# defined on (2-core Intel Xeon, numpy 2.4.6). Times are reported at that
# speed: scaled by CAL_REF_S / (median of all calibrations in the run).
CAL_REF_S = 0.0596
DEADLINE_S = 170.0
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


class HarnessError(Exception):
    """The benchmark cannot run here; no result is printed."""


def child_env() -> dict:
    env = dict(os.environ)
    env.update({k: "1" for k in THREAD_ENV})
    env["PYTHONPATH"] = str(SRC)
    return env


class Runner:
    """Starts worker processes under one deadline and one scratch directory."""

    def __init__(self, work: Path, deadline: float):
        self.work = work
        self.deadline = deadline
        self.count = 0

    def rep(self, argv_for=None, trace: bool = False):
        """One worker run; returns (result dict or None, its directory)."""
        self.count += 1
        tmp = self.work / f"rep{self.count}"
        tmp.mkdir()
        cmd = [sys.executable, str(HERE / "worker.py"), str(tmp / "result.json"),
               str(SRC), "1" if trace else "0"]
        if argv_for is not None:
            cmd += ["--", *argv_for(str(tmp))]
        left = self.deadline - time.monotonic()
        if left <= 0:
            raise HarnessError("out of time before the run finished")
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True,
                                  text=True, timeout=left)
        except subprocess.TimeoutExpired:
            raise HarnessError(f"worker exceeded the {DEADLINE_S:.0f} s deadline")
        if proc.returncode != 0 or not (tmp / "result.json").is_file():
            sys.stderr.write(proc.stderr)
            return None, tmp
        with open(tmp / "result.json") as fh:
            return json.load(fh), tmp


def check_rep(workload: str, ref: dict, res, tmp: Path) -> list[str]:
    """Failed check names of one repetition; a crash fails them all."""
    if res is None or res.get("error") or res.get("rc") != ref["exit_code"]:
        return list(ref)
    try:
        got = workloads.extract(workload, str(tmp), res["stdout"])
    except (OSError, ValueError, KeyError):
        return list(ref)
    got["exit_code"] = res["rc"]
    return workloads.compare(ref, got)


def environment(versions: dict) -> dict:
    env = dict(versions)
    env["nproc"] = os.cpu_count()
    env["affinity_cpus"] = len(os.sched_getaffinity(0))
    env["cpu_model"] = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    env["cpu_model"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    caches = []
    for idx in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            caches.append("L{} {} {}".format(*((idx / f).read_text().strip()
                                                for f in ("level", "type", "size"))))
        except OSError:
            pass
    env["caches"] = caches
    env["thread_env"] = {k: "1" for k in THREAD_ENV}
    return env


def quartiles(values: list[float]) -> list[float]:
    return statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3


def layer_metrics(summary: dict, wall_s: float) -> dict:
    """Per-layer metrics of one traced repetition (see README.md)."""
    groups = summary["groups"]

    def g(group: str, key: str):
        return groups.get(group, {}).get(key, 0 if key.endswith("calls") else 0.0)

    n_sieved = summary["n_sieved"]
    busy = g("sieve", "busy_s")
    cells = summary["cells"]
    integrals_self = g("integrals", "self_s")
    m = {
        "liouville.passes": summary["passes"],
        "liouville.n_sieved": n_sieved,
        "liouville.useful_ratio": summary["distinct_needed"] / n_sieved if n_sieved else 0.0,
        "liouville.busy_s": busy,
        "liouville.n_per_s": n_sieved / busy if busy else 0.0,
        "liouville.scan_self_s": g("scan", "self_s"),
        "liouville.checkpoint_writes": g("checkpoint", "all_calls"),
        "liouville.checkpoint_s": g("checkpoint", "busy_s"),
        "compensated.calls": g("compensated", "calls"),
        "compensated.busy_s": g("compensated", "busy_s"),
        "integrals.integrations": summary["integrations"],
        "integrals.cells": cells,
        "integrals.self_s": integrals_self,
        "integrals.cells_per_s": cells / integrals_self if integrals_self else 0.0,
        "zeta.evals": summary["zeta_evals"],
        "zeta.busy_s": g("zeta", "busy_s"),
        "zeta.series_terms": summary["series_terms"],
        "zeta.series_self_s": g("series", "self_s"),
        "sums.calls": g("sums", "calls"),
        "sums.self_s": g("sums", "self_s"),
        "verify.cases": summary["cases"],
        "verify.self_s": g("verify", "self_s"),
        "cli.self_s": g("cli", "self_s"),
        "trace.wall_s": wall_s,
    }
    for name in [k for k in m if k.endswith(("self_s", "busy_s"))]:
        m[name + "_share"] = m[name] / wall_s
    return m


def load_units() -> dict:
    """Metric name -> unit, as BENCHMARK.json declares them."""
    try:
        with open(ROOT / "BENCHMARK.json") as fh:
            spec = json.load(fh)
    except (OSError, ValueError) as exc:
        raise HarnessError(f"cannot read BENCHMARK.json: {exc}")
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def measure(args, runner: Runner, ref: dict, start: float):
    """Run the repetitions; returns (metrics, info, checks attempted, checks failed)."""
    argv_for = lambda tmp: workloads.command(args.workload, args.smoke, tmp)
    warm, _ = runner.rep()  # fills bytecode caches; users pay this once
    if warm is None:
        raise HarnessError("cannot import zetalab.cli from the checkout's src/")

    attempted, failed_names, plain, traced, probes = 0, [], [], [], []
    if not args.trace:
        for _ in range(SETUP_PROBES):
            res, _ = runner.rep()
            if res is None:
                raise HarnessError("set-up probe failed")
            probes.append(res)

    def one(trace: bool):
        nonlocal attempted
        res, tmp = runner.rep(argv_for, trace=trace)
        attempted += len(ref)
        failed_names.extend(check_rep(args.workload, ref, res, tmp))
        if res is not None:
            (traced if trace else plain).append(res)
            if trace and "trace" in res:
                shutil.copy(tmp / "spans.jsonl", OUT / f"{args.workload}.spans.jsonl")
        shutil.rmtree(tmp)

    reps = 0
    while reps < MIN_REPS or time.monotonic() - start < args.seconds:
        reps += 1
        one(False)
        if args.trace:
            one(True)
    if not plain or (args.trace and not traced):
        raise HarnessError("no repetition produced a measurement")

    cal = [r["cal_s"] for r in probes + plain + traced]
    speed = CAL_REF_S / statistics.median(cal)
    walls = [r["wall_s"] * speed for r in plain]
    info = {
        "reps": len(plain),
        "wall_s_samples": walls,
        "wall_s_quartiles": quartiles(walls),
        "raw_wall_s_samples": [r["wall_s"] for r in plain],
        "cal_s_samples": cal,
        "speed_factor": speed,
        "checks_failed": sorted(set(failed_names)),
    }
    if args.trace:
        per_rep = [layer_metrics(r["trace"], r["wall_s"]) for r in traced]
        timed = [k for k in per_rep[0] if k.endswith(("_s", "_share", "_per_s"))]
        metrics = dict(per_rep[0])
        metrics.update({k: statistics.median(m[k] for m in per_rep) for k in timed})
        info["counts_repeat"] = all(m[k] == metrics[k] for m in per_rep for k in m if k not in timed)
        traced_wall = statistics.median(r["wall_s"] * speed for r in traced)
        metrics["trace.overhead_frac"] = traced_wall / statistics.median(walls) - 1.0
        info["traced_reps"] = len(traced)
    else:
        setup = [r["setup_s"] * speed for r in probes + plain]
        info["setup_s_samples"] = setup
        info["raw_setup_s_samples"] = [r["setup_s"] for r in probes + plain]
        metrics = {
            "wall_s": statistics.median(walls),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
            "ops_ok_frac": 1.0 - len(failed_names) / attempted,
        }
    info["env"] = environment(warm["versions"])
    return metrics, info, attempted, len(failed_names)


def record(runner: Runner) -> None:
    """Write reference.json from one run of each workload at both sizes."""
    ref = {"full": {}, "smoke": {}}
    for size, smoke in (("full", False), ("smoke", True)):
        for name in workloads.WORKLOADS:
            res, tmp = runner.rep(lambda t: workloads.command(name, smoke, t))
            if res is None or res["error"]:
                raise HarnessError(f"{name} ({size}) failed: {res and res['error']}")
            got = workloads.extract(name, str(tmp), res["stdout"])
            got["exit_code"] = res["rc"]
            ref[size][name] = got
            print(f"recorded {name} ({size}): {len(got)} checks, {res['wall_s']:.2f} s")
    with open(workloads.REFERENCE, "w") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=45.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="small inputs, for testing the harness")
    p.add_argument("--record", action="store_true", help="re-record reference.json")
    args = p.parse_args()
    if not args.record and args.workload is None:
        p.error("--workload is required")

    start = time.monotonic()
    try:
        units = load_units()
        if not (SRC / "zetalab" / "cli.py").is_file():
            raise HarnessError(f"no zetalab source under {SRC}")
        OUT.mkdir(exist_ok=True)
        work = OUT / f"work-{os.getpid()}"
        work.mkdir()
        try:
            runner = Runner(work, start + (3600.0 if args.record else DEADLINE_S))
            if args.record:
                record(runner)
                return 0
            ref = workloads.load_reference(args.workload, args.smoke)
            metrics, info, attempted, failed = measure(args, runner, ref, start)
            undeclared = sorted(set(metrics) - set(units))
            if undeclared:
                raise HarnessError(f"metrics missing from BENCHMARK.json: {undeclared}")
        finally:
            shutil.rmtree(work, ignore_errors=True)
    except HarnessError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    info.update(workload=args.workload, seed=args.seed, seconds=args.seconds,
                trace=args.trace, smoke=args.smoke, elapsed_s=time.monotonic() - start)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    with open(OUT / f"{args.workload}.json", "w") as fh:
        json.dump({"info": info, "result": result}, fh, indent=1)
    print("perfbench-info: " + json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
