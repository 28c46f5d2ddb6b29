"""Benchmark of the bourbaki package and CLI.

    python3 perfbench/run.py --workload deep-eval|verify|tables \\
        --seed N --seconds S --trace 0|1

Run it from the root of a checkout: it puts ``src`` on ``PYTHONPATH`` and
refuses to run (exit 2, no result) when ``src/bourbaki`` is missing.  It is a
closed loop with one caller: this process starts one child at a time (the
CLI, ``python -c "import bourbaki"``, or ``worker.py`` for in-process work)
and waits for it.

The last line of stdout is the result, ``{"correct", "attempted", "failed",
"metrics"}``; the line before it holds the run's metadata.  With ``--trace
0`` the metrics are the end-to-end ones, measured untraced; with ``--trace
1`` they are the per-layer ones, from passes with spans around the package's
entry points, next to untraced passes of the same work.

End-to-end timings are CPU time of the worker thread that runs each
operation in process: deep-eval's library calls, and the CLI argv of verify
and tables replayed through ``bourbaki.cli.run``.  Interpreter start plus
``import bourbaki`` is timed apart, as ``setup_s``, from the CPU time of
child processes (user plus system time from wait4).  The CLI also runs once
per step as a subprocess, for its output and its peak RSS.  Every workload is
one single-threaded caller, so on an idle machine CPU time equals the wall
time a user waits, and unlike wall time it does not count the spells in
which the shared host gives the process no core.  Each operation's sample is its least CPU time over the run's repeats, scaled to a
fixed reference speed by a stdlib kernel timed between operations all
through the run (``speed.py``), because the host's cores change speed for
minutes at a time; the metadata line holds the run's scale factor.

``attempted`` counts each distinct operation of the workload once, however
often a run repeats it, and an operation counts as failed when any of its
repeats failed; so both are the same on every run with one seed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter
from decimal import Decimal
from fractions import Fraction

import inputs
import speed
import stats

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = ".perfbench_out"
HARD_LIMIT_S = 170.0
SETUP_SAMPLES = 3  # per call of setup_samples, each the least of SETUP_STARTS starts
SETUP_STARTS = 4


class Runner:
    """Starts children one at a time from the checkout root and times them."""

    def __init__(self, root: str):
        self.root = root
        self.out = os.path.join(root, OUT_DIR)
        self.started = time.perf_counter()
        self.gauge = speed.Gauge()
        env = dict(os.environ)
        src = os.path.join(root, "src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        self.env = env

    def elapsed(self) -> float:
        return time.perf_counter() - self.started

    def child(self, argv: list[str]) -> dict:
        """Run argv to completion: wall and CPU time, exit code, stdout, peak RSS (MB).

        The child's resources come from wait4, so the peak RSS is its own.  A
        child still running near the run's time limit is killed.  The
        host-speed kernel is timed before and after it.
        """
        self.gauge.sample()
        out_path = os.path.join(self.out, "child.stdout")
        err_path = os.path.join(self.out, "child.stderr")
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=out, stderr=err,
                                    env=self.env, cwd=self.root)
            timer = threading.Timer(max(1.0, HARD_LIMIT_S - self.elapsed()), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - t0
        self.gauge.sample()
        proc.returncode = os.waitstatus_to_exitcode(status)
        with open(out_path, encoding="utf-8") as handle:
            stdout = handle.read()
        with open(err_path, encoding="utf-8", errors="replace") as handle:
            stderr = handle.read()
        return {"wall": wall, "cpu": usage.ru_utime + usage.ru_stime, "code": proc.returncode,
                "stdout": stdout, "stderr": stderr, "rss_mb": usage.ru_maxrss / 1024.0}

    def cli(self, argv: list[str]) -> dict:
        return self.child([sys.executable, "-m", "bourbaki", *argv])

    def worker(self, job: dict) -> tuple[dict, dict]:
        """Run one worker job; (its result, the child record)."""
        path = os.path.join(self.out, "job.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(job, handle)
        rec = self.child([sys.executable, os.path.join(HERE, "worker.py"), path])
        if rec["code"] != 0:
            raise RuntimeError(f"worker {job['job']} exited {rec['code']}: {rec['stderr'][-400:]}")
        return json.loads(rec["stdout"].splitlines()[-1]), rec

    def setup_samples(self) -> list[float]:
        """CPU times to start the interpreter and import bourbaki.

        Each sample is the least of a few back-to-back starts, which filters
        out the host's short slow spells as the fastest repeat of an
        operation does.  One untimed start first, so byte-compiling the
        package is not counted.
        """
        argv = [sys.executable, "-c", "import bourbaki"]
        self.child(argv)
        samples = []
        for _ in range(SETUP_SAMPLES):
            starts = []
            for _ in range(SETUP_STARTS):
                rec = self.child(argv)
                if rec["code"] != 0:
                    raise RuntimeError(f"import bourbaki failed: {rec['stderr'][-400:]}")
                starts.append(rec["cpu"])
            samples.append(min(starts))
        return samples


def _sha1_file(path: str) -> str:
    with open(path, "rb") as handle:
        return hashlib.sha1(handle.read()).hexdigest()


def _fastest(passes: list[dict]) -> list[float]:
    """One sample per operation: its least CPU time over the run's passes."""
    return [min(col) for col in zip(*(p["cpu"] for p in passes))]


def _end_to_end(r: Runner, setup: list[float], samples: list[float], work: int,
                rss_mb: float, out_bytes: int, meta: dict) -> dict:
    """End-to-end figures from per-operation samples of one pass's worth of work,
    at the reference speed.

    ``setup`` holds interpreter starts taken before and after the workload, so
    a burst at one moment does not decide the median.
    """
    factor = r.gauge.factor()
    setup = [t * factor for t in setup]
    samples = [t * factor for t in samples]
    cpu = sum(samples)
    meta.update(speed_factor=factor, kernel_samples=len(r.gauge.samples))
    value, pct, n = stats.tail(samples)
    meta.update(op_tail_percentile=pct, op_samples=n, bytes_written=out_bytes,
                out_mb_per_s={"value": out_bytes / cpu / 1e6, "unit": "MB/s"})
    return {
        "setup_s": statistics.median(setup), "cpu_s": cpu, "ops_per_s": work / cpu,
        "op_p50_ms": 1000.0 * statistics.median(samples), "op_tail_ms": 1000.0 * value,
        "peak_rss_mb": rss_mb,
    }


def _layer_medians(layer_runs: list[dict]) -> dict:
    return {k: statistics.median([run[k] for run in layer_runs]) for k in layer_runs[0]}


# ---------------------------------------------------------------- deep-eval


def _deep_failures(passes: list[dict], check_fail: dict) -> tuple[int, int]:
    """(failed ops, ops with a wrong result), each op counted once.

    An op fails when it raised in any pass, or when its result failed a check
    or differed from the first pass.  Only the last two are wrong results.
    """
    first = passes[0]["digests"]
    failed = wrong = 0
    for i, digest in enumerate(first):
        bad = str(i) in check_fail or any(p["digests"][i] != digest for p in passes)
        wrong += bad
        failed += bad or any(p["status"][i] for p in passes)
    return failed, wrong


def run_deep_eval(r: Runner, seed: int, seconds: float, trace: bool, meta: dict) -> dict:
    points = inputs.deep_eval_points(seed)
    ops = len(points) * 4
    meta["inputs"] = {
        "points": len(points), "ops_per_pass": ops,
        "points_per_decade": inputs.DEEP_POINTS_PER_DECADE,
        "q_free_log10_range": inputs.DEEP_LOG10_RANGE,
        "max_preperiod": inputs.DEEP_MAX_PREPERIOD,
        "period_digits_max": max(p["period"] for p in points),
        "symmetry_points": sum(p["symmetry"] for p in points),
    }
    job = {"job": "deep-eval", "points": points, "traced": False, "check": True}
    if not trace:
        setup = r.setup_samples()
        res, rec = r.worker({**job, "budget_s": seconds})
        r.gauge.samples += res["kernel"]
        passes = res["passes"]
        failed, wrong = _deep_failures(passes, res["check_fail"])
        meta.update(passes=len(passes), failure_kinds=_kinds(passes[0]["status"]),
                    check_fail=res["check_fail"])
        metrics = _end_to_end(r, setup + r.setup_samples(), _fastest(passes), ops,
                              rec["rss_mb"], passes[0]["bytes"], meta)
        return {"correct": wrong == 0, "attempted": ops, "failed": failed, "metrics": metrics}
    untraced, traced, layer_runs, check_fail = [], [], [], None
    while not traced or r.elapsed() < seconds:
        res, _ = r.worker({**job, "budget_s": 0, "check": check_fail is None})
        check_fail = res["check_fail"] if check_fail is None else check_fail
        untraced += res["passes"]
        res, _ = r.worker({**job, "traced": True, "check": False, "budget_s": 0,
                           "spans_out": os.path.join(r.out, "spans-deep-eval.jsonl")})
        traced += res["passes"]
        layer_runs.append(res["layers"])
    passes = untraced + traced
    failed, wrong = _deep_failures(passes, check_fail)
    metrics = _trace_metrics(layer_runs, untraced, traced, cli_s=0.0, cli_bad=0)
    meta.update(passes=len(passes), failure_kinds=_kinds(passes[0]["status"]))
    return {"correct": wrong == 0, "attempted": ops, "failed": failed, "metrics": metrics}


def _kinds(status: list[str]) -> dict:
    return dict(Counter(s.split(":")[0] for s in status if s))


def _trace_metrics(layer_runs, untraced, traced, cli_s: float, cli_bad: int) -> dict:
    metrics = _layer_medians(layer_runs)
    untraced_s = statistics.median(p["wall_s"] for p in untraced)
    traced_s = statistics.median(p["wall_s"] for p in traced)
    metrics.update({
        "cli.process_s": cli_s, "cli.nonzero_exits": cli_bad, "traced_s": traced_s,
        "untraced_s": untraced_s, "tracing_overhead_s": traced_s - untraced_s,
    })
    return metrics


# ---------------------------------------------------------------- verify


def _verify_outcome(code: int, stdout: str) -> tuple[int, int, bool]:
    """(checks attempted, checks failed, output well formed) of one verify call.

    Every call runs the same fixed case stream, so a run reports the checks of
    one call and the most that failed in any call.
    """
    try:
        report = json.loads(stdout)
        cases, failures = int(report["cases"]), len(report["failures"])
    except (ValueError, KeyError, TypeError):
        return 1, 1, False
    if code != 0:
        return cases, max(failures, 1), False
    return cases, failures, failures == 0


def _replays(r: Runner, job: dict, seconds: float, trace: bool) -> tuple[list, list, list]:
    """In-process replays of ``job``: (untraced passes, traced passes, per-layer
    figures of each traced pass).

    Untraced, one worker repeats the job for ``seconds`` and its kernel times
    join the run's gauge.  Traced, untraced and traced workers alternate until
    ``seconds`` have passed since the run began.
    """
    if not trace:
        res, _ = r.worker({**job, "traced": False, "budget_s": seconds})
        r.gauge.samples += res["kernel"]
        return res["passes"], [], []
    untraced, traced, layer_runs = [], [], []
    while not traced or r.elapsed() < seconds:
        for traced_flag, sink in ((False, untraced), (True, traced)):
            res, _ = r.worker({**job, "traced": traced_flag, "budget_s": 0})
            sink += res["passes"]
            if traced_flag:
                layer_runs.append(res["layers"])
    return untraced, traced, layer_runs


def run_verify(r: Runner, seed: int, seconds: float, trace: bool, meta: dict) -> dict:
    argv = ["verify", "--suite", "all", "--seed", str(inputs.VERIFY_SEED),
            "--cases", str(inputs.VERIFY_CASES)]
    meta["inputs"] = {"cases": inputs.VERIFY_CASES, "argv": argv}
    setup = [] if trace else r.setup_samples()
    rec = r.cli(argv)
    attempted, failed, correct = _verify_outcome(rec["code"], rec["stdout"])
    job = {"job": "replay", "steps": [argv],
           "spans_out": os.path.join(r.out, "spans-verify.jsonl")}
    untraced, traced, layer_runs = _replays(r, job, seconds, trace)
    for p in untraced + traced:
        cases, bad, ok = _verify_outcome(p["codes"][0], p["stdout"][0])
        attempted, failed = max(attempted, cases), max(failed, bad)
        correct = correct and ok and p["stdout"][0] == rec["stdout"]
    meta.update(passes=1 + len(untraced) + len(traced), checks_per_call=attempted)
    if trace:
        metrics = _trace_metrics(layer_runs, untraced, traced, rec["wall"], int(rec["code"] != 0))
    else:
        metrics = _end_to_end(r, setup + r.setup_samples(), _fastest(untraced), attempted,
                              rec["rss_mb"], len(rec["stdout"]), meta)
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


# ---------------------------------------------------------------- tables


def _check_tables_stdout(stdout: list[str], cover: str) -> dict:
    """Failure reasons by step index for the arclength, boxdim and cover steps."""
    fails = {}
    try:
        lines = stdout[3].split("\n")
        lengths = [Decimal(line.split(" ")[1]) for line in lines[:-1]]
        if (len(lengths) != inputs.TABLES_ARC_LEVEL + 1 or lines[-1]
                or not all(x < y for x, y in zip(lengths, lengths[1:]))
                or not Decimal(5).sqrt() / 2 <= lengths[0] or not lengths[-1] < Decimal("1.5")):
            fails[3] = "arc lengths not increasing within [sqrt(5)/2, 3/2)"
    except (IndexError, ArithmeticError, ValueError):
        fails[3] = "malformed arclength output"
    try:
        report = json.loads(stdout[4])
        levels = report["levels"]
        if ([(e["level"], e["delta"], e["count"]) for e in levels]
                != [(i, f"1/{3**i}", 5**i) for i in range(inputs.TABLES_BOX_LEVEL + 1)]
                or report["estimate"] != "1.46497352072"):
            fails[4] = "box counts are not 5^i"
    except (ValueError, KeyError, TypeError):
        fails[4] = "malformed boxdim output"
    if Fraction(cover.strip() or "0") != Fraction(5, 9) ** inputs.TABLES_COVER_LEVEL:
        fails[5] = f"cover area is not (5/9)^{inputs.TABLES_COVER_LEVEL}"
    return fails


def run_tables(r: Runner, seed: int, seconds: float, trace: bool, meta: dict) -> dict:
    plan = inputs.tables_plan(seed)
    steps = inputs.tables_steps(OUT_DIR, plan["a"])
    files = {0: steps[0][-1], 1: steps[1][-1], 2: steps[2][-1]}
    cover_step = ["cover", inputs.TABLES_COVER_LEVEL]
    meta["inputs"] = {
        "a": plan["a"], "steps": steps + [cover_step],
        "levels": {"f_csv": inputs.TABLES_F_LEVEL, "F_svg": inputs.TABLES_FF_LEVEL,
                   "fa_svg": inputs.TABLES_FA_LEVEL, "arclength": inputs.TABLES_ARC_LEVEL,
                   "boxdim": inputs.TABLES_BOX_LEVEL, "cover": inputs.TABLES_COVER_LEVEL},
    }
    nsteps = len(steps) + 1

    def outputs(stdout: list[str]) -> list[str]:
        """Per step, a digest of what it wrote: its file, else its stdout."""
        return [_sha1_file(os.path.join(r.root, files[i])) if i in files
                else hashlib.sha1(s.encode()).hexdigest() for i, s in enumerate(stdout)]

    def subprocess_pass() -> dict:
        recs = [r.cli(argv) for argv in steps]
        res, rec = r.worker({"job": "replay", "steps": [cover_step], "traced": False,
                             "budget_s": 0})
        cover = res["passes"][0]
        stdout = [x["stdout"] for x in recs] + [cover["stdout"][0]]
        return {
            "latencies": [x["wall"] for x in recs] + [cover["latencies"][0]],
            "codes": [x["code"] for x in recs] + [cover["codes"][0]],
            "stdout": stdout, "outputs": outputs(stdout),
            "rss_mb": max([x["rss_mb"] for x in recs] + [rec["rss_mb"]]),
            "bytes": sum(os.path.getsize(os.path.join(r.root, p)) for p in files.values())
            + sum(len(s) for s in stdout[3:5]),
        }

    def tally(passes: list[dict]) -> tuple[int, bool]:
        """(failed steps, all correct) after checking the last outputs.

        A step fails when it failed a check, exited nonzero or wrote something
        else than its last repeat, in any pass.
        """
        last = passes[-1]
        fails = _check_tables_stdout(last["stdout"], last["stdout"][5])
        res, _ = r.worker({"job": "check-tables", "csv": files[0], "F_svg": files[1],
                           "fa_svg": files[2], "a": plan["a"], "csv_rows": plan["csv_rows"],
                           "F_points": plan["F_points"], "fa_points": plan["fa_points"]})
        fails.update({int(k): v for k, v in res["check_fail"].items()})
        meta["check_fail"] = fails
        failed, correct = 0, not fails
        for i in range(nsteps):
            same = all(p["outputs"][i] == last["outputs"][i] for p in passes)
            correct = correct and same
            failed += i in fails or not same or any(p["codes"][i] != 0 for p in passes)
        return failed, correct

    setup = [] if trace else r.setup_samples()
    first = subprocess_pass()
    job = {"job": "replay", "steps": steps + [cover_step],
           "spans_out": os.path.join(r.out, "spans-tables.jsonl")}
    untraced, traced, layer_runs = _replays(r, job, seconds, trace)
    for p in untraced + traced:
        p["outputs"] = outputs(p["stdout"])
    failed, correct = tally([first] + untraced + traced)
    meta.update(passes=1 + len(untraced) + len(traced))
    if trace:
        metrics = _trace_metrics(layer_runs, untraced, traced, sum(first["latencies"][:-1]),
                                 sum(c != 0 for c in first["codes"][:-1]))
    else:
        metrics = _end_to_end(r, setup + r.setup_samples(), _fastest(untraced), nsteps,
                              first["rss_mb"], first["bytes"], meta)
    return {"correct": correct, "attempted": nsteps, "failed": failed, "metrics": metrics}


# ---------------------------------------------------------------- main

RUNNERS = {"deep-eval": run_deep_eval, "verify": run_verify, "tables": run_tables}


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine()


def _spec() -> dict:
    with open(os.path.join(HERE, os.pardir, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(RUNNERS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "bourbaki", "__init__.py")):
        print("perfbench: run from a checkout root that holds src/bourbaki", file=sys.stderr)
        return 2
    r = Runner(root)
    os.makedirs(r.out, exist_ok=True)
    spec = _spec()
    why = next(w["why"] for w in spec["workloads"] if w["name"] == args.workload)
    meta = {
        "workload": args.workload, "why": why, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(), "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
    }
    try:
        result = RUNNERS[args.workload](r, args.seed, args.seconds, bool(args.trace), meta)
    except RuntimeError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        for name in os.listdir(r.out):
            if not name.startswith("spans-"):
                os.remove(os.path.join(r.out, name))
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    meta["failed_share"] = {"value": stats.failed_share(result["failed"], result["attempted"]),
                            "unit": "share"}
    meta["elapsed_s"] = r.elapsed()
    print(json.dumps({"meta": meta}))
    result["metrics"] = {m: {"value": result["metrics"][m], "unit": unit}
                         for m, unit in wanted.items()}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
