"""In-process half of the benchmark: one child process per call.

    python3 perfbench/worker.py JOB.json

reads a job, runs it against the ``bourbaki`` package on ``PYTHONPATH`` and
prints one JSON object.  Jobs:

* ``deep-eval``: the four library operations per point, repeated in passes
  until the time budget is spent (at least one pass), then, outside the timed
  region, checks of every result by independent routes.
* ``replay``: CLI argv run in process through ``bourbaki.cli.run`` (and the
  in-process cover-area step), repeated in passes the same way.
* ``check-tables``: sampled rows and points of the tables outputs against
  ``eval_exact`` and ``eval_F_exact``.

With ``traced`` set, spans are recorded around the package's entry points
(see ``spans.py``) and the per-layer figures of each pass are returned.
Each pass also returns every operation's CPU time (``cpu``).  The
host-speed kernel (``speed.py``) is timed before every operation, and its
times are returned as ``kernel``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import re
import sys
import time
from fractions import Fraction

import bourbaki
from bourbaki import antiderivative, cli, function, geometry, render

import inputs
import spans
import speed

OPS = ("f", "fa", "F", "approx")
BRACKET_DEPTH = 80
F_TABLE_LEVEL = 8

_VALUE_RE = re.compile(r"(\d+)/(\d+) \(([0-9.]+)\)")


def _digest(value) -> str:
    if value is None:
        return "-"
    parts = value if isinstance(value, tuple) else (value,)
    text = ";".join(f"{hex(v.numerator)}/{hex(v.denominator)}" for v in parts)
    return hashlib.sha1(text.encode()).hexdigest()


def _run_op(kind: str, x: Fraction, a: Fraction, dec: str):
    """One operation as the CLI would run it: evaluate, then render.

    Returns (value, text, status); status is "" on success.
    """
    try:
        if kind == "f":
            value = function.eval_exact(x)
        elif kind == "fa":
            value = function.eval_exact(x, function.FamilyParam(a))
        elif kind == "F":
            value = antiderivative.eval_F_exact(x)
        else:
            value = function.approx_eval(dec, inputs.DEEP_TOL)
    except Exception as exc:  # a failed operation, counted and reported
        return None, None, f"eval {type(exc).__name__}: {exc}"
    try:
        if kind == "approx":
            text = (f"lower: {render.format_value(value[0])}\n"
                    f"upper: {render.format_value(value[1])}\n")
        else:
            text = render.format_value(value) + "\n"
    except Exception as exc:
        return value, None, f"render {type(exc).__name__}: {str(exc)[:80]}"
    return value, text, ""


def _passes(budget_s: float, one_pass) -> list:
    """Run ``one_pass`` until ``budget_s`` seconds have passed, at least once."""
    start = time.perf_counter()
    results = [one_pass()]
    while time.perf_counter() - start < budget_s:
        results.append(one_pass())
    return results


def _traced(job, one_pass):
    """One traced pass: (pass result, per-layer figures)."""
    tracer = spans.Tracer()
    uninstall = spans.install(tracer)
    try:
        result = one_pass(tracer)
    finally:
        uninstall()
    layers = spans.layer_metrics(tracer, result["wall_s"])
    if job.get("spans_out"):
        tracer.write(job["spans_out"])
    return result, layers


# ---------------------------------------------------------------- deep-eval


def _bracket_family(x: Fraction, a: Fraction, depth: int) -> tuple[Fraction, Fraction]:
    """Enclose f_a(x) between the endpoint values of the iterate segment that
    holds x.  Refinement puts new values a and 1 - a of the way along a
    segment, so every deeper value stays between the segment's endpoints."""
    x0, y0, x1, y1 = Fraction(0), Fraction(0), Fraction(1), Fraction(1)
    for _ in range(depth):
        w, dy = x1 - x0, y1 - y0
        c1, c2 = x0 + w / 3, x0 + 2 * w / 3
        v1, v2 = y0 + a * dy, y0 + (1 - a) * dy
        if x <= c1:
            x1, y1 = c1, v1
        elif x <= c2:
            x0, y0, x1, y1 = c1, v1, c2, v2
        else:
            x0, y0 = c2, v2
    return min(y0, y1), max(y0, y1)


def _check_text(text: str, value: Fraction) -> str:
    m = _VALUE_RE.fullmatch(text)
    if not m or Fraction(int(m.group(1)), int(m.group(2))) != value:
        return f"rendered {text[:60]!r} is not the value"
    shown = Fraction(m.group(3))
    if abs(shown - value) > abs(value) / 10**11 or (value == 0 and shown != 0):
        return f"decimal {m.group(3)} is not the value to 12 digits"
    return ""


def _check_op(kind, x, a, dec, value, text, symmetric, f_table) -> str:
    """Check one result by a route that does not share its code; "" if it holds."""
    if kind == "approx":
        lo, hi = value
        r = function.parse_decimal(dec)
        blo, bhi = function.bracket_value(r, BRACKET_DEPTH)
        if not lo <= hi or hi - lo > inputs.DEEP_TOL or max(lo, blo) > min(hi, bhi):
            return "enclosure misses the segment bracket"
        if text is not None:
            low_line, high_line = text.splitlines()
            return (_check_text(low_line[len("lower: "):], lo)
                    or _check_text(high_line[len("upper: "):], hi))
        return ""
    if kind == "f":
        lo, hi = function.bracket_value(x, BRACKET_DEPTH)
    elif kind == "fa":
        lo, hi = _bracket_family(x, a, BRACKET_DEPTH)
    else:
        # 0 <= f <= 1, so F(x) lies within x - k/3**L above the exact grid value
        # F(k/3**L) from the refinement table, and below the next grid value.
        scale = 3**F_TABLE_LEVEL
        k = int(x * scale)
        lo = f_table.y_at(k)
        hi = min(f_table.y_at(k + 1), lo + x - Fraction(k, scale))
    if not lo <= value <= hi:
        return "value outside its independent enclosure"
    if symmetric:
        if kind == "f" and function.eval_exact(1 - x) != 1 - value:
            return "f(x) + f(1-x) != 1"
        if kind == "fa" and function.eval_exact(1 - x, function.FamilyParam(a)) != 1 - value:
            return "f_a(x) + f_a(1-x) != 1"
        if kind == "F" and antiderivative.eval_F_exact(1 - x) - value != Fraction(1, 2) - x:
            return "F(1-x) - F(x) != 1/2 - x"
        if kind == "F" and antiderivative.eval_F_exact(x / 3) != Fraction(2, 9) * value:
            return "F(x/3) != (2/9) F(x)"
    if text is not None:
        return _check_text(text.rstrip("\n"), value)
    return ""


def deep_eval(job) -> dict:
    points = [(Fraction(p["x"]), Fraction(p["a"]), p["dec"], p["symmetry"])
              for p in job["points"]]
    ops = [(kind, x, a, dec, sym) for x, a, dec, sym in points for kind in OPS]
    first = []
    gauge = speed.Gauge()

    def one_pass(tracer=None):
        lat, cpu, vals = [], [], []
        for index, (kind, x, a, dec, _) in enumerate(ops):
            if tracer is not None:
                tracer.op = index
            gauge.sample()
            t0, c0 = time.perf_counter(), time.thread_time()
            value, text, status = _run_op(kind, x, a, dec)
            cpu.append(time.thread_time() - c0)
            lat.append(time.perf_counter() - t0)
            vals.append((value, text, status))
        if not first:
            first.extend(vals)
        return {
            "wall_s": sum(lat),
            "latencies": lat,
            "cpu": cpu,
            "status": [s for _, _, s in vals],
            "digests": [_digest(v) for v, _, _ in vals],
            "bytes": sum(len(t) for _, t, _ in vals if t is not None),
        }

    out = {}
    if job["traced"]:
        result, out["layers"] = _traced(job, one_pass)
        out["passes"] = [result]
    else:
        out["passes"] = _passes(job["budget_s"], one_pass)
    out["kernel"] = gauge.samples
    if job["check"]:
        f_table = antiderivative.build_F_iterate(F_TABLE_LEVEL)
        out["check_fail"] = {}
        for index, ((kind, x, a, dec, sym), (value, text, status)) in enumerate(zip(ops, first)):
            if value is not None:
                reason = _check_op(kind, x, a, dec, value, text, sym, f_table)
                if reason:
                    out["check_fail"][index] = reason
    return out


# ---------------------------------------------------------------- replay


def _replay_step(step):
    """Run one step in process; (exit code, stdout text)."""
    if step[0] == "cover":
        area = sum(r.area for r in geometry.cover_level(step[1]))
        return 0, f"{area.numerator}/{area.denominator}\n"
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.run(step)
    return code, stdout.getvalue()


def replay(job) -> dict:
    steps = job["steps"]
    gauge = speed.Gauge()

    def one_pass(tracer=None):
        lat, cpu, codes, texts = [], [], [], []
        for index, step in enumerate(steps):
            if tracer is not None:
                tracer.op = index
            gauge.sample()
            t0, c0 = time.perf_counter(), time.thread_time()
            code, text = _replay_step(step)
            cpu.append(time.thread_time() - c0)
            lat.append(time.perf_counter() - t0)
            codes.append(code)
            texts.append(text)
        return {"wall_s": sum(lat), "latencies": lat, "cpu": cpu, "codes": codes,
                "stdout": texts}

    out = {}
    if job["traced"]:
        result, out["layers"] = _traced(job, one_pass)
        out["passes"] = [result]
    else:
        out["passes"] = _passes(job["budget_s"], one_pass)
    out["kernel"] = gauge.samples
    return out


# ---------------------------------------------------------------- tables checks


def _svg_points(path: str) -> list[str]:
    with open(path, encoding="utf-8") as handle:
        text = handle.read()
    start = text.index('points="') + len('points="')
    return text[start:text.index('"', start)].split(" ")


def _svg_point_ok(point: str, x: Fraction, y: Fraction) -> bool:
    # The renderer maps the unit square to [2, 898] with y flipped and rounds
    # each coordinate to 6 decimals.
    px, py = (Fraction(c) for c in point.split(","))
    slack = Fraction(1, 2 * 10**6) + Fraction(1, 10**30)
    return abs(px - (2 + 896 * x)) <= slack and abs(py - (2 + 896 * (1 - y))) <= slack


def check_tables(job) -> dict:
    """Failure reasons keyed by step index; an empty dict when all hold."""
    fails = {}
    level = inputs.TABLES_F_LEVEL
    with open(job["csv"], encoding="utf-8") as handle:
        lines = handle.read().split("\n")
    if lines[0] != "x_num,x_den,y_num,y_den" or len(lines) != 3**level + 3 or lines[-1]:
        fails[0] = f"expected {3**level + 1} rows"
    else:
        for k in job["csv_rows"]:
            xn, xd, yn, yd = (int(c) for c in lines[1 + k].split(","))
            x = Fraction(k, 3**level)
            if Fraction(xn, xd) != x or Fraction(yn, yd) != function.eval_exact(x):
                fails[0] = f"row {k} differs from eval_exact"
                break
    for index, path, level, key, value in (
        (1, job["F_svg"], inputs.TABLES_FF_LEVEL, "F_points", antiderivative.eval_F_exact),
        (2, job["fa_svg"], inputs.TABLES_FA_LEVEL, "fa_points",
         lambda x: function.eval_exact(x, function.FamilyParam(Fraction(job["a"])))),
    ):
        points = _svg_points(path)
        if len(points) != 3**level + 1:
            fails[index] = f"expected {3**level + 1} points, got {len(points)}"
            continue
        for k in job[key]:
            x = Fraction(k, 3**level)
            if not _svg_point_ok(points[k], x, value(x)):
                fails[index] = f"point {k} differs from the exact value"
                break
    return {"check_fail": fails}


def main() -> int:
    src = os.path.join(os.getcwd(), "src")
    if not os.path.abspath(bourbaki.__file__).startswith(src + os.sep):
        print(f"bourbaki imported from {bourbaki.__file__}, not {src}", file=sys.stderr)
        return 2
    with open(sys.argv[1], encoding="utf-8") as handle:
        job = json.load(handle)
    run = {"deep-eval": deep_eval, "replay": replay, "check-tables": check_tables}[job["job"]]
    print(json.dumps(run(job)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
