"""Runs one plan against pwperiod in a fresh interpreter.

    python3 perfbench/worker.py PLAN.json RESULT.json [--setup-only] [--trace]

Set-up is the import of pwperiod, building the systems of the plan and, for
the warm ``clock_sweep``, one untimed operation per system.  The result
records ``time.monotonic()`` when set-up ended, so the caller can measure
set-up from the moment it started this interpreter.

``analyze_cold`` and ``series_deep`` run each operation in a child forked
after set-up, so every operation starts from the state of a freshly
imported package: no coefficient table, moment cache or garbage is left
over from an earlier one.  ``clock_sweep`` keeps one process warm.

With ``--trace`` the worker makes one untraced pass and then the same pass
under the tracer; comparing the two gives the tracing overhead.  Operations
marked untimed run in both passes but are never traced.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path
from time import perf_counter

from inputs import to_system


def _memory_kb(field: str = "VmHWM") -> int:
    """Peak (VmHWM) or current (VmRSS) resident set of this process, in KiB.

    VmHWM belongs to the address space, so it starts afresh at exec.
    ru_maxrss, the fallback, does not: Linux carries it over from the
    process that started this interpreter, here run.py.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith(field + ":"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def run_forked(fn, tracer=None) -> dict:
    """Run fn() in a forked child; return its record plus the parent's wall time.

    ``growth_kb`` is how far the child's resident set rose above what it
    had at the fork.  A fresh process that imported pwperiod and ran the
    operation would peak at about the parent's resident set plus that; the
    child's own VmHWM would not show it, since a fork does not carry over
    the parent's resident pages of shared libraries until they are touched.
    """
    read_fd, write_fd = os.pipe()
    start = perf_counter()
    pid = os.fork()
    if pid == 0:  # child
        code = 0
        try:
            os.close(read_fd)
            rss_at_fork = _memory_kb("VmRSS")
            try:
                record = fn()
            except Exception:
                record = {"error": traceback.format_exc()}
            record["growth_kb"] = _memory_kb() - rss_at_fork
            if tracer is not None:
                record["trace"] = tracer.summary()
            with os.fdopen(write_fd, "wb") as fh:
                fh.write(json.dumps(record).encode())
        except BaseException:
            code = 1
        finally:
            os._exit(code)
    os.close(write_fd)
    with os.fdopen(read_fd, "rb") as fh:
        data = fh.read()
    _, status = os.waitpid(pid, 0)
    wall = perf_counter() - start
    if not data:
        return {"error": f"child exited with status {status} and no result", "wall_s": wall}
    record = json.loads(data)
    record["wall_s"] = wall
    return record


def _trig(value) -> list[str]:
    return [str(value.rat_part), str(value.pi_part)]


class Workload:
    def __init__(self, plan: dict, root: Path):
        import pwperiod

        self.pw = pwperiod
        self.plan = plan
        self.root = root
        self.systems = {name: to_system(pwperiod, s) for name, s in plan["systems"].items()}

    def warm_up(self) -> None:
        pass

    def run_op(self, op: dict, tracer=None) -> dict:
        raise NotImplementedError


class AnalyzeCold(Workload):
    def _op(self, op: dict) -> dict:
        cli = self.pw.cli
        argv = [op["spec"], "--csv", op["csv"], "--no-timestamp", *op["args"]]
        out, err = io.StringIO(), io.StringIO()
        start = perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = cli.main(argv)
            except SystemExit as exc:
                rc = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
            except Exception:
                traceback.print_exc()  # what an uncaught exception prints; exit code 1
                rc = 1
        op_s = perf_counter() - start
        csv_path = self.root / op["csv"]
        csv = csv_path.read_text(encoding="utf-8") if rc == 0 and csv_path.exists() else None
        return {"rc": rc, "stdout": out.getvalue(), "stderr": err.getvalue(), "csv": csv, "op_s": op_s}

    def run_op(self, op: dict, tracer=None) -> dict:
        return run_forked(lambda: self._op(op), tracer)


class SeriesDeep(Workload):
    def _op(self, op: dict) -> dict:
        pw, system, order = self.pw, self.systems[op["system"]], op["order"]
        start = perf_counter()
        series = pw.combined_period_series(system, order).truncate(order)
        obstruction = pw.first_obstruction(system, order)
        op_s = perf_counter() - start
        return {"constant": _trig(series.constant),
                "terms": [[e, *_trig(c)] for e, c in series.items()],
                "truncation": series.truncation_order,
                "obstruction": None if obstruction is None else [obstruction[0], *_trig(obstruction[1])],
                "op_s": op_s}

    def run_op(self, op: dict, tracer=None) -> dict:
        return run_forked(lambda: self._op(op), tracer)


class ClockSweep(Workload):
    def _clocks(self, op: dict) -> dict:
        pw, system, r0 = self.pw, self.systems[op["system"]], op["r0"]
        start = perf_counter()
        ode = pw.numeric_period(system, r0)
        upper = pw.quadrature_period(system, "upper", r0)
        lower = pw.quadrature_period(system, "lower", r0)
        op_s = perf_counter() - start
        return {"ode": ode, "quad_upper": upper, "quad_lower": lower, "op_s": op_s}

    def warm_up(self) -> None:
        for op in self.plan["warmup"]:
            try:
                self._clocks(op)
            except Exception:
                pass  # the timed passes attempt and count every operation

    def run_op(self, op: dict, tracer=None) -> dict:
        start = perf_counter()
        try:
            record = self._clocks(op)
        except Exception:
            record = {"error": traceback.format_exc()}
        record["wall_s"] = perf_counter() - start
        if tracer is not None:
            record["trace"] = tracer.summary()
            tracer.reset()
        return record


WORKLOADS = {"analyze_cold": AnalyzeCold, "series_deep": SeriesDeep, "clock_sweep": ClockSweep}


def main(argv: list[str]) -> int:
    plan_path, result_path = Path(argv[0]), Path(argv[1])
    setup_only, trace = "--setup-only" in argv[2:], "--trace" in argv[2:]
    root = Path.cwd()
    sys.path.insert(0, str(root / "src"))
    plan = json.loads(plan_path.read_text(encoding="utf-8"))
    start = perf_counter()
    import pwperiod  # noqa: F401  (timed: the import is part of set-up)
    import_s = perf_counter() - start
    workload = WORKLOADS[plan["workload"]](plan, root)
    workload.warm_up()
    result = {"ready": time.monotonic(), "import_s": import_s}
    if not setup_only:
        result["passes"] = [[workload.run_op(op) for op in plan["ops"]]
                            for _ in range(1 if trace else plan["passes"])]
        result["peak_kb"] = _memory_kb()
        if trace:
            from tracing import Tracer

            tracer = Tracer()
            tracer.install()
            result["traced"] = [workload.run_op(op, tracer if op["timed"] else None)
                                for op in plan["ops"]]
    result_path.write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
