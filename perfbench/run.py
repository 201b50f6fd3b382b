"""Benchmark for pwperiod: one workload, one run, one JSON line.

    python3 perfbench/run.py --workload analyze_cold --seed 1 --seconds 25 --trace 0

Run from the repository root.  The run builds the seeded input list, times
set-up in fresh interpreters, runs the timed passes in a worker process
(one client, one operation at a time), checks every output against values
computed apart from pwperiod, and prints as its last line

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
the worker adds one traced pass and the metrics are the per-layer ones.
Scratch files go to perfbench/out/.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import inputs  # noqa: E402

SETUP_PROBES = 2        # fresh set-ups besides the worker's own; setup_s is their median
SETUP_ALLOWANCE_S = 60  # all set-ups of a run, clock_sweep's warm-up included
SLOWDOWN_ALLOWANCE = 2  # a pass may take this many times inputs.PASS_SECONDS


def run_deadline_s(plan: dict, trace: bool) -> float:
    """Seconds the whole run may take before its worker counts as hung.

    A traced run makes one untraced and one traced pass.
    """
    passes = 2 if trace else plan["passes"]
    return SETUP_ALLOWANCE_S + SLOWDOWN_ALLOWANCE * passes * inputs.PASS_SECONDS[plan["workload"]]


def run_worker(plan_path: Path, result_path: Path, flags: list[str], deadline: float) -> dict:
    """Start a worker interpreter; return its result with set-up seconds added."""
    result_path.unlink(missing_ok=True)
    start = time.monotonic()
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), str(plan_path),
                             str(result_path), *flags], start_new_session=True)
    try:
        code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except BaseException as exc:  # timeout, interrupt, or SIGTERM (see main)
        os.killpg(proc.pid, signal.SIGKILL)  # the worker and any child it forked
        proc.wait()
        if isinstance(exc, subprocess.TimeoutExpired):
            raise RuntimeError("worker did not finish in time") from exc
        raise
    if code != 0:
        raise RuntimeError(f"worker exited with code {code}")
    result = json.loads(result_path.read_text(encoding="utf-8"))
    result["setup_s"] = result["ready"] - start
    return result


def timed_successes(workload: str, plan: dict, records: list[dict]) -> list[dict]:
    return [r for op, r in zip(plan["ops"], records)
            if op["timed"] and not checks.operation_failed(workload, op, r)]


def end_to_end_metrics(workload: str, plan: dict, result: dict, setups: list[float]) -> dict:
    """The operation metrics are left out when no timed operation succeeded."""
    done = [r for records in result["passes"] for r in timed_successes(workload, plan, records)]
    growth_kb = [r.get("growth_kb", 0) for records in result["passes"] for r in records]
    metrics = {"setup_s": {"value": statistics.median(setups), "unit": "s"}}
    if done:
        metrics["op_p50_s"] = {"value": statistics.median(r["op_s"] for r in done), "unit": "s"}
        metrics["ops_per_s"] = {"value": len(done) / sum(r["wall_s"] for r in done), "unit": "1/s"}
    metrics["peak_rss_mb"] = {"value": (result["peak_kb"] + max(growth_kb)) / 1024.0, "unit": "MB"}
    return metrics


# per-layer metric -> (unit, how to read it from the merged trace summary)
def _calls(*names):
    return lambda s: sum(s["spans"].get(n, (0, 0.0))[0] for n in names)


def _self(*names):
    return lambda s: sum(s["spans"].get(n, (0, 0.0))[1] for n in names)


def _count(name):
    return lambda s: s["counts"].get(name, 0)


QUADRATURE = ("flow.quadrature_period", "flow.smooth_period")
PER_OP_LAYER_METRICS = {
    "systems.annulus_bound.calls": ("count", _calls("systems.annulus_bound")),
    "systems.annulus_bound.self_s": ("s", _self("systems.annulus_bound")),
    "systems.start_radius_cap.calls": ("count", _calls("systems.start_radius_cap")),
    "systems.start_radius_cap.self_s": ("s", _self("systems.start_radius_cap")),
    "trigmoments.profile.calls": ("count", _count("trigmoments.profile.calls")),
    "flow.half_orbit.calls": ("count", _calls("flow.half_orbit")),
    "flow.half_orbit.self_s": ("s", _self("flow.half_orbit")),
    "flow.half_orbit.steps": ("count", _count("flow.half_orbit.steps")),
    "flow.half_orbit.degraded": ("count", _count("flow.half_orbit.degraded")),
    "flow.solve_ivp.nfev": ("count", _count("flow.solve_ivp.nfev")),
    "flow.quadrature.calls": ("count", _calls(*QUADRATURE)),
    "flow.quadrature.self_s": ("s", _self(*QUADRATURE)),
    "flow.brentq.calls": ("count", _count("flow.brentq.calls")),
    "flow.quad.calls": ("count", _count("flow.quad.calls")),
    "analysis.find_witness.self_s": ("s", _self("analysis.find_witness")),
    "analysis.find_witness.evaluations": ("count", _count("analysis.find_witness.evaluations")),
    "analysis.monotonicity_profile.self_s": ("s", _self("analysis.monotonicity_profile")),
    "analysis.predicted_profiles.self_s": ("s", _self("analysis.predicted_profiles")),
    "reversion.build_coefficient_table.calls": ("count", _calls("reversion.build_coefficient_table")),
    "reversion.build_coefficient_table.self_s": ("s", _self("reversion.build_coefficient_table")),
    "periodseries.combined_period_series.calls": ("count", _calls("periodseries.combined_period_series")),
    "periodseries.combined_period_series.self_s": ("s", _self("periodseries.combined_period_series")),
    "trigmoments.profile_power_integral.self_s": ("s", _self("trigmoments.profile_power_integral")),
    "cli.parse_spec.self_s": ("s", _self("cli.parse_spec")),
    "cli.run_report.self_s": ("s", _self("cli.run_report")),
    "cli.render_report.self_s": ("s", _self("cli.render_report")),
    "cli.write_csv.self_s": ("s", _self("cli.write_csv")),
}


def per_layer_metrics(workload: str, plan: dict, result: dict) -> tuple[dict, str]:
    """Per-operation means over the traced pass, and a one-line digest.

    Only the import time is reported when no traced operation succeeded.
    """
    from tracing import merge

    traced = timed_successes(workload, plan, result["traced"])
    first = timed_successes(workload, plan, result["passes"][0])
    n = len(traced)
    if not n or not first:
        return ({"setup.import_s": {"value": result["import_s"], "unit": "s"}},
                "trace: no timed operation succeeded")
    summary = merge(r["trace"] for r in traced)
    metrics = {name: {"value": read(summary) / n, "unit": unit}
               for name, (unit, read) in PER_OP_LAYER_METRICS.items()}
    metrics["flow.half_orbit.max_energy_drift"] = {
        "value": summary["maxima"].get("flow.half_orbit.max_energy_drift", 0.0), "unit": "ratio"}
    traced_s = sum(r["op_s"] for r in traced)
    untraced_s = sum(r["op_s"] for r in first)
    metrics["setup.import_s"] = {"value": result["import_s"], "unit": "s"}
    metrics["trace.op_mean_s"] = {"value": traced_s / n, "unit": "s"}
    metrics["trace.overhead_pct"] = {"value": 100.0 * (traced_s / untraced_s - 1.0), "unit": "%"}
    top = sorted(summary["spans"].items(), key=lambda kv: -kv[1][1])[:5]
    digest = ", ".join(f"{name} {100.0 * self_s / traced_s:.1f}%" for name, (_, self_s) in top)
    line = (f"trace: {n} ops, traced {traced_s:.3f} s vs untraced {untraced_s:.3f} s "
            f"(overhead {metrics['trace.overhead_pct']['value']:.1f}%); "
            f"largest self times: {digest}")
    return metrics, line


def check_outputs(workload: str, plan: dict, result: dict) -> list[str]:
    passes = result["passes"]
    if workload == "analyze_cold":
        problems = checks.check_analyze_records(plan, passes)
    elif workload == "series_deep":
        import pwperiod

        problems = []
        for i, (op, record) in enumerate(zip(plan["ops"], passes[0])):
            if "error" not in record:
                problems += checks.check_series_op(plan["systems"][op["system"]], op, record)
            if any(_strip(again[i]) != _strip(record) for again in passes[1:]):
                problems.append(f"{op['system']}: series output changed between passes")
        jmax = max(op["order"] for op in plan["ops"])
        for n in sorted({len(s[side]) - 2 for s in plan["systems"].values() for side in ("upper", "lower")}):
            problems += checks.check_period_coefficients(n, jmax, pwperiod.reversion_oracle(jmax, n))
    else:
        import pwperiod

        def classify(system):
            verdict = pwperiod.classify(inputs.to_system(pwperiod, system))
            return verdict.verdict, verdict.case_tag

        problems = checks.check_case_labels(plan, classify)
        problems += checks.check_clock_records(plan, passes)
    if result.get("traced"):
        problems += _traced_outputs_match(workload, plan, result)
    return problems


_TIMING_KEYS = ("op_s", "wall_s", "growth_kb", "trace")


def _strip(record: dict) -> dict:
    return {k: v for k, v in record.items() if k not in _TIMING_KEYS}


def _traced_outputs_match(workload: str, plan: dict, result: dict) -> list[str]:
    """The tracer must not change what the program returns.

    Failed operations are skipped: their tracebacks show the tracer's frames.
    """
    problems = []
    for op, plain, traced in zip(plan["ops"], result["passes"][0], result["traced"]):
        if any(checks.operation_failed(workload, op, r) for r in (plain, traced)):
            continue
        if _strip(plain) != _strip(traced):
            problems.append(f"{op['system']}: traced output differs from the untraced one")
    return problems


def result_line(workload: str, plan: dict, result: dict, setups: list[float],
                trace: bool) -> tuple[dict, list[str]]:
    """The run's JSON result and the human-readable lines printed before it."""
    attempted = failed = 0
    for records in result["passes"] + [result.get("traced") or []]:
        for op, record in zip(plan["ops"], records):
            attempted += 1
            failed += checks.operation_failed(workload, op, record)
    problems = check_outputs(workload, plan, result)
    if not timed_successes(workload, plan, result["passes"][0]):
        problems.append("no timed operation succeeded")
    printed = [f"wrong: {problem}" for problem in problems]
    if trace:
        metrics, digest = per_layer_metrics(workload, plan, result)
        printed.append(digest)
    else:
        metrics = end_to_end_metrics(workload, plan, result, setups)
    printed += [f"{name}: {m['value']:.6g} {m['unit']}" for name, m in metrics.items()]
    printed.append(f"attempted {attempted}, failed {failed}")
    return ({"correct": not problems, "attempted": attempted, "failed": failed,
             "metrics": metrics}, printed)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.monotonic()
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    root = Path.cwd()
    if not (root / "src" / "pwperiod" / "__init__.py").is_file() or \
            not (root / "tests" / "conftest.py").is_file():
        print("error: run from the root of a pwperiod checkout (src/pwperiod and "
              "tests/conftest.py not found)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))

    suite = inputs.load_suite(root)
    plan = inputs.build_plan(args.workload, args.seed, args.seconds, suite)
    out = HERE / "out"
    (out / "work").mkdir(parents=True, exist_ok=True)
    if args.workload == "analyze_cold":
        for i, op in enumerate(plan["ops"]):
            spec = out / "work" / f"spec{i}.txt"
            spec.write_text(inputs.spec_text(plan["systems"][op["system"]]), encoding="utf-8")
            op["spec"] = str(spec.relative_to(root))
            op["csv"] = str((out / "work" / f"table{i}.csv").relative_to(root))
    plan_path = out / f"plan-{args.workload}.json"
    plan_path.write_text(json.dumps(plan), encoding="utf-8")
    result_path = out / f"result-{args.workload}.json"
    deadline = started + run_deadline_s(plan, bool(args.trace))

    setups = []
    if not args.trace:
        for _ in range(SETUP_PROBES):
            setups.append(run_worker(plan_path, result_path, ["--setup-only"], deadline)["setup_s"])
    result = run_worker(plan_path, result_path, ["--trace"] if args.trace else [], deadline)
    setups.append(result["setup_s"])

    line, printed = result_line(args.workload, plan, result, setups, bool(args.trace))
    print("\n".join(printed))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
