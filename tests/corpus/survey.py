"""Seeded survey of the command line contract on random system files.

Each run draws one system file, options included, from a seeded generator
and runs ``analyze`` on it in this process, one run at a time, under a
per-run time limit (a SIGALRM timer, so Unix only; no subprocess is
started).  The contract is exit code 0, 2 or 3, with no traceback and no
RuntimeWarning.  The survey prints a tally of the exit codes, then every
file that breaks the contract or passes the time limit, with the reason,
so each can be rerun on its own.  It is not part of the test suite: pytest
collects only ``test_*.py`` files.  Run from the repository root:

    PYTHONPATH=src python tests/corpus/survey.py --seeds 1 2 3 4 5 6 --runs 250

The generator draws degrees 2 to 6, coefficients from 0, small integers
and fractions, +-1e+-30 and +-1e+-300, and every option within its range.
A run that passes the limit is cut by an exception raised inside it; the
survey goes on with the next run.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import random
import signal
import tempfile
import traceback
import warnings
from collections import Counter
from pathlib import Path
from time import perf_counter

COEFFS = ("0", "1", "-1", "2", "-3", "1/2", "-2/3", "3/7",
          "1e30", "-1e30", "1e-30", "-1e-30", "1e300", "-1e300", "1e-300", "-1e-300")
RMAX = ("1e-100", "1e-10", "1e-3", "0.2", "1", "1e6")
TOL = ("1e-12", "1e-6", "1e-3")
CONTRACT = {0, 2, 3}


class OverLimit(BaseException):
    """Raised by the timer inside a run; not an Exception, so no handler of the run catches it."""


def _over_limit(signum, frame):
    raise OverLimit


def draw_spec(rng: random.Random) -> str:
    """One system file with its options, all within range."""
    lines = []
    for side in ("upper", "lower"):
        degree = rng.randint(2, 6)
        coeffs = ", ".join(rng.choice(COEFFS) for _ in range(degree + 1))
        lines += [f"[{side}]", f"degree = {degree}", f"coeffs = {coeffs}"]
    lines += ["[options]", f"order = {rng.randint(1, 8)}", f"rmax = {rng.choice(RMAX)}",
              f"samples = {rng.randint(1, 8)}", f"tol = {rng.choice(TOL)}",
              f"seed = {rng.randint(0, 9)}"]
    return "\n".join(lines) + "\n"


def run_one(path: Path, limit: float) -> tuple[int | None, str, float]:
    """Exit code (None past the limit), the reasons it breaks the contract, and its seconds."""
    from pwperiod.cli import main

    err = io.StringIO()
    reasons = []
    start = perf_counter()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        signal.setitimer(signal.ITIMER_REAL, limit)
        try:
            code = main([str(path)])
        except OverLimit:
            code = None
        except Exception:
            code = 1
            reasons.append("traceback:\n" + traceback.format_exc())
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
    seconds = perf_counter() - start
    if code is None:
        reasons.append(f"over the {limit:g} s limit")
    elif code not in CONTRACT:
        reasons.append(f"exit {code}")
    if "Traceback" in err.getvalue():
        reasons.append("traceback on stderr:\n" + err.getvalue())
    reasons += [f"RuntimeWarning: {w.filename}:{w.lineno}: {w.message}"
                for w in caught if issubclass(w.category, RuntimeWarning)]
    return code, "\n".join(reasons), seconds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3, 4, 5, 6])
    parser.add_argument("--runs", type=int, default=250, help="runs per seed")
    parser.add_argument("--limit", type=float, default=10.0, help="seconds per run")
    args = parser.parse_args(argv)

    signal.signal(signal.SIGALRM, _over_limit)
    tally: Counter = Counter()
    breaks = []
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "spec.txt"
        for seed in args.seeds:
            rng = random.Random(seed)
            for run in range(args.runs):
                text = draw_spec(rng)
                path.write_text(text, encoding="utf-8")
                code, reasons, seconds = run_one(path, args.limit)
                tally["over limit" if code is None else f"exit {code}"] += 1
                if reasons:
                    breaks.append(f"### seed {seed} run {run} ({seconds:.1f} s): {reasons}\n"
                                  f"{text}")
    total = sum(tally.values())
    print(f"{total} runs: " + ", ".join(f"{key} {n}" for key, n in sorted(tally.items())))
    print(f"{len(breaks)} contract breaks or runs over the limit")
    for entry in breaks:
        print(entry)
    return 1 if breaks else 0


if __name__ == "__main__":
    raise SystemExit(main())
