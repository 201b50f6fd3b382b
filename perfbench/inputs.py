"""Seeded input lists for the three workloads.

A plan is plain JSON: the systems by name, with exact coefficients as
strings, and the operations of one pass.  The same workload, seed and run
length always give the same plan.  Suite systems and their hand-assigned
labels come from ``tests/conftest.py``; ``clock_sweep`` adds a seeded family
of generated centers.
"""

from __future__ import annotations

import importlib.util
import math
import random
from fractions import Fraction
from pathlib import Path

# Wall seconds of one pass on the 2-core machine the bounds were set on.  A
# run makes the whole number of passes nearest to --seconds, at least one,
# so every run of a workload does the same work.
PASS_SECONDS = {"analyze_cold": 46.0, "series_deep": 15.0, "clock_sweep": 11.0}
WORKLOADS = tuple(PASS_SECONDS)

# README file twice (the repeat is compared byte for byte), one center per
# case I-V, the quadratic side, and two non-centers.
ANALYZE_SYSTEMS = ("x2y/y3", "x2y/y3", "x2y2/y4", "x2y/y4", "x4/x2y", "x4y/x2y",
                   "x2y2/x2:2", "x3/y4", "x4/x3")
# Both annuli unbounded: `--rmax inf` ends in an uncaught OverflowError today.
UNBOUNDED_SYSTEM = "x2y2/y4"
SERIES_ORDERS = tuple(range(16, 25))
# The extra series_deep operation: with an odd number of operations, the
# median is one operation's time and not the mean of two whose costs differ
# by a third.
README_SYSTEM = "x2y/y3"
CLOCK_RADII_PER_SYSTEM = 3
PROFILE_SAMPLES = 8192  # per half circle, for start_cap
SMALL_RATIONALS = tuple(Fraction(s) for s in ("-2", "-1", "-1/2", "-1/3", "1/3", "1/2", "1", "2"))


def load_suite(root: Path) -> dict:
    """Suite systems and labels from tests/conftest.py, as plain data."""
    spec = importlib.util.spec_from_file_location("perfbench_conftest", root / "tests" / "conftest.py")
    conftest = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(conftest)
    suite = {}
    for name, (system, case) in conftest.CENTER_SUITE.items():
        suite[name] = {"upper": _poly(system.upper), "lower": _poly(system.lower), "case": case}
    for name, system in conftest.NONCENTER_SUITE.items():
        suite[name] = {"upper": _poly(system.upper), "lower": _poly(system.lower), "case": None}
    for name, (e, rat, pi) in conftest.KNOWN_OBSTRUCTIONS.items():
        suite[name]["obstruction"] = [e, str(rat), str(pi)]
    return suite


def _poly(p) -> list[str]:
    return [str(c) for c in p.coeffs]


def coeffs(side: list[str]) -> list[Fraction]:
    return [Fraction(c) for c in side]


def to_system(pw, system: dict):
    """The plan's system as a ``pwperiod.PiecewiseSystem``; ``pw`` is the package."""
    return pw.PiecewiseSystem(*(pw.HomogeneousPoly(len(system[side]) - 1, coeffs(system[side]))
                                for side in ("upper", "lower")))


def passes_for(workload: str, seconds: float) -> int:
    return max(1, round(seconds / PASS_SECONDS[workload]))


def spec_text(system: dict) -> str:
    """System description file with default options, as a user writes it."""
    lines = []
    for side in ("upper", "lower"):
        cs = system[side]
        lines += [f"[{side}]", f"degree = {len(cs) - 1}", "coeffs = " + ", ".join(cs), ""]
    return "\n".join(lines)


# Two generated centers per case, with the degrees fixed so that the cost of
# an operation, which grows with the degree, does not depend on the seed.
GENERATED_DEGREES = (("I", 4, 4), ("I", 4, 4), ("II", 3, 4), ("II", 5, 4), ("III", 4, 3),
                     ("III", 4, 5), ("IV", 3, 5), ("IV", 5, 3), ("V", 3, 3), ("V", 5, 5))


def generated_center(rng: random.Random, case: str, du: int, dl: int) -> dict:
    """Random center of the given degrees built to the case's rule.

    Case I needs both exponents odd, II (III) an even upper (lower) exponent
    with zero axis coefficient on that side, IV distinct even exponents with
    both axis coefficients zero, V equal even exponents and equal axis
    coefficients.
    """
    upper, lower = _random_side(rng, du), _random_side(rng, dl)
    if case in ("II", "IV"):
        upper[0] = Fraction(0)
    if case in ("III", "IV"):
        lower[0] = Fraction(0)
    if case == "V":
        lower[0] = upper[0]
    for side in (upper, lower):
        if not any(side):
            side[1] = rng.choice(SMALL_RATIONALS)
    return {"upper": [str(c) for c in upper], "lower": [str(c) for c in lower], "case": case}


def _random_side(rng: random.Random, degree: int) -> list[Fraction]:
    return [rng.choice(SMALL_RATIONALS) if rng.random() < 0.4 else Fraction(0)
            for _ in range(degree + 1)]


def _max_negative_profile(cs: list[float], lo: float, width: float, samples: int) -> float:
    d = len(cs) - 1
    q = 0.0
    for k in range(samples + 1):
        t = lo + width * k / samples
        c, s = math.cos(t), math.sin(t)
        q = max(q, -sum(a * c ** (d - i) * s ** i for i, a in enumerate(cs)))
    return q


def start_cap(system: dict) -> float:
    """Largest axis start radius at which both clocks accept the orbit.

    Computed here, not by pwperiod, so that the inputs do not change when
    the program's own estimates do.  Two limits per side of degree d >= 3,
    with q = max(-g) of its circle profile g:

    * the transit cap (pwperiod's ``start_radius_cap``): with q over the
      side's half circle, the angular speed first vanishes at
      rc = (d q)^(-1/(d-2)) on the level h^2 = rc^2 (d-2)/d; the cap is the
      start radius on that level;
    * the annulus bound (``annulus_bound``) rc with q over the whole circle,
      beyond which ``half_orbit`` and ``quadrature_period`` refuse a start
      radius even where the transit cap allows it.

    q comes from dense sampling, so the result is within a relative 1e-6 or
    so of the exact one.
    """
    cap = math.inf
    for side, lo in (("upper", 0.0), ("lower", math.pi)):
        cs = [float(c) for c in coeffs(system[side])]
        d = len(cs) - 1
        if d < 3 or not any(cs):
            continue
        q_full = _max_negative_profile(cs, 0.0, 2.0 * math.pi, 2 * PROFILE_SAMPLES)
        if q_full > 0.0:
            cap = min(cap, (d * q_full) ** (-1.0 / (d - 2)))
        q = _max_negative_profile(cs, lo, math.pi, PROFILE_SAMPLES)
        if q <= 0.0:
            continue
        rc = (d * q) ** (-1.0 / (d - 2))
        h2 = rc * rc * (d - 2) / d
        a0 = cs[0]
        if rc * rc + 2.0 * a0 * rc ** d <= h2:
            cap = min(cap, rc)
            continue
        lo_r, hi_r = 0.0, rc  # bisection on r^2 + 2 a0 r^d = h2
        for _ in range(200):
            mid = 0.5 * (lo_r + hi_r)
            if mid * mid + 2.0 * a0 * mid ** d < h2:
                lo_r = mid
            else:
                hi_r = mid
        cap = min(cap, lo_r)
    return cap


def build_plan(workload: str, seed: int, seconds: float, suite: dict) -> dict:
    """The seeded input list of one run."""
    rng = random.Random(f"{workload}:{seed}")
    plan = {"workload": workload, "seed": seed, "passes": passes_for(workload, seconds),
            "systems": {}, "ops": [], "warmup": []}
    if workload == "analyze_cold":
        # default options, so the sample grid is analyze's own (seed 0); the
        # seed orders the operations
        for name in ANALYZE_SYSTEMS:
            plan["systems"][name] = suite[name]
            plan["ops"].append({"system": name, "args": [], "timed": True})
        plan["systems"][UNBOUNDED_SYSTEM] = suite[UNBOUNDED_SYSTEM]
        plan["ops"].append({"system": UNBOUNDED_SYSTEM, "args": ["--rmax", "inf"], "timed": False})
        rng.shuffle(plan["ops"])
    elif workload == "series_deep":
        # every suite center without a quadratic side, at a fixed order each,
        # and the README system once more at the lowest order; the seed
        # orders the operations
        names = sorted(n for n, s in suite.items()
                       if s["case"] and all(len(s[side]) >= 4 for side in ("upper", "lower")))
        for i, name in enumerate(names):
            plan["systems"][name] = suite[name]
            plan["ops"].append({"system": name, "order": SERIES_ORDERS[i % len(SERIES_ORDERS)],
                                "timed": True})
        plan["ops"].append({"system": README_SYSTEM, "order": SERIES_ORDERS[0], "timed": True})
        rng.shuffle(plan["ops"])
    elif workload == "clock_sweep":
        systems = {n: s for n, s in sorted(suite.items()) if s["case"]}
        for k, (case, du, dl) in enumerate(GENERATED_DEGREES):
            systems[f"gen{k}"] = generated_center(rng, case, du, dl)
        for name, system in systems.items():
            plan["systems"][name] = system
            cap = start_cap(system)
            r_hi = 0.8 * cap if math.isfinite(cap) else 0.5
            plan["warmup"].append({"system": name, "r0": 0.5 * r_hi})
            for _ in range(CLOCK_RADII_PER_SYSTEM):
                # r0 in (0.05, 0.8] * cap, as r_hi * (1/16, 1]
                r0 = r_hi * (1.0 - (15.0 / 16.0) * rng.random())
                plan["ops"].append({"system": name, "r0": r0, "timed": True})
        rng.shuffle(plan["ops"])
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return plan
