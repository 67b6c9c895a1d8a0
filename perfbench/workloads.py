"""Benchmark workloads: seeded inputs, the program calls, and output checks.

Run as a script, this file is the measured process.  Each run is a fresh
interpreter, so the program's ``lru_cache`` tables start empty, as they do
for a user:

    PYTHONPATH=src python3 perfbench/workloads.py --workload census --seed 3 [--spans out.json]

It prints one JSON line: the CLOCK_MONOTONIC time of the workload's first
measured call (everything before it is set-up), one ``[name, ok, detail]``
entry per output check, and figures the workload reports.  With ``--spans``
the layers are traced and the spans are written to that file.

Workloads drive only the interfaces that the planned optimisations keep:
``scripts/window_mass.py`` with ``--P`` and ``--samples``,
``osc_integral_v`` with its ``method``, ``run_census`` and ``witness_for``,
and the acceptance criteria with ``build_weight_table``, ``eval_h`` and
``model_V``.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import random
import runpy
import sys
import time
import traceback
from contextlib import redirect_stdout
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("window", "volume", "census", "arith")

WINDOW_P = 27
WINDOW_SAMPLES = 2
WINDOW_SCRIPT = Path("scripts") / "window_mass.py"
# Relative tolerance on J(n), S(n) and the predicted mass.  A Monte Carlo J
# misses it by orders of magnitude.
WINDOW_RTOL = 1e-12

VOLUME_P = 16
VOLUME_K = (1, 2, 3, 4)
# Each beta is 2 (k + d) / N with d uniform in [-BETA_JITTER, 0].  The jitter
# is small and only downward: at beta = 2k/N the quadrature node counts sit
# just below a rounding step, so the cost and memory of a run do not depend
# on the seed.
BETA_JITTER = 0.02
V0_RTOL = 1e-6  # criterion 8: v(0) = P^3 / 2
ROUTE_RTOL = 1e-4  # criterion 8: kernel1d against cubature3d

CENSUS_N = 10**7
CENSUS_WITNESSES = 20

ARITH_P = 10_000
ARITH_CRITERIA = (1, 2, 3, 4, 5, 6, 7, 9, 10, 12)


def load_references() -> dict:
    """Reference outputs recorded at the commit that added the benchmark."""
    return json.loads((HERE / "references.json").read_text())


def make_inputs(workload: str, seed: int) -> dict:
    """The inputs of one run.  Only `census` and `volume` depend on the seed."""
    rng = random.Random(seed)
    if workload == "window":
        return {"P": WINDOW_P, "samples": WINDOW_SAMPLES}
    if workload == "volume":
        N = VOLUME_P**6
        betas = [2.0 * (k - rng.uniform(0.0, BETA_JITTER)) / N for k in VOLUME_K]
        return {"P": VOLUME_P, "betas": betas}
    if workload == "census":
        # 4x the witness count: about 3% of n in [N/2, N] are exceptional
        candidates = [rng.randint(CENSUS_N // 2, CENSUS_N) for _ in range(4 * CENSUS_WITNESSES)]
        return {"N": CENSUS_N, "witnesses": CENSUS_WITNESSES, "candidates": candidates}
    if workload == "arith":
        return {"P": ARITH_P, "criteria": list(ARITH_CRITERIA)}
    raise ValueError(f"unknown workload {workload!r}")


# -- running the program -------------------------------------------------------

_setup_end: list[float] = []


def mark_setup_end() -> None:
    """Called at the workload's first measured call; later calls do nothing."""
    if not _setup_end:
        _setup_end.append(time.monotonic())


def _call(fn, *args, **kwargs):
    """The call's result, or the exception it raised: a raising call is a
    failed check, not an aborted run."""
    try:
        return fn(*args, **kwargs)
    except Exception as exc:
        traceback.print_exc()
        return exc


def _capture(module, attr: str, sink: list) -> None:
    """Record (first argument, result value) of every call, and mark set-up end."""
    from spans import rebind

    original = getattr(module, attr)

    def captured(*args, **kwargs):
        mark_setup_end()
        result = original(*args, **kwargs)
        n = args[0] if args else kwargs["n"]
        sink.append((n, float(getattr(result, "value", result))))
        return result

    rebind({id(original): (original, captured)})


def run_window(inputs: dict) -> dict:
    import cubesquares.expsums
    import cubesquares.mainterm

    S: list = []
    J: list = []
    _capture(cubesquares.expsums, "truncated_singular_series", S)
    _capture(cubesquares.mainterm, "singular_integral_J", J)
    argv = sys.argv
    sys.argv = [str(WINDOW_SCRIPT), "--P", str(inputs["P"]), "--samples", str(inputs["samples"])]
    buf = io.StringIO()
    try:
        with redirect_stdout(buf):
            runpy.run_path(str(WINDOW_SCRIPT), run_name="__main__")
        code = 0
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception as exc:
        code = f"{type(exc).__name__}: {exc}"
    finally:
        sys.argv = argv
    return {"exit_code": code, "stdout": buf.getvalue(), "S": S, "J": J}


def run_volume(inputs: dict) -> dict:
    from cubesquares.oscillatory import osc_integral_v, v_at_zero
    from cubesquares.params import derive_params

    pp = derive_params(inputs["P"] ** 6)
    mark_setup_end()
    out = {"v0": _call(osc_integral_v, 0.0, pp, method="kernel1d"), "v0_exact": v_at_zero(pp), "routes": []}
    for beta in inputs["betas"]:
        a = _call(osc_integral_v, beta, pp, method="kernel1d")
        b = _call(osc_integral_v, beta, pp, method="cubature3d")
        out["routes"].append((beta, a, b))
    return out


def run_census_workload(inputs: dict) -> dict:
    from cubesquares.census import run_census, witness_for

    mark_setup_end()
    census = _call(run_census, inputs["N"])
    if isinstance(census, Exception):
        return {"E_count": census, "witnesses": [(n, census) for n in inputs["candidates"][: inputs["witnesses"]]]}
    chosen = [n for n in inputs["candidates"] if census.representable[n]][: inputs["witnesses"]]
    return {"E_count": census.E_count, "witnesses": [(n, _call(witness_for, census, n)) for n in chosen]}


def run_arith(inputs: dict) -> dict:
    from cubesquares import acceptance
    from cubesquares.generating import eval_h, model_V
    from cubesquares.params import derive_params
    from cubesquares.smooth import estimate_c_eta
    from cubesquares.weights import build_weight_table

    pp = derive_params(inputs["P"] ** 6)
    table = build_weight_table(pp, "a")
    c_eta = estimate_c_eta(pp.P, pp.R)
    mark_setup_end()
    criteria = {k: _call(getattr(acceptance, f"criterion_{k}")) for k in inputs["criteria"]}
    h0 = _call(eval_h, Fraction(0), table)
    V0 = _call(model_V, 0.0, 1, 0, pp, c_eta)
    return {"criteria": criteria, "h0": h0, "V0": V0}


RUNNERS = {"window": run_window, "volume": run_volume, "census": run_census_workload, "arith": run_arith}


# -- checking the outputs ------------------------------------------------------


def _check(checks: list, name: str, value, test, detail: str = "") -> None:
    """Append [name, ok, detail]; an exception in place of a value fails."""
    if isinstance(value, Exception):
        checks.append([name, False, f"{type(value).__name__}: {value}"])
        return
    try:
        ok = bool(test(value))
    except Exception as exc:
        ok, detail = False, f"{type(exc).__name__}: {exc}"
    checks.append([name, ok, detail])


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(abs(b), 1e-300)


def check_window(inputs: dict, out: dict, ref: dict) -> list:
    checks: list = []
    _check(checks, "exit code 0", out["exit_code"], lambda c: c == 0, f"exit code {out['exit_code']}")
    masses = [int(line.rsplit(":", 1)[1]) for line in out["stdout"].splitlines() if "exact window mass" in line]
    _check(checks, "exact window mass", masses, lambda m: m == [ref["mass"]], f"printed {masses}, want {ref['mass']}")
    for label, got, want in (("S", out["S"], ref["S"]), ("J", out["J"], ref["J"])):
        _check(checks, f"{label} sample points", got, lambda g: [n for n, _ in g] == ref["n"], f"{len(got)} calls")
        for n, w in zip(ref["n"], want):
            value = dict(got).get(n)
            _check(checks, f"{label}({n})", value, lambda v: v is not None and _rel(v, w) <= WINDOW_RTOL, f"{value} vs {w}")
    lo, hi = ref["lo"], ref["hi"]
    S, J = dict(out["S"]), dict(out["J"])
    pred = None
    if all(n in S and n in J for n in ref["n"]):
        pred = math.fsum(S[n] * J[n] for n in ref["n"]) / len(ref["n"]) * (hi - lo)
    want = ref["predicted_mass"]
    _check(checks, "predicted mass", pred, lambda p: p is not None and _rel(p, want) <= WINDOW_RTOL, f"{pred} vs {want}")
    return checks


def check_volume(inputs: dict, out: dict, ref: dict | None = None) -> list:
    checks: list = []
    exact = out["v0_exact"]
    _check(checks, "v(0)", out["v0"], lambda v: abs(v - exact) / exact < V0_RTOL, f"P^3/2 = {exact}")
    for beta, a, b in out["routes"]:
        err = route_error(a, b, exact)
        _check(checks, f"routes at beta={beta:.6e}", err, lambda e: e < ROUTE_RTOL, f"rel {err}")
    return checks


def route_error(a, b, v0: float):
    """Criterion 8's disagreement of the two routes, or the exception either raised."""
    for v in (a, b):
        if isinstance(v, Exception):
            return v
    return abs(a - b) / max(abs(a), abs(b), v0 * 1e-9)


def three_cube_sums(limit: int) -> set[int]:
    """Sums of three positive cubes up to `limit`, by direct enumeration."""
    top = round(limit ** (1 / 3)) + 1
    cubes = [i**3 for i in range(1, top + 1)]
    return {a + b + c for a in cubes for b in cubes for c in cubes if a + b + c <= limit}


def check_census(inputs: dict, out: dict, ref: dict) -> list:
    checks: list = []
    _check(checks, "E_count", out["E_count"], lambda e: e == ref["E_count"], f"{out['E_count']} vs {ref['E_count']}")
    members = three_cube_sums(math.isqrt(inputs["N"]))
    for n, w in out["witnesses"]:
        _check(
            checks,
            f"witness({n})",
            w,
            lambda w: w is not None and sum(c * c for c in w) == n and all(c in members for c in w),
            f"{w}",
        )
    return checks


def check_arith(inputs: dict, out: dict, ref: dict) -> list:
    checks: list = []
    for k, res in out["criteria"].items():
        _check(checks, f"criterion {k}", res, lambda r: r.passed, getattr(res, "detail", ""))
    h0, V0 = out["h0"], out["V0"]
    _check(checks, "h(0) exact", h0, lambda h: h.real == ref["h0"], f"{h0} vs {ref['h0']}")
    ratio = next((v for v in (h0, V0) if isinstance(v, Exception)), None)
    if ratio is None:
        ratio = h0.real / abs(V0)
    _check(checks, "h(0)/V(0)", ratio, lambda r: 0.99 <= r <= 1.01, f"{ratio}")
    return checks


CHECKS = {"window": check_window, "volume": check_volume, "census": check_census, "arith": check_arith}


def figures(workload: str, out: dict) -> dict:
    """Workload outputs reported beside the trace's per-layer figures."""
    if workload == "volume":
        errs = [route_error(a, b, out["v0_exact"]) for _, a, b in out["routes"]]
        return {"oscillatory.route_rel_err_max": max((e for e in errs if not isinstance(e, Exception)), default=0.0)}
    if workload == "census" and not isinstance(out["E_count"], Exception):
        return {"census.E_count": out["E_count"]}
    return {}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--spans", help="trace the layers and write the spans to this file")
    args = ap.parse_args(argv)

    inputs = make_inputs(args.workload, args.seed)
    tracer = None
    if args.spans:
        from spans import Tracer

        tracer = Tracer(run_id=Path(args.spans).stem)
        tracer.install()
    out = RUNNERS[args.workload](inputs)
    checks = CHECKS[args.workload](inputs, out, load_references().get(args.workload))
    if tracer is not None:
        tracer.dump(args.spans)
    import numpy
    from cubesquares.cubesieve import memory_budget

    result = {
        "setup_end": _setup_end[0] if _setup_end else None,
        "checks": checks,
        "figures": figures(args.workload, out),
        "env": {"numpy": numpy.__version__, "memory_budget": memory_budget()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
