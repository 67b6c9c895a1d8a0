"""Command-line entry point: enumerate / local / arcs / census.

Two `arcs` modes compare the exact data with the model at one scale:
`--window-mass` sums R(n) over [N/2, N] against S(n) J(n) sampled on a
stride (JSON; exit 3 when the ratio leaves `WindowGate.BAND`), and `--f-sweep`
tabulates |h|, |W|, the arc membership and the residual
|F| = |h^2 W^2 - (model h)^2 (model W)^2| over an alpha grid (TSV).

Every run is described by a RunConfig whose hash is embedded in each
output artifact (inline for JSON/TSV, via .meta.json sidecar for the
fixed-format CSV/binary tables).  Exit codes: 0 success, 2 capacity,
3 verification failure, 4 bad configuration (an option value, a config
file, or a CUBESQUARES_MEMORY_BUDGET that is not a positive integer).
Option values are checked by their argparse types and the budget before
any output, so any other exception is a program error and ends the run
with a traceback (exit 1).  Runs are sequential and deterministic for a
fixed config.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import __version__
from .errors import CapacityError, DegenerateParamsError, QuadratureError, VerificationError

# Each subcommand imports the layers it runs, so a script that imports only
# the argparse types below loads no numerical layer.


@dataclass(frozen=True)
class RunConfig:
    subcommand: str
    options: dict

    @property
    def hash(self) -> str:
        payload = json.dumps({"cmd": self.subcommand, **self.options}, sort_keys=True, default=str)
        return hashlib.sha256(payload.encode()).hexdigest()[:12]


def _meta(cfg: RunConfig) -> dict:
    return {"config_hash": cfg.hash, "version": __version__}


def _write_json(path: Path, cfg: RunConfig, payload: dict) -> None:
    doc = {**_meta(cfg), **payload}
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    print(f"wrote {path}")


def _write_tsv(path: Path, cfg: RunConfig, header: list[str], rows) -> None:
    with open(path, "w") as f:
        f.write(f"# config={cfg.hash} version={__version__}\n")
        f.write("\t".join(header) + "\n")
        for row in rows:
            f.write("\t".join(str(x) for x in row) + "\n")
    print(f"wrote {path}")


# -- subcommands ---------------------------------------------------------------


def cmd_enumerate(args, cfg: RunConfig, out: Path) -> int:
    from .cubesieve import sieve_cube_sums
    from .scale import Scale
    from .smooth import enumerate_smooth
    from .weights import save_binary, save_csv

    scale = Scale(args.N, args.eta, args.R)
    if args.table is not None:
        scale.params  # a degenerate scale exits before any artifact is written
    if args.csums is not None:
        sieve = sieve_cube_sums(args.csums, with_counts=args.r3)
        members = sieve.members.tolist()
        rows = [(m, sieve.r3(m)) for m in members] if args.r3 else [(m,) for m in members]
        _write_tsv(out / f"cube_sums_{args.csums}.tsv", cfg, ["value", "r3"] if args.r3 else ["value"], rows)
        print("members:", members)
    if args.smooth is not None:
        members = enumerate_smooth(args.smooth, args.bound).tolist()
        _write_tsv(out / f"smooth_{args.smooth}_{args.bound}.tsv", cfg, ["value"], [(v,) for v in members])
        print("members:", members)
        print(f"density {len(members) / max(args.smooth, 1):.6f}")
    if args.table is not None:
        table = scale.table_a if args.table == "a" else scale.table_b
        save, ext = (save_csv, "csv") if args.format == "csv" else (save_binary, "wcl")
        path = out / f"weights_{args.table}_N{args.N}.{ext}"
        save(table, path, meta=_meta(cfg))
        print(f"wrote {path} ({len(table)} pairs, total mass {table.total})")
    return 0


def cmd_local(args, cfg: RunConfig, out: Path) -> int:
    from .expsums import complete_sum_S_batch, truncated_singular_series
    from .localsolve import hensel_certificate, mod27_square_sets, sigma_p, two_adic_profile
    from .w2 import w2_scan

    if args.certificate == 2 and args.n < 1:
        # checked before the first action, so nothing is written; odd p reduce n mod p
        raise DegenerateParamsError(f"the 2-adic certificate needs --n >= 1, got {args.n}")
    if args.verify_sets:
        A, B, AB = mod27_square_sets()
        print("A  =", sorted(A))
        print("B  =", sorted(B))
        print("A+B =", sorted(AB))
    if args.sqa is not None:
        q = args.sqa
        row = complete_sum_S_batch(q)
        _write_tsv(out / f"sqa_{q}.tsv", cfg, ["a", "re", "im"], [(a, v.real, v.imag) for a, v in enumerate(row)])
    if args.sn is not None:
        tr = truncated_singular_series(args.sn, args.Q)
        _write_json(out / f"series_n{args.sn}_Q{args.Q}.json", cfg, {
            "n": tr.n, "Q": tr.Q, "value": tr.value,
            "dyadic_tails": {str(k): v for k, v in tr.tails.items()},
        })
        print(f"S({args.sn}; Q={args.Q}) = {tr.value:.9f}")
    if args.sigma_p is not None:
        est = sigma_p(args.sigma_p, args.n, h_max=args.hmax)
        _write_json(out / f"sigma_p{args.sigma_p}_n{args.n}.json", cfg, {
            "p": est.p, "n": est.n, "values": est.values, "deltas": est.deltas,
            "converged": est.converged, "h_used": est.h_used,
        })
        print(f"sigma_{est.p}({est.n}) levels: {est.values}")
    if args.w2_max is not None:
        w2sq, majorant_ok, equality = w2_scan(args.w2_max)
        payload = {"Q": args.w2_max, "sum_w2_squared": float(w2sq[1:].sum()), "equality_cases": equality}
        if args.check_majorant:
            payload["majorant_holds"] = majorant_ok
            if not majorant_ok:
                raise VerificationError("w2 majorant failed")
            print(f"w2(q) <= q^(-1/6) verified for q <= {args.w2_max}; equality at {equality}")
        _write_json(out / f"w2_Q{args.w2_max}.json", cfg, payload)
    if args.certificate is not None:
        cert = hensel_certificate(args.certificate, args.n)
        _write_json(out / f"certificate_p{args.certificate}_n{args.n}.json", cfg, cert.as_json_dict())
        print(f"certificate p={cert.p} n={cert.n} modulus={cert.modulus} checked={cert.condition_checked}")
    if args.two_adic is not None:
        prof = two_adic_profile(args.two_adic)  # verified as it is built
        _write_json(out / f"two_adic_{args.two_adic}.json", cfg, {
            "n": prof.n, "h": prof.h, "gamma": prof.gamma, "theta": prof.theta,
            "witness": list(prof.witness), "euler_floor": prof.euler_floor,
        })
        print(f"n={prof.n}: gamma={prof.gamma} theta={prof.theta} witness={prof.witness}")
    return 0


# The --f-sweep grid is alpha = floor(i * D / points) / D; D is prime, so
# every nonzero alpha has denominator exactly D.  It meets the arcs only at
# alpha = 0 while 1009 X < N and X < 1009 (P from 4 to 5656 on both
# dissections): a/1009 with a != 0 lies at least 1 / (1009 q) from every b/q
# with q <= X, farther than the arc's half-width X / (q N).
F_GRID_DENOMINATOR = 1009


def cmd_arcs(args, cfg: RunConfig, out: Path) -> int:
    from .arcs import ArcDissection
    from .generating import F_diagnostic
    from .mainterm import RnEvaluator, rn_dense_dft, toy_tables
    from .oscillatory import osc_integral_v, v_at_zero
    from .scale import Scale

    scale = Scale(args.N, args.eta, args.R)
    # a degenerate scale, thin interval or dissection exits before any artifact is written
    if args.v_at_zero or args.v_sweep or (args.rn_exact and not args.toy) or args.report is not None:
        scale.params
    if args.window_mass and not scale.params.thin.leading:
        raise DegenerateParamsError(f"the thin interval at N={args.N} holds no integer, so the exact window mass is 0")
    if args.f_sweep:
        dissection = (ArcDissection.wide if args.wide else ArcDissection.narrow)(scale.params.P, args.N)
    if args.classify is not None:
        n = args.n or 10**4
        hit = ArcDissection(X=args.X, n=n).classify(args.classify)
        if hit is None:
            print(f"alpha={args.classify}: minor region (X={args.X}, n={n})")
        else:
            print(f"alpha={args.classify}: arc (a={hit.a}, q={hit.q}), beta={hit.beta:.3g}")
    if args.v_at_zero:
        params = scale.params
        closed = v_at_zero(params)
        k = osc_integral_v(0.0, params, method="kernel1d")
        c = osc_integral_v(0.0, params, method="cubature3d")
        print(f"v(0): closed={closed} kernel1d={k.real:.9g} cubature3d={c.real:.9g}")
        for name, val in (("kernel1d", k), ("cubature3d", c)):
            if abs(val - closed) > 1e-6 * closed:
                raise VerificationError(f"v(0) via {name} = {val} drifts from {closed}")
    if args.v_sweep:
        params = scale.params
        rows = []
        for i in range(args.sweep_points):
            beta = args.beta_max * i / max(args.sweep_points - 1, 1) / params.N
            val = osc_integral_v(beta, params, method="kernel1d")
            rows.append((f"{beta:.6e}", f"{val.real:.9e}", f"{val.imag:.9e}", f"{abs(val):.9e}"))
        _write_tsv(out / f"v_sweep_N{args.N}.tsv", cfg, ["beta", "re", "im", "abs"], rows)
    if args.rn_exact:
        if args.toy:
            ta, tb, primes = toy_tables()
            ev = RnEvaluator(ta, tb, primes)
            dense = rn_dense_dft(ta, tb, primes)
            support = np.flatnonzero(dense)
            rows = [(int(n), int(dense[n])) for n in support]
            _write_tsv(out / "rn_toy.tsv", cfg, ["n", "R"], rows)
            for n, r in rows:
                if ev(n) != r:
                    raise VerificationError(f"toy R({n}) mismatch: {ev(n)} vs {r}")
            print(f"toy R: support {rows}")
        else:
            ns = range(args.N // 2, args.N + 1, max(1, args.N // 2 // args.sweep_points))
            rows = [(n, scale.rn(n)) for n in ns]
            _write_tsv(out / f"rn_N{args.N}.tsv", cfg, ["n", "R"], rows)
    if args.report is not None:
        rep = scale.report(args.report, args.Q)
        _write_json(out / f"report_n{args.report}.json", cfg, rep.as_json_dict())
        print(f"n={rep.n}: R={rep.R_exact} predicted={rep.predicted:.6g} ratio={rep.ratio:.6g}")
    if args.window_mass:
        pp = scale.params
        thin = list(pp.thin.leading)
        print(f"P={pp.P}  N={pp.N}  thin leading integers: {thin}  interval length {pp.thin.hi - pp.thin.lo:.4f}")
        t0 = time.perf_counter()
        gate = scale.window_gate(args.samples, args.Q)
        elapsed = time.perf_counter() - t0
        lo, hi, pred, ratio = gate.lo, gate.hi, gate.predicted, gate.ratio
        print(f"exact window mass sum R(n), n in [{lo}, {hi}]: {gate.exact}")
        print(f"predicted mass: {pred:.1f}  (mean term {pred / (hi - lo):.6g}, {args.samples} samples, {elapsed:.2f}s with the exact mass)")
        print(f"ratio exact/predicted: {ratio:.3f}")
        # written before the check, so that a ratio out of range is on record
        _write_json(out / f"window_mass_N{args.N}.json", cfg, {
            "lo": lo, "hi": hi, "thin": thin, "exact_mass": gate.exact, "predicted_mass": pred,
            "ratio": ratio if math.isfinite(ratio) else None,
        })
        if not gate.passed:
            raise VerificationError(f"window mass ratio exact/predicted {ratio:.3f} is outside [{gate.BAND[0]:g}, {gate.BAND[1]:g}]")
    if args.f_sweep:
        rows = []
        for i in range(args.sweep_points):
            alpha = Fraction(i * F_GRID_DENOMINATOR // args.sweep_points, F_GRID_DENOMINATOR)
            diag = F_diagnostic(alpha, scale, dissection)
            row = (float(alpha), abs(diag.h), abs(diag.W), int(diag.on_arc), abs(diag.F))
            rows.append([f"{x:.6g}" for x in row])
        _write_tsv(out / f"f_sweep_N{args.N}.tsv", cfg, ["alpha", "abs_h", "abs_W", "on_arc", "abs_F"], rows)
    return 0


_WITNESS_BLOCK = 1 << 20  # n per unpacked slice of the representable set in the witness walk


def cmd_census(args, cfg: RunConfig, out: Path) -> int:
    from .census import family_members_upto, filter_A_upsilon, run_census, verify_obstruction_family, witness_for

    # the filter is cheap and checks its scale, so it runs before any artifact is written
    f = None if args.filter_upsilon is None else filter_A_upsilon(args.N or 10**6, args.filter_upsilon)
    if args.family:
        for j in range(args.jmax + 1):
            proof = verify_obstruction_family(j)
            print(f"j={j}: n=2^{6 + 12 * j} obstructed (descents={proof.descents}, root=4 mod 9)")
        print(f"{args.jmax + 1} family members confirmed")
    if args.N is not None:
        census = run_census(args.N)
        decades, largest = census.unlifted_exceptions()
        payload = {
            "N": census.N,
            "E_count": census.E_count,
            "family_hits": family_members_upto(census.N),
            "density_curve": census.density_curve(),
            "not_div64_per_decade": decades,
            "not_div64_largest": largest,
        }
        _write_json(out / f"census_{args.N}.json", cfg, payload)
        print(f"N={census.N}: |E| = {census.E_count}")
        if args.witnesses:
            rows = []
            for lo in range(0, census.N + 1, _WITNESS_BLOCK):
                for n in (lo + np.flatnonzero(census.representable[lo : lo + _WITNESS_BLOCK])).tolist():
                    wit = witness_for(census, n)
                    if wit is not None:
                        rows.append((n, *wit))
            _write_tsv(out / f"witnesses_{args.N}.tsv", cfg, ["n", "c1", "c2", "c3", "c4"], rows)
    if f is not None:
        _write_json(out / f"filter_u{args.filter_upsilon}.json", cfg, dataclasses.asdict(f))
        print(f"k={f.k} modulus={f.modulus} count={f.count}")
    return 0


# -- wiring ----------------------------------------------------------------------


def _checked(name: str, convert, ok, what: str):
    """An argparse type that converts the text, then requires `ok` of the value."""

    def parse(text: str):
        value = convert(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"{text} is not {what}")
        return value

    parse.__name__ = name
    return parse


def _batch_is_exact(q: int) -> bool:
    from .expsums import batch_is_exact  # on the first modulus parsed, not on import

    return batch_is_exact(q)


# Option values the subcommands' library calls would reject; checked here so
# that a bad value exits 4 and every ValueError past parsing is a program error.
positive_int = _checked("positive_int", int, lambda v: v >= 1, "a positive integer")
non_negative_int = _checked("non_negative_int", int, lambda v: v >= 0, "a non-negative integer")
smoothness_bound = _checked("smoothness_bound", int, lambda v: v >= 2, "an integer >= 2")
prime = _checked("prime", int, lambda p: p >= 2 and all(p % d for d in range(2, math.isqrt(p) + 1)), "a prime")
# complete_sum_S_batch, behind --sqa and every series term, needs q^3 < 2^53
modulus = _checked("modulus", int, _batch_is_exact, "a modulus q >= 1 with q^3 < 2^53")
open_unit = _checked("open_unit", float, lambda v: 0.0 < v < 1.0, "in (0, 1)")
half_open_unit = _checked("half_open_unit", float, lambda v: 0.0 <= v < 1.0, "in [0, 1)")
height = _checked("height", float, lambda v: 1.0 <= v < math.inf, "a finite height >= 1")
finite = _checked("finite", float, math.isfinite, "a finite number")


def build_parser(defaults: dict | None = None) -> argparse.ArgumentParser:
    """The CLI parser; `defaults` (option dest -> value) replace the subcommands' own defaults."""
    ap = argparse.ArgumentParser(prog="cubesquares", description=__doc__)
    ap.add_argument("--config", type=Path, help="JSON object of option values; explicit flags override it")
    sub = ap.add_subparsers(dest="subcommand", required=True)

    def common(p):
        p.add_argument("--out", type=Path, default=Path("."), help="output directory")

    def scale_options(p):
        p.add_argument("--eta", type=open_unit, default=0.1)
        p.add_argument("--R", type=smoothness_bound, default=None, help="smoothness bound override")

    pe = sub.add_parser("enumerate", help="cube-sum sieves, smooth sets, weight tables")
    common(pe)
    scale_options(pe)
    pe.add_argument("--csums", type=non_negative_int, help="sieve sums of three cubes up to X")
    pe.add_argument("--r3", action="store_true", help="include representation counts")
    pe.add_argument("--smooth", type=positive_int, help="enumerate smooth numbers up to Y")
    pe.add_argument("--bound", type=smoothness_bound, default=2, help="smoothness bound R")
    pe.add_argument("--table", choices=["a", "b"], help="build a weight table")
    pe.add_argument("--N", type=int, default=8**6)
    pe.add_argument("--format", choices=["bin", "csv"], default="csv")

    pl = sub.add_parser("local", help="exponential sums, Euler factors, certificates, w2")
    common(pl)
    pl.add_argument("--verify-sets", "--verify-paper-sets", dest="verify_sets", action="store_true",
                    help="recompute the three mod-27 square classes against their frozen tables")
    pl.add_argument("--sqa", type=modulus, help="emit the S(q, a) row for this q")
    pl.add_argument("--sn", type=int, help="truncated singular series at this n")
    pl.add_argument("--Q", type=modulus, default=64, help="series truncation")
    pl.add_argument("--sigma-p", dest="sigma_p", type=prime, help="Euler factor estimate at prime p")
    pl.add_argument("--n", type=int, default=1)
    pl.add_argument("--hmax", type=positive_int,
                    help="deepest level of --sigma-p (default: v_p(n) + 4 within p^h < 2^21, at least 3)")
    pl.add_argument("--w2-max", dest="w2_max", type=positive_int, help="scan w2 up to Q")
    pl.add_argument("--check-majorant", dest="check_majorant", action="store_true")
    pl.add_argument("--certificate", type=prime, help="solubility certificate at prime p (uses --n)")
    pl.add_argument("--two-adic", dest="two_adic", type=positive_int, help="2-adic profile of n")

    pa = sub.add_parser("arcs", help="arc classification, oscillatory integrals, main-term reports")
    common(pa)
    scale_options(pa)
    pa.add_argument("--classify", type=half_open_unit, help="classify alpha in [0,1)")
    pa.add_argument("--X", type=height, default=2.0, help="dissection height")
    pa.add_argument("--n", type=positive_int, default=None, help="dissection scale")
    pa.add_argument("--v-at-zero", dest="v_at_zero", action="store_true")
    pa.add_argument("--v-sweep", dest="v_sweep", action="store_true", help="v(beta) decay table")
    pa.add_argument("--beta-max", dest="beta_max", type=finite, default=10.0, help="sweep up to beta_max / N")
    pa.add_argument("--sweep-points", dest="sweep_points", type=positive_int, default=21,
                    help="grid size of --v-sweep, --rn-exact and --f-sweep")
    pa.add_argument("--rn-exact", dest="rn_exact", action="store_true", help="exact R(n) table")
    pa.add_argument("--toy", action="store_true", help="use the frozen single-entry tables")
    pa.add_argument("--report", type=int, help="MainTermReport at this n")
    pa.add_argument("--window-mass", dest="window_mass", action="store_true",
                    help="exact mass of R(n) over [N/2, N] against the sampled model S(n) J(n)")
    pa.add_argument("--samples", type=positive_int, default=32,
                    help="n sampled on a stride by --window-mass (the stride aliases with S(n), see ROADMAP item 1)")
    pa.add_argument("--f-sweep", dest="f_sweep", action="store_true",
                    help=f"residual F at --sweep-points alpha = a/{F_GRID_DENOMINATOR}; for P = 4 to 5656 this grid "
                         "meets the arcs only at alpha = 0, so off it the model columns are 0")
    pa.add_argument("--wide", action="store_true", help="--f-sweep on the wide dissection instead of the narrow one")
    pa.add_argument("--Q", type=modulus, default=64, help="series truncation")
    pa.add_argument("--N", type=int, default=8**6)

    pc = sub.add_parser("census", help="exceptional-set census and obstruction family")
    common(pc)
    pc.add_argument("--N", type=positive_int, default=None)
    pc.add_argument("--witnesses", action="store_true")
    pc.add_argument("--family", action="store_true")
    pc.add_argument("--jmax", type=non_negative_int, default=3)
    pc.add_argument("--filter-upsilon", dest="filter_upsilon", type=finite)
    for p in sub.choices.values():
        # argparse runs a string default through the option's type, so a
        # config value is checked and converted as the flag would be
        typed = {a.dest for a in p._actions if a.type is not None}
        p.set_defaults(**{k: str(v) if k in typed and v is not None else v for k, v in (defaults or {}).items()})
    return ap


def parse_args(argv: list[str]) -> argparse.Namespace:
    """Explicit flags win over --config values, which win over the flags' defaults.

    Raises SystemExit on bad usage, OSError or ValueError on a bad config file.
    """
    ap = build_parser()
    args = ap.parse_args(argv)
    if args.config is None:
        return args
    defaults = json.loads(args.config.read_text())
    if not isinstance(defaults, dict):
        raise ValueError(f"expected a JSON object, got {type(defaults).__name__}")
    unknown = sorted(set(defaults) - (set(vars(args)) - {"config", "subcommand"}))
    if unknown:
        raise ValueError(f"unknown {args.subcommand} options {unknown}")
    (sub,) = (a for a in ap._actions if isinstance(a, argparse._SubParsersAction))
    actions = {a.dest: a for a in sub.choices[args.subcommand]._actions}
    for key, value in defaults.items():
        error = _config_error(actions[key], value)
        if error:
            raise ValueError(f"{key}: {error}")
    return build_parser(defaults).parse_args(argv)


def _config_error(action: argparse.Action, value) -> str | None:
    """What is wrong with a config value, on the checks argparse runs on a flag but not on a default."""
    if value is None:
        return None if action.default is None else f"null for an option that defaults to {action.default!r}"
    if isinstance(action, argparse._StoreTrueAction) and not isinstance(value, bool):
        return f"{json.dumps(value)} is not true or false"
    if action.choices is not None and value not in action.choices:
        return f"{json.dumps(value)} is not one of {list(action.choices)}"
    return None


_DISPATCH = {
    "enumerate": cmd_enumerate,
    "local": cmd_local,
    "arcs": cmd_arcs,
    "census": cmd_census,
}


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = parse_args(argv)
    except SystemExit as e:
        # argparse exits 2 on bad usage; remap to the bad-config code
        return 0 if e.code in (0, None) else 4
    except (OSError, ValueError) as e:
        print(f"bad config file: {e}", file=sys.stderr)
        return 4
    from .cubesieve import memory_budget

    try:
        memory_budget()  # every guard reads it; a bad value exits here, before any output
    except ValueError as e:
        print(f"bad configuration: {e}", file=sys.stderr)
        return 4
    options = {k: v for k, v in vars(args).items() if k not in ("config",) and not isinstance(v, Path)}
    cfg = RunConfig(subcommand=args.subcommand, options=options)
    out = args.out
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as e:  # a file in the way
        print(f"bad configuration: --out {out}: {e}", file=sys.stderr)
        return 4
    try:
        return _DISPATCH[args.subcommand](args, cfg, out)
    except CapacityError as e:
        print(f"capacity: {e}", file=sys.stderr)
        return 2
    except (VerificationError, QuadratureError) as e:
        print(f"verification failure: {e}", file=sys.stderr)
        return 3
    except DegenerateParamsError as e:
        print(f"bad configuration: {e}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
