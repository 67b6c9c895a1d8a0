"""Command-line entry point: enumerate / local / arcs / census.

Every run is described by a RunConfig whose hash is embedded in each
output artifact (inline for JSON/TSV, via .meta.json sidecar for the
fixed-format CSV/binary tables).  Exit codes: 0 success, 2 capacity,
3 verification failure, 4 bad configuration.  Option values are checked by
their argparse types, so any other exception is a program error and ends
the run with a traceback (exit 1).  Runs are sequential and deterministic
for a fixed config.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .arcs import classify
from .census import family_members_upto, filter_A_upsilon, run_census, verify_obstruction_family, witness_for
from .cubesieve import sieve_cube_sums
from .errors import CapacityError, DegenerateParamsError, QuadratureError, VerificationError
from .expsums import complete_sum_S_batch, truncated_singular_series
from .localsolve import hensel_certificate, mod27_square_sets, sigma_p, two_adic_profile
from .mainterm import RnEvaluator, rn_dense_dft
from .oscillatory import osc_integral_v, v_at_zero
from .scale import Scale
from .smooth import enumerate_smooth
from .w2 import w2_scan
from .weights import WeightTable, save_binary, save_csv


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
        s = enumerate_smooth(args.smooth, args.bound)
        _write_tsv(out / f"smooth_{args.smooth}_{args.bound}.tsv", cfg, ["value"], [(v,) for v in s])
        print("members:", list(s))
        print(f"density {len(s) / max(args.smooth, 1):.6f}")
    if args.table is not None:
        table = scale.table_a if args.table == "a" else scale.table_b
        base = out / f"weights_{args.table}_N{args.N}"
        if args.format == "csv":
            save_csv(table, base.with_suffix(".csv"))
            Path(str(base.with_suffix(".csv")) + ".meta.json").write_text(json.dumps(_meta(cfg), indent=2))
        else:
            save_binary(table, base.with_suffix(".wcl"), meta=_meta(cfg))
        print(f"wrote {base} ({len(table)} pairs, total mass {table.total})")
    return 0


def cmd_local(args, cfg: RunConfig, out: Path) -> int:
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
        prof = two_adic_profile(args.two_adic)
        prof.verify()
        _write_json(out / f"two_adic_{args.two_adic}.json", cfg, {
            "n": prof.n, "h": prof.h, "gamma": prof.gamma, "theta": prof.theta,
            "witness": list(prof.witness), "euler_floor": prof.euler_floor,
        })
        print(f"n={prof.n}: gamma={prof.gamma} theta={prof.theta} witness={prof.witness}")
    return 0


def _toy_tables() -> tuple[WeightTable, WeightTable, list[int]]:
    one = np.array([1], dtype=np.int64)
    three = np.array([3], dtype=np.int64)
    return (
        WeightTable(role="a", support=three, counts=one),
        WeightTable(role="b", support=three, counts=one),
        [2],
    )


def cmd_arcs(args, cfg: RunConfig, out: Path) -> int:
    scale = Scale(args.N, args.eta, args.R)
    if args.v_at_zero or args.v_sweep or (args.rn_exact and not args.toy) or args.report is not None:
        scale.params  # a degenerate scale exits before any artifact is written
    if args.classify is not None:
        n = args.n or 10**4
        hit = classify(args.classify, args.X, n)
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
            ta, tb, primes = _toy_tables()
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
    return 0


def cmd_census(args, cfg: RunConfig, out: Path) -> int:
    # the filter is cheap and checks its scale, so it runs before any artifact is written
    f = None if args.filter_upsilon is None else filter_A_upsilon(args.N or 10**6, args.filter_upsilon)
    if args.family:
        for j in range(args.jmax + 1):
            proof = verify_obstruction_family(j)
            print(f"j={j}: n=2^{6 + 12 * j} obstructed (descents={proof.descents}, root=4 mod 9)")
        print(f"{args.jmax + 1} family members confirmed")
    if args.N is not None:
        census = run_census(args.N)
        payload = {
            "N": census.N,
            "E_count": census.E_count,
            "family_hits": family_members_upto(census.N),
            "density_curve": census.density_curve(),
        }
        _write_json(out / f"census_{args.N}.json", cfg, payload)
        print(f"N={census.N}: |E| = {census.E_count}")
        if args.witnesses:
            rows = []
            for n in np.flatnonzero(census.representable).tolist():
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


def _is_prime(p: int) -> bool:
    return p >= 2 and all(p % d for d in range(2, math.isqrt(p) + 1))


# Option values the subcommands' library calls would reject; checked here so
# that a bad value exits 4 and every ValueError past parsing is a program error.
positive_int = _checked("positive_int", int, lambda v: v >= 1, "a positive integer")
non_negative_int = _checked("non_negative_int", int, lambda v: v >= 0, "a non-negative integer")
smoothness_bound = _checked("smoothness_bound", int, lambda v: v >= 2, "an integer >= 2")
prime = _checked("prime", int, _is_prime, "a prime")
# complete_sum_S_batch needs q^3 < 2^53 for exact float64 counts
sqa_modulus = _checked("sqa_modulus", int, lambda v: 1 <= v and v**3 < 2**53, "a modulus q >= 1 with q^3 < 2^53")
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
    pl.add_argument("--sqa", type=sqa_modulus, help="emit the S(q, a) row for this q")
    pl.add_argument("--sn", type=int, help="truncated singular series at this n")
    pl.add_argument("--Q", type=positive_int, default=64, help="series truncation")
    pl.add_argument("--sigma-p", dest="sigma_p", type=prime, help="Euler factor estimate at prime p")
    pl.add_argument("--n", type=int, default=1)
    pl.add_argument("--hmax", type=positive_int, default=3)
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
    pa.add_argument("--beta-max", dest="beta_max", type=float, default=10.0, help="sweep up to beta_max / N")
    pa.add_argument("--sweep-points", dest="sweep_points", type=positive_int, default=21)
    pa.add_argument("--rn-exact", dest="rn_exact", action="store_true", help="exact R(n) table")
    pa.add_argument("--toy", action="store_true", help="use the frozen single-entry tables")
    pa.add_argument("--report", type=int, help="MainTermReport at this n")
    pa.add_argument("--Q", type=positive_int, default=64)
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
    args = build_parser().parse_args(argv)
    if args.config is None:
        return args
    defaults = json.loads(args.config.read_text())
    if not isinstance(defaults, dict):
        raise ValueError(f"expected a JSON object, got {type(defaults).__name__}")
    unknown = sorted(set(defaults) - (set(vars(args)) - {"config", "subcommand"}))
    if unknown:
        raise ValueError(f"unknown {args.subcommand} options {unknown}")
    return build_parser(defaults).parse_args(argv)


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
    options = {k: v for k, v in vars(args).items() if k not in ("config",) and not isinstance(v, Path)}
    cfg = RunConfig(subcommand=args.subcommand, options=options)
    out = args.out
    out.mkdir(parents=True, exist_ok=True)
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
