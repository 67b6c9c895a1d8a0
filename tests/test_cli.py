import json
from pathlib import Path

import pytest

from cubesquares import __version__, cli, expsums, oscillatory
from cubesquares.arcs import ArcDissection
from cubesquares.cli import RunConfig, main
from cubesquares.cubesieve import BUDGET_ENV
from cubesquares.errors import QuadratureError
from cubesquares.scale import Scale
from test_weights import as_dict, read_csv, read_wcl


def run(tmp_path, *argv):
    return main([*argv, "--out", str(tmp_path)])


def test_config_hash_stable():
    c1 = RunConfig("enumerate", {"csums": 30})
    c2 = RunConfig("enumerate", {"csums": 30})
    c3 = RunConfig("enumerate", {"csums": 31})
    assert c1.hash == c2.hash
    assert c1.hash != c3.hash
    assert len(c1.hash) == 12


def test_enumerate_csums(tmp_path):
    assert run(tmp_path, "enumerate", "--csums", "30") == 0
    text = (tmp_path / "cube_sums_30.tsv").read_text()
    lines = text.splitlines()
    assert lines[0].startswith("# config=")
    assert "version=" in lines[0]
    values = [int(l.split("\t")[0]) for l in lines[2:]]
    assert values == [3, 10, 17, 24, 29]


def test_enumerate_csums_r3(tmp_path):
    assert run(tmp_path, "enumerate", "--csums", "30", "--r3") == 0
    lines = (tmp_path / "cube_sums_30.tsv").read_text().splitlines()
    assert lines[1].split("\t") == ["value", "r3"]
    first = lines[2].split("\t")
    assert first == ["3", "1"]


def test_enumerate_smooth(tmp_path, capsys):
    assert run(tmp_path, "enumerate", "--smooth", "10", "--bound", "2") == 0
    lines = (tmp_path / "smooth_10_2.tsv").read_text().splitlines()
    assert [int(l) for l in lines[2:]] == [1, 2, 4, 8]
    assert capsys.readouterr().out.splitlines()[1:] == ["members: [1, 2, 4, 8]", "density 0.400000"]


def test_enumerate_weight_table_csv(tmp_path, capsys):
    from cubesquares.weights import table_digest

    N = 27**6
    assert run(tmp_path, "enumerate", "--table", "b", "--N", str(N), "--format", "csv") == 0
    path = tmp_path / f"weights_b_N{N}.csv"
    assert capsys.readouterr().out == f"wrote {path} (3 pairs, total mass 4)\n"
    table = read_csv(path)
    assert as_dict(table) == {218: 1, 225: 2, 232: 1}
    meta = json.loads((tmp_path / f"weights_b_N{N}.csv.meta.json").read_text())
    assert "config_hash" in meta and "version" in meta
    assert meta["digest"] == table_digest(table) and meta["pairs"] == 3


def test_enumerate_weight_table_binary(tmp_path, capsys):
    N = 27**6
    assert run(tmp_path, "enumerate", "--table", "b", "--N", str(N), "--format", "bin") == 0
    assert capsys.readouterr().out == f"wrote {tmp_path / f'weights_b_N{N}.wcl'} (3 pairs, total mass 4)\n"
    table = read_wcl(tmp_path / f"weights_b_N{N}.wcl")
    assert table.total == 4


def test_enumerate_bulk_table_binary_round_trip(tmp_path, monkeypatch):
    from cubesquares import weights
    from cubesquares.params import derive_params

    N = 27**6
    monkeypatch.setattr(weights, "BUCKET", 64)  # several buckets and write blocks
    assert run(tmp_path, "enumerate", "--table", "a", "--N", str(N), "--format", "bin") == 0
    table = read_wcl(tmp_path / f"weights_a_N{N}.wcl")
    meta = json.loads((tmp_path / f"weights_a_N{N}.wcl.meta.json").read_text())
    assert meta["format"] == "WCL1" and meta["pairs"] == len(table) == 210
    built = weights.build_weight_table(derive_params(N), "a")
    assert weights.table_digest(table) == meta["digest"] == weights.table_digest(built)


def test_local_verify_sets(tmp_path):
    assert run(tmp_path, "local", "--verify-sets") == 0
    assert run(tmp_path, "local", "--verify-paper-sets") == 0


def test_local_sqa(tmp_path):
    assert run(tmp_path, "local", "--sqa", "7") == 0
    lines = (tmp_path / "sqa_7.tsv").read_text().splitlines()
    assert lines[1].split("\t") == ["a", "re", "im"]
    assert len(lines) == 2 + 7


def test_local_series(tmp_path):
    assert run(tmp_path, "local", "--sn", "36", "--Q", "64") == 0
    payload = json.loads((tmp_path / "series_n36_Q64.json").read_text())
    assert payload["value"] == pytest.approx(0.7124479513717952, rel=1e-12)
    assert "config_hash" in payload


def test_local_sigma_p(tmp_path):
    assert run(tmp_path, "local", "--sigma-p", "5", "--n", "1", "--hmax", "2") == 0
    payload = json.loads((tmp_path / "sigma_p5_n1.json").read_text())
    assert payload["values"][-1] == pytest.approx(0.96)
    assert payload["converged"] is True


def test_local_sigma_p_takes_n_past_int64(tmp_path):
    n = 10**30 + 1
    assert run(tmp_path, "local", "--sigma-p", "5", "--n", str(n), "--hmax", "2") == 0
    assert run(tmp_path, "local", "--sigma-p", "5", "--n", "1", "--hmax", "2") == 0
    big = json.loads((tmp_path / f"sigma_p5_n{n}.json").read_text())
    one = json.loads((tmp_path / "sigma_p5_n1.json").read_text())
    assert big["n"] == n and big["values"] == one["values"]


def test_local_sigma_p_default_depth_follows_n(tmp_path):
    # v_2(8) = 3: the default depth is 7, and levels 5 and 6 agree
    assert run(tmp_path, "local", "--sigma-p", "2", "--n", "8") == 0
    payload = json.loads((tmp_path / "sigma_p2_n8.json").read_text())
    assert payload["converged"] is True and payload["h_used"] == 6
    assert payload["values"][-1] == pytest.approx(0.3823, abs=1e-4)


def test_local_w2(tmp_path):
    assert run(tmp_path, "local", "--w2-max", "1000", "--check-majorant") == 0
    payload = json.loads((tmp_path / "w2_Q1000.json").read_text())
    assert payload["majorant_holds"] is True


def test_local_certificate(tmp_path):
    assert run(tmp_path, "local", "--certificate", "7", "--n", "3") == 0
    payload = json.loads((tmp_path / "certificate_p7_n3.json").read_text())
    assert payload["condition_checked"] is True


def test_local_two_adic(tmp_path):
    assert run(tmp_path, "local", "--two-adic", "48") == 0
    payload = json.loads((tmp_path / "two_adic_48.json").read_text())
    assert payload["gamma"] == 4


def test_arcs_classify(tmp_path, capsys):
    assert run(tmp_path, "arcs", "--classify", "0.5", "--X", "2", "--n", "262144") == 0
    assert capsys.readouterr().out == "alpha=0.5: arc (a=1, q=2), beta=0\n"


def test_arcs_v_at_zero(tmp_path, capsys):
    assert run(tmp_path, "arcs", "--v-at-zero", "--N", str(8**6)) == 0
    out = capsys.readouterr().out
    assert "256" in out


def _drifted_v(beta, params, method="kernel1d"):
    return complex(1.001 * params.bulk.volume)


def _failing_v(beta, params, method="kernel1d"):
    raise QuadratureError(f"{method} did not stabilize")


@pytest.mark.parametrize("fake", [_drifted_v, _failing_v], ids=["drift", "quadrature"])
def test_arcs_verification_failure_exits_3(tmp_path, capsys, monkeypatch, fake):
    monkeypatch.setattr(oscillatory, "osc_integral_v", fake)
    assert run(tmp_path, "arcs", "--v-at-zero", "--N", str(8**6)) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("verification failure:")


def test_arcs_v_sweep(tmp_path):
    N = 8**6
    assert run(tmp_path, "arcs", "--v-sweep", "--N", str(N), "--beta-max", "1e-5", "--sweep-points", "5") == 0
    lines = (tmp_path / f"v_sweep_N{N}.tsv").read_text().splitlines()
    assert lines[1].split("\t") == ["beta", "re", "im", "abs"]
    assert len(lines) == 2 + 5


def test_arcs_rn_exact_toy(tmp_path):
    assert run(tmp_path, "arcs", "--rn-exact", "--toy") == 0
    lines = (tmp_path / "rn_toy.tsv").read_text().splitlines()
    rows = {int(l.split("\t")[0]): int(l.split("\t")[1]) for l in lines[2:]}
    assert rows[1170] == 1


def test_arcs_rn_exact_table(tmp_path):
    N = 262_144
    argv = ["arcs", "--rn-exact", "--N", str(N), "--sweep-points", "4", "--out", str(tmp_path)]
    assert main(argv) == 0
    lines = (tmp_path / f"rn_N{N}.tsv").read_text().splitlines()
    assert lines[0] == f"# config={RunConfig('arcs', _options(argv)).hash} version={__version__}"
    assert lines[1].split("\t") == ["n", "R"]
    rows = [tuple(int(x) for x in line.split("\t")) for line in lines[2:]]
    rn = Scale(N).rn
    assert rows == [(n, rn(n)) for n in range(N // 2, N + 1, N // 2 // 4)]
    assert len(rows) == 5


def test_arcs_window_mass(tmp_path, capsys):
    N = 27**6
    argv = ["arcs", "--window-mass", "--N", str(N), "--samples", "2"]
    assert run(tmp_path, *argv) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith("P=27  N=387420489  thin leading integers: [6]")
    assert out[1] == "exact window mass sum R(n), n in [193710244, 387420489]: 2737855"
    assert out[2].startswith("predicted mass: 1671431.2  (mean term 0.00862851, 2 samples, ")
    assert out[3:] == ["ratio exact/predicted: 1.638", f"wrote {tmp_path / f'window_mass_N{N}.json'}"]
    payload = json.loads((tmp_path / f"window_mass_N{N}.json").read_text())
    assert payload["config_hash"] == RunConfig("arcs", _options(argv)).hash
    assert payload["lo"] == N // 2 and payload["hi"] == N and payload["thin"] == [6]
    assert payload["exact_mass"] == 2_737_855
    assert payload["predicted_mass"] == pytest.approx(1671431.2, abs=0.05)
    assert payload["ratio"] == pytest.approx(1.638, abs=5e-4)


def test_arcs_window_mass_ratio_out_of_range_exits_3(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(Scale, "predicted_window_mass", lambda self, lo, hi, samples, Q: 0.0)
    assert run(tmp_path, "arcs", "--window-mass", "--N", str(27**6), "--samples", "2") == 3
    captured = capsys.readouterr()
    assert "ratio exact/predicted: inf" in captured.out
    assert captured.err.startswith("verification failure: window mass ratio") and len(captured.err.splitlines()) == 1
    # the measurement is on record, with a strict-JSON ratio
    payload = json.loads((tmp_path / f"window_mass_N{27**6}.json").read_text(), parse_constant=_reject_constant)
    assert payload["exact_mass"] == 2_737_855 and payload["ratio"] is None


# the rows of the former `scripts/arc_sweep.py --P 8 --points 5`, which the mode keeps byte for byte
F_SWEEP_ROWS = [
    "0\t64\t1\t1\t177.9",
    "0.199207\t3.81187\t1\t0\t14.5304",
    "0.399405\t21.005\t1\t0\t441.212",
    "0.599604\t4.53094\t1\t0\t20.5294",
    "0.799802\t6.02847\t1\t0\t36.3425",
]


def test_arcs_f_sweep(tmp_path):
    argv = ["arcs", "--f-sweep", "--N", "262144", "--sweep-points", "5"]
    assert run(tmp_path, *argv) == 0
    lines = (tmp_path / "f_sweep_N262144.tsv").read_text().splitlines()
    assert lines[0] == f"# config={RunConfig('arcs', _options(argv)).hash} version={__version__}"
    assert lines[1].split("\t") == ["alpha", "abs_h", "abs_W", "on_arc", "abs_F"]
    assert lines[2:] == F_SWEEP_ROWS
    rows = [[float(x) for x in line.split("\t")] for line in lines[2:]]
    assert rows[0][:4] == [0.0, 64.0, 1.0, 1.0]  # alpha = 0: |h| = table a mass, on the q = 1 arc


def test_arcs_f_sweep_wide(tmp_path, monkeypatch):
    # a/1009 lies on no arc but the one at 0 for either X at P = 8, so the rows are the narrow ones
    calls = []
    wide = ArcDissection.wide.__func__
    monkeypatch.setattr(ArcDissection, "wide", classmethod(lambda cls, P, n: calls.append((P, n)) or wide(cls, P, n)))
    assert run(tmp_path, "arcs", "--f-sweep", "--wide", "--N", "262144", "--sweep-points", "5") == 0
    assert calls == [(8, 262144)]
    assert (tmp_path / "f_sweep_N262144.tsv").read_text().splitlines()[2:] == F_SWEEP_ROWS


def test_arcs_f_sweep_out_path(tmp_path, capsys):
    blocker = tmp_path / "blocker"
    blocker.write_text("kept")
    assert main(["arcs", "--f-sweep", "--sweep-points", "2", "--out", str(blocker / "x")]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"bad configuration: --out {blocker / 'x'}: ")
    assert len(captured.err.splitlines()) == 1
    assert [p.name for p in tmp_path.iterdir()] == ["blocker"]
    out = tmp_path / "missing" / "dir"
    assert main(["arcs", "--f-sweep", "--sweep-points", "2", "--out", str(out)]) == 0
    assert capsys.readouterr().out == f"wrote {out / 'f_sweep_N262144.tsv'}\n"
    assert [p.name for p in out.iterdir()] == ["f_sweep_N262144.tsv"]
    assert len((out / "f_sweep_N262144.tsv").read_text().splitlines()) == 2 + 2


def _options(argv):
    return {k: v for k, v in vars(cli.parse_args(argv)).items() if k != "config" and not isinstance(v, Path)}


def test_census_command(tmp_path):
    assert run(tmp_path, "census", "--N", "2000") == 0
    payload = json.loads((tmp_path / "census_2000.json").read_text())
    assert payload["E_count"] == run_census_count(2000)
    assert [d[2] for d in payload["not_div64_per_decade"]] == [9, 88, 866, 941]
    assert payload["not_div64_largest"] == 2000


def run_census_count(N):
    from cubesquares.census import run_census

    return run_census(N).E_count


def test_census_witnesses(tmp_path):
    assert run(tmp_path, "census", "--N", "2000", "--witnesses") == 0
    lines = (tmp_path / "witnesses_2000.tsv").read_text().splitlines()
    first_data = lines[2].split("\t")
    n = int(first_data[0])
    quad = tuple(int(x) for x in first_data[1:])
    assert sum(x * x for x in quad) == n


def test_census_witness_walk_by_blocks(tmp_path, monkeypatch):
    # the walk unpacks the representable set one block at a time; every representable n gets its row
    from cubesquares.census import run_census

    monkeypatch.setattr(cli, "_WITNESS_BLOCK", 100)
    assert run(tmp_path, "census", "--N", "2000", "--witnesses") == 0
    rows = [line.split("\t") for line in (tmp_path / "witnesses_2000.tsv").read_text().splitlines()[2:]]
    census = run_census(2000)
    want = [n for n in range(2001) if census.representable[n]]
    assert [int(r[0]) for r in rows] == want
    assert all(sum(int(x) ** 2 for x in r[1:]) == int(r[0]) for r in rows)


def test_census_family(tmp_path):
    assert run(tmp_path, "census", "--family", "--jmax", "3") == 0


def test_census_filter(tmp_path):
    assert run(tmp_path, "census", "--filter-upsilon", "2.0", "--N", "1000000") == 0
    payload = json.loads((tmp_path / "filter_u2.0.json").read_text())
    assert payload["count"] == 3906


def test_unknown_command(tmp_path):
    assert main(["frobnicate", "--out", str(tmp_path)]) == 4


def test_help_exit_zero():
    assert main(["--help"]) == 0
    assert main(["arcs", "--help"]) == 0


def test_degenerate_params_exit(tmp_path):
    assert run(tmp_path, "arcs", "--v-at-zero", "--N", "10") == 4


@pytest.mark.parametrize("flags", [["--rn-exact", "--sweep-points", "0"], ["--v-sweep", "--sweep-points", "-3"]])
def test_sweep_points_must_be_positive(tmp_path, flags):
    assert run(tmp_path, "arcs", *flags) == 4
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--window-mass", "--samples", "0"], "0 is not a positive integer"),
        (["--f-sweep", "--sweep-points", "0"], "0 is not a positive integer"),
        (["--window-mass", "--Q", "0"], "0 is not a modulus"),
    ],
    ids=["window-samples", "f-sweep-points", "window-Q"],
)
def test_window_mass_and_f_sweep_options_exit_4(tmp_path, capsys, argv, message):
    assert run(tmp_path, "arcs", *argv) == 4
    captured = capsys.readouterr()
    assert captured.out == "" and message in captured.err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "argv, option, value",
    [(["local", "--sigma-p", "5", "--n", "1"], "hmax", 0), (["census", "--family"], "jmax", -1)],
)
def test_count_options_reject_empty_runs(tmp_path, argv, option, value):
    assert run(tmp_path, *argv, f"--{option}", str(value)) == 4
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({option: value}))
    assert main(["--config", str(cfg), *argv, "--out", str(tmp_path)]) == 4
    assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]


@pytest.mark.parametrize(
    "argv",
    [
        ["enumerate", "--csums", "-1"],
        ["enumerate", "--smooth", "0"],
        ["enumerate", "--smooth", "10", "--bound", "1"],
        ["enumerate", "--table", "a", "--eta", "1.5"],
        ["enumerate", "--table", "a", "--R", "1"],
        ["local", "--sqa", "0"],
        ["local", "--sqa", "300000"],
        ["local", "--sn", "5", "--Q", "0"],
        ["local", "--sigma-p", "4"],
        ["local", "--w2-max", "-1"],
        ["local", "--certificate", "0"],
        ["local", "--two-adic", "0"],
        ["arcs", "--classify", "1.5"],
        ["arcs", "--classify", "0.3", "--X", "0.5"],
        ["arcs", "--classify", "0.3", "--n", "0"],
        ["census", "--N", "0"],
        ["census", "--filter-upsilon", "inf"],
        # (ln 10^6)^300 overflows a float, and no n <= 10^6 is divisible by 2^k >= it
        ["census", "--filter-upsilon", "300"],
        # the 2-adic descent needs n >= 1, checked before the --sqa row is written
        ["local", "--sqa", "5", "--certificate", "2", "--n", "0"],
        ["local", "--sqa", "5", "--certificate", "2", "--n", "-4"],
        # --eta and --R size the weight tables, which local and census do not build
        ["local", "--sn", "36", "--eta", "0.5"],
        ["census", "--family", "--R", "7"],
        ["arcs", "--v-sweep", "--beta-max", "nan", "--N", "4096"],
        ["arcs", "--v-sweep", "--beta-max", "inf", "--N", "4096"],
        # 208064^3 >= 2^53: the series would reach complete_sum_S_batch's bound
        ["local", "--sn", "36", "--Q", "208064"],
        ["arcs", "--report", "200000", "--Q", "208064", "--N", "262144"],
    ],
)
def test_bad_option_values_exit_4(tmp_path, argv):
    assert run(tmp_path, *argv) == 4
    assert list(tmp_path.iterdir()) == []


def test_degenerate_filter_scale_exit_4(tmp_path):
    # the filter's scale is checked before the census runs, so census_2.json is not written
    assert run(tmp_path, "census", "--N", "2", "--filter-upsilon", "1") == 4
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "argv",
    [
        ["arcs", "--rn-exact", "--toy", "--report", "5", "--N", "10"],
        ["enumerate", "--csums", "5", "--table", "a", "--N", "10"],
        ["arcs", "--window-mass", "--N", "1"],
        ["arcs", "--window-mass", "--N", str(16**6)],  # P = 16: the thin interval holds no integer
        ["arcs", "--f-sweep", "--N", "1"],
        ["arcs", "--f-sweep", "--N", "64"],  # P = 2 derives, but the narrow dissection needs log P > 1
    ],
)
def test_degenerate_scale_writes_nothing(tmp_path, capsys, argv):
    # the scale is derived before the first action, so no earlier action leaves an artifact
    assert run(tmp_path, *argv) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("bad configuration: ") and len(captured.err.splitlines()) == 1
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("value", ["abc", "1e9", "0", "-5"])
def test_bad_memory_budget_exit_4(tmp_path, monkeypatch, capsys, value):
    monkeypatch.setenv(BUDGET_ENV, value)
    out = tmp_path / "out"
    assert run(out, "census", "--N", "1000") == 4
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and BUDGET_ENV in err
    assert not out.exists()


@pytest.mark.parametrize("under", [(), ("sub",)], ids=["file", "under-file"])
def test_out_path_blocked_by_a_file_exit_4(tmp_path, capsys, under):
    blocker = tmp_path / "blocker"
    blocker.write_text("kept")
    assert main(["census", "--N", "100", "--out", str(blocker.joinpath(*under))]) == 4
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("bad configuration: --out")
    assert [p.name for p in tmp_path.iterdir()] == ["blocker"] and blocker.read_text() == "kept"


def test_over_budget_local_density_exit_2(tmp_path, capsys):
    # mod 97^4 the two-fold table would need ~20 GB; refused once levels 1 and 2 disagree
    assert run(tmp_path, "local", "--sigma-p", "97", "--n", "0", "--hmax", "4") == 2
    assert capsys.readouterr().err.startswith("capacity: two-fold T^2 distribution mod 97^4 needs")
    assert list(tmp_path.iterdir()) == []


def test_over_budget_smooth_set_exit_2(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv(BUDGET_ENV, "1000")
    assert run(tmp_path, "enumerate", "--smooth", "1000000") == 2
    assert capsys.readouterr().err.startswith("capacity: smooth sieve for Y=1000000 needs")
    assert list(tmp_path.iterdir()) == []


def test_over_budget_pair_table_exit_2(tmp_path, monkeypatch, capsys):
    # R = P = 2000 makes every integer of the box smooth: the pair sums alone would take about 26 MB
    monkeypatch.setenv(BUDGET_ENV, str(10 << 20))
    assert run(tmp_path, "enumerate", "--table", "a", "--N", str(2000**6), "--R", "2000") == 2
    assert capsys.readouterr().err.startswith("capacity: table 'pairs' (2000 x 2000) needs")
    assert list(tmp_path.iterdir()) == []


def test_w2_scan_past_int64_exit_2(tmp_path, capsys):
    # the carrier W(q) <= q^3 passes int64 from q = 2^21 on
    assert run(tmp_path, "local", "--w2-max", str(2**21), "--check-majorant") == 2
    assert capsys.readouterr().err.startswith("capacity: w2 scan to Q=2097152")
    assert list(tmp_path.iterdir()) == []


def test_local_density_converging_early_is_not_refused(tmp_path):
    # 97 does not divide 6n: levels 1 and 2 agree, so level 97^4 is never built or reserved
    assert run(tmp_path, "local", "--sigma-p", "97", "--n", "1", "--hmax", "4") == 0
    payload = json.loads((tmp_path / "sigma_p97_n1.json").read_text())
    assert payload["converged"] is True and payload["h_used"] == 2


def test_internal_value_error_is_not_bad_configuration(tmp_path, monkeypatch):
    def broken(*args, **kwargs):
        raise ValueError("internal inconsistency")

    monkeypatch.setattr(expsums, "truncated_singular_series", broken)
    with pytest.raises(ValueError, match="internal inconsistency"):
        run(tmp_path, "local", "--sn", "36")


def test_census_family_jmax_zero(tmp_path, capsys):
    assert run(tmp_path, "census", "--family", "--jmax", "0") == 0
    assert "1 family members confirmed" in capsys.readouterr().out


def test_arcs_report(tmp_path):
    assert run(tmp_path, "arcs", "--report", "196608", "--N", str(8**6), "--Q", "32") == 0
    payload = json.loads((tmp_path / "report_n196608.json").read_text())
    assert set(payload) == {"config_hash", "version", "n", "R_exact", "S_trunc", "J_est", "predicted", "ratio"}
    assert payload["J_est"] == pytest.approx(0.00033530136406281975, rel=1e-9)


def _reject_constant(name):
    raise ValueError(f"{name} is not valid JSON")


def test_arcs_report_without_model_mass_is_strict_json(tmp_path):
    # P = 4: the prime window is empty, so R(n) = 0 and S*J = 0
    assert run(tmp_path, "arcs", "--report", "3000", "--N", "4096") == 0
    payload = json.loads((tmp_path / "report_n3000.json").read_text(), parse_constant=_reject_constant)
    assert payload["R_exact"] == 0 and payload["predicted"] == 0
    assert payload["ratio"] is None


def test_config_file_defaults(tmp_path):
    cfg = tmp_path / "defaults.json"
    cfg.write_text(json.dumps({"csums": 30}))
    assert main(["--config", str(cfg), "enumerate", "--out", str(tmp_path)]) == 0
    assert (tmp_path / "cube_sums_30.tsv").exists()


def test_config_overrides_flag_default(tmp_path):
    N = 27**6
    cfg = tmp_path / "scale.json"
    cfg.write_text(json.dumps({"N": N}))
    assert main(["--config", str(cfg), "enumerate", "--table", "b", "--out", str(tmp_path)]) == 0
    assert (tmp_path / f"weights_b_N{N}.csv").exists()
    assert not (tmp_path / f"weights_b_N{8**6}.csv").exists()


def test_explicit_flag_overrides_config(tmp_path):
    cfg = tmp_path / "defaults.json"
    cfg.write_text(json.dumps({"csums": 30, "N": 27**6}))
    assert main(["--config", str(cfg), "enumerate", "--csums", "20", "--out", str(tmp_path)]) == 0
    assert (tmp_path / "cube_sums_20.tsv").exists()
    assert not (tmp_path / "cube_sums_30.tsv").exists()


def test_config_unknown_key_exit(tmp_path):
    cfg = tmp_path / "bad_key.json"
    for doc in ({"csums": 30, "frobnicate": 1}, {"jmax": 2}, {"subcommand": "census"}, [30]):
        cfg.write_text(json.dumps(doc))
        assert main(["--config", str(cfg), "enumerate", "--out", str(tmp_path)]) == 4
    assert not (tmp_path / "cube_sums_30.tsv").exists()


def test_config_values_are_type_checked(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cases = [
        ({"sweep_points": 0}, ["arcs", "--rn-exact"]),
        ({"N": 1.5}, ["arcs", "--rn-exact"]),
        # null is only the value of an option that defaults to None
        ({"N": None}, ["arcs", "--rn-exact"]),
        ({"sweep_points": None}, ["arcs", "--v-sweep", "--N", "4096"]),
        # a flag takes only JSON true or false, not a truthy string
        ({"witnesses": "no"}, ["census", "--N", "100"]),
        ({"v_at_zero": "false"}, ["arcs"]),
        # argparse checks choices on a flag's value, not on a default
        ({"table": "c"}, ["enumerate"]),
        ({"format": "xml"}, ["enumerate", "--table", "b", "--N", str(27**6)]),
    ]
    for doc, argv in cases:
        cfg.write_text(json.dumps(doc))
        assert main(["--config", str(cfg), *argv, "--out", str(tmp_path)]) == 4
        assert capsys.readouterr().out == ""
    assert [p.name for p in tmp_path.iterdir()] == ["bad.json"]


def test_config_flags_take_json_booleans(tmp_path):
    cfg = tmp_path / "flags.json"
    for witnesses in (False, True):
        # census --N defaults to None, so null stays a value it takes
        cfg.write_text(json.dumps({"witnesses": witnesses, "N": None}))
        assert main(["--config", str(cfg), "census", "--N", "100", "--out", str(tmp_path)]) == 0
        assert (tmp_path / "witnesses_100.tsv").exists() == witnesses


def test_bad_config_file(tmp_path):
    cfg = tmp_path / "bad.json"
    cfg.write_text("{not json")
    assert main(["--config", str(cfg), "enumerate", "--csums", "30", "--out", str(tmp_path)]) == 4
