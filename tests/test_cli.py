import json

import pytest

from cubesquares import cli
from cubesquares.cli import RunConfig, main


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


def test_enumerate_smooth(tmp_path):
    assert run(tmp_path, "enumerate", "--smooth", "10", "--bound", "2") == 0
    lines = (tmp_path / "smooth_10_2.tsv").read_text().splitlines()
    assert [int(l) for l in lines[2:]] == [1, 2, 4, 8]


def test_enumerate_weight_table_csv(tmp_path):
    from cubesquares.weights import load_csv

    N = 27**6
    assert run(tmp_path, "enumerate", "--table", "b", "--N", str(N), "--format", "csv") == 0
    path = tmp_path / f"weights_b_N{N}.csv"
    table = load_csv(path, role="b")
    assert table.as_dict() == {218: 1, 225: 2, 232: 1}
    meta = json.loads((tmp_path / f"weights_b_N{N}.csv.meta.json").read_text())
    assert "config_hash" in meta and "version" in meta


def test_enumerate_weight_table_binary(tmp_path):
    from cubesquares.weights import load_binary

    N = 27**6
    assert run(tmp_path, "enumerate", "--table", "b", "--N", str(N), "--format", "bin") == 0
    table = load_binary(tmp_path / f"weights_b_N{N}.wcl")
    assert table.total == 4


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
    out = capsys.readouterr().out
    assert '"q": 2' in out or "q=2" in out


def test_arcs_v_at_zero(tmp_path, capsys):
    assert run(tmp_path, "arcs", "--v-at-zero", "--N", str(8**6)) == 0
    out = capsys.readouterr().out
    assert "256" in out


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


def test_census_command(tmp_path):
    assert run(tmp_path, "census", "--N", "2000") == 0
    payload = json.loads((tmp_path / "census_2000.json").read_text())
    assert payload["E_count"] == run_census_count(2000)


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
        # the 2-adic descent needs n >= 1, checked before the --sqa row is written
        ["local", "--sqa", "5", "--certificate", "2", "--n", "0"],
        ["local", "--sqa", "5", "--certificate", "2", "--n", "-4"],
        # --eta and --R size the weight tables, which local and census do not build
        ["local", "--sn", "36", "--eta", "0.5"],
        ["census", "--family", "--R", "7"],
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
    ],
)
def test_degenerate_scale_writes_nothing(tmp_path, argv):
    # the scale is derived before the first action, so no earlier action leaves an artifact
    assert run(tmp_path, *argv) == 4
    assert list(tmp_path.iterdir()) == []


def test_internal_value_error_is_not_bad_configuration(tmp_path, monkeypatch):
    def broken(*args, **kwargs):
        raise ValueError("internal inconsistency")

    monkeypatch.setattr(cli, "truncated_singular_series", broken)
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


def test_config_values_are_type_checked(tmp_path):
    cfg = tmp_path / "zero.json"
    for doc in ({"sweep_points": 0}, {"N": 1.5}):
        cfg.write_text(json.dumps(doc))
        assert main(["--config", str(cfg), "arcs", "--rn-exact", "--out", str(tmp_path)]) == 4
    assert list(tmp_path.glob("*.tsv")) == []


def test_bad_config_file(tmp_path):
    cfg = tmp_path / "bad.json"
    cfg.write_text("{not json")
    assert main(["--config", str(cfg), "enumerate", "--csums", "30", "--out", str(tmp_path)]) == 4
