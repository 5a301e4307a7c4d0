"""Tests for config parsing, report rendering, exports and the entry point."""

import json

import pytest

from seamsim.cli import (
    ConfigError,
    export_csv,
    export_json,
    export_sweep_csv,
    export_sweep_json,
    format_number,
    main,
    parse_config,
    parse_sweep_config,
    render_report,
    render_sweep,
)
from seamsim.engine import CHUNK_SIZE, run_scenario, sweep

TREAT_MINIMAL = {
    "n": {"stage1": 100, "stage2": 300},
    "effect": {
        "early": [0, 0.68, 0.82, 0.95, 0.91],
        "final": [0, 0.13, 0.17, 0.23, 0.20],
    },
}

SUBPOP_MINIMAL = {
    "n": {"stage1": 100, "stage2": 300, "enrich": 200},
    "effect": {"early": [0.6, 0.9], "final": [0.6, 0.9]},
    "outcome": {"early": "T", "final": "T"},
    "sprev": 0.3,
    "selim": [0, 0],
}


def treat_config(**overrides):
    doc = {k: (dict(v) if isinstance(v, dict) else list(v)) for k, v in TREAT_MINIMAL.items()}
    doc.update(overrides)
    return doc


def subpop_config(**overrides):
    doc = {k: (dict(v) if isinstance(v, dict) else v) for k, v in SUBPOP_MINIMAL.items()}
    doc.update(overrides)
    return doc


# ---------------------------------------------------------------------------
# number formatting


def test_format_number_strips_trailing_zeros():
    assert format_number(3.0, 1) == "3"
    assert format_number(0.8660254, 2) == "0.87"
    assert format_number(86.0, 2) == "86"
    assert format_number(84.694, 2) == "84.69"
    assert format_number(1400.0, 1) == "1400"
    assert format_number(-0.0001, 2) == "0"
    assert format_number(-1.46, 2) == "-1.46"


def test_format_number_rounds_ties_to_even():
    assert format_number(0.125, 2) == "0.12"
    assert format_number(0.375, 2) == "0.38"


# ---------------------------------------------------------------------------
# scenario parsing


def test_treatment_defaults():
    scn = parse_config(treat_config(), "treatment")
    assert scn.replications == 1000
    assert scn.master_seed == 12345
    assert scn.effects.correlation == 0.0
    assert scn.effects.early_outcome == "N"
    assert scn.effects.final_outcome == "N"
    assert scn.rule.kind == "all"
    assert scn.test.intersection == "dunnett"
    assert scn.test.config.method == "inverse-normal"
    assert scn.test.config.alpha == 0.025
    assert scn.test.config.w1 == pytest.approx(0.5)
    assert scn.ptest is None
    assert not scn.follow_up


def test_subgroup_defaults():
    scn = parse_config(subpop_config(), "subgroup")
    assert scn.rule.kind == "threshold-pair"
    assert scn.test.intersection == "spiessens-debois"
    assert scn.prevalence == 0.3
    assert scn.prevalence_fixed
    assert scn.plan.enrich_per_arm == 200


def test_yaml_text_is_accepted():
    text = """
n: {stage1: 100, stage2: 300}
effect:
  early: [0, 0.5]
  final: [0, 0.2]
nsim: 64
"""
    scn = parse_config(text, "treatment")
    assert scn.replications == 64
    with pytest.raises(ConfigError, match="invalid YAML"):
        parse_config("n: [unclosed", "treatment")
    with pytest.raises(ConfigError, match="expected a mapping"):
        parse_config("- 1\n- 2\n", "treatment")


def test_select_codes_and_names_agree():
    by_code = parse_config(treat_config(select=2), "treatment")
    by_name = parse_config(treat_config(select="best-2"), "treatment")
    assert by_code.rule == by_name.rule
    assert by_code.rule.kind == "best-2"
    eps = parse_config(treat_config(select=4, epsilon=0.5), "treatment")
    assert eps.rule.epsilon == 0.5
    thresh = parse_config(treat_config(select=6, thresh=3.0), "treatment")
    assert thresh.rule.threshold == 3.0


def test_conditional_rule_parameters_are_enforced():
    with pytest.raises(ConfigError, match="epsilon"):
        parse_config(treat_config(select=4), "treatment")
    with pytest.raises(ConfigError, match="epsilon"):
        parse_config(treat_config(select=2, epsilon=0.5), "treatment")
    with pytest.raises(ConfigError, match="thresh"):
        parse_config(treat_config(select=6), "treatment")
    with pytest.raises(ConfigError, match="thresh"):
        parse_config(treat_config(select=0, thresh=1.0), "treatment")
    with pytest.raises(ConfigError, match="code 0-6"):
        parse_config(treat_config(select=7), "treatment")
    with pytest.raises(ConfigError, match="select"):
        parse_config(treat_config(select=True), "treatment")


def test_unknown_keys_are_named_in_the_error():
    with pytest.raises(ConfigError, match="unknown key 'alpha'"):
        parse_config(treat_config(alpha=0.05), "treatment")
    bad_n = treat_config()
    bad_n["n"]["enrich"] = 50  # subgroup-only key
    with pytest.raises(ConfigError, match="unknown key 'n.enrich'"):
        parse_config(bad_n, "treatment")
    bad_effect = treat_config()
    bad_effect["effect"]["mid"] = [0, 0]
    with pytest.raises(ConfigError, match="unknown key 'effect.mid'"):
        parse_config(bad_effect, "treatment")
    with pytest.raises(ConfigError, match="unknown key 'selim'"):
        parse_config(treat_config(selim=[0, 0]), "treatment")
    with pytest.raises(ConfigError, match="unknown key 'ptest'"):
        parse_config(subpop_config(ptest=[1]), "subgroup")


def test_missing_and_malformed_keys():
    with pytest.raises(ConfigError, match="missing required key 'n'"):
        parse_config({"effect": {"early": [0, 1], "final": [0, 1]}}, "treatment")
    with pytest.raises(ConfigError, match="missing required key 'n.stage2'"):
        parse_config(treat_config(n={"stage1": 100}), "treatment")
    with pytest.raises(ConfigError, match="missing required key 'effect'"):
        parse_config({"n": {"stage1": 10, "stage2": 10}}, "treatment")
    with pytest.raises(ConfigError, match="key 'nsim': expected an integer"):
        parse_config(treat_config(nsim="many"), "treatment")
    with pytest.raises(ConfigError, match="key 'n.stage1': expected an integer"):
        parse_config(treat_config(n={"stage1": True, "stage2": 10}), "treatment")
    with pytest.raises(ConfigError, match="key 'corr'"):
        parse_config(treat_config(corr=1.5), "treatment")
    with pytest.raises(ConfigError, match="key 'level'"):
        parse_config(treat_config(level=1.0), "treatment")
    with pytest.raises(ConfigError, match="key 'weight'"):
        parse_config(treat_config(weight=0.0), "treatment")
    with pytest.raises(ConfigError, match="outcome.early"):
        parse_config(treat_config(outcome={"early": "X"}), "treatment")
    with pytest.raises(ConfigError, match="effect.early"):
        parse_config(treat_config(effect={"early": [], "final": []}), "treatment")


def test_subgroup_specific_validation():
    doc = subpop_config()
    del doc["sprev"]
    with pytest.raises(ConfigError, match="missing required key 'sprev'"):
        parse_config(doc, "subgroup")
    with pytest.raises(ConfigError, match="key 'sprev'"):
        parse_config(subpop_config(sprev=1.0), "subgroup")
    doc = subpop_config()
    del doc["selim"]
    with pytest.raises(ConfigError, match="missing required key 'selim'"):
        parse_config(doc, "subgroup")
    with pytest.raises(ConfigError, match="exactly two"):
        parse_config(subpop_config(selim=[0, 0, 0]), "subgroup")
    with pytest.raises(ConfigError, match="'thresh' or 'futility'"):
        parse_config(subpop_config(select="best-1"), "subgroup")
    with pytest.raises(ConfigError, match="not supported"):
        parse_config(subpop_config(method="CEF"), "subgroup")
    with pytest.raises(ConfigError, match="method"):
        parse_config(subpop_config(method="CT-Dunnett"), "subgroup")


def test_subgroup_methods_are_case_insensitive():
    for name, intersection in (
        ("ct-sd", "spiessens-debois"),
        ("CT-Simes", "simes"),
        ("CT-BONFERRONI", "bonferroni"),
    ):
        scn = parse_config(subpop_config(method=name), "subgroup")
        assert scn.test.intersection == intersection


def test_treatment_method_and_extras():
    scn = parse_config(
        treat_config(method="fisher", ptest=[4, 3], fu=True, nsim=99, seed=7, corr=0.4),
        "treatment",
    )
    assert scn.test.config.method == "fisher"
    assert scn.ptest == (3, 4)
    assert scn.follow_up
    assert scn.replications == 99
    assert scn.master_seed == 7
    assert scn.effects.correlation == 0.4
    with pytest.raises(ConfigError, match="ptest"):
        parse_config(treat_config(ptest=[]), "treatment")
    with pytest.raises(ConfigError, match="method"):
        parse_config(treat_config(method="CT-SD"), "treatment")
    with pytest.raises(ConfigError, match="fu"):
        parse_config(treat_config(fu="yes"), "treatment")


# ---------------------------------------------------------------------------
# sweep documents


def test_sweep_config_infers_the_design():
    doc = treat_config(select=6, thresh=0.0, nsim=50)
    doc["sweep"] = {"axis": "threshold", "values": [0, 0.5, 1]}
    base, axis, values = parse_sweep_config(doc)
    assert base.design == "treatment"
    assert axis == "threshold"
    assert values == [0.0, 0.5, 1.0]

    doc = subpop_config(select="futility", nsim=50)
    doc["sweep"] = {"axis": "futility-limits-grid", "values": [[0, 0], [-1, 0]]}
    base, axis, values = parse_sweep_config(doc)
    assert base.design == "subgroup"
    assert values == [(0.0, 0.0), (-1.0, 0.0)]


def test_sweep_config_validation():
    doc = treat_config()
    with pytest.raises(ConfigError, match="missing required key 'sweep'"):
        parse_sweep_config(doc)
    doc["sweep"] = {"axis": "alpha", "values": [1]}
    with pytest.raises(ConfigError, match="sweep.axis"):
        parse_sweep_config(doc)
    doc["sweep"] = {"axis": "threshold", "values": []}
    with pytest.raises(ConfigError, match="sweep.values"):
        parse_sweep_config(doc)
    doc["sweep"] = {"axis": "threshold", "values": [1], "seed": 3}
    with pytest.raises(ConfigError, match="unknown key 'sweep.seed'"):
        parse_sweep_config(doc)
    doc["sweep"] = {"axis": "stage1-allocation", "values": [10.5]}
    with pytest.raises(ConfigError, match="expected an integer"):
        parse_sweep_config(doc)
    doc = subpop_config(select="futility")
    doc["sweep"] = {"axis": "futility-limits-grid", "values": [[0, 0, 0]]}
    with pytest.raises(ConfigError, match="pair"):
        parse_sweep_config(doc)


# ---------------------------------------------------------------------------
# rendering


def test_treatment_report_prints_the_expected_statistics():
    scn = parse_config(treat_config(nsim=200, corr=0.4, select=2, ptest=[3, 4]), "treatment")
    report = render_report(run_scenario(scn), scn)
    lines = report.splitlines()
    assert lines[0] == "simulation of test statistics:"
    assert "expectation early = 4.8 5.8 6.7 6.4" in lines
    assert "expectation final stage 1 = 0.9 1.2 1.6 1.4 and stage 2 = 1.6 2.1 2.8 2.4" in lines
    assert "weights: stage 1 = 0.5 and stage 2 = 0.87" in lines
    assert "number of treatments selected at stage 1:" in lines
    assert "treatment selection at stage 1:" in lines
    assert "hypothesis rejection at study endpoint:" in lines
    assert any(line.startswith("reject H3 and/or H4 = ") for line in lines)
    assert any(line.startswith("expected total sample size = ") for line in lines)


def test_treatment_report_counts_are_consistent():
    scn = parse_config(treat_config(nsim=200, select=2), "treatment")
    oc = run_scenario(scn)
    report = render_report(oc, scn)
    # the size-2 histogram row carries every replication
    assert f"{'2':>6}{200:>9}{'100.00':>15}" in report.splitlines()
    assert f"{'Total':>6}{200:>9}{'100.00':>15}" in report.splitlines()
    for arm, count in enumerate(oc.hypothesis_rejected_counts, start=1):
        assert f"{f'H{arm}':>6}{count:>9}" in report


def test_subgroup_report_prints_the_expected_statistics():
    scn = parse_config(subpop_config(nsim=200, corr=0.5, select="futility"), "subgroup")
    report = render_report(run_scenario(scn), scn)
    lines = report.splitlines()
    assert "expectation early: sub-pop = -1.46 : full-pop = -0.58" in lines
    assert "expectation final stage 1: sub-pop = -1.46 : full-pop = -0.58" in lines
    assert "expectation final stage 2: sub-pop only = -3.76 : full-pop only = -1.01" in lines
    assert (
        "expectation final stage 2, both groups selected: sub-pop = -2.52 : full-pop = -1.01"
        in lines
    )
    assert "weights: stage 1 = 0.5 and stage 2 = 0.87" in lines
    header = f"{'':<6}" + "".join(f"{h:>9}" for h in ("Hs", "Hf", "Hs+Hf", "Hs+f", "n", "n"))
    assert header in lines
    assert any(line.startswith("reject Hs and/or Hf =  ") for line in lines)
    assert any(line.startswith("stopped for futility = ") for line in lines)


def test_subgroup_report_total_row_adds_the_branches():
    scn = parse_config(subpop_config(nsim=300, select="futility"), "subgroup")
    oc = run_scenario(scn)
    lines = render_report(oc, scn).splitlines()
    (total_line,) = [l for l in lines if l.startswith("total")]
    rows = oc.subgroup_counts
    n_total = sum(r.n for r in rows.values())
    assert total_line.split() == [
        "total",
        str(sum(r.hs for r in rows.values())),
        str(sum(r.hf for r in rows.values())),
        str(sum(r.both for r in rows.values())),
        str(sum(r.intersection for r in rows.values())),
        str(n_total),
        "-",
    ]
    assert n_total + oc.futility_count == oc.replications


# ---------------------------------------------------------------------------
# exports


def test_csv_export_layout():
    scn = parse_config(treat_config(nsim=100, select=2, ptest=[3, 4]), "treatment")
    oc = run_scenario(scn)
    rows = export_csv(oc, scn).splitlines()
    assert rows[0] == "metric,key,count,percent"
    assert rows[1] == "replications,,100,"
    k = scn.effects.comparisons
    # futility + 3 per-arm blocks + any + ptest + 3 diagnostics
    assert len(rows) == 1 + 2 + 3 * k + 2 + 3
    assert any(r.startswith("ptest_rejected,H3+H4,") for r in rows)
    assert any(r.startswith("expected_sample_size,,") for r in rows)


def test_json_export_mirrors_the_dataclass():
    scn = parse_config(subpop_config(nsim=100), "subgroup")
    oc = run_scenario(scn)
    payload = json.loads(export_json(oc, scn))
    assert payload["design"] == "subgroup"
    assert payload["replications"] == 100
    assert payload["union_rejected_count"] == oc.union_rejected_count
    assert payload["subgroup_counts"]["both"]["n"] == oc.subgroup_counts["both"].n
    assert payload["expected_total_sample_size"] == oc.expected_total_sample_size


def test_sweep_outputs():
    scn = parse_config(treat_config(nsim=100, select=6, thresh=1.0), "treatment")
    points = sweep(scn, "threshold", [0.5, 1.5])
    table = render_sweep(points)
    assert table.splitlines()[0].split() == ["value", "futility%", "reject-any%", "E[N]"]
    assert len(table.splitlines()) == 3

    rows = export_sweep_csv(points).splitlines()
    assert rows[0] == "axis,value,metric,key,count,percent"
    assert rows[1].startswith("threshold,0.5,replications,,100,")

    payload = json.loads(export_sweep_json(points))
    assert payload["axis"] == "threshold"
    assert [p["value"] for p in payload["points"]] == [0.5, 1.5]
    assert payload["points"][0]["oc"]["replications"] == 100


def test_sweep_table_for_subgroup_designs():
    scn = parse_config(subpop_config(nsim=100, select="futility"), "subgroup")
    points = sweep(scn, "futility-limits-grid", [(0.0, 0.0)])
    table = render_sweep(points)
    assert "reject-union%" in table.splitlines()[0]
    assert table.splitlines()[1].lstrip().startswith("(0, 0)")


# ---------------------------------------------------------------------------
# entry point and exit codes


def write_config(tmp_path, doc):
    import yaml

    path = tmp_path / "config.yaml"
    path.write_text(yaml.safe_dump(doc))
    return str(path)


def test_main_runs_a_scenario_to_stdout(tmp_path, capsys):
    path = write_config(tmp_path, treat_config(nsim=50, select=2))
    assert main(["treatsel", "run", "--config", path]) == 0
    out = capsys.readouterr().out
    assert "expectation early = 4.8 5.8 6.7 6.4" in out


def test_main_writes_the_requested_format(tmp_path):
    path = write_config(tmp_path, subpop_config(nsim=50))
    out = tmp_path / "result.csv"
    code = main(["subpop", "run", "--config", path, "--format", "csv", "--out", str(out)])
    assert code == 0
    assert out.read_text().startswith("metric,key,count,percent")


def test_main_runs_sweeps(tmp_path, capsys):
    doc = treat_config(nsim=50, select=6, thresh=0.0)
    doc["sweep"] = {"axis": "threshold", "values": [0.0, 1.0]}
    path = write_config(tmp_path, doc)
    assert main(["sweep", "--config", path]) == 0
    assert "reject-any%" in capsys.readouterr().out


def test_main_exit_code_for_config_errors(tmp_path, capsys):
    path = write_config(tmp_path, treat_config(select=9))
    assert main(["treatsel", "run", "--config", path]) == 2
    assert "error:" in capsys.readouterr().err
    path = write_config(tmp_path, treat_config(select=4, epsilon=float("nan")))
    assert main(["treatsel", "run", "--config", path]) == 2
    assert "key 'epsilon'" in capsys.readouterr().err


def test_main_rejects_a_rarely_kept_varying_prevalence_before_drawing(
    tmp_path, capsys, monkeypatch
):
    import seamsim.engine

    def no_draws(*args):
        raise AssertionError("the engine drew replications")

    monkeypatch.setattr(seamsim.engine, "_draw_chunk", no_draws)
    path = write_config(tmp_path, subpop_config(sprev=1e-9, sprev_fixed=False))
    assert main(["subpop", "run", "--config", path]) == 2
    assert "non-empty" in capsys.readouterr().err
    with pytest.raises(ConfigError, match="non-empty"):
        parse_config(subpop_config(sprev=1e-9, sprev_fixed=False), "subgroup")
    assert parse_config(subpop_config(sprev=1e-9), "subgroup").prevalence == 1e-9


def test_main_exit_code_for_infeasible_scenarios(tmp_path, capsys):
    doc = treat_config(nsim=50, select=1)
    doc["effect"] = {"early": [0, 0.5, 0.6], "final": [0, 0.2, 0.3]}
    doc["sweep"] = {"axis": "stage1-allocation", "values": [11]}
    path = write_config(tmp_path, doc)
    assert main(["sweep", "--config", path]) == 3
    assert "budget" in capsys.readouterr().err


def test_main_exit_code_for_io_errors(tmp_path, capsys):
    assert main(["treatsel", "run", "--config", str(tmp_path / "missing.yaml")]) == 4
    assert "cannot read" in capsys.readouterr().err
    path = write_config(tmp_path, treat_config(nsim=50))
    code = main(
        ["treatsel", "run", "--config", path, "--out", str(tmp_path / "no-dir" / "x.csv")]
    )
    assert code == 4
    assert "cannot write" in capsys.readouterr().err


def test_main_threads_flag_does_not_change_output(tmp_path, capsys):
    doc = treat_config(nsim=2 * CHUNK_SIZE, select=2)
    path = write_config(tmp_path, doc)
    assert main(["treatsel", "run", "--config", path, "--format", "csv"]) == 0
    serial = capsys.readouterr().out
    assert main(["treatsel", "run", "--config", path, "--format", "csv", "--threads", "2"]) == 0
    assert capsys.readouterr().out == serial
