"""Tests for config parsing, report rendering, exports and the entry point."""

import hashlib
import json
from pathlib import Path

import pytest

from seamsim.cli import (
    _FIELD_KEYS,
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
from seamsim.engine import CHUNK_SIZE, MAX_REPLICATIONS, run_scenario, sweep

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"

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
    names = ("all", "best-1", "best-2", "best-3", "epsilon", "random-1", "threshold")
    params = {"epsilon": {"epsilon": 0.5}, "threshold": {"thresh": 3.0}}
    for code, name in enumerate(names):
        extra = params.get(name, {})
        rule = parse_config(treat_config(select=code, **extra), "treatment").rule
        assert rule == parse_config(treat_config(select=name, **extra), "treatment").rule
        assert (rule.kind, rule.epsilon, rule.threshold) == (name, extra.get("epsilon"), extra.get("thresh"))


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
    for outcome in ([], 0, "", False, None, [1]):
        with pytest.raises(ConfigError, match="key 'outcome': expected a mapping"):
            parse_config(treat_config(outcome=outcome), "treatment")
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
    # a NaN axis value is rejected while parsing, naming the value
    doc["sweep"] = {"axis": "futility-limits-grid", "values": [[0, 0], [float("nan"), 0]]}
    with pytest.raises(ConfigError, match=r"key 'sweep\.values\[1\]"):
        parse_sweep_config(doc)
    doc = treat_config(select=6, thresh=0.0)
    doc["sweep"] = {"axis": "threshold", "values": [0, float("nan")]}
    with pytest.raises(ConfigError, match=r"key 'sweep\.values\[1\]'"):
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
    # values of the wrong type or NaN are configuration errors, not tracebacks
    nan_threshold = treat_config(select=6, thresh=0.0)
    nan_threshold["sweep"] = {"axis": "threshold", "values": [0, float("nan")]}
    nan_limits = subpop_config(select="futility")
    nan_limits["sweep"] = {"axis": "futility-limits-grid", "values": [[0, 0], [float("nan"), 0]]}
    for command, doc, message in (
        (["treatsel", "run"], treat_config(select=[1]), "key 'select"),
        (["treatsel", "run"], treat_config(method=["invnorm"]), "key 'method"),
        (["subpop", "run"], subpop_config(select={"a": 1}), "key 'select"),
        (["sweep"], nan_threshold, "key 'sweep.values[1]"),
        (["sweep"], nan_limits, "key 'sweep.values[1]"),
        # Philox keys streams by the seed mod 2**64, so other seeds would alias
        (["treatsel", "run"], treat_config(seed=-1), "seed must lie in 0..2**64 - 1"),
        (["treatsel", "run"], treat_config(seed=2**64), "seed must lie in 0..2**64 - 1"),
        *((["treatsel", "run"], treat_config(outcome=v), "key 'outcome'") for v in ([], 0, "", False, None)),
        # valid numbers whose statistics overflow: exp(1000) and an event rate of 1
        (["treatsel", "run"], treat_config(effect={"early": [0, 0.5, 0.6], "final": [0, -1000, 0.3]},
                                           outcome={"final": "T"}), "key 'effect'"),
        (["subpop", "run"], subpop_config(effect={"early": [0.6, 0.9], "final": [1.0e300, 0.9]},
                                          outcome={"early": "T", "final": "B"}), "key 'effect'"),
        # where prevalence meets effects: a subgroup mean of inf - inf, no expected events at
        # prevalence 0.001, and none at 1/200, the least a varying prevalence of 0.3 can draw
        (["subpop", "run"], subpop_config(effect={"early": [1.0e308, -5.0], "final": [1.0e308, -1.0e308]},
                                          outcome={"early": "N", "final": "N"}, select="futility"),
         "effects at a prevalence of 0.3 give a non-finite expected statistic"),
        (["subpop", "run"], subpop_config(effect={"early": [0.6, 0.9], "final": [5.0e-324, 0.9]},
                                          outcome={"early": "T", "final": "B"}, sprev=0.001),
         "effects at a prevalence of 0.001: binary outcome is degenerate"),
        (["subpop", "run"], subpop_config(effect={"early": [0.6, 0.9], "final": [5.0e-324, 0.9]},
                                          outcome={"early": "T", "final": "B"}, sprev_fixed=False),
         "effects at a prevalence of 0.005: binary outcome is degenerate"),
    ):
        assert main(command + ["--config", write_config(tmp_path, doc)]) == 2, doc
        assert message in capsys.readouterr().err
    for seed in (0, 2**64 - 1):
        path = write_config(tmp_path, treat_config(seed=seed, nsim=10))
        assert main(["treatsel", "run", "--config", path, "--format", "csv"]) == 0
        capsys.readouterr()


def test_config_that_is_not_utf8_exits_2(tmp_path, capsys):
    # 0xff never occurs in UTF-8: decoding fails before YAML sees the text
    path = tmp_path / "config.yaml"
    path.write_bytes(b"n: {stage1: 100, stage2: 300}\nseed: \xff\n")
    for command in (["treatsel", "run"], ["subpop", "run"], ["sweep"]):
        assert main(command + ["--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: config is not UTF-8 text: ") and "0xff" in err


@pytest.mark.parametrize(
    "key, command, doc, message",
    [
        ("nsim", "treatsel", treat_config(nsim=MAX_REPLICATIONS + 1), f"in 1..{MAX_REPLICATIONS}"),
        ("ptest", "treatsel", treat_config(ptest=[9]), "subset of 1..K"),
        ("seed", "treatsel", treat_config(seed=-1), "0..2**64 - 1"),
        ("sprev", "subpop", subpop_config(sprev=1.0e-9, sprev_fixed=False), "non-empty"),
        # a redrawn count's CDF table grows as sqrt(n.stage1)
        ("n.stage1", "subpop", subpop_config(n={"stage1": 10_000_001, "stage2": 300, "enrich": 200},
                                             sprev_fixed=False), "at most 10000000 stage-1 patients per arm"),
        ("effect", "subpop", subpop_config(effect={"early": [0.6, 0.9], "final": [5.0e-324, 0.9]},
                                           outcome={"early": "T", "final": "B"}, sprev=0.001),
         "effects at a prevalence of 0.001: binary outcome is degenerate"),
    ],
    ids=["nsim", "ptest", "seed", "sprev", "n.stage1", "effect"],
)
def test_scenario_errors_name_their_config_key(tmp_path, capsys, key, command, doc, message):
    assert main([command, "run", "--config", write_config(tmp_path, doc)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: key '{key}': ") and message in err, err


def test_a_fixed_prevalence_keeps_any_stage1_size():
    n = {"stage1": 10_000_001, "stage2": 300, "enrich": 200}
    assert parse_config(subpop_config(n=n), "subgroup").plan.stage1_per_arm == 10_000_001


# one bad value for each design field a config sets; the design class names the field
FIELD_ERRORS = {
    "n.stage1": ("treatsel", treat_config(n={"stage1": 0, "stage2": 300})),
    "n.stage2": ("treatsel", treat_config(n={"stage1": 100, "stage2": -1})),
    "n.enrich": ("subpop", subpop_config(n={"stage1": 100, "stage2": 300, "enrich": 0})),
    "effect": ("treatsel", treat_config(effect={"early": [0, 0.5], "final": [0, 0.5, 0.6]})),
    "outcome.early": ("treatsel", treat_config(outcome={"early": "X"})),
    "outcome.final": ("subpop", subpop_config(outcome={"early": "T", "final": "survival"})),
    "corr": ("treatsel", treat_config(corr=1.5)),
    "epsilon": ("treatsel", treat_config(select=4)),
    "thresh": ("treatsel", treat_config(select=6)),
    "selim": ("subpop", subpop_config(select="thresh", selim=[0.5, 0.1])),
    "level": ("treatsel", treat_config(level=1.0)),
    "weight": ("subpop", subpop_config(weight=0.0)),
    "nsim": ("treatsel", treat_config(nsim=0)),
    "seed": ("treatsel", treat_config(seed=2**64)),
    "ptest": ("treatsel", treat_config(ptest=[0])),
    "sprev": ("subpop", subpop_config(sprev=1.0)),
}


def test_every_design_field_has_a_bad_config_case():
    assert sorted(FIELD_ERRORS) == sorted(_FIELD_KEYS.values())


@pytest.mark.parametrize("key", FIELD_ERRORS)
def test_each_field_error_names_its_config_key(tmp_path, capsys, key):
    command, doc = FIELD_ERRORS[key]
    assert main([command, "run", "--config", write_config(tmp_path, doc)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: key '{key}': ") and err.count("\n") == 1, err


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
    # the first point is valid; at stage1 = 290 the early statistic, sqrt(145) * 1.5e307,
    # overflows, and the sweep stops before it simulates any point
    doc["effect"] = {"early": [0, 1.5e307, 0.5], "final": [0, 0.2, 0.3]}
    doc["sweep"] = {"axis": "stage1-allocation", "values": [100, 290]}
    path = write_config(tmp_path, doc)
    assert main(["sweep", "--config", path, "--threads", "2"]) == 3
    err = capsys.readouterr().err
    assert "stage1-allocation 290: " in err and "non-finite expected statistic" in err


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


# SHA-256 of the (table, csv, json) output of each bundled config at one worker
FROZEN_OUTPUTS = {
    "copd_binary_final": (
        "fa3a7f8ca728308a8830aa7adb3d338b621f273aab37e7d20fb338caa398c135",
        "a3191ca2d04b7027849344ae366af0409262ad23bf30b4da5e4f8ef4b264b492",
        "6cd84dfc5240edf082a9ac573dd32e41404d314987568815fc0417727b3d966d",
    ),
    "copd_setting1": (
        "8ffb4b8a368559ee044a185f554b3a877a5374267ea346539b9f1727216bdc0c",
        "a1f19619cc8fa1d6d06244dc255c6b631de65ce133e72989c15465eef68c2957",
        "59c754af30005419c4f9f4d85e8b56c73f2d0c87758854ca6b7266289297ab7c",
    ),
    "copd_threshold": (
        "13234e0539df73906b1fbb322f2d73181c867515afc1f68b0b24409bed53b735",
        "529a745f2c3ad0dfcfc3fa693b1528e796cb481e107a3a5be9da17b1d11b471f",
        "8ba1109ca4712070c234de93e56462ffc37a5448dc1a0aae58b628d7512ce6c5",
    ),
    "copd_threshold_sweep": (
        "dce4e4731a0049e55b69ab9243c8308f99c88e253f8a6e02e2919fcb08536d94",
        "6805bb37a9a7de3f703410882b975a67df0c418b7490a5752afc49656a17ad4c",
        "39b381080c65404d172393baa7ded0443909d8d5ee5459b3b7419c99c146df2e",
    ),
    "oncology": (
        "ae8e2b0151ef57d3297d620a70df7ced2f2eb3bb9a9bf4db2d284ed881a6b368",
        "99ea3127fc7aa15e7f4561a81af483fc022672c5dfce769609259d8eed0c89c4",
        "70b58ca8ead3477c0ca08a2d2a33c05e87c771b08515d8da5cb1fe400df95b1f",
    ),
    "oncology_limits_sweep": (
        "d04502114c7093ac96970547abdf9522cb9336ba877efe7d014057b4964d45f7",
        "d5277a62024cad980e8b03b3b2b2c8328fcaf3710f1b14e9eb4dbb89244a9094",
        "c627aa95986358a89744819eb235f1a967d4c621a0c4ed39ff61cbb56a989709",
    ),
}


@pytest.mark.parametrize("name", FROZEN_OUTPUTS)
def test_bundled_config_outputs_are_frozen(name, tmp_path):
    if "sweep" in name:
        command = ["sweep"]
    else:
        command = ["subpop" if name.startswith("oncology") else "treatsel", "run"]
    config = str(CONFIG_DIR / f"{name}.yaml")
    for fmt, expected in zip(("table", "csv", "json"), FROZEN_OUTPUTS[name]):
        out = tmp_path / f"out.{fmt}"
        assert main(command + ["--config", config, "--format", fmt, "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == expected, fmt
