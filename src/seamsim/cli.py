"""Config-driven command-line front end.

Scenario files are YAML mappings whose keys mirror the simulator's classic
argument names (``n.stage1``, ``effect.early``, ``select``, ``selim``, ...).
The three subcommands are::

    seamsim treatsel run --config design.yaml
    seamsim subpop run --config design.yaml
    seamsim sweep --config sweep.yaml

Each accepts ``--out`` (default stdout), ``--format {table,csv,json}`` and
``--threads``; results are independent of the thread count. Exit codes:
0 success, 2 configuration error, 3 infeasible scenario, 4 I/O error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from dataclasses import asdict

import yaml

from .closedtest import CombinationConfig
from .engine import (
    _BRANCHES,
    InfeasibleScenarioError,
    OperatingCharacteristics,
    Scenario,
    SWEEP_AXES,
    TestSpec,
    run_scenario,
    sweep,
)
from .selection import _TREATMENT_KINDS, SelectionRule
from .simmodel import (
    SUBGROUP,
    TREATMENT,
    EffectSpec,
    SampleSizePlan,
    _FieldError,
    build_score_model,
)

__all__ = [
    "ConfigError",
    "parse_config",
    "parse_sweep_config",
    "render_report",
    "render_sweep",
    "export_csv",
    "export_json",
    "export_sweep_csv",
    "export_sweep_json",
    "main",
]

DEFAULT_NSIM = 1000
DEFAULT_LEVEL = 0.025
DEFAULT_SEED = 12345
DEFAULT_CORRELATION = 0.0

_SUBPOP_SELECT = {
    "thresh": "threshold-pair",
    "threshold": "threshold-pair",
    "futility": "futility-pair",
}
# config spelling, lowercased to match any case -> intersection test
_SUBPOP_METHODS = {
    "ct-sd": "spiessens-debois",
    "ct-simes": "simes",
    "ct-bonferroni": "bonferroni",
}
_TREAT_METHODS = {"invnorm": "inverse-normal", "fisher": "fisher"}
# the config key that sets each design field whose check can fail
_FIELD_KEYS = {"stage1_per_arm": "n.stage1", "stage2_per_arm": "n.stage2",
               "enrich_per_arm": "n.enrich", "effects": "effect", "correlation": "corr",
               "early_outcome": "outcome.early", "final_outcome": "outcome.final",
               "epsilon": "epsilon", "threshold": "thresh", "limits": "selim",
               "alpha": "level", "weight": "weight", "replications": "nsim",
               "master_seed": "seed", "ptest": "ptest", "prevalence": "sprev"}
# SubgroupCounts' rejection columns, as the report and the CSV export order them
_REJECTION_COLUMNS = ("hs", "hf", "both", "intersection")

_COMMON_KEYS = ("n", "effect", "outcome", "nsim", "corr", "seed", "select", "method", "weight", "level")
_TREAT_KEYS = _COMMON_KEYS + ("epsilon", "thresh", "ptest", "fu")
_SUBPOP_KEYS = _COMMON_KEYS + ("sprev", "sprev_fixed", "selim")


class ConfigError(ValueError):
    """A scenario document that fails validation."""


# ---------------------------------------------------------------------------
# parsing


def _require_mapping(value, path: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"key '{path}': expected a mapping")
    return value


def _load(document) -> dict:
    """The mapping a document describes, from YAML text or an already-loaded mapping."""
    if isinstance(document, str):
        try:
            document = yaml.safe_load(document)
        except yaml.YAMLError as exc:
            raise ConfigError(f"invalid YAML: {exc}") from exc
    return _require_mapping(document, "<document>")


def _require(block: dict, keys, prefix: str = "") -> None:
    for key in keys:
        if key not in block:
            raise ConfigError(f"missing required key '{prefix}{key}'")


def _reject_unknown(doc: dict, allowed, path: str = "") -> None:
    for key in doc:
        if key not in allowed:
            full = f"{path}.{key}" if path else str(key)
            raise ConfigError(f"unknown key '{full}'")


def _as_int(value, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"key '{path}': expected an integer")
    return value


def _as_float(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)) or math.isnan(value):
        raise ConfigError(f"key '{path}': expected a number")
    return float(value)


def _as_bool(value, path: str) -> bool:
    if not isinstance(value, bool):
        raise ConfigError(f"key '{path}': expected true or false")
    return value


def _as_number_list(value, path: str) -> tuple:
    if not isinstance(value, (list, tuple)) or not value:
        raise ConfigError(f"key '{path}': expected a list of numbers")
    return tuple(_as_float(v, f"{path}[{i}]") for i, v in enumerate(value))


def _as_pair(value, path: str) -> tuple:
    pair = _as_number_list(value, path)
    if len(pair) != 2:
        raise ConfigError(f"key '{path}': expected exactly two limits, a (subgroup, full) pair")
    return pair


def _parse_plan(doc: dict, design: str) -> SampleSizePlan:
    _require(doc, ("n",))
    block = _require_mapping(doc["n"], "n")
    allowed = ("stage1", "stage2", "enrich") if design == SUBGROUP else ("stage1", "stage2")
    _reject_unknown(block, allowed, "n")
    _require(block, ("stage1", "stage2"), "n.")
    n1 = _as_int(block["stage1"], "n.stage1")
    n2 = _as_int(block["stage2"], "n.stage2")
    enrich = _as_int(block["enrich"], "n.enrich") if "enrich" in block else None
    return SampleSizePlan(n1, n2, enrich_per_arm=enrich)


def _parse_effects(doc: dict, design: str) -> EffectSpec:
    _require(doc, ("effect",))
    block = _require_mapping(doc["effect"], "effect")
    _reject_unknown(block, ("early", "final"), "effect")
    _require(block, ("early", "final"), "effect.")
    early = _as_number_list(block["early"], "effect.early")
    final = _as_number_list(block["final"], "effect.final")

    outcome = _require_mapping(doc.get("outcome", {}), "outcome")
    _reject_unknown(outcome, ("early", "final"), "outcome")
    return EffectSpec(
        design=design,
        early=early,
        final=final,
        early_outcome=outcome.get("early", "N"),
        final_outcome=outcome.get("final", "N"),
        correlation=_as_float(doc.get("corr", DEFAULT_CORRELATION), "corr"),
    )


def _parse_treat_rule(doc: dict) -> SelectionRule:
    kind = doc.get("select", "all")
    if type(kind) is int and 0 <= kind < len(_TREATMENT_KINDS):  # a code; bool is no code
        kind = _TREATMENT_KINDS[kind]
    if not isinstance(kind, str) or kind not in _TREATMENT_KINDS:
        raise ConfigError(
            "key 'select': expected a code 0-6 or one of " + ", ".join(sorted(_TREATMENT_KINDS))
        )
    params = {param: _as_float(doc[key], key)
              for key, param in (("epsilon", "epsilon"), ("thresh", "threshold")) if key in doc}
    return SelectionRule(kind, **params)


def _parse_subpop_rule(doc: dict) -> SelectionRule:
    select = doc.get("select", "thresh")
    if not isinstance(select, str) or select not in _SUBPOP_SELECT:
        raise ConfigError("key 'select': expected 'thresh' or 'futility'")
    _require(doc, ("selim",))
    limits = _as_pair(doc["selim"], "selim")
    return SelectionRule(_SUBPOP_SELECT[select], limits=limits)


def parse_config(document, design: str) -> Scenario:
    """Validate a scenario document and build the Scenario it describes.

    This checks the document's shape. Value rules belong to the design
    classes, which name a failing field; it is reported as its config key.

    Args:
        document: YAML text or an already-loaded mapping.
        design: "treatment" or "subgroup" (fixed by the subcommand).

    Raises:
        ConfigError: naming the offending key and constraint.
    """
    doc = _load(document)
    allowed = _TREAT_KEYS if design == TREATMENT else _SUBPOP_KEYS
    _reject_unknown(doc, allowed)

    try:
        plan = _parse_plan(doc, design)
        effects = _parse_effects(doc, design)

        nsim = _as_int(doc.get("nsim", DEFAULT_NSIM), "nsim")
        seed = _as_int(doc.get("seed", DEFAULT_SEED), "seed")
        level = _as_float(doc.get("level", DEFAULT_LEVEL), "level")
        weight = _as_float(doc["weight"], "weight") if "weight" in doc else None

        extra = {}
        if design == TREATMENT:
            rule = _parse_treat_rule(doc)
            method = doc.get("method", "invnorm")
            if not isinstance(method, str) or method not in _TREAT_METHODS:
                raise ConfigError("key 'method': expected 'invnorm' or 'fisher'")
            intersection = "dunnett"
            combination = _TREAT_METHODS[method]
            if "ptest" in doc:
                ptest = doc["ptest"]
                if not isinstance(ptest, (list, tuple)) or not ptest:
                    raise ConfigError("key 'ptest': expected a list of arm numbers")
                extra["ptest"] = tuple(_as_int(v, f"ptest[{i}]") for i, v in enumerate(ptest))
            if "fu" in doc:
                extra["follow_up"] = _as_bool(doc["fu"], "fu")
        else:
            rule = _parse_subpop_rule(doc)
            method = str(doc.get("method", "CT-SD")).lower()
            if method == "cef":
                raise ConfigError("key 'method': the conditional error function method is not supported")
            if method not in _SUBPOP_METHODS:
                raise ConfigError("key 'method': expected 'CT-SD', 'CT-Simes' or 'CT-Bonferroni'")
            intersection = _SUBPOP_METHODS[method]
            combination = "inverse-normal"
            _require(doc, ("sprev",))
            extra["prevalence"] = _as_float(doc["sprev"], "sprev")
            extra["prevalence_fixed"] = _as_bool(doc.get("sprev_fixed", True), "sprev_fixed")

        config = CombinationConfig.from_sample_sizes(
            plan.stage1_per_arm,
            plan.stage2_per_arm,
            alpha=level,
            method=combination,
            weight=weight,
        )
        return Scenario(
            effects=effects,
            plan=plan,
            rule=rule,
            test=TestSpec(intersection, config),
            replications=nsim,
            master_seed=seed,
            **extra,
        )
    except _FieldError as exc:
        raise ConfigError(f"key '{_FIELD_KEYS[exc.field]}': {exc}") from exc


def parse_sweep_config(document) -> tuple:
    """Parse a sweep document: a scenario plus a ``sweep: {axis, values}`` block.

    The design is inferred from the scenario keys ('sprev' marks a subgroup
    design). Returns (base scenario, axis, values).
    """
    doc = dict(_load(document))
    _require(doc, ("sweep",))
    block = _require_mapping(doc.pop("sweep"), "sweep")
    _reject_unknown(block, ("axis", "values"), "sweep")
    axis = block.get("axis")
    if axis not in SWEEP_AXES:
        raise ConfigError(f"key 'sweep.axis': expected one of {', '.join(SWEEP_AXES)}")
    raw = block.get("values")
    if not isinstance(raw, (list, tuple)) or not raw:
        raise ConfigError("key 'sweep.values': expected a non-empty list")
    parse = {"futility-limits-grid": _as_pair, "stage1-allocation": _as_int}.get(axis, _as_float)
    values = [parse(v, f"sweep.values[{i}]") for i, v in enumerate(raw)]
    design = SUBGROUP if "sprev" in doc else TREATMENT
    return parse_config(doc, design), axis, values


# ---------------------------------------------------------------------------
# rendering


def format_number(x, decimals: int) -> str:
    """Round to ``decimals`` places (ties to even) and strip trailing zeros."""
    text = f"{round(float(x), decimals):.{decimals}f}"
    if "." in text:
        text = text.rstrip("0").rstrip(".")
    if text in ("-0", ""):
        text = "0"
    return text


def _count_row(label: str, count: int, pct: float) -> str:
    return f"{label:>6}{count:>9}{pct:>15.2f}"


def _count_tables(oc: OperatingCharacteristics) -> tuple:
    """(report title, CSV metric, key prefix, counts) of the treatment count tables."""
    return (
        ("number of treatments selected at stage 1:", "selected_size", "", oc.selected_size_counts),
        ("treatment selection at stage 1:", "arm_selected", "", oc.arm_selected_counts),
        ("hypothesis rejection at study endpoint:", "hypothesis_rejected", "H",
         oc.hypothesis_rejected_counts),
    )


def _expectation_lines(scenario: Scenario) -> list:
    model = build_score_model(scenario.effects, scenario.plan, scenario.prevalence)
    early, final1, final2 = model.mean.reshape(3, -1)
    lines = ["simulation of test statistics:"]
    if scenario.design == TREATMENT:
        fmt = lambda values: " ".join(format_number(v, 1) for v in values)  # noqa: E731
        lines.append(f"expectation early = {fmt(early)}")
        lines.append(f"expectation final stage 1 = {fmt(final1)} and stage 2 = {fmt(final2)}")
    else:
        # (label, qualifier of both populations, their (subgroup, full) means)
        rows = (("early", "", early), ("final stage 1", "", final1),
                ("final stage 2", " only", (model.subgroup_only, final2[1])),
                ("final stage 2, both groups selected", "", final2))
        lines += [f"expectation {label}: sub-pop{only} = {format_number(sub, 2)} : "
                  f"full-pop{only} = {format_number(full, 2)}" for label, only, (sub, full) in rows]
    config = scenario.test.config
    lines.append(
        f"weights: stage 1 = {format_number(config.w1, 2)}"
        f" and stage 2 = {format_number(config.w2, 2)}"
    )
    return lines


def render_report(oc: OperatingCharacteristics, scenario: Scenario) -> str:
    """Human-readable run report mirroring the classic console output."""
    reps = oc.replications
    pct = lambda count: 100.0 * count / reps  # noqa: E731
    lines = _expectation_lines(scenario)
    lines.append("")
    if scenario.design == TREATMENT:
        for title, metric, prefix, counts in _count_tables(oc):
            lines += [title, f"{'':>6}{'n':>9}"]
            lines += [_count_row(f"{prefix}{i}", c, pct(c)) for i, c in enumerate(counts, start=1)]
            if metric == "selected_size":
                lines.append(_count_row("Total", sum(counts), pct(sum(counts))))
            lines.append("")
        if oc.ptest is not None:
            label = " and/or ".join(f"H{arm}" for arm in oc.ptest)
            count = oc.ptest_rejected_count
            lines.append(f"reject {label} = {count} :  {format_number(pct(count), 2)}")
    else:
        lines.append("hypotheses rejected and group selection options at stage 1 (n):")
        header = f"{'':<6}" + "".join(f"{h:>9}" for h in ("Hs", "Hf", "Hs+Hf", "Hs+f", "n", "n"))
        lines.append(header)
        totals = [0] * 5
        for name in _BRANCHES:
            row = oc.subgroup_counts[name]
            cells = [getattr(row, col) for col in _REJECTION_COLUMNS + ("n",)]
            totals = [t + c for t, c in zip(totals, cells)]
            lines.append(
                f"{name:<6}"
                + "".join(f"{c:>9}" for c in cells)
                + f"{pct(row.n):>9.2f}"
            )
        lines.append(f"{'total':<6}" + "".join(f"{c:>9}" for c in totals) + f"{'-':>9}")
        lines.append(
            f"reject Hs and/or Hf =  {format_number(pct(oc.union_rejected_count), 2)}"
        )
        lines.append(
            f"stopped for futility = {oc.futility_count} :"
            f"  {format_number(pct(oc.futility_count), 2)}"
        )
    lines.append(
        f"expected total sample size = {format_number(oc.expected_total_sample_size, 1)}"
    )
    return "\n".join(lines) + "\n"


def _metric_rows(oc: OperatingCharacteristics) -> list:
    """(metric, key, count, percent) rows shared by the CSV exports."""
    reps = oc.replications
    pct = lambda count: f"{100.0 * count / reps:.2f}"  # noqa: E731
    rows = [("replications", "", str(reps), "")]
    rows.append(("futility", "", str(oc.futility_count), pct(oc.futility_count)))
    if oc.design == TREATMENT:
        for _, metric, prefix, counts in _count_tables(oc):
            rows += [(metric, f"{prefix}{i}", str(c), pct(c))
                     for i, c in enumerate(counts, start=1)]
        rows.append(("any_rejected", "", str(oc.any_rejected_count), pct(oc.any_rejected_count)))
        if oc.ptest is not None:
            key = "+".join(f"H{arm}" for arm in oc.ptest)
            rows.append(
                ("ptest_rejected", key, str(oc.ptest_rejected_count), pct(oc.ptest_rejected_count))
            )
    else:
        for name in _BRANCHES:
            row = oc.subgroup_counts[name]
            rows.append(("selection", name, str(row.n), pct(row.n)))
            for col in _REJECTION_COLUMNS:
                count = getattr(row, col)
                rows.append(("rejected", f"{name}.{col}", str(count), pct(count)))
        rows.append(("union_rejected", "", str(oc.union_rejected_count), pct(oc.union_rejected_count)))
    rows.append(("expected_sample_size", "", f"{oc.expected_total_sample_size:.10g}", ""))
    rows.append(("prevalence_redraws", "", str(oc.prevalence_redraws), ""))
    rows.append(("clamped_pvalues", "", str(oc.clamped_pvalues), ""))
    return rows


def _write_csv(header: list, rows) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buffer.getvalue()


def export_csv(oc: OperatingCharacteristics, scenario: Scenario) -> str:
    return _write_csv(["metric", "key", "count", "percent"], _metric_rows(oc))


def export_json(oc: OperatingCharacteristics, scenario: Scenario) -> str:
    return json.dumps(asdict(oc), indent=2, sort_keys=True) + "\n"


def _format_axis_value(value) -> str:
    if isinstance(value, (tuple, list)):
        return "(" + ", ".join(format_number(v, 6) for v in value) + ")"
    return format_number(value, 6)


def render_sweep(points) -> str:
    # (column, width, count): a column is that count as a percentage of the replications
    columns = [("futility%", 12, lambda oc: oc.futility_count)]
    if points[0].scenario.design == TREATMENT:
        columns.append(("reject-any%", 13, lambda oc: oc.any_rejected_count))
    else:
        columns[:0] = [(f"{name}%", 8, lambda oc, name=name: oc.subgroup_counts[name].n)
                       for name in _BRANCHES]
        columns.append(("reject-union%", 15, lambda oc: oc.union_rejected_count))
    header = "".join(f"{col:>{width}}" for col, width, _ in columns)
    lines = [f"{'value':>12}{header}{'E[N]':>10}"]
    for pt in points:
        oc = pt.oc
        cells = "".join(f"{100 * count(oc) / oc.replications:>{width}.2f}"
                        for _, width, count in columns)
        value = _format_axis_value(pt.value)
        lines.append(f"{value:>12}{cells}{oc.expected_total_sample_size:>10.1f}")
    return "\n".join(lines) + "\n"


def export_sweep_csv(points) -> str:
    rows = ([pt.axis, _format_axis_value(pt.value), *row]
            for pt in points for row in _metric_rows(pt.oc))
    return _write_csv(["axis", "value", "metric", "key", "count", "percent"], rows)


def export_sweep_json(points) -> str:
    payload = {
        "axis": points[0].axis,
        "points": [
            {"value": list(pt.value) if isinstance(pt.value, tuple) else pt.value,
             "oc": asdict(pt.oc)}
            for pt in points
        ],
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


# ---------------------------------------------------------------------------
# entry point


def _add_common_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", required=True, help="scenario YAML file")
    parser.add_argument("--out", help="write output here instead of stdout")
    parser.add_argument("--format", choices=("table", "csv", "json"), default="table")
    parser.add_argument("--threads", type=int, default=1, help="worker processes")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="seamsim",
        description="Operating characteristics of two-stage adaptive seamless designs",
    )
    commands = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("treatsel", "treatment selection designs"),
        ("subpop", "subgroup selection designs"),
    ):
        cmd = commands.add_parser(name, help=help_text)
        actions = cmd.add_subparsers(dest="action", required=True)
        _add_common_arguments(actions.add_parser("run", help="simulate one scenario"))
    _add_common_arguments(
        commands.add_parser("sweep", help="re-run a scenario along one design axis")
    )
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        with open(args.config, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 4

    try:
        if args.command == "sweep":
            base, axis, values = parse_sweep_config(text)
            points = sweep(base, axis, values, threads=max(1, args.threads))
            output = {
                "table": render_sweep,
                "csv": export_sweep_csv,
                "json": export_sweep_json,
            }[args.format](points)
        else:
            design = TREATMENT if args.command == "treatsel" else SUBGROUP
            scenario = parse_config(text, design)
            oc = run_scenario(scenario, threads=max(1, args.threads))
            output = {
                "table": render_report,
                "csv": export_csv,
                "json": export_json,
            }[args.format](oc, scenario)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InfeasibleScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3

    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.write(output)
        except OSError as exc:
            print(f"error: cannot write output: {exc}", file=sys.stderr)
            return 4
    else:
        sys.stdout.write(output)
    return 0


if __name__ == "__main__":
    sys.exit(main())
