"""Config-driven command-line front end.

Scenario files are YAML mappings whose keys mirror the simulator's classic
argument names (``n.stage1``, ``effect.early``, ``select``, ``selim``, ...).
The three subcommands are::

    seamsim treatsel run --config design.yaml
    seamsim subpop run --config design.yaml
    seamsim sweep --config sweep.yaml

Each accepts ``--out`` (default stdout), ``--format {table,csv,json}`` and
``--threads``; results are independent of the thread count. Exit codes:
0 success, 2 configuration error, 3 numerical failure, 4 I/O error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from dataclasses import asdict

import yaml

from .closedtest import CombinationConfig
from .engine import (
    InfeasibleScenarioError,
    OperatingCharacteristics,
    Scenario,
    SWEEP_AXES,
    TestSpec,
    run_scenario,
    sweep,
)
from .selection import SelectionRule
from .simmodel import (
    OUTCOME_TYPES,
    SUBGROUP,
    TREATMENT,
    EffectSpec,
    SampleSizePlan,
    effect_to_expectation,
)
from .statdist import NotPositiveSemidefiniteError

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

_TREAT_SELECT_CODES = {
    0: "all",
    1: "best-1",
    2: "best-2",
    3: "best-3",
    4: "epsilon",
    5: "random-1",
    6: "threshold",
}
_TREAT_SELECT_NAMES = set(_TREAT_SELECT_CODES.values())
_SUBPOP_SELECT = {
    "thresh": "threshold-pair",
    "threshold": "threshold-pair",
    "futility": "futility-pair",
}
# config spelling (matched case-insensitively) -> intersection test
_SUBPOP_METHODS = {
    "CT-SD": "spiessens-debois",
    "CT-Simes": "simes",
    "CT-Bonferroni": "bonferroni",
}
_TREAT_METHODS = {"invnorm": "inverse-normal", "fisher": "fisher"}

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
    if isinstance(value, bool) or not isinstance(value, (int, float)):
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


def _as_outcome(value, path: str) -> str:
    if value not in OUTCOME_TYPES:
        raise ConfigError(f"key '{path}': expected one of {', '.join(OUTCOME_TYPES)}")
    return value


def _parse_plan(doc: dict, design: str) -> SampleSizePlan:
    block = _require_mapping(doc.get("n"), "n") if "n" in doc else None
    if block is None:
        raise ConfigError("missing required key 'n'")
    allowed = ("stage1", "stage2", "enrich") if design == SUBGROUP else ("stage1", "stage2")
    _reject_unknown(block, allowed, "n")
    for key in ("stage1", "stage2"):
        if key not in block:
            raise ConfigError(f"missing required key 'n.{key}'")
    n1 = _as_int(block["stage1"], "n.stage1")
    n2 = _as_int(block["stage2"], "n.stage2")
    enrich = _as_int(block["enrich"], "n.enrich") if "enrich" in block else None
    try:
        return SampleSizePlan(n1, n2, enrich_per_arm=enrich)
    except ValueError as exc:
        raise ConfigError(f"key 'n': {exc}") from exc


def _parse_effects(doc: dict, design: str, corr: float) -> EffectSpec:
    if "effect" not in doc:
        raise ConfigError("missing required key 'effect'")
    block = _require_mapping(doc["effect"], "effect")
    _reject_unknown(block, ("early", "final"), "effect")
    for key in ("early", "final"):
        if key not in block:
            raise ConfigError(f"missing required key 'effect.{key}'")
    early = _as_number_list(block["early"], "effect.early")
    final = _as_number_list(block["final"], "effect.final")

    outcome = doc.get("outcome", {})
    outcome = _require_mapping(outcome, "outcome") if outcome else {}
    _reject_unknown(outcome, ("early", "final"), "outcome")
    early_outcome = _as_outcome(outcome.get("early", "N"), "outcome.early")
    final_outcome = _as_outcome(outcome.get("final", "N"), "outcome.final")
    try:
        return EffectSpec(
            design=design,
            early=early,
            final=final,
            early_outcome=early_outcome,
            final_outcome=final_outcome,
            correlation=corr,
        )
    except ValueError as exc:
        raise ConfigError(f"key 'effect': {exc}") from exc


def _parse_treat_rule(doc: dict) -> SelectionRule:
    select = doc.get("select", "all")
    if isinstance(select, bool) or not (
        isinstance(select, int) or select in _TREAT_SELECT_NAMES
    ):
        raise ConfigError(
            "key 'select': expected a code 0-6 or one of " + ", ".join(sorted(_TREAT_SELECT_NAMES))
        )
    if isinstance(select, int):
        if select not in _TREAT_SELECT_CODES:
            raise ConfigError("key 'select': expected a code 0-6")
        kind = _TREAT_SELECT_CODES[select]
    else:
        kind = select
    epsilon = threshold = None
    if kind == "epsilon":
        if "epsilon" not in doc:
            raise ConfigError("missing required key 'epsilon' (select=4 needs it)")
        epsilon = _as_float(doc["epsilon"], "epsilon")
    elif "epsilon" in doc:
        raise ConfigError("key 'epsilon' is only valid with the epsilon rule (select=4)")
    if kind == "threshold":
        if "thresh" not in doc:
            raise ConfigError("missing required key 'thresh' (select=6 needs it)")
        threshold = _as_float(doc["thresh"], "thresh")
    elif "thresh" in doc:
        raise ConfigError("key 'thresh' is only valid with the threshold rule (select=6)")
    try:
        return SelectionRule(kind, epsilon=epsilon, threshold=threshold)
    except ValueError as exc:
        raise ConfigError(f"key '{'thresh' if epsilon is None else 'epsilon'}': {exc}") from exc


def _parse_subpop_rule(doc: dict) -> SelectionRule:
    select = doc.get("select", "thresh")
    if select not in _SUBPOP_SELECT:
        raise ConfigError("key 'select': expected 'thresh' or 'futility'")
    if "selim" not in doc:
        raise ConfigError("missing required key 'selim'")
    limits = _as_number_list(doc["selim"], "selim")
    if len(limits) != 2:
        raise ConfigError("key 'selim': expected exactly two limits (subgroup, full)")
    try:
        return SelectionRule(_SUBPOP_SELECT[select], limits=limits)
    except ValueError as exc:
        raise ConfigError(f"key 'selim': {exc}") from exc


def parse_config(document, design: str) -> Scenario:
    """Validate a scenario document and build the Scenario it describes.

    Args:
        document: YAML text or an already-loaded mapping.
        design: "treatment" or "subgroup" (fixed by the subcommand).

    Raises:
        ConfigError: naming the offending key and constraint.
    """
    if isinstance(document, str):
        try:
            document = yaml.safe_load(document)
        except yaml.YAMLError as exc:
            raise ConfigError(f"invalid YAML: {exc}") from exc
    doc = _require_mapping(document, "<document>")
    allowed = _TREAT_KEYS if design == TREATMENT else _SUBPOP_KEYS
    _reject_unknown(doc, allowed)

    corr = _as_float(doc.get("corr", DEFAULT_CORRELATION), "corr")
    if not -1.0 <= corr <= 1.0:
        raise ConfigError("key 'corr': must lie in [-1, 1]")
    plan = _parse_plan(doc, design)
    effects = _parse_effects(doc, design, corr)

    nsim = _as_int(doc.get("nsim", DEFAULT_NSIM), "nsim")
    seed = _as_int(doc.get("seed", DEFAULT_SEED), "seed")
    level = _as_float(doc.get("level", DEFAULT_LEVEL), "level")
    if not 0.0 < level < 1.0:
        raise ConfigError("key 'level': must lie strictly between 0 and 1")
    weight = _as_float(doc["weight"], "weight") if "weight" in doc else None
    if weight is not None and not 0.0 < weight < 1.0:
        raise ConfigError("key 'weight': must lie strictly between 0 and 1")

    extra = {}
    if design == TREATMENT:
        rule = _parse_treat_rule(doc)
        method = doc.get("method", "invnorm")
        if method not in _TREAT_METHODS:
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
        method = str(doc.get("method", "CT-SD"))
        if method.lower() == "cef":
            raise ConfigError("key 'method': the conditional error function method is not supported")
        matches = [test for name, test in _SUBPOP_METHODS.items() if name.lower() == method.lower()]
        if not matches:
            raise ConfigError("key 'method': expected 'CT-SD', 'CT-Simes' or 'CT-Bonferroni'")
        intersection = matches[0]
        combination = "inverse-normal"
        if "sprev" not in doc:
            raise ConfigError("missing required key 'sprev'")
        sprev = _as_float(doc["sprev"], "sprev")
        if not 0.0 < sprev < 1.0:
            raise ConfigError("key 'sprev': must lie strictly between 0 and 1")
        extra["prevalence"] = sprev
        extra["prevalence_fixed"] = _as_bool(doc.get("sprev_fixed", True), "sprev_fixed")

    try:
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
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def parse_sweep_config(document) -> tuple:
    """Parse a sweep document: a scenario plus a ``sweep: {axis, values}`` block.

    The design is inferred from the scenario keys ('sprev' marks a subgroup
    design). Returns (base scenario, axis, values).
    """
    if isinstance(document, str):
        try:
            document = yaml.safe_load(document)
        except yaml.YAMLError as exc:
            raise ConfigError(f"invalid YAML: {exc}") from exc
    doc = dict(_require_mapping(document, "<document>"))
    if "sweep" not in doc:
        raise ConfigError("missing required key 'sweep'")
    block = _require_mapping(doc.pop("sweep"), "sweep")
    _reject_unknown(block, ("axis", "values"), "sweep")
    axis = block.get("axis")
    if axis not in SWEEP_AXES:
        raise ConfigError(f"key 'sweep.axis': expected one of {', '.join(SWEEP_AXES)}")
    raw = block.get("values")
    if not isinstance(raw, (list, tuple)) or not raw:
        raise ConfigError("key 'sweep.values': expected a non-empty list")
    if axis == "futility-limits-grid":
        values = []
        for i, pair in enumerate(raw):
            values.append(tuple(_as_float(v, f"sweep.values[{i}]") for v in
                                _as_number_list(pair, f"sweep.values[{i}]")))
            if len(values[-1]) != 2:
                raise ConfigError(f"key 'sweep.values[{i}]': expected a (subgroup, full) pair")
    elif axis == "stage1-allocation":
        values = [_as_int(v, f"sweep.values[{i}]") for i, v in enumerate(raw)]
    else:
        values = [_as_float(v, f"sweep.values[{i}]") for i, v in enumerate(raw)]
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


def _count_row(label: str, count: int, pct: float | None) -> str:
    pct_text = f"{pct:.2f}" if pct is not None else "-"
    return f"{label:>6}{count:>9}{pct_text:>15}"


def _expectation_lines(scenario: Scenario) -> list:
    spec, plan = scenario.effects, scenario.plan
    lines = ["simulation of test statistics:"]
    if scenario.design == TREATMENT:
        early = effect_to_expectation(spec, plan, "early", "stage1")
        final1 = effect_to_expectation(spec, plan, "final", "stage1")
        final2 = effect_to_expectation(spec, plan, "final", "stage2-full")
        fmt = lambda values: " ".join(format_number(v, 1) for v in values)  # noqa: E731
        lines.append(f"expectation early = {fmt(early)}")
        lines.append(
            f"expectation final stage 1 = {fmt(final1)} and stage 2 = {fmt(final2)}"
        )
    else:
        tau = scenario.prevalence
        early = effect_to_expectation(spec, plan, "early", "stage1", tau)
        final1 = effect_to_expectation(spec, plan, "final", "stage1", tau)
        both = effect_to_expectation(spec, plan, "final", "stage2-full", tau)
        cohort = "stage2-enriched" if plan.enrich_per_arm is not None else "stage2-subgroup-only"
        sub_only = effect_to_expectation(spec, plan, "final", cohort, tau)
        fmt = lambda v: format_number(v, 2)  # noqa: E731
        lines.append(
            f"expectation early: sub-pop = {fmt(early[0])} : full-pop = {fmt(early[1])}"
        )
        lines.append(
            f"expectation final stage 1: sub-pop = {fmt(final1[0])} : full-pop = {fmt(final1[1])}"
        )
        lines.append(
            "expectation final stage 2: "
            f"sub-pop only = {fmt(sub_only[0])} : full-pop only = {fmt(both[1])}"
        )
        lines.append(
            "expectation final stage 2, both groups selected: "
            f"sub-pop = {fmt(both[0])} : full-pop = {fmt(both[1])}"
        )
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
        k = scenario.effects.comparisons
        lines.append("number of treatments selected at stage 1:")
        lines.append(f"{'':>6}{'n':>9}")
        for m, count in enumerate(oc.selected_size_counts, start=1):
            lines.append(_count_row(str(m), count, pct(count)))
        total = sum(oc.selected_size_counts)
        lines.append(_count_row("Total", total, pct(total)))
        lines.append("")
        lines.append("treatment selection at stage 1:")
        lines.append(f"{'':>6}{'n':>9}")
        for arm, count in enumerate(oc.arm_selected_counts, start=1):
            lines.append(_count_row(str(arm), count, pct(count)))
        lines.append("")
        lines.append("hypothesis rejection at study endpoint:")
        lines.append(f"{'':>6}{'n':>9}")
        for arm, count in enumerate(oc.hypothesis_rejected_counts, start=1):
            lines.append(_count_row(f"H{arm}", count, pct(count)))
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
        for name in ("sub", "full", "both"):
            row = oc.subgroup_counts[name]
            cells = [row.hs, row.hf, row.both, row.intersection, row.n]
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
        for m, count in enumerate(oc.selected_size_counts, start=1):
            rows.append(("selected_size", str(m), str(count), pct(count)))
        for arm, count in enumerate(oc.arm_selected_counts, start=1):
            rows.append(("arm_selected", str(arm), str(count), pct(count)))
        for arm, count in enumerate(oc.hypothesis_rejected_counts, start=1):
            rows.append(("hypothesis_rejected", f"H{arm}", str(count), pct(count)))
        rows.append(("any_rejected", "", str(oc.any_rejected_count), pct(oc.any_rejected_count)))
        if oc.ptest is not None:
            key = "+".join(f"H{arm}" for arm in oc.ptest)
            rows.append(
                ("ptest_rejected", key, str(oc.ptest_rejected_count), pct(oc.ptest_rejected_count))
            )
    else:
        for name in ("sub", "full", "both"):
            row = oc.subgroup_counts[name]
            rows.append(("selection", name, str(row.n), pct(row.n)))
            for col, count in (
                ("hs", row.hs),
                ("hf", row.hf),
                ("both", row.both),
                ("intersection", row.intersection),
            ):
                rows.append(("rejected", f"{name}.{col}", str(count), pct(count)))
        rows.append(("union_rejected", "", str(oc.union_rejected_count), pct(oc.union_rejected_count)))
    rows.append(("expected_sample_size", "", f"{oc.expected_total_sample_size:.10g}", ""))
    rows.append(("prevalence_redraws", "", str(oc.prevalence_redraws), ""))
    rows.append(("clamped_pvalues", "", str(oc.clamped_pvalues), ""))
    return rows


def export_csv(oc: OperatingCharacteristics, scenario: Scenario) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["metric", "key", "count", "percent"])
    writer.writerows(_metric_rows(oc))
    return buffer.getvalue()


def export_json(oc: OperatingCharacteristics, scenario: Scenario) -> str:
    return json.dumps(asdict(oc), indent=2, sort_keys=True) + "\n"


def _format_axis_value(value) -> str:
    if isinstance(value, (tuple, list)):
        return "(" + ", ".join(format_number(v, 6) for v in value) + ")"
    return format_number(value, 6)


def render_sweep(points) -> str:
    lines = []
    design = points[0].scenario.design
    if design == TREATMENT:
        lines.append(f"{'value':>12}{'futility%':>12}{'reject-any%':>13}{'E[N]':>10}")
        for pt in points:
            oc = pt.oc
            reps = oc.replications
            lines.append(
                f"{_format_axis_value(pt.value):>12}"
                f"{100 * oc.futility_count / reps:>12.2f}"
                f"{100 * oc.any_rejected_count / reps:>13.2f}"
                f"{oc.expected_total_sample_size:>10.1f}"
            )
    else:
        lines.append(
            f"{'value':>12}{'sub%':>8}{'full%':>8}{'both%':>8}"
            f"{'futility%':>12}{'reject-union%':>15}{'E[N]':>10}"
        )
        for pt in points:
            oc = pt.oc
            reps = oc.replications
            rows = oc.subgroup_counts
            lines.append(
                f"{_format_axis_value(pt.value):>12}"
                f"{100 * rows['sub'].n / reps:>8.2f}"
                f"{100 * rows['full'].n / reps:>8.2f}"
                f"{100 * rows['both'].n / reps:>8.2f}"
                f"{100 * oc.futility_count / reps:>12.2f}"
                f"{100 * oc.union_rejected_count / reps:>15.2f}"
                f"{oc.expected_total_sample_size:>10.1f}"
            )
    return "\n".join(lines) + "\n"


def export_sweep_csv(points) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["axis", "value", "metric", "key", "count", "percent"])
    for pt in points:
        value = _format_axis_value(pt.value)
        for row in _metric_rows(pt.oc):
            writer.writerow([pt.axis, value] + list(row))
    return buffer.getvalue()


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
    except (NotPositiveSemidefiniteError, InfeasibleScenarioError) as exc:
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
