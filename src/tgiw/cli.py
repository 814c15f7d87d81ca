"""Command-line interface.

Commands: ``fit``, ``compare``, ``sample``, ``tabulate`` and
``reproduce-paper`` (rerun the bundled failure-time case study and check the
results against its published reference values).

Exit codes: 0 success, 1 reproduction failure, 2 input error,
3 convergence failure.
"""

from __future__ import annotations

import argparse
import json
import platform
import re
import sys
from dataclasses import asdict
from datetime import datetime, timezone
from enum import Enum
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from . import distribution as dist
from .data import Dataset, EMBEDDED_TAG, embedded_dataset, read_dataset_file
from .estimation import FitConfig, FitResult, fit_lse, fit_mle, fit_wlse
from .model_selection import ComparisonReport, compare
from .params import SubModel, TgiwParams

EXIT_OK = 0
EXIT_REPRODUCTION_FAILED = 1
EXIT_INPUT_ERROR = 2
EXIT_NO_CONVERGENCE = 3

# Published reference values for the bundled dataset and their tolerances.
_REFERENCE = {
    "giw_neg_log_lik": (168.638, 0.01),
    "tgiw_neg_log_lik": (166.387, 0.01),
    "giw_neg2_log_lik": (337.276, 0.02),
    "tgiw_neg2_log_lik": (332.774, 0.02),
    "giw_aic": (343.276, 0.02),
    "tgiw_aic": (340.774, 0.02),
    "giw_aicc": (343.797, 0.02),
    "tgiw_aicc": (341.662, 0.02),
    "giw_ks": (0.1992, 0.005),
    "tgiw_ks": (0.1917, 0.005),
    "lr_omega": (4.502, 0.02),
}
_LR_CRITICAL = 3.841
_EMBEDDED_SUM = 391.051
# Published four-parameter tgiw estimate, for the informational side-by-side.
_PUBLISHED_TGIW = {"alpha": 2.382715, "beta": 0.5297876, "gamma": 1.1428575, "lam": -0.7472070}


class CliError(Exception):
    """Input-level failure mapped to exit code 2."""


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def _manifest(command: str, source: str, cfg: FitConfig) -> dict:
    return {
        "command": command,
        "source": source,
        "seed": cfg.seed,
        "version": __version__,
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "config": asdict(cfg),
        "versions": {"python": platform.python_version(), "numpy": np.__version__, "scipy": scipy.__version__},
    }


def _load_data(spec: str, column: str | None) -> Dataset:
    if spec == EMBEDDED_TAG:
        return embedded_dataset()
    path = Path(spec)
    if not path.exists():
        raise CliError(f"no such data source: {spec!r} (a file path or the tag 'paper')")
    try:
        return read_dataset_file(path, column=column)
    except ValueError as exc:
        raise CliError(str(exc)) from None


def _json_default(obj):
    """Enums by value; numpy arrays and scalars as lists and Python scalars."""
    return obj.value if isinstance(obj, Enum) else obj.tolist()


def _write_json(report: dict, out: str | None) -> None:
    payload = json.dumps(report, indent=2, default=_json_default)
    if out:
        Path(out).write_text(payload, encoding="utf-8")
    else:
        print(payload)


def _write_lines(lines: list[str], out: str | None) -> None:
    payload = "\n".join(lines) + "\n"
    if out:
        Path(out).write_text(payload, encoding="utf-8")
    else:
        sys.stdout.write(payload)


def _print_fit_summary(fr: FitResult) -> None:
    print(f"model: {fr.model.value}   method: {fr.method}   mode: {fr.mode}")
    print(f"converged: {'yes' if fr.converged else 'NO'}   iterations: {fr.iterations}")
    print(f"-log-likelihood: {_fmt(fr.neg_log_lik)}")
    if fr.method != "mle":
        print(f"{fr.method} objective: {_fmt(fr.objective)}")
    est = "  ".join(f"{k}={_fmt(v)}" for k, v in fr.estimates.items())
    print(f"estimates ({fr.mode}): {est}")
    p = fr.params
    print(
        f"expanded params: alpha={_fmt(p.alpha)} beta={_fmt(p.beta)} "
        f"gamma={_fmt(p.gamma)} lam={_fmt(p.lam)}"
    )
    if fr.std_errors:
        ses = "  ".join(f"{k}={_fmt(v)}" for k, v in fr.std_errors.items())
        print(f"std errors: {ses}")
    if fr.conf_intervals:
        level = int(round(100 * (fr.conf_level or 0.95)))
        cis = "  ".join(
            f"{k}=({_fmt(lo)}, {_fmt(hi)})" for k, (lo, hi) in fr.conf_intervals.items()
        )
        print(f"{level}% Wald intervals: {cis}")
    if fr.message:
        print(f"note: {fr.message}")


def cmd_fit(args: argparse.Namespace) -> int:
    d = _load_data(args.data, args.column)
    cfg = FitConfig(
        model=SubModel.from_name(args.model),
        mode=args.mode,
        method=args.method,
        multistart=args.multistart,
        seed=args.seed,
        max_iter=args.max_iter,
        delta=args.level,
    )
    fitter = {"mle": fit_mle, "lse": fit_lse, "wlse": fit_wlse}[cfg.method]
    fr = fitter(d, cfg)
    if args.json or args.out:
        manifest = _manifest("fit", args.data, cfg)
        _write_json({"manifest": manifest, "fit": asdict(fr)}, args.out)
    if not args.json:
        _print_fit_summary(fr)
    return EXIT_OK if fr.converged else EXIT_NO_CONVERGENCE


def _print_comparison_table(report: ComparisonReport) -> None:
    header = f"{'Model':<10}{'K-S':>10}{'-2l':>12}{'AIC':>12}{'AICC':>12}"
    print(header)
    print("-" * len(header))
    for row in report.rows:
        if row.failed:
            print(f"{row.model.value:<10}  fit failed: {row.error}")
            continue
        print(
            f"{row.model.value:<10}{row.ks:>10.4f}{row.neg2_log_lik:>12.3f}"
            f"{row.aic:>12.3f}{row.aicc:>12.3f}"
        )
    for c in report.lr_tests:
        r = c.result
        cmpsign = ">" if r.reject else "<="
        verdict = "reject H0" if r.reject else "fail to reject H0"
        print(
            f"LR {c.restricted.value} vs {c.full.value}: "
            f"omega = {_fmt(r.omega)} {cmpsign} {_fmt(r.critical)} "
            f"= chi2_{{{r.df};{r.level:g}}}: {verdict}"
        )


def cmd_compare(args: argparse.Namespace) -> int:
    models = [SubModel.from_name(m) for m in args.models.split(",") if m.strip()]
    if len(models) < 2:
        raise CliError("compare needs at least 2 models (comma-separated, e.g. giw,tgiw)")
    d = _load_data(args.data, args.column)
    cfg = FitConfig(multistart=args.multistart, seed=args.seed)
    report = compare(d, models, cfg, paper_k=args.paper_k, level=args.level)
    if args.json or args.out:
        manifest = _manifest("compare", args.data, cfg)
        comparison = asdict(report)  # each likelihood-ratio test flattened into one record
        comparison["lr_tests"] = [
            {"restricted": c.restricted, "full": c.full, **asdict(c.result)} for c in report.lr_tests
        ]
        _write_json({"manifest": manifest, "comparison": comparison}, args.out)
    if not args.json:
        _print_comparison_table(report)
    if any(row.failed or (row.fit and not row.fit.converged) for row in report.rows):
        return EXIT_NO_CONVERGENCE
    return EXIT_OK


def _parse_params(args: argparse.Namespace) -> TgiwParams:
    try:
        return TgiwParams(alpha=args.alpha, beta=args.beta, gamma=args.gamma, lam=args.lam)
    except ValueError as exc:
        raise CliError(str(exc)) from None


def cmd_sample(args: argparse.Namespace) -> int:
    p = _parse_params(args)
    if args.n < 1:
        raise CliError("sample size must be >= 1")
    draws = dist.sample(p, args.n, seed=args.seed)
    # no timestamp in this header: identical seeds must reproduce the file byte-for-byte
    lines = [
        "# tgiw sample",
        f"# params: alpha={args.alpha!r} beta={args.beta!r} gamma={args.gamma!r} lam={args.lam!r}",
        f"# n={args.n} seed={args.seed}",
        f"# version: {__version__}",
    ]
    lines.extend(repr(float(v)) for v in draws)
    _write_lines(lines, args.out)
    return EXIT_OK


def cmd_tabulate(args: argparse.Namespace) -> int:
    p = _parse_params(args)
    if args.points < 2:
        raise CliError("grid needs at least 2 points")
    if not (0 < args.x_min < args.x_max):
        raise CliError("grid requires 0 < x-min < x-max")
    x = np.linspace(args.x_min, args.x_max, args.points)
    header = "x,pdf,cdf,survival,hazard"
    ecdf = [""] * args.points
    if args.data:
        d = _load_data(args.data, args.column)
        x = np.concatenate([x, d.values])
        header += ",ecdf_lower,ecdf_upper"
        ecdf = [",,"] * args.points + [f",{j / d.n!r},{(j + 1) / d.n!r}" for j in range(d.n)]
    columns = [x] + [fn(p, x) for fn in (dist.pdf, dist.cdf, dist.survival, dist.hazard)]
    lines = [header]
    for row, tail in zip(zip(*columns), ecdf):
        lines.append(",".join(repr(float(v)) for v in row) + tail)
    _write_lines(lines, args.out)
    return EXIT_OK


def run_reproduction() -> dict:
    """Rerun the bundled case study; returns the verdict structure.

    Runs ``tgiw compare --paper-k`` of the base (giw) and transmuted (tgiw)
    models on the embedded failure-time data with the default deterministic
    configuration, then checks -l, -2l, AIC, AICC, K-S and the
    likelihood-ratio statistic against the published values.
    """
    d = embedded_dataset()
    total = float(np.sum(d.values))
    integrity = (
        d.n == 50
        and d.values[0] == 0.013
        and d.values[-1] == 48.105
        and abs(total - _EMBEDDED_SUM) < 1e-9
    )
    rows = [
        {
            "name": "embedded_data_integrity",
            "computed": total,
            "expected": _EMBEDDED_SUM,
            "tolerance": 1e-9,
            "passed": bool(integrity),
        }
    ]

    report = compare(d, [SubModel.GIW, SubModel.TGIW], paper_k=True)
    lr = report.lr_tests[0].result
    computed = {"lr_omega": lr.omega}
    for row in report.rows:
        m = row.model.value
        computed.update({f"{m}_neg_log_lik": row.fit.neg_log_lik, f"{m}_neg2_log_lik": row.neg2_log_lik,
                         f"{m}_aic": row.aic, f"{m}_aicc": row.aicc, f"{m}_ks": row.ks})
    tgiw = report.rows[1].fit
    for name, (expected, tol) in _REFERENCE.items():
        rows.append({
            "name": name,
            "computed": computed[name],
            "expected": expected,
            "tolerance": tol,
            "passed": abs(computed[name] - expected) <= tol,
        })
    rows.append(
        {
            "name": "lr_reject_at_3.841",
            "computed": lr.omega,
            "expected": _LR_CRITICAL,
            "tolerance": 0.0,
            "passed": bool(lr.reject and abs(lr.critical - _LR_CRITICAL) < 1e-3),
        }
    )

    # informational: the published estimates sit on the alpha-gamma ridge, so
    # they are compared through the identifiable coordinates only
    pub = _PUBLISHED_TGIW
    pub_theta = pub["gamma"] * pub["alpha"] ** (-pub["beta"])
    notes = [
        "published tgiw point in identifiable coordinates: "
        f"theta={pub_theta:.6g} beta={pub['beta']:.6g} lam={pub['lam']:.6g}; "
        f"this fit: theta={tgiw.reduced.theta:.6g} beta={tgiw.reduced.beta:.6g} "
        f"lam={tgiw.reduced.lam:.6g}"
    ]
    probe = fit_mle(d, FitConfig(model=SubModel.TGIW, multistart=12, seed=1))
    if probe.neg_log_lik < tgiw.neg_log_lik - 0.5:
        notes.append(
            "multistart exploration finds a higher-likelihood non-regular solution "
            f"pressing the lam boundary: -l = {probe.neg_log_lik:.6g} at "
            f"lam = {probe.params.lam:.6g} (boundary flag: {probe.boundary_lambda}); "
            "the reproduced table corresponds to the interior stationary point"
        )

    return {
        "passed": all(r["passed"] for r in rows),
        "rows": rows,
        "notes": notes,
    }


def cmd_reproduce_paper(args: argparse.Namespace) -> int:
    verdict = run_reproduction()
    if args.json or args.out:
        manifest = _manifest("reproduce-paper", EMBEDDED_TAG, FitConfig())
        _write_json({"manifest": manifest, **verdict}, args.out)
    if not args.json:
        name_w = max(len(r["name"]) for r in verdict["rows"])
        print(f"{'check':<{name_w}}  {'computed':>12}  {'expected':>12}  {'tol':>8}  result")
        for r in verdict["rows"]:
            print(
                f"{r['name']:<{name_w}}  {r['computed']:>12.6g}  {r['expected']:>12.6g}  "
                f"{r['tolerance']:>8.3g}  {'pass' if r['passed'] else 'FAIL'}"
            )
        for note in verdict["notes"]:
            print(f"note: {note}")
        print("overall:", "PASS" if verdict["passed"] else "FAIL")
    return EXIT_OK if verdict["passed"] else EXIT_REPRODUCTION_FAILED


def _add_param_flags(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--alpha", type=float, required=True, help="scale parameter (> 0)")
    sp.add_argument("--beta", type=float, required=True, help="shape parameter (> 0)")
    sp.add_argument("--gamma", type=float, required=True, help="shape parameter (> 0)")
    sp.add_argument(
        "--lambda", dest="lam", type=float, default=0.0,
        help="transmutation parameter in [-1, 1] (default 0)",
    )


def _add_data_flags(sp: argparse.ArgumentParser) -> None:
    sp.add_argument(
        "--data", required=True,
        help="CSV file of positive values, or the tag 'paper' for the bundled dataset",
    )
    sp.add_argument("--column", default=None, help="header column to read values from")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tgiw",
        description="Transmuted generalized inverse Weibull distribution toolkit",
    )
    parser.add_argument("--version", action="version", version=f"tgiw {__version__}")
    sub = parser.add_subparsers(dest="cmd", required=True)

    fit_p = sub.add_parser("fit", help="fit a model to data")
    _add_data_flags(fit_p)
    fit_p.add_argument("--model", default="tgiw", help="model tag (tgiw, giw, iw, ...)")
    fit_p.add_argument("--method", default="mle", choices=["mle", "lse", "wlse"])
    fit_p.add_argument("--mode", default="reduced", choices=["reduced", "full"])
    fit_p.add_argument("--multistart", type=int, default=1)
    fit_p.add_argument("--seed", type=int, default=0)
    fit_p.add_argument("--max-iter", type=int, default=5000)
    fit_p.add_argument("--level", type=float, default=0.05, help="Wald miscoverage delta")
    fit_p.add_argument("--json", action="store_true", help="print the JSON report")
    fit_p.add_argument("--out", default=None, help="write the JSON report to a file")
    fit_p.set_defaults(func=cmd_fit)

    cmp_p = sub.add_parser("compare", help="fit several models and tabulate criteria")
    _add_data_flags(cmp_p)
    cmp_p.add_argument("--models", required=True, help="comma-separated tags, e.g. giw,tgiw")
    cmp_p.add_argument("--paper-k", action="store_true",
                       help="count parameters in the four-parameter form (3 for giw, 4 for tgiw)")
    cmp_p.add_argument("--level", type=float, default=0.05)
    cmp_p.add_argument("--multistart", type=int, default=1)
    cmp_p.add_argument("--seed", type=int, default=0)
    cmp_p.add_argument("--json", action="store_true")
    cmp_p.add_argument("--out", default=None)
    cmp_p.set_defaults(func=cmd_compare)

    sam_p = sub.add_parser("sample", help="draw variates by inverse transform")
    _add_param_flags(sam_p)
    sam_p.add_argument("-n", "--size", dest="n", type=int, required=True)
    sam_p.add_argument("--seed", type=int, required=True)
    sam_p.add_argument("--out", default=None, help="write CSV here instead of stdout")
    sam_p.set_defaults(func=cmd_sample)

    tab_p = sub.add_parser("tabulate", help="emit pdf/cdf/survival/hazard on a grid")
    _add_param_flags(tab_p)
    tab_p.add_argument("--x-min", type=float, required=True)
    tab_p.add_argument("--x-max", type=float, required=True)
    tab_p.add_argument("--points", type=int, required=True)
    tab_p.add_argument("--data", default=None,
                       help="optional dataset whose empirical cdf steps are appended")
    tab_p.add_argument("--column", default=None)
    tab_p.add_argument("--out", default=None)
    tab_p.set_defaults(func=cmd_tabulate)

    rep_p = sub.add_parser(
        "reproduce-paper",
        help="rerun the bundled case study and check against its published values",
    )
    rep_p.add_argument("--json", action="store_true")
    rep_p.add_argument("--out", default=None)
    rep_p.set_defaults(func=cmd_reproduce_paper)

    return parser


_OPTION = re.compile(r"--?[A-Za-z][\w-]*")
_NEGATIVE_EXPONENT = re.compile(r"-(\d+\.?\d*|\.\d+)[eE][-+]?\d+")


def _join_negative_values(argv: list[str]) -> list[str]:
    """Join -1e-05 and the like, which argparse takes for flags, onto the option before it: --lambda=-1e-05."""
    out: list[str] = []
    for token in argv:
        if out and _OPTION.fullmatch(out[-1]) and _NEGATIVE_EXPONENT.fullmatch(token):
            out[-1] += "=" + token
        else:
            out.append(token)
    return out


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(_join_negative_values(sys.argv[1:] if argv is None else argv))
    try:
        return args.func(args)
    except (CliError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
