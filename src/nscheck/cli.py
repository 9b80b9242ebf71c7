"""Command-line front end.

Subcommands run the verification suites and emit deterministic reports:

* ``verify``             - structural suites (jacobi, compat, action)
* ``identities``         - the displayed-identity catalogue
* ``module-axiom``       - module-axiom residuals for a chosen sign convention
* ``module-simplicity``  - window-certified simplicity verdict
* ``module-iso``         - intertwiner search between two modules
* ``annihilator``        - minimal annihilator order and consequence chains
* ``classify``           - the classification table

Exit codes: 0 when every executed check passes (info entries never fail a
run), 1 on any check failure, 2 on a usage, parse or parameter error (a
``UsageError``, ``ModuleError``, ``AlgebraError`` or ``ScalarError``; an
``--out`` path that cannot be written is a ``UsageError``), 3 on
any other exception, which is an internal error of nscheck.  JSON output is
byte-identical across runs of the same invocation and is written
atomically when ``--out`` is given.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile

from . import __version__
from .algebra import AlgebraError, AlgebraMode
from .analysis import (
    ISO_ANCHOR,
    SIMPLE_ANCHOR,
    CheckReport,
    annihilator_reports,
    classification_table,
    compat_reports,
    action_rep_reports,
    edge_generators,
    find_intertwiner,
    first_witness,
    jacobi_family_reports,
    simplicity_verdict,
    sort_reports,
    verify_identity_catalogue,
    window_keys,
)
from .modules import (
    ModuleError,
    module_axiom_residual,
    SignConvention,
    Window,
    parse_module_descriptor,
)
from .scalars import ScalarError, parse_rational

MODULE_AXIOM_ANCHOR = "[x,y] acts as the graded commutator of the actions"


class UsageError(ValueError):
    pass


def _parse_window(text: str, margin: int) -> Window:
    if ".." not in text:
        raise UsageError(f"window must look like A..B, got {text!r}")
    lo, hi = text.split("..", 1)
    try:
        return Window(int(lo), int(hi), margin)
    except (ValueError, ModuleError) as exc:
        raise UsageError(f"invalid window {text!r}: {exc}") from None


def _parse_param(text: str | None, symbol: str):
    """A --lambda or --b value: None for no override (absent, or the slot's
    own symbol ``symbol``), else an exact rational."""
    if text is None or text == symbol:
        return None
    try:
        return parse_rational(text)
    except (ValueError, ZeroDivisionError):
        raise UsageError(f"malformed rational {text!r}") from None


def _module_from_args(args, default: str | None = None):
    desc = getattr(args, "module", None) or default
    if desc is None:
        raise UsageError("--module is required")
    algebra = None
    if getattr(args, "algebra", None):
        algebra = AlgebraMode.parse(args.algebra)
    return parse_module_descriptor(
        desc,
        lam_value=_parse_param(getattr(args, "lam", None), "l"),
        b_value=_parse_param(getattr(args, "b", None), "b"),
        algebra_mode=algebra,
        convention=SignConvention.parse(getattr(args, "convention", "corrected")),
    )


def _emit(reports: list[CheckReport], meta: dict, fmt: str, out: str | None) -> int:
    reports = sort_reports(reports)
    if fmt == "json":
        doc = {"meta": meta, "checks": [r.to_dict() for r in reports]}
        text = json.dumps(doc, indent=2) + "\n"
    else:
        lines = []
        for r in reports:
            line = f"[{r.status}] {r.name}"
            if r.params:
                line += f" | {r.params}"
            if r.residual_witness is not None:
                line += f" | witness: {r.residual_witness}"
            lines.append(line)
        counts = {"pass": 0, "fail": 0, "info": 0}
        for r in reports:
            counts[r.status] += 1
        lines.append(
            f"{len(reports)} checks: {counts['pass']} pass, "
            f"{counts['fail']} fail, {counts['info']} info"
        )
        text = "\n".join(lines) + "\n"
    if out:
        tmp = None
        try:
            fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(out)), prefix=".nscheck-")
            with os.fdopen(fd, "w") as handle:
                handle.write(text)
            os.replace(tmp, out)
        except BaseException as exc:
            if tmp is not None and os.path.exists(tmp):
                os.unlink(tmp)
            if isinstance(exc, OSError):
                raise UsageError(f"cannot write report to {out}: {exc.strerror or exc}") from None
            raise
    else:
        sys.stdout.write(text)
    return 1 if any(r.status == "fail" for r in reports) else 0


def _meta(command: str, args: argparse.Namespace, fields: list[str]) -> dict:
    options = {}
    for f in sorted(fields):
        options[f] = getattr(args, f, None)
    return {
        "tool": "nscheck",
        "version": __version__,
        "command": command,
        "options": options,
    }


def _injected_failure() -> CheckReport:
    return CheckReport(
        "injected/forced-failure",
        "testing hook: an always-failing check",
        "fail",
        "requested by --inject-failure",
        "1",
    )


def cmd_verify(args) -> int:
    reports: list[CheckReport] = []
    if args.suite in ("jacobi", "all"):
        reports += jacobi_family_reports(args.range)
    if args.suite in ("compat", "all"):
        reports += compat_reports(args.range)
    if args.suite in ("action", "all"):
        reports += action_rep_reports(args.range)
    if args.inject_failure:
        reports.append(_injected_failure())
    return _emit(reports, _meta("verify", args, ["suite", "range", "format"]),
                 args.format, args.out)


def cmd_identities(args) -> int:
    window = _parse_window(args.window, 0)
    reports = verify_identity_catalogue(
        args.max_n,
        algebra_level=args.algebra_level,
        mutate_lg_entry=args.inject_failure,
        window=window,
        max_m=args.max_m,
        sweep=args.sweep,
    )
    return _emit(
        reports,
        _meta("identities", args, ["max_n", "window", "max_m", "sweep", "algebra_level", "format"]),
        args.format,
        args.out,
    )


def cmd_module_axiom(args) -> int:
    mod = _module_from_args(args, default="gamma(l,b)")
    window = _parse_window(args.window, 0)
    gens = edge_generators(mod.algebra_mode, args.gen_range)
    keys = window_keys(mod, window)
    reports = []
    for i, x in enumerate(gens):
        for y in gens[i:]:
            witness, where = first_witness(
                (((key,), module_axiom_residual(x, y, key, mod)) for key in keys),
                lambda key: f" at {key.render()}",
            )
            reports.append(
                CheckReport(
                    f"module-axiom/{mod.convention.value}/({x.render()},{y.render()})",
                    MODULE_AXIOM_ANCHOR,
                    "pass" if witness is None else "fail",
                    f"module={mod.descriptor()}; window={window.render()}{where}",
                    witness,
                )
            )
    return _emit(
        reports,
        _meta("module-axiom", args, ["module", "convention", "gen_range", "window", "format"]),
        args.format,
        args.out,
    )


def cmd_module_simplicity(args) -> int:
    mod = _module_from_args(args)
    window = _parse_window(args.window, args.margin)
    verdict = simplicity_verdict(mod, window, args.gen_range)
    params = [
        f"module={mod.descriptor()}",
        f"algebra={mod.algebra_mode.value}",
        f"window={window.render()}",
        f"gen_range={args.gen_range}",
        f"verdict={verdict.kind}",
    ]
    if verdict.certificate is not None:
        params.append("certificate=[" + ", ".join(k.render() for k in verdict.certificate) + "]")
    if verdict.locus is not None:
        locus = "; ".join(f"{k}: {v}" for k, v in sorted(verdict.locus.items()))
        params.append(f"locus={{{locus}}}")
    report = CheckReport(
        f"simplicity/{mod.descriptor()}/{mod.algebra_mode.value}",
        SIMPLE_ANCHOR,
        "info",
        "; ".join(params),
    )
    return _emit(
        [report],
        _meta("module-simplicity", args,
              ["module", "algebra", "window", "margin", "gen_range", "format"]),
        args.format,
        args.out,
    )


def cmd_module_iso(args) -> int:
    m1 = parse_module_descriptor(
        args.module, convention=SignConvention.parse(args.convention)
    )
    m2 = parse_module_descriptor(
        args.module2, convention=SignConvention.parse(args.convention)
    )
    window = _parse_window(args.window, args.margin)
    witness = find_intertwiner(m1, m2, window, args.gen_range)
    params = [
        f"modules={m1.descriptor()} ~ {m2.descriptor()}",
        f"window={window.render()}",
        f"gen_range={args.gen_range}",
        f"found={witness is not None}",
    ]
    if witness is not None:
        params.append(witness.render())
    report = CheckReport(
        f"iso/{m1.descriptor()}~{m2.descriptor()}",
        ISO_ANCHOR,
        "info",
        "; ".join(params),
    )
    return _emit(
        [report],
        _meta("module-iso", args,
              ["module", "module2", "window", "margin", "gen_range", "format"]),
        args.format,
        args.out,
    )


def cmd_annihilator(args) -> int:
    mod = _module_from_args(args, default="gamma(l,b)")
    window = _parse_window(args.window, 0)
    _, reports = annihilator_reports(mod, window, args.max_m, args.sweep, args.algebra_level)
    fields = ["module", "window", "max_m", "sweep", "algebra_level", "format"]
    return _emit(reports, _meta("annihilator", args, fields), args.format, args.out)


def cmd_classify(args) -> int:
    reports = []
    for i, row in enumerate(classification_table()):
        params = [
            f"algebra={row['algebra']}",
            f"conditions={row['conditions']}",
            f"status={row['status']}",
        ]
        if row["certificate"]:
            params.append(f"certificate={row['certificate']}")
        reports.append(
            CheckReport(
                f"classify/{i:02d}/{row['family']}",
                "classification of bounded-multiplicity weight modules",
                "info",
                "; ".join(params),
            )
        )
    return _emit(reports, _meta("classify", args, ["format"]), args.format, args.out)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nscheck",
        description="Exact verification suites for the Neveu-Schwarz superalgebra "
                    "and its intermediate-series weight modules.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, window_default=None):
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.add_argument("--out", default=None, help="write the report to this path atomically")
        if window_default is not None:
            p.add_argument("--window", default=window_default, help="key window A..B")

    p = sub.add_parser("verify", help="structural suites")
    p.add_argument("--suite", choices=("jacobi", "compat", "action", "all"), default="all")
    p.add_argument("--range", type=int, default=3, help="index bound for basis sweeps")
    p.add_argument("--inject-failure", action="store_true", help=argparse.SUPPRESS)
    common(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("identities", help="displayed-identity catalogue")
    p.add_argument("--max-n", dest="max_n", type=int, default=5)
    p.add_argument("--max-m", dest="max_m", type=int, default=6)
    p.add_argument("--sweep", type=int, default=2)
    p.add_argument("--algebra-level", dest="algebra_level", action="store_true",
                   help="also attempt the chains as unconditional smash identities")
    p.add_argument("--inject-failure", action="store_true", help=argparse.SUPPRESS)
    common(p, window_default="-8..8")
    p.set_defaults(func=cmd_identities)

    p = sub.add_parser("module-axiom", help="module axiom residuals")
    p.add_argument("--module", default="gamma(l,b)")
    p.add_argument("--convention", choices=("corrected", "paper-printed"), default="corrected")
    p.add_argument("--gen-range", dest="gen_range", type=int, default=3)
    p.add_argument("--lambda", dest="lam", default=None, help="rational p/q or l")
    p.add_argument("--b", dest="b", default=None, help="rational p/q or b")
    common(p, window_default="-8..8")
    p.set_defaults(func=cmd_module_axiom)

    p = sub.add_parser("module-simplicity", help="window-certified simplicity verdict")
    p.add_argument("--module", required=True)
    p.add_argument("--algebra", choices=("khat", "k", "kplus"), default=None)
    p.add_argument("--margin", type=int, default=3)
    p.add_argument("--gen-range", dest="gen_range", type=int, default=3)
    p.add_argument("--convention", choices=("corrected", "paper-printed"), default="corrected")
    p.add_argument("--lambda", dest="lam", default=None, help="rational p/q or l")
    p.add_argument("--b", dest="b", default=None, help="rational p/q or b")
    common(p, window_default="-10..10")
    p.set_defaults(func=cmd_module_simplicity)

    p = sub.add_parser("module-iso", help="intertwiner search")
    p.add_argument("--module", required=True)
    p.add_argument("--module2", required=True)
    p.add_argument("--margin", type=int, default=3)
    p.add_argument("--gen-range", dest="gen_range", type=int, default=3)
    p.add_argument("--convention", choices=("corrected", "paper-printed"), default="corrected")
    common(p, window_default="-10..10")
    p.set_defaults(func=cmd_module_iso)

    p = sub.add_parser("annihilator", help="minimal annihilator order and chains")
    p.add_argument("--module", default="gamma(l,b)")
    p.add_argument("--max-m", dest="max_m", type=int, default=6)
    p.add_argument("--sweep", type=int, default=2)
    p.add_argument("--algebra-level", dest="algebra_level", action="store_true")
    p.add_argument("--lambda", dest="lam", default=None, help="rational p/q or l")
    p.add_argument("--b", dest="b", default=None, help="rational p/q or b")
    common(p, window_default="-10..10")
    p.set_defaults(func=cmd_annihilator)

    p = sub.add_parser("classify", help="classification table")
    common(p)
    p.set_defaults(func=cmd_classify)

    return parser


# options whose value may start with a single '-': a window such as -10..10,
# or a negative rational such as -1/3
_SIGNED_OPTIONS = ("--window", "--lambda", "--b")


def _preprocess(argv: list[str]) -> list[str]:
    """Merge `--window -10..10` or `--lambda -1/3` into one token
    `--opt=value`, so argparse does not read the value as an option; a
    following `--...` token is left alone."""
    out = []
    i = 0
    while i < len(argv):
        arg = argv[i]
        nxt = argv[i + 1] if i + 1 < len(argv) else ""
        if arg in _SIGNED_OPTIONS and nxt.startswith("-") and not nxt.startswith("--"):
            out.append(f"{arg}={nxt}")
            i += 2
            continue
        out.append(arg)
        i += 1
    return out


def run(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = _build_parser()
    try:
        args = parser.parse_args(_preprocess(argv))
    except SystemExit as exc:
        return 2 if exc.code not in (0,) else 0
    try:
        return args.func(args)
    except (UsageError, ModuleError, AlgebraError, ScalarError) as exc:
        sys.stderr.write(f"nscheck: error: {exc}\n")
        sys.stderr.write("run `nscheck <command> --help` for usage\n")
        return 2
    except Exception as exc:
        sys.stderr.write(f"nscheck: internal error: {type(exc).__name__}: {exc}\n")
        return 3


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
