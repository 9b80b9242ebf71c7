"""Command-line front end.

Subcommands run the verification suites and emit deterministic reports:

* ``verify``             - structural suites (jacobi, compat, action)
* ``identities``         - the displayed-identity catalogue
* ``module-axiom``       - module-axiom residuals for a chosen sign convention
* ``module-simplicity``  - window-certified simplicity verdict
* ``module-iso``         - intertwiner search between two modules
* ``annihilator``        - minimal annihilator order and consequence chains
* ``classify``           - the classification table

The parser is built from two tables: ``_OPTIONS`` declares every flag once
(flag -> argparse keywords), and ``_COMMANDS`` holds one row per subcommand
(its flags, window default, per-row keyword overrides and the options echoed
in the JSON ``meta``).  The runner of ``name`` is the module-level function
``cmd_<name>``, looked up when the parser is built; it returns its reports
and ``run`` emits them, with one always-failing check appended when the
hidden ``--inject-failure`` flag is given.

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
from typing import NamedTuple

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
    find_intertwiner,
    jacobi_family_reports,
    module_axiom_reports,
    simplicity_verdict,
    sort_reports,
    verify_identity_catalogue,
)
from .modules import ModuleError, SignConvention, Window, parse_module_descriptor
from .scalars import ScalarError, parse_rational


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


def _module_from_args(args):
    algebra = getattr(args, "algebra", None)
    return parse_module_descriptor(
        args.module,
        lam_value=_parse_param(getattr(args, "lam", None), "l"),
        b_value=_parse_param(getattr(args, "b", None), "b"),
        algebra_mode=AlgebraMode.parse(algebra) if algebra else None,
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
        lines.append(f"{len(reports)} checks: {counts['pass']} pass, "
                     f"{counts['fail']} fail, {counts['info']} info")
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


def cmd_verify(args) -> list[CheckReport]:
    reports: list[CheckReport] = []
    if args.suite in ("jacobi", "all"):
        reports += jacobi_family_reports(args.range)
    if args.suite in ("compat", "all"):
        reports += compat_reports(args.range)
    if args.suite in ("action", "all"):
        reports += action_rep_reports(args.range)
    return reports


def cmd_identities(args) -> list[CheckReport]:
    return verify_identity_catalogue(
        args.max_n,
        algebra_level=args.algebra_level,
        window=_parse_window(args.window, 0),
        max_m=args.max_m,
        sweep=args.sweep,
    )


def cmd_module_axiom(args) -> list[CheckReport]:
    mod = _module_from_args(args)
    return module_axiom_reports(mod, _parse_window(args.window, 0), args.gen_range)


def cmd_module_simplicity(args) -> list[CheckReport]:
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
    return [CheckReport(f"simplicity/{mod.descriptor()}/{mod.algebra_mode.value}",
                        SIMPLE_ANCHOR, "info", "; ".join(params))]


def cmd_module_iso(args) -> list[CheckReport]:
    m1 = _module_from_args(args)
    m2 = parse_module_descriptor(args.module2, convention=SignConvention.parse(args.convention))
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
    return [CheckReport(f"iso/{m1.descriptor()}~{m2.descriptor()}", ISO_ANCHOR, "info",
                        "; ".join(params))]


def cmd_annihilator(args) -> list[CheckReport]:
    mod = _module_from_args(args)
    window = _parse_window(args.window, 0)
    return annihilator_reports(mod, window, args.max_m, args.sweep, args.algebra_level)[1]


def cmd_classify(args) -> list[CheckReport]:
    reports = []
    for i, row in enumerate(classification_table()):
        params = [f"algebra={row['algebra']}", f"conditions={row['conditions']}",
                  f"status={row['status']}"]
        if row["certificate"]:
            params.append(f"certificate={row['certificate']}")
        reports.append(CheckReport(f"classify/{i:02d}/{row['family']}",
                                   "classification of bounded-multiplicity weight modules",
                                   "info", "; ".join(params)))
    return reports


# every flag, declared once: flag -> argparse keywords
_OPTIONS = {
    "--suite": {"choices": ("jacobi", "compat", "action", "all"), "default": "all"},
    "--range": {"type": int, "default": 3, "help": "index bound for basis sweeps"},
    "--inject-failure": {"action": "store_true", "help": argparse.SUPPRESS},
    "--max-n": {"type": int, "default": 5},
    "--max-m": {"type": int, "default": 6},
    "--sweep": {"type": int, "default": 2},
    "--algebra-level": {"action": "store_true",
                        "help": "also attempt the chains as unconditional smash identities"},
    "--module": {"default": "gamma(l,b)"},
    "--module2": {"required": True},
    "--algebra": {"choices": ("khat", "k", "kplus")},
    "--margin": {"type": int, "default": 3},
    "--gen-range": {"type": int, "default": 3},
    "--convention": {"choices": ("corrected", "paper-printed"), "default": "corrected"},
    "--lambda": {"dest": "lam", "help": "rational p/q or l"},
    "--b": {"help": "rational p/q or b"},
    "--format": {"choices": ("text", "json"), "default": "text"},
    "--out": {"help": "write the report to this path atomically"},
    "--window": {"help": "key window A..B"},
}

_REQUIRED = {"required": True, "default": None}


class _Command(NamedTuple):
    """One subcommand: its flags besides --format, --out and --window, the
    --window default (None: no --window), the options echoed in ``meta``
    (the golden report bytes pin them), and per-flag keyword overrides."""

    help: str
    flags: str
    window: str | None
    echoed: str
    overrides: dict = {}


_COMMANDS = {
    "verify": _Command("structural suites", "--suite --range --inject-failure", None,
                       "format range suite"),
    "identities": _Command("displayed-identity catalogue",
                           "--max-n --max-m --sweep --algebra-level --inject-failure", "-8..8",
                           "algebra_level format max_m max_n sweep window"),
    "module-axiom": _Command("module axiom residuals",
                             "--module --convention --gen-range --lambda --b", "-8..8",
                             "convention format gen_range module window"),
    "module-simplicity": _Command(
        "window-certified simplicity verdict",
        "--module --algebra --margin --gen-range --convention --lambda --b", "-10..10",
        "algebra format gen_range margin module window", {"--module": _REQUIRED}),
    "module-iso": _Command("intertwiner search",
                           "--module --module2 --margin --gen-range --convention", "-10..10",
                           "format gen_range margin module module2 window",
                           {"--module": _REQUIRED}),
    "annihilator": _Command("minimal annihilator order and chains",
                            "--module --max-m --sweep --algebra-level --lambda --b", "-10..10",
                            "algebra_level format max_m module sweep window"),
    "classify": _Command("classification table", "", None, "format"),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nscheck",
        description="Exact verification suites for the Neveu-Schwarz superalgebra "
                    "and its intermediate-series weight modules.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, row in _COMMANDS.items():
        p = sub.add_parser(name, help=row.help)
        for flag in row.flags.split() + ["--format", "--out"]:
            p.add_argument(flag, **{**_OPTIONS[flag], **row.overrides.get(flag, {})})
        if row.window is not None:
            p.add_argument("--window", default=row.window, **_OPTIONS["--window"])
        # looked up now, not at import, so a replaced cmd_* attribute is called
        p.set_defaults(func=globals()["cmd_" + name.replace("-", "_")])
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
        row = _COMMANDS[args.command]
        meta = {"tool": "nscheck", "version": __version__, "command": args.command,
                "options": {f: getattr(args, f) for f in sorted(row.echoed.split())}}
        reports = args.func(args)
        if getattr(args, "inject_failure", False):
            reports.append(CheckReport("injected/forced-failure",
                                       "testing hook: an always-failing check", "fail",
                                       "requested by --inject-failure", "1"))
        return _emit(reports, meta, args.format, args.out)
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
