"""The ``varseq`` command line front-end.

Usage::

    varseq <command> <model.jv> [--form NAME] [--field NAME]
           [--format text|latex|json] [--seed N] [--probe-trials N]
           [--order r]

Exit codes: 0 success, 1 parse/usage error, 2 mathematical
precondition failure (e.g. ``tonti`` on a non-variational source form).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional

from . import dsl, probe, prolong, render, variational
from . import forms as fm
from .forms import Form

__all__ = ["main", "run"]

COMMANDS = (
    "el", "helmholtz", "helmholtz-reduced", "cartan", "lepage-check",
    "lepage", "tonti", "trivial", "noether", "first-variation", "lie",
    "class-eq", "probe",
)


class UsageError(ValueError):
    """Bad invocation (missing names, wrong counts); exits with code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        raise SystemExit(_fail(1, message))


def _fail(code: int, message: str) -> int:
    print("varseq: error: %s" % message, file=sys.stderr)
    return code


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="varseq",
                     description="exact variational calculus on jet bundles")
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("model", help="path to a .jv model file")
    parser.add_argument("--form", action="append", default=None,
                        help="named form to act on (class-eq/probe take two)")
    parser.add_argument("--field", default=None,
                        help="named vector field, for commands that need one")
    parser.add_argument("--format", choices=("text", "latex", "json"),
                        default="text")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--probe-trials", type=int, default=20)
    parser.add_argument("--order", type=int, default=None,
                        help="lift the selected form to this jet order")
    return parser


def _pick_forms(model: dsl.ModelFile, names: Optional[list],
                count: int) -> list[Form]:
    if names is None:
        if count == 1 and len(model.forms) == 1:
            names = list(model.forms)
        else:
            raise UsageError("command needs %d --form name(s); model "
                             "declares %s" % (count, sorted(model.forms)))
    if len(names) != count:
        raise UsageError("command needs exactly %d --form name(s)" % count)
    out = []
    for name in names:
        if name not in model.forms:
            raise UsageError("unknown form %r; model declares %s"
                             % (name, sorted(model.forms)))
        out.append(model.forms[name])
    return out


def _pick_field(model: dsl.ModelFile, name: Optional[str]):
    if name is None:
        if len(model.fields) == 1:
            name = next(iter(model.fields))
        else:
            raise UsageError("command needs --field; model declares %s"
                             % sorted(model.fields))
    if name not in model.fields:
        raise UsageError("unknown field %r; model declares %s"
                         % (name, sorted(model.fields)))
    return model.fields[name]


def _verdict_str(verdict: Optional[bool]) -> str:
    return {True: "true", False: "false", None: "unknown"}[verdict]


def run(command: str, model: dsl.ModelFile, args) -> dict:
    """Dispatch a command; returns {label: form-or-string} result parts."""
    if command in ("el", "helmholtz", "helmholtz-reduced", "cartan",
                   "lepage-check", "lepage", "tonti", "trivial"):
        (rho,) = _pick_forms(model, args.form, 1)
        if args.order is not None:
            rho = fm.lift(rho, args.order)
        if command == "el":
            return {"euler_lagrange": variational.euler_lagrange(rho).form}
        if command == "helmholtz":
            return {"helmholtz": variational.helmholtz(rho).form}
        if command == "helmholtz-reduced":
            hbar, eta = variational.reduced_helmholtz_mechanics(rho)
            return {"helmholtz_reduced": hbar.form, "witness_eta": eta}
        if command == "cartan":
            return {"cartan": variational.cartan_form(rho)}
        if command == "lepage-check":
            return {"is_lepage": _verdict_str(variational.is_lepage(rho))}
        if command == "lepage":
            return {"lepage_equivalent": variational.lepage_equivalent(rho)}
        if command == "tonti":
            H = variational.helmholtz(rho).form
            if not H.is_zero():
                raise ValueError("source form is not locally variational "
                                 "(nonzero Helmholtz form)")
            lam = fm.horizontalize(variational.contact_homotopy(rho))
            return {"tonti_lagrangian": lam}
        if command == "trivial":
            flag, primitive = variational.is_variationally_trivial(rho)
            out = {"trivial": _verdict_str(flag)}
            if primitive is not None:
                out["primitive"] = primitive
            return out
    if command in ("noether", "first-variation", "lie"):
        (rho,) = _pick_forms(model, args.form, 1)
        X = _pick_field(model, args.field)
        if command == "noether":
            theta = rho
            if rho.degree == rho.space.n:
                theta = variational.cartan_form(rho)
            current, full = prolong.noether_current(theta, X)
            return {"noether_current": current}
        if command == "first-variation":
            el, boundary, current = prolong.first_variation_split(rho, X)
            return {"el_term": el, "boundary_term": boundary,
                    "current": current}
        if command == "lie":
            return {"lie_derivative": prolong.lie_derivative(X, rho)}
    if command == "class-eq":
        a, b = _pick_forms(model, args.form, 2)
        return {"classes_equal": _verdict_str(variational.classes_equal(a, b))}
    if command == "probe":
        a, b = _pick_forms(model, args.form, 2)
        cfg = probe.ProbeConfig(seed=args.seed, trials=args.probe_trials)
        verdict = probe.forms_equal_probabilistic(
            a, b, cfg, params=model.params)
        out = {"probe": verdict.status}
        if verdict.witness is not None:
            out["witness"] = {str(k): str(v)
                              for k, v in verdict.witness.items()}
        return out
    raise UsageError("unknown command %r" % command)


def _emit(command: str, result: dict, fmt: str) -> str:
    if fmt == "json":
        payload = {"command": command, "result": {}}
        for label, value in result.items():
            if isinstance(value, Form):
                payload["result"][label] = render.form_json(value)
            elif isinstance(value, dict):
                payload["result"][label] = value
            else:
                payload["result"][label] = str(value)
        return json.dumps(payload, indent=2, sort_keys=True)
    lines = []
    renderer = render.form_text if fmt == "text" else render.form_latex
    for label, value in result.items():
        if isinstance(value, Form):
            value = renderer(value)
        elif isinstance(value, dict):
            value = json.dumps(value, sort_keys=True)
        if len(result) == 1:
            lines.append(str(value))
        else:
            lines.append("%s: %s" % (label, value))
    return "\n".join(lines)


def main(argv: Optional[list] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    try:
        with open(args.model, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        return _fail(1, str(exc))
    try:
        model = dsl.parse(text)
    except dsl.DslError as exc:
        return _fail(1, str(exc))
    for warning in model.warnings:
        print("varseq: warning: %s" % warning, file=sys.stderr)
    try:
        result = run(args.command, model, args)
    except UsageError as exc:
        return _fail(1, str(exc))
    except (ValueError, NotImplementedError) as exc:
        return _fail(2, str(exc))
    print(_emit(args.command, result, args.format))
    return 0


if __name__ == "__main__":
    sys.exit(main())
