"""The ``varseq`` command line front-end.

Usage::

    varseq <command> <model.jv> [--form NAME] [--field NAME]
           [--format text|latex|json] [--seed N] [--probe-trials N]
           [--order r]

Exit codes: 0 success, 1 parse/usage error, 2 mathematical
precondition failure (e.g. ``tonti`` on a non-variational source form).
A verdict the exact arithmetic cannot settle prints ``unknown`` and
exits 0.
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


class UsageError(ValueError):
    """Bad invocation (missing names, wrong counts, bad option values);
    exits with code 1."""


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


def _helmholtz_reduced(args, model, rho) -> dict:
    hbar, eta = variational.reduced_helmholtz_mechanics(rho)
    return {"helmholtz_reduced": hbar.form, "witness_eta": eta}


def _tonti(args, model, rho) -> dict:
    verdict = variational.helmholtz(rho).form.is_zero()
    if verdict is False:
        raise ValueError("source form is not locally variational "
                         "(nonzero Helmholtz form)")
    if verdict is None:
        return {"locally_variational": _verdict_str(None)}
    lam = fm.horizontalize(variational.contact_homotopy(rho))
    return {"tonti_lagrangian": lam}


def _trivial(args, model, rho) -> dict:
    flag, primitive = variational.is_variationally_trivial(rho)
    out = {"trivial": _verdict_str(flag)}
    if primitive is not None:
        out["primitive"] = primitive
    return out


def _noether(args, model, rho, X) -> dict:
    theta = rho
    if rho.degree == rho.space.n:
        theta = variational.cartan_form(rho)
    current, full = prolong.noether_current(theta, X)
    return {"noether_current": current}


def _first_variation(args, model, rho, X) -> dict:
    el, boundary, current = prolong.first_variation_split(rho, X)
    return {"el_term": el, "boundary_term": boundary, "current": current}


def _probe(args, model, a, b) -> dict:
    if args.probe_trials < 1:
        raise UsageError("--probe-trials must be >= 1")
    cfg = probe.ProbeConfig(seed=args.seed, trials=args.probe_trials)
    verdict = probe.forms_equal_probabilistic(a, b, cfg, params=model.params)
    out = {"probe": verdict.status}
    if verdict.witness is not None:
        out["witness"] = {str(k): str(v) for k, v in verdict.witness.items()}
    return out


# command -> (number of --form operands, needs --field, handler); the
# handler takes (args, model, *forms[, field]) and returns the result parts
_TABLE = {
    "el": (1, False, lambda args, model, rho: {
        "euler_lagrange": variational.euler_lagrange(rho).form}),
    "helmholtz": (1, False, lambda args, model, rho: {
        "helmholtz": variational.helmholtz(rho).form}),
    "helmholtz-reduced": (1, False, _helmholtz_reduced),
    "cartan": (1, False, lambda args, model, rho: {
        "cartan": variational.cartan_form(rho)}),
    "lepage-check": (1, False, lambda args, model, rho: {
        "is_lepage": _verdict_str(variational.is_lepage(rho))}),
    "lepage": (1, False, lambda args, model, rho: {
        "lepage_equivalent": variational.cartan_form(rho)}),
    "tonti": (1, False, _tonti),
    "trivial": (1, False, _trivial),
    "noether": (1, True, _noether),
    "first-variation": (1, True, _first_variation),
    "lie": (1, True, lambda args, model, rho, X: {
        "lie_derivative": prolong.lie_derivative(X, rho)}),
    "class-eq": (2, False, lambda args, model, a, b: {
        "classes_equal": _verdict_str(variational.classes_equal(a, b))}),
    "probe": (2, False, _probe),
}
COMMANDS = tuple(_TABLE)


def run(command: str, model: dsl.ModelFile, args) -> dict:
    """Dispatch a command; returns {label: form-or-string} result parts."""
    if command not in _TABLE:
        raise UsageError("unknown command %r" % command)
    count, needs_field, handler = _TABLE[command]
    operands = _pick_forms(model, args.form, count)
    if needs_field:
        operands.append(_pick_field(model, args.field))
    elif count == 1 and args.order is not None:
        if args.order < operands[0].order:
            raise UsageError("--order %d is below the form's order %d"
                             % (args.order, operands[0].order))
        operands[0] = fm.lift(operands[0], args.order)
    return handler(args, model, *operands)


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
