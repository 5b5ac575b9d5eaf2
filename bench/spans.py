"""In-memory span tracer for the benchmark's traced runs (stdlib only).

``Tracer.install`` replaces, at run time and in the calling process
only, the public functions of the varseq modules (their ``__all__``),
the methods ``Form.__init__``, ``Form.equals``, ``Form.is_zero`` and
``JetSpace.jet_order``, and the residual self-check
``variational._verify_residual`` with wrappers that record one span per
call: id, parent id, name, start, end.  ``Tracer.uninstall`` puts the
originals back.  Nothing under ``src/`` is edited, and an untraced run
never imports this module's wrappers, so tracing off costs nothing.

A call nested directly inside a span of the same name is counted but
does not open a span of its own (``total_derivative`` recurses once per
subexpression), so a layer's self time is its outermost span minus the
spans of other layers it called.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time

MODULES = ("jet_space", "symexpr", "forms", "variational", "prolong",
           "probe", "dsl", "render", "cli")

# (module, class or None, attribute, span name)
EXTRA_TARGETS = (
    ("forms", "Form", "__init__", "forms.Form.init"),
    ("forms", "Form", "equals", "forms.Form.equals"),
    ("forms", "Form", "is_zero", "forms.Form.is_zero"),
    ("jet_space", "JetSpace", "jet_order", "jet_space.jet_order"),
    ("variational", None, "_verify_residual", "variational.verify_residual"),
)

_ROOT = -1

SUMS = ("residual_verify_s", "cartan_s", "cartan_verify_s",
        "cartan_form_init_s", "helmholtz_s", "helmholtz_form_init_s",
        "accept_s")


class Tracer:
    """Spans and counters of one traced run."""

    def __init__(self) -> None:
        self.spans: list[list] = []      # [id, parent, name, start, end]
        self.stack: list[int] = []
        self.calls: dict[str, int] = {}
        self.terms_out: dict[str, int] = {}
        self.equal_unknown = 0
        self.td_cache_growth = 0
        self.accept_drawn = 0
        self.accept_taken = 0
        self.accept_s = 0.0
        self.cartan_outputs: list = []
        self._patches: list[tuple[object, str, object]] = []

    # -- wrapping ---------------------------------------------------------

    def wrap(self, name: str, fn, on_exit=None):
        spans, stack, calls = self.spans, self.stack, self.calls
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            if stack and spans[stack[-1]][2] == name:
                return fn(*args, **kwargs)
            rec = [len(spans), stack[-1] if stack else _ROOT, name, clock(),
                   0.0]
            spans.append(rec)
            stack.append(rec[0])
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[4] = clock()
                stack.pop()
            if on_exit is not None:
                on_exit(args, out)
            return out

        return traced

    def _count_terms(self, name: str):
        def on_exit(args, out):
            form = args[0] if name == "forms.Form.init" else out
            self.terms_out[name] = self.terms_out.get(name, 0) \
                + len(form.terms)
            if name == "variational.cartan_form":
                self.cartan_outputs.append(out)
        return on_exit

    def _count_unknown(self, args, out) -> None:
        if out is None:
            self.equal_unknown += 1

    def _wrap_total_derivative(self, fn, cache: dict):
        """Counts memo-table growth around outermost calls only; a miss
        adds exactly one entry, so growth is the miss count."""
        inner = self.wrap("symexpr.total_derivative", fn)
        stack, spans = self.stack, self.spans

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if stack and spans[stack[-1]][2] == "symexpr.total_derivative":
                return inner(*args, **kwargs)
            before = len(cache)
            try:
                return inner(*args, **kwargs)
            finally:
                after = len(cache)
                # the table is wiped when it passes its size limit
                self.td_cache_growth += after - before if after >= before \
                    else after

        return traced

    def counting_accept(self, accept):
        """Wrap a probe ``accept`` callable to count drawn/accepted."""
        def counted(assignment):
            t0 = time.perf_counter()
            ok = accept(assignment)
            self.accept_s += time.perf_counter() - t0
            self.accept_drawn += 1
            if ok:
                self.accept_taken += 1
            return ok
        return counted

    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self) -> None:
        mods = {m: importlib.import_module("varseq." + m) for m in MODULES}
        for short, mod in mods.items():
            for attr in getattr(mod, "__all__", ()):
                obj = mod.__dict__.get(attr)
                if not (inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    continue
                name = "%s.%s" % (short, attr)
                if name == "symexpr.total_derivative":
                    new = self._wrap_total_derivative(
                        obj, mod.__dict__["_TD_CACHE"])
                elif name == "symexpr.equal":
                    new = self.wrap(name, obj, self._count_unknown)
                elif name == "variational.cartan_form":
                    new = self.wrap(name, obj, self._count_terms(name))
                else:
                    new = self.wrap(name, obj)
                self._patch(mod, attr, new)
        for short, cls, attr, name in EXTRA_TARGETS:
            owner = mods[short] if cls is None else getattr(mods[short], cls)
            fn = owner.__dict__[attr]
            on_exit = self._count_terms(name) \
                if name == "forms.Form.init" else None
            self._patch(owner, attr, self.wrap(name, fn, on_exit))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, old = self._patches.pop()
            setattr(owner, attr, old)

    # -- analysis ---------------------------------------------------------

    def self_times(self) -> list[float]:
        """Per span: duration minus the durations of its direct children."""
        out = [rec[4] - rec[3] for rec in self.spans]
        for rec in self.spans:
            if rec[1] != _ROOT:
                out[rec[1]] -= rec[4] - rec[3]
        return out

    def under(self, ancestor: str) -> list[bool]:
        """Per span: whether a strict ancestor span is named ``ancestor``.

        Parents are created before their children, so one pass in id
        order suffices.
        """
        flags = [False] * len(self.spans)
        for rec in self.spans:
            p = rec[1]
            if p != _ROOT:
                flags[rec[0]] = flags[p] or self.spans[p][2] == ancestor
        return flags

    def aggregate(self) -> dict:
        """Additive totals of this run (runs of several processes merge
        with :func:`merge`): per span name calls and self seconds;
        counters; and the inclusive sums behind the shares."""
        selfs = self.self_times()
        table = {name: {"calls": n, "self_s": 0.0}
                 for name, n in self.calls.items()}
        flags = {a: self.under(a) for a in (
            "variational.residual", "variational.cartan_form",
            "variational.helmholtz", "forms.Form.init")}
        sums = dict.fromkeys(SUMS, 0.0)
        for rec, own in zip(self.spans, selfs):
            sid, name, dur = rec[0], rec[2], rec[4] - rec[3]
            table[name]["self_s"] += own
            in_cartan = flags["variational.cartan_form"][sid]
            if name == "forms.Form.equals" \
                    and flags["variational.residual"][sid]:
                sums["residual_verify_s"] += own
            elif name == "variational.cartan_form" and not in_cartan:
                sums["cartan_s"] += dur
            elif name == "variational.verify_residual" and in_cartan:
                sums["cartan_verify_s"] += dur
            elif name == "variational.helmholtz" \
                    and not flags["variational.helmholtz"][sid]:
                sums["helmholtz_s"] += dur
            elif name == "forms.Form.init" \
                    and not flags["forms.Form.init"][sid]:
                if in_cartan:
                    sums["cartan_form_init_s"] += dur
                if flags["variational.helmholtz"][sid]:
                    sums["helmholtz_form_init_s"] += dur
        counters = {
            "spans": len(self.spans),
            "form_terms_out": self.terms_out.get("forms.Form.init", 0),
            "cartan_terms_out": self.terms_out.get(
                "variational.cartan_form", 0),
            "equal_unknown": self.equal_unknown,
            "td_cache_growth": self.td_cache_growth,
            "accept_drawn": self.accept_drawn,
            "accept_taken": self.accept_taken,
        }
        sums["accept_s"] = self.accept_s
        return {"table": table, "sums": sums, "counters": counters}

    def cartan_ops_out(self) -> int:
        """sp.count_ops over the recorded cartan_form outputs; call after
        the timed phase."""
        import sympy as sp
        return sum(sp.count_ops(c) for theta in self.cartan_outputs
                   for c in theta.terms.values())


def merge(aggs: list) -> dict:
    """Sum the aggregates of several traced processes."""
    out = {"table": {}, "sums": dict.fromkeys(SUMS, 0.0), "counters": {}}
    for agg in aggs:
        for name, row in agg["table"].items():
            acc = out["table"].setdefault(name, {"calls": 0, "self_s": 0.0})
            for key, value in row.items():
                acc[key] += value
        for key, value in agg["sums"].items():
            out["sums"][key] += value
        for key, value in agg["counters"].items():
            out["counters"][key] = out["counters"].get(key, 0) + value
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(agg: dict) -> dict:
    """Per-layer metrics by name: (value, unit)."""
    table, sums, cnt = agg["table"], agg["sums"], agg["counters"]

    def row(name):
        return table.get(name, {"calls": 0, "self_s": 0.0})

    out = {}
    for name in CALLS_AND_SELF:
        out[name + ".calls"] = (row(name)["calls"], "count")
        out[name + ".self_s"] = (row(name)["self_s"], "s")
    out["symexpr.canonicalize.self_s"] = (
        row("symexpr.canonicalize")["self_s"], "s")
    out["cli.main.self_s"] = (row("cli.main")["self_s"], "s")
    out["dsl.parse.self_s"] = (row("dsl.parse")["self_s"], "s")
    out["render.self_s"] = (sum(r["self_s"] for n, r in table.items()
                                if n.startswith("render.")), "s")
    out["forms.Form.init.terms_out"] = (cnt["form_terms_out"], "count")
    out["variational.residual.verify_s"] = (sums["residual_verify_s"], "s")
    out["symexpr.equal.unknown"] = (cnt["equal_unknown"], "count")
    td_calls = row("symexpr.total_derivative")["calls"]
    out["symexpr.total_derivative.hit_ratio"] = (
        _ratio(td_calls - cnt["td_cache_growth"], td_calls), "ratio")
    out["variational.cartan_form.terms_out"] = (cnt["cartan_terms_out"],
                                                "count")
    out["variational.cartan_form.ops_out"] = (cnt.get("cartan_ops_out", 0),
                                              "count")
    out["probe.accept_ratio"] = (
        _ratio(cnt["accept_taken"], cnt["accept_drawn"]), "ratio")
    # time in the caller's accept filter, part of the probe's self time
    out["probe.accept_s"] = (sums["accept_s"], "s")
    out["variational.cartan_form.verify_share"] = (
        _ratio(sums["cartan_verify_s"], sums["cartan_s"]), "ratio")
    out["variational.cartan_form.form_init_share"] = (
        _ratio(sums["cartan_form_init_s"], sums["cartan_s"]), "ratio")
    out["variational.helmholtz.form_init_share"] = (
        _ratio(sums["helmholtz_form_init_s"], sums["helmholtz_s"]), "ratio")
    out["trace.spans"] = (cnt["spans"], "count")
    return out


CALLS_AND_SELF = (
    "forms.Form.init", "jet_space.jet_order", "variational.residual",
    "forms.Form.equals", "symexpr.equal", "symexpr.total_derivative",
    "symexpr.partial", "forms.exterior_d", "forms.wedge", "forms.contract",
    "forms.Form.is_zero", "variational.interior_euler",
    "variational.cartan_form", "variational.contact_homotopy",
    "variational.euler_lagrange", "variational.helmholtz",
    "variational.is_variationally_trivial", "prolong.prolong",
    "prolong.lie_derivative", "prolong.noether_current",
    "prolong.nbh_current", "probe.exprs_equal_probabilistic",
)
