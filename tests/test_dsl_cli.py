import json
import pathlib
import random
import re

import pytest
import sympy as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from varseq import cli, dsl, render, symexpr
from varseq import forms as fm
from varseq.forms import Dx, Omega
from varseq.jet_space import MultiIndex

from conftest import Budget

MECH = """
space { base t; fibre q; }
param m;
form lam : degree 1 order 1 = m/2 * q_t**2 * d(t);
form eps : degree 2 order 2 = -m*q_tt * w(q)^d(t);
field shift = D(q);
field time = D(t);
"""


def test_parse_basic_model():
    model = dsl.parse(MECH)
    assert model.space.base_names == ("t",)
    assert model.params == ("m",)
    assert set(model.forms) == {"lam", "eps"}
    assert set(model.fields) == {"shift", "time"}
    assert model.forms["lam"].degree == 1 and model.forms["lam"].order == 1


def test_parse_error_locations():
    with pytest.raises(dsl.DslError) as err:
        dsl.parse("space { base t; fibre q; }\nform f : degree 1 order 1 = "
                  "zz * d(t);")
    assert err.value.line == 2
    assert "zz" in str(err.value)


def test_parse_undeclared_and_order_violation():
    with pytest.raises(dsl.DslError, match="unknown"):
        dsl.parse("space { base t; fibre q; }\n"
                  "form f : degree 1 order 1 = d(z);")
    with pytest.raises(dsl.DslError, match="order"):
        dsl.parse("space { base t; fibre q; }\n"
                  "form f : degree 1 order 1 = q_tt * d(t);")


HEAD = "space { base t; fibre q; }\n"
FORM = HEAD + "form f : degree 1 order 1 = "


@pytest.mark.parametrize("text, message, line, col", [
    ("", "model contains no space declaration", 0, 0),
    ("foo x;", "unknown statement 'foo'", 1, 1),
    ("param m;", "space must be declared first", 1, 1),
    (HEAD + "space { base t; fibre q; }", "duplicate space declaration",
     2, 1),
    ("space { base t, 1; fibre q; }", "expected identifier, found '1'",
     1, 17),
    ("space { base t, t; fibre q; }",
     "coordinate names must be pairwise distinct", 1, 1),
    ("space { base t; fibre E; }", "coordinate 'E' shadows a constant",
     1, 23),
    ("space { base pi; fibre q; }", "coordinate 'pi' shadows a constant",
     1, 14),
    (HEAD + "param q;", "parameter 'q' shadows a coordinate", 2, 1),
    (HEAD + "param m E;", "parameter 'E' shadows a constant", 2, 1),
    (HEAD + "opaque L(t);\nparam L;", "parameter 'L' shadows an opaque",
     3, 1),
    (HEAD + "opaque d(t, q);", "opaque 'd' shadows a builtin", 2, 8),
    (HEAD + "opaque w(t);", "opaque 'w' shadows a builtin", 2, 8),
    (HEAD + "opaque D(t);", "opaque 'D' shadows a builtin", 2, 8),
    (HEAD + "opaque q(t);", "opaque 'q' shadows a coordinate", 2, 8),
    (HEAD + "param m;\nopaque m(t);", "opaque 'm' shadows a parameter",
     3, 8),
    (HEAD + "opaque L(t);\nopaque L(t, q);", "opaque 'L' shadows an opaque",
     3, 8),
    (HEAD + "opaque E(t, q);", "opaque 'E' shadows a constant", 2, 8),
    (HEAD + "opaque exp(t);", "opaque 'exp' shadows a function", 2, 8),
    (HEAD + "opaque L(t, 1);", "expected coordinate name, found '1'",
     2, 13),
    (HEAD + "opaque L(t, z);", "unknown opaque slot 'z'", 2, 13),
    (HEAD + "opaque L(t);\nform f : degree 1 order 1 = L(d(t)) * d(t);",
     "opaque arguments must be scalars", 3, 31),
    (HEAD + "opaque L(t);\nform f : degree 1 order 1 = L(q) * d(t);",
     "opaque 'L' must be applied to its declared slots", 3, 29),
    (HEAD + "form 3 : degree 1 order 1 = d(t);",
     "expected identifier, found '3'", 2, 6),
    (HEAD + "form f degree 1 order 1 = d(t);",
     "expected ':', found 'degree'", 2, 8),
    (HEAD + "form f : degree x order 1 = d(t);",
     "expected integer, found 'x'", 2, 17),
    (FORM + "d(t)", "expected ';', found 'end'", 2, 33),
    (FORM + "d(t) $;", "unexpected character '$'", 2, 34),
    (FORM + ") ;", "unexpected ')'", 2, 29),
    (FORM + "zz * d(t);", "unknown identifier 'zz'", 2, 29),
    (FORM + "d(z);", "unknown coordinate 'z' in d(...)", 2, 31),
    (FORM + "w(t);", "unknown fibre coordinate 't'", 2, 31),
    (HEAD + "form f : degree 1 order 2 = w(q,[t,q]);",
     "expected base coordinate in multi-index, found 'q'", 2, 36),
    (FORM + "sin(d(t));", "sin applies to scalars", 2, 29),
    (FORM + "d(t)**2;", "** applies to scalars only", 2, 33),
    (FORM + "1 / d(t);", "division by a form", 2, 31),
    (FORM + "d(t) * d(t);", "use ^ to multiply forms", 2, 34),
    (FORM + "1 + d(t);", "cannot add a scalar and a form", 2, 31),
    (FORM + "d(t) + w(q)^d(t);",
     "cannot add forms of different space or degree", 2, 34),
    (HEAD + "form f : degree 2 order 1 = d(t);",
     "form 'f' has degree 1, declared 2", 2, 6),
    (FORM + "q_tt * d(t);",
     "form 'f' violates declared order 1: declared order 1 below minimal "
     "order 2", 2, 6),
    (FORM + "D(q) * d(t);", "D(...) is only valid in field declarations",
     2, 29),
    (HEAD + "field X = D(z);", "unknown coordinate 'z' in D(...)", 2, 13),
    (HEAD + "field X = D(q_t);",
     "field components attach to d/dx^i and d/dy^sigma only", 2, 11),
    (HEAD + "field X = d(t);",
     "field 'X' must be a sum of <expr> * D(<coord>) terms", 2, 7),
])
def test_parse_error_messages_and_locations(text, message, line, col):
    with pytest.raises(dsl.DslError) as err:
        dsl.parse(text)
    assert (err.value.message, err.value.line, err.value.col) \
        == (message, line, col)


def test_parse_empty_fibre_rejected():
    with pytest.raises(dsl.DslError):
        dsl.parse("space { base t; fibre ; }")


def test_multiindex_canonicalized_with_warning():
    model = dsl.parse("space { base t x; fibre q; }\n"
                      "form f : degree 1 order 4 = w(q,[x,t,x]);")
    assert model.warnings == [
        "line 2: multi-index [2, 1, 2] canonicalized to sorted order"]
    (atoms,) = model.forms["f"].terms
    assert atoms == (Omega(1, MultiIndex((1, 2, 2))),)


def test_d_of_fibre_coordinate_expands_contact_basis():
    model = dsl.parse("space { base t; fibre q; }\n"
                      "form f : degree 1 order 1 = d(q);")
    f = model.forms["f"]
    assert f.coefficient((Omega(1, MultiIndex()),)) == 1
    assert f.coefficient((Dx(1),)) == sp.Symbol("q_t")


FIELD_HEADER = "space { base t; fibre q; }\nparam m;\n"


@pytest.mark.parametrize("body, xi, Xi", [
    ("(D(q) + D(t)) * 2", 2, 2),
    ("-(D(q) + D(t))", -1, -1),
    ("D(q) / 2", 0, sp.Rational(1, 2)),
    ("-(D(q) + D(q))", 0, -2),
    ("t * D(t) - m * q * D(q)", sp.Symbol("t"), sp.sympify("-m*q")),
])
def test_field_components_are_derivatives_by_direction(body, xi, Xi):
    X = dsl.parse(FIELD_HEADER + "field X = %s;" % body).fields["X"]
    assert (X.xi.get(1, 0), X.Xi.get(1, 0)) == (xi, Xi)


@pytest.mark.parametrize("body", ["t - D(q)", "D(q) + 1", "sin(D(q))",
                                  "D(q)**2", "D(q) * D(t)", "D(q) * d(t)"])
def test_field_body_not_linear_in_directions_is_rejected(body):
    with pytest.raises(dsl.DslError, match=r"field 'X' must be a sum of "
                       r"<expr> \* D\(<coord>\) terms") as err:
        dsl.parse(FIELD_HEADER + "field X = %s;" % body)
    assert err.value.line == 3


def test_direction_outside_field_is_rejected():
    with pytest.raises(dsl.DslError,
                       match="only valid in field declarations") as err:
        dsl.parse(FIELD_HEADER + "form f : degree 1 order 1 = D(q) * d(t);")
    assert err.value.line == 3


@pytest.mark.parametrize("name", ["Symbol", "Matrix", "Poly", "Eq",
                                  "Function", "Lambda", "Subs", "Integral",
                                  "Derivative"])
def test_parse_rejects_functions_outside_the_table(name):
    with pytest.raises(dsl.DslError, match=name) as err:
        dsl.parse(FIELD_HEADER
                  + "form f : degree 1 order 1 = %s(t) * d(t);" % name)
    assert err.value.line == 3


@pytest.mark.parametrize("name", sorted(symexpr.FUNCTIONS))
def test_parse_accepts_every_table_function(name):
    model = dsl.parse(FIELD_HEADER
                      + "form f : degree 0 order 0 = %s(t);" % name)
    t = sp.Symbol("t")
    assert model.forms["f"].terms[()] == symexpr.FUNCTIONS[name](t)


# Field bodies built from c * D(x) terms, with their components.  A
# D(t) or D(x) term takes only base-dependent c (projectability).
_BASE_COEFFS = ["1", "2", "-3", "1/2", "t", "x", "t*x", "t**2 - x"]
_FIBRE_COEFFS = _BASE_COEFFS + ["u", "v", "m*u", "u*t - v**2"]
_FIELD_SPACE = "space { base t, x; fibre u, v; }\nparam m;\n"


def _term(coord, c, template):
    return template.format(c=c, x=coord), {coord: sp.sympify(c)}


_TEMPLATES = st.sampled_from(["({c}) * D({x})", "D({x}) * ({c})"])
_TERMS = st.builds(_term, st.sampled_from(["t", "x"]),
                   st.sampled_from(_BASE_COEFFS), _TEMPLATES) | \
    st.builds(_term, st.sampled_from(["u", "v"]),
              st.sampled_from(_FIBRE_COEFFS), _TEMPLATES)


def _scaled(body, k):
    return {c: k * v for c, v in body.items()}


def _summed(a, b, sign=1):
    out = dict(a)
    for c, v in b.items():
        out[c] = out.get(c, 0) + sign * v
    return out


def _combine(children):
    pairs = st.tuples(children, children)
    k = st.integers(-4, 4).filter(bool)
    return st.one_of(
        pairs.map(lambda p: ("%s + %s" % (p[0][0], p[1][0]),
                             _summed(p[0][1], p[1][1]))),
        pairs.map(lambda p: ("%s - (%s)" % (p[0][0], p[1][0]),
                             _summed(p[0][1], p[1][1], -1))),
        children.map(lambda a: ("-(%s)" % a[0], _scaled(a[1], -1))),
        st.tuples(children, k).map(
            lambda p: ("(%s) * %d" % (p[0][0], p[1]), _scaled(p[0][1], p[1]))),
        st.tuples(children, k).map(
            lambda p: ("%d * (%s)" % (p[1], p[0][0]), _scaled(p[0][1], p[1]))),
        st.tuples(children, k).map(
            lambda p: ("(%s) / %d" % (p[0][0], p[1]),
                       _scaled(p[0][1], sp.Rational(1, p[1])))),
        children.map(lambda a: ("(%s)" % a[0], a[1])),
    )


_FIELD_BODIES = st.recursive(_TERMS, _combine, max_leaves=6)


def _components(X):
    space = X.space
    out = {space.base_names[i - 1]: v for i, v in X.xi.items()}
    out.update({space.fibre_names[s - 1]: v for s, v in X.Xi.items()})
    return out


def _same_components(got, want):
    return all(symexpr.equal(got.get(c, 0), want.get(c, 0)) is True
               for c in set(got) | set(want))


@settings(max_examples=60, deadline=None)
@given(_FIELD_BODIES)
def test_field_body_parses_to_its_components(body):
    text, want = body
    X = dsl.parse(_FIELD_SPACE + "field X = %s;" % text).fields["X"]
    assert _same_components(_components(X), want), text


_FORM_TERMS = st.tuples(st.sampled_from(_FIBRE_COEFFS + ["u_t", "v_x"]),
                        st.sampled_from(["d(t)", "d(x)", "d(u)", "w(v)",
                                         "w(u,[t])", "w(v,[x])"]))


@settings(max_examples=30, deadline=None)
@given(st.lists(_FORM_TERMS, max_size=3),
       st.lists(_FIELD_BODIES, min_size=1, max_size=2))
def test_render_parse_is_a_fixed_point_on_generated_models(terms, bodies):
    form = " + ".join("(%s) * %s" % t for t in terms) or "0"
    text = _FIELD_SPACE + "form f : degree 1 order 2 = %s;\n" % form
    text += "".join("field X%d = %s;\n" % (k, b[0])
                    for k, b in enumerate(bodies))
    model = dsl.parse(text)
    rendered = render.render_model(model)
    again = dsl.parse(rendered)
    assert render.render_model(again) == rendered
    assert again.forms["f"].equals(model.forms["f"]) is True
    for name, X in model.fields.items():
        assert _same_components(_components(again.fields[name]),
                                _components(X))


def test_opaque_declaration_and_use():
    model = dsl.parse("space { base t; fibre q; }\n"
                      "opaque L(t, q, q_t);\n"
                      "form lam : degree 1 order 1 = L * d(t);")
    coeff = model.forms["lam"].coefficient((Dx(1),))
    assert coeff.func.__name__ == "L"


@pytest.mark.parametrize("text", [
    HEAD + "opaque d(t, q);\nform f : degree 1 order 1 = d * d(t);",
    HEAD + "opaque E(t, q);\nform f : degree 1 order 1 = (E + exp(1)) * d(t);",
    HEAD + "param E;\nform f : degree 1 order 1 = (E + exp(1)) * d(t);",
    HEAD + "param d w D sin;\n"
    "form f : degree 1 order 1 = (d + w + D + sin + sin(t)) * d(q);",
])
def test_names_the_renderer_writes_back(text):
    # a model that parses renders to text that parses to the same model;
    # names the rendering would read back as something else are refused
    try:
        model = dsl.parse(text)
    except dsl.DslError:
        return
    again = dsl.parse(render.render_model(model))
    assert (again.params, again.opaques) == (model.params, model.opaques)
    assert again.forms["f"].equals(model.forms["f"]) is True


def test_render_parse_round_trip():
    model = dsl.parse(MECH)
    text = render.render_model(model)
    model2 = dsl.parse(text)
    assert render.render_model(model2) == text
    for name in model.forms:
        assert model.forms[name].equals(model2.forms[name]) is True
        assert model.forms[name].order == model2.forms[name].order
    for name in model.fields:
        assert dict(model.fields[name].xi) == dict(model2.fields[name].xi)
        assert dict(model.fields[name].Xi) == dict(model2.fields[name].Xi)


def test_form_text_is_reparseable():
    model = dsl.parse(MECH)
    from varseq import variational as vr
    el = vr.euler_lagrange(model.forms["lam"]).form
    text = render.form_text(el)
    doc = ("space { base t; fibre q; }\nparam m;\n"
           "form f : degree %d order %d = %s;" % (el.degree, el.order, text))
    back = dsl.parse(doc).forms["f"]
    assert back.equals(el) is True


@pytest.fixture
def model_file(tmp_path):
    path = tmp_path / "mech.jv"
    path.write_text(MECH)
    return str(path)


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_cli_every_command_runs(model_file, capsys):
    calls = [
        ("el", "--form", "lam"),
        ("helmholtz", "--form", "eps"),
        ("helmholtz-reduced", "--form", "eps"),
        ("cartan", "--form", "lam"),
        ("lepage-check", "--form", "lam"),
        ("lepage", "--form", "eps"),
        ("tonti", "--form", "eps"),
        ("trivial", "--form", "lam"),
        ("noether", "--form", "lam", "--field", "time"),
        ("first-variation", "--form", "lam", "--field", "shift"),
        ("lie", "--form", "lam", "--field", "shift"),
        ("class-eq", "--form", "lam", "--form", "lam"),
        ("probe", "--form", "lam", "--form", "eps"),
    ]
    for call in calls:
        for fmt in ("text", "latex", "json"):
            code, out, _ = run_cli(capsys, call[0], model_file,
                                   "--format", fmt, *call[1:])
            assert code == 0, (call, fmt)
            assert out.strip()


def test_cli_el_text_output(model_file, capsys):
    code, out, _ = run_cli(capsys, "el", model_file, "--form", "lam")
    assert code == 0
    assert out.strip() == "(m*q_tt) * d(t)^w(q)"


def test_cli_noether_current_of_negated_field(tmp_path, capsys):
    path = tmp_path / "b.jv"
    path.write_text(FIELD_HEADER
                    + "form lam : degree 1 order 1 = m/2 * q_t**2 * d(t);\n"
                    + "field b = -(D(q) + D(q));\n")
    code, out, _ = run_cli(capsys, "noether", str(path), "--form", "lam",
                           "--field", "b")
    assert (code, out.strip()) == (0, "(-2*m*q_t)")


def test_cli_exit_code_parse_error(tmp_path, capsys):
    bad = tmp_path / "bad.jv"
    bad.write_text("space { base t; fibre q; }\n"
                   "form f : degree 1 order 1 = q_tt * d(t);")
    code, _, err = run_cli(capsys, "el", str(bad))
    assert code == 1
    assert "order" in err


def test_cli_exit_code_math_precondition(tmp_path, capsys):
    bad = tmp_path / "nonvar.jv"
    bad.write_text("space { base t; fibre q; }\n"
                   "form eps : degree 2 order 1 = q*q_t * w(q)^d(t);")
    code, _, err = run_cli(capsys, "tonti", str(bad))
    assert code == 2
    assert "variational" in err


def test_cli_exit_code_missing_file(capsys):
    code, _, err = run_cli(capsys, "el", "/no/such/file.jv")
    assert code == 1


def test_cli_unknown_form_is_usage_error(model_file, capsys):
    code, _, err = run_cli(capsys, "el", model_file, "--form", "nope")
    assert code == 1
    assert "nope" in err


def _output_validator():
    from jsonschema import Draft202012Validator
    from referencing import Registry, Resource
    import pathlib
    docs = pathlib.Path(__file__).resolve().parent.parent / "docs"
    form_schema = json.loads((docs / "form.schema.json").read_text())
    out_schema = json.loads((docs / "output.schema.json").read_text())
    registry = Registry().with_resources([
        ("form.schema.json", Resource.from_contents(form_schema)),
    ])
    return Draft202012Validator(out_schema, registry=registry)


def test_cli_json_validates_against_schema(model_file, capsys):
    validator = _output_validator()
    for call in [("el", "--form", "lam"), ("tonti", "--form", "eps"),
                 ("first-variation", "--form", "lam", "--field", "shift"),
                 ("lepage-check", "--form", "lam"),
                 ("probe", "--form", "lam", "--form", "eps")]:
        code, out, _ = run_cli(capsys, call[0], model_file,
                               "--format", "json", *call[1:])
        assert code == 0
        errors = list(validator.iter_errors(json.loads(out)))
        assert not errors, (call, errors[:1])


def test_cli_warning_on_unsorted_multiindex(tmp_path, capsys):
    path = tmp_path / "warn.jv"
    path.write_text("space { base t x; fibre q; }\n"
                    "form f : degree 2 order 4 = w(q,[x,t,x])^d(t);\n")
    code, _, err = run_cli(capsys, "lepage-check", str(path))
    assert code == 0
    assert "canonicalized" in err


CONSTANTS = """
space { base t; fibre q; }
form lam : degree 1 order 1 = exp(1) * q_t**2 * d(t);
form mu : degree 1 order 1 = acos(0) * q * q_t**2 * d(t);
"""


def test_cli_named_constants_in_every_format(tmp_path, capsys):
    from varseq import variational as vr
    path = tmp_path / "constants.jv"
    path.write_text(CONSTANTS)
    model = dsl.parse(CONSTANTS)
    validator = _output_validator()
    header = "space { base t; fibre q; }\n"
    for name in ("lam", "mu"):
        lam = model.forms[name]
        expected = {"el": vr.euler_lagrange(lam).form,
                    "cartan": vr.cartan_form(lam)}
        for command, want in expected.items():
            for fmt in ("text", "latex", "json"):
                code, out, err = run_cli(capsys, command, str(path),
                                         "--form", name, "--format", fmt)
                assert code == 0, (name, command, fmt, err)
                if fmt == "json":
                    payload = json.loads(out)
                    assert not list(validator.iter_errors(payload))
                    (node,) = payload["result"].values()
                    back = fm.form_from_json(model.space, node)
                    assert back.equals(want) is True
                elif fmt == "text":
                    doc = header + "form f : degree %d order %d = %s;" % (
                        want.degree, want.order, out.strip())
                    assert dsl.parse(doc).forms["f"].equals(want) is True


@pytest.mark.parametrize("scalar", ["1/0", "sqrt(-1)"])
@pytest.mark.parametrize("fmt", ["text", "json"])
def test_cli_rejects_non_finite_or_non_real_coefficient(tmp_path, capsys,
                                                        scalar, fmt):
    path = tmp_path / "bad.jv"
    path.write_text("space { base t; fibre q; }\n"
                    "form lam : degree 1 order 1 = %s * q_t**2 * d(t);\n"
                    % scalar)
    code, out, err = run_cli(capsys, "el", str(path), "--format", fmt)
    assert code == 1
    assert out == ""
    assert "line 2" in err and "non-finite or non-real" in err


def test_parse_rejects_non_finite_field_component():
    with pytest.raises(dsl.DslError, match="non-finite") as err:
        dsl.parse("space { base t; fibre q; }\nfield X = 0/0 * D(q);")
    assert err.value.line == 2


HIDDEN_ZERO = """
space { base t; fibre q; }
form eps : degree 2 order 1 = (sin(q)**2 + cos(q)**2 - 1) * q_t * w(q)^d(t);
"""


def test_cli_tonti_unknown_verdict_exits_zero(tmp_path, capsys):
    path = tmp_path / "hidden.jv"
    path.write_text(HIDDEN_ZERO)
    code, out, err = run_cli(capsys, "tonti", str(path))
    assert (code, out.strip(), err) == (0, "unknown", "")
    code, out, _ = run_cli(capsys, "tonti", str(path), "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["result"] == {"locally_variational": "unknown"}
    assert not list(_output_validator().iter_errors(payload))


def test_cli_el_of_a_hidden_zero_contact_term(tmp_path, capsys):
    # an undecided contact coefficient does not make lambda non-horizontal
    header = "space { base t; fibre q; }\nform lam : degree 1 order 1 = "
    outs = []
    for name, body in (("plain", "q_t**2 * d(t)"),
                       ("hidden", "q_t**2 * d(t)"
                        " + (sin(q)**2 + cos(q)**2 - 1) * w(q)")):
        path = tmp_path / ("%s.jv" % name)
        path.write_text(header + body + ";\n")
        outs.append(run_cli(capsys, "el", str(path)))
    assert outs[1] == outs[0] == (0, "(2*q_tt) * d(t)^w(q)\n", "")


_TOKEN = re.compile(r"\*\*|\w+|\S")


def _fuzz_sources():
    models = pathlib.Path(__file__).resolve().parent.parent / "models"
    texts = [p.read_text() for p in sorted(models.glob("*.jv"))]
    texts += [MECH, CONSTANTS, HIDDEN_ZERO,
              FIELD_HEADER + "field X = t * D(t) - m * q * D(q);",
              FIELD_HEADER + "opaque L(t, q);\n"
              "form f : degree 2 order 1 = L(t, q) * w(q)^d(t) / 2;",
              "space { base t, x; fibre q; }\n"
              "form f : degree 2 order 4 = w(q,[x,t,x])^d(t) + 0;"]
    return [_TOKEN.findall(re.sub(r"#[^\n]*", "", t)) for t in texts]


def _mutants(seed, count):
    """Token-level mutants of the models and snippets: each deletes,
    inserts (a token drawn from all sources) or duplicates 1-3 tokens."""
    rng = random.Random(seed)
    sources = _fuzz_sources()
    pool = sorted({tok for src in sources for tok in src})
    for _ in range(count):
        toks = list(rng.choice(sources))
        for _ in range(rng.randint(1, 3)):
            k = rng.randrange(len(toks))
            action = rng.choice(("delete", "insert", "duplicate"))
            if action == "delete":
                del toks[k]
            elif action == "insert":
                toks.insert(k, rng.choice(pool))
            else:
                toks.insert(k, toks[k])
        yield " ".join(toks)


def test_mutated_models_parse_or_raise_dsl_error():
    parsed = 0
    with Budget(10):
        for text in _mutants(seed=2015, count=1000):
            try:
                model = dsl.parse(text)
            except dsl.DslError:
                continue
            parsed += 1
            rendered = render.render_model(model)
            assert render.render_model(dsl.parse(rendered)) == rendered, text
    assert 0 < parsed < 1000
