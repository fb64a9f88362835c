import random
from fractions import Fraction

import pytest

import reference

from specta._expr import (
    ExprError,
    parse_formula,
    parse_polynomial,
    parse_polynomial_list,
)
from specta.arith import Polynomial
from specta.cad2d import And, Atom, Not, Or
from specta.paths import SAFunction, appendix_separator, parse_function


def test_basic_polynomial():
    p = parse_polynomial("x^2 + y^2 - 1")
    assert p.variables == ("x", "y")
    assert p.eval_at({"x": 3, "y": 4}) == 24


def test_implicit_multiplication():
    assert parse_polynomial("2t^2 + 6t^3") == parse_polynomial("2*t^2 + 6*t^3")
    assert parse_polynomial("2x(x+1)") == parse_polynomial("2*x^2 + 2*x")
    assert parse_polynomial("x y") == parse_polynomial("x*y")


def test_fraction_coefficients():
    p = parse_polynomial("3/4 x - 1/2")
    assert p.eval_at({"x": 2}) == 1
    assert parse_polynomial("6/2x") == parse_polynomial("3x")


def test_unary_minus_and_powers():
    assert parse_polynomial("-x^2") == -parse_polynomial("x^2")
    assert parse_polynomial("2^3") == Polynomial.const(8, ())
    assert parse_polynomial("-(x - 1)") == parse_polynomial("1 - x")


def test_variables_parameter_fixes_tuple():
    p = parse_polynomial("y - 1", variables=("x", "y"))
    assert p.variables == ("x", "y")
    with pytest.raises(ExprError):
        parse_polynomial("z + 1", variables=("x", "y"))


def test_polynomial_list():
    ps = parse_polynomial_list("t, 2t^2+6t^3", variables=("t",))
    assert len(ps) == 2
    assert ps[1].eval_at({"t": 1}) == 8


def test_formula_structure():
    f = parse_formula("x^2+y^2<1 OR (x=1 AND y=0)")
    assert isinstance(f, Or) and len(f.parts) == 2
    assert isinstance(f.parts[0], Atom) and f.parts[0].rel == "<"
    inner = f.parts[1]
    assert isinstance(inner, And) and all(a.rel == "=" for a in inner.parts)


def test_parenthesized_atom_versus_grouping():
    f = parse_formula("(x+y)^2 - 1 > 0")
    assert isinstance(f, Atom)
    g = parse_formula("(x > 0 OR y > 0) AND x < 1")
    assert isinstance(g, And) and isinstance(g.parts[0], Or)


def test_not_and_keyword_case():
    f = parse_formula("not (x > 0) and y <= 1")
    assert isinstance(f, And)
    assert isinstance(f.parts[0], Not)


def test_double_equals_alias():
    assert parse_formula("x == 1") == parse_formula("x = 1")


def test_error_positions():
    with pytest.raises(ExprError) as e:
        parse_formula("x >")
    assert e.value.line == 1 and e.value.column == 4
    with pytest.raises(ExprError) as e:
        parse_formula("x > 0 AND\ny <")
    assert e.value.line == 2


def test_rejects_zero_atom():
    with pytest.raises(ExprError, match="nonzero"):
        parse_formula("x = x")


def test_rejects_division_by_polynomial():
    with pytest.raises(ExprError, match="constant"):
        parse_polynomial("1 / y")


def test_rejects_unknown_character_and_trailing_input():
    with pytest.raises(ExprError, match="unexpected character"):
        parse_formula("x & y")
    with pytest.raises(ExprError, match="trailing"):
        parse_polynomial("x + 1 )")


# -- the integer parser against the Polynomial-arithmetic reference ------

NAMES = ("x", "y", "t", "z")


def _shape(v):
    """A value's structure with every Polynomial's variables and terms in
    order, so equal shapes mean equal terms and equal term order."""
    if isinstance(v, Polynomial):
        return ("poly", v.variables, tuple(v.terms.items()))
    if isinstance(v, SAFunction):
        return (v.op,) + tuple(map(_shape, v.args))
    if isinstance(v, Atom):
        return ("atom", _shape(v.poly), v.rel)
    if isinstance(v, Not):
        return ("not", _shape(v.part))
    if isinstance(v, (And, Or)):
        return (type(v).__name__,) + tuple(map(_shape, v.parts))
    return tuple(map(_shape, v))


def _outcome(parse, *args):
    try:
        return _shape(parse(*args))
    except ExprError as exc:
        return ("error", exc.position, str(exc))


def _draw_poly(rng, names, depth, calls):
    terms = [_draw_term(rng, names, depth, calls) for _ in range(rng.randint(1, 3))]
    out = terms[0]
    for term in terms[1:]:
        out += rng.choice((" + ", " - ", "+", "-")) + term
    return out


def _draw_term(rng, names, depth, calls):
    out = _draw_factor(rng, names, depth, calls)
    for _ in range(rng.randint(0, 2)):
        joint = rng.choice(("*", " ", "/", "/"))
        if joint == "/" and not (calls and rng.random() < 0.5):
            out += f" / {rng.randint(1, 5)}" if rng.random() < 0.8 else f"/({rng.randint(-1, 1)})"
        else:
            out += joint + _draw_factor(rng, names, depth, calls)
    return out


def _draw_factor(rng, names, depth, calls):
    out = rng.choice(("", "", "", "-", "+", "--"))
    roll = rng.random()
    if depth > 0 and roll < 0.3:
        body = _draw_poly(rng, names, depth - 1, calls)
        call = rng.choice(("abs", "sqrt")) if calls and rng.random() < 0.4 else ""
        out += f"{call}({body})"
    elif roll < 0.6:
        out += rng.choice(names)
    else:
        out += str(rng.choice((0, 1, 1, 2, 3, 7, 12)))
    if rng.random() < 0.3:
        out += f"^{rng.randint(0, 3)}"
    return out


def _drawn(seed, count, calls=False):
    rng = random.Random(seed)
    for _ in range(count):
        yield rng, _draw_poly(rng, rng.sample(NAMES, rng.randint(1, 3)), 2, calls)


EDGES = ["(x-x)^0", "0^0", "(1/2 x)^3", "0*x", "x^0", "x^0 y - y", "(x - x)^2 + y",
         "(1/2 x + 1/3 y)^3 - 1/9", "2/4 x/6", "x - x + y/3", "3 (x + y)^0 x"]

# one text per ExprError raised by the parsers, with the variables tuple
# for parse_polynomial
ERRORS = [("x & y", None), ("(x + 1", None), ("x + 1 )", None), ("x + * 2", None),
          ("x ^ y", None), ("x ^", None), ("1 / y", None), ("1 / (x - x)", None),
          ("z + 1", ("x", "y")), ("x y + 2", ("x",)), ("x^0 + w y", ("y",)),
          ("", None), ("\n  x +\n )", None)]
FN_ERRORS = ["abs x", "sqrt", "x/0", "x/(y - y)", "abs(x", "x +", "x ^ y", "1/(2 -"]
FORMULA_ERRORS = ["x >", "x = x", "x > 0 AND\ny <", "(x > 0", "x > 0)", "NOT", "x 1 >",
                  "(x - y)^2 = (x - y)^2", "(x > 0 OR y) AND x < 1", "x < 1 OR"]


def test_parser_matches_reference_on_drawn_polynomials():
    for rng, text in _drawn(7, 400):
        assert _outcome(parse_polynomial, text) == \
            _outcome(reference.parse_polynomial, text), text
        variables = tuple(rng.sample(NAMES, rng.randint(1, 4)))
        assert _outcome(parse_polynomial, text, variables) == \
            _outcome(reference.parse_polynomial, text, variables), (text, variables)


def test_parser_matches_reference_on_edges_and_errors():
    for text in EDGES:
        assert _outcome(parse_polynomial, text) == _outcome(reference.parse_polynomial, text)
        assert _outcome(parse_polynomial, text, ("y", "x")) == \
            _outcome(reference.parse_polynomial, text, ("y", "x"))
    assert parse_polynomial("(1/2 x)^3") == Polynomial.make(("x",), {(3,): Fraction(1, 8)})
    for text, variables in ERRORS:
        got = _outcome(parse_polynomial, text, variables)
        assert got[0] == "error" and got == \
            _outcome(reference.parse_polynomial, text, variables), text
    for text in FN_ERRORS:
        got = _outcome(parse_function, text)
        assert got[0] == "error" and got == _outcome(reference.parse_function, text), text
    for text in FORMULA_ERRORS:
        got = _outcome(parse_formula, text)
        assert got[0] == "error" and got == _outcome(reference.parse_formula, text), text


def test_parser_matches_reference_on_lists_and_formulas():
    # names first met in different orders across items and across atoms
    for rng, _ in _drawn(11, 120):
        items = [_draw_poly(rng, rng.sample(NAMES, 2), 1, False) for _ in range(3)]
        text = ", ".join(items)
        assert _outcome(parse_polynomial_list, text) == \
            _outcome(reference.parse_polynomial_list, text), text
        assert _outcome(parse_polynomial_list, text, NAMES) == \
            _outcome(reference.parse_polynomial_list, text, NAMES), text
        atoms = [f"{a} {rng.choice(('<', '<=', '=', '==', '>=', '>'))} {b}"
                 for a, b in zip(items, items[1:] + items[:1])]
        formula = f"{atoms[0]} AND (NOT {atoms[1]} OR {atoms[2]})"
        assert _outcome(parse_formula, formula) == \
            _outcome(reference.parse_formula, formula), formula


def test_parse_function_matches_reference_node_trees():
    for _, text in _drawn(13, 300, calls=True):
        assert _outcome(parse_function, text) == _outcome(reference.parse_function, text), text
    for text in EDGES + ["abs(x)^0 y", "x / abs(y)^0", "-sqrt(x)^2 / 2", "abs(x) / (y - y + 3)",
                         "(x/(1+x))^3 - 2abs(y)(x + y)"]:
        assert _outcome(parse_function, text) == _outcome(reference.parse_function, text), text


def test_appendix_separator_matches_reference():
    # the rows list the terms in another order than the expansion
    for k in range(2, 15):
        got, want = appendix_separator(k), reference.appendix_separator(k)
        assert got.op == want.op == "/"
        assert [(p.variables, p.terms) for p in got.args] == \
            [(p.variables, p.terms) for p in want.args]


def test_zero_polynomial_takes_any_variables():
    # 0*x reads as the zero polynomial, like 0 and x^0 - 1
    for text in ("0*x", "0", "x^0 - 1", "(x - x) y"):
        p = parse_polynomial(text, ("t",))
        assert p.variables == ("t",) and p.is_zero()
    with pytest.raises(ExprError, match="unexpected variable 'x'"):
        parse_polynomial("0*x + x", ("t",))
