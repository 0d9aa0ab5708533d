import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kernrec import expr
from kernrec.errors import (
    ArityError,
    DomainFaultError,
    ExprError,
    ExprSyntaxError,
    UnboundVariableError,
    UnknownIdentifierError,
)
from kernrec.expr import BinOp, Call, Neg, Num, Var, evaluate, parse, pretty, variables


class TestParse:
    def test_structure(self):
        assert parse("2*x+1") == BinOp("+", BinOp("*", Num(2.0), Var("x")), Num(1.0))

    def test_eval_basic(self):
        assert evaluate(parse("2*x+1"), {"x": 3.0}) == 7.0

    def test_exp_identity(self):
        assert evaluate(parse("exp(-t)"), {"t": 0.0}) == 1.0

    def test_unary_minus_binds_looser_than_power(self):
        assert evaluate(parse("-x^2"), {"x": 2.0}) == -4.0

    def test_power_right_associative(self):
        assert evaluate(parse("2^3^2"), {}) == 512.0

    def test_left_associative_sub_div(self):
        assert evaluate(parse("1-2-3"), {}) == -4.0
        assert evaluate(parse("8/4/2"), {}) == 1.0

    def test_exponent_may_carry_unary_minus(self):
        assert evaluate(parse("2^-2"), {}) == 0.25

    def test_pi_constant(self):
        assert evaluate(parse("cos(pi)"), {}) == -1.0

    def test_numbers_with_exponent(self):
        assert evaluate(parse("1.5e2 + .5"), {}) == 150.5

    def test_min_max(self):
        assert evaluate(parse("min(t, 1-t)"), {"t": 0.25}) == 0.25
        assert evaluate(parse("max(t, 1-t)"), {"t": 0.25}) == 0.75

    def test_syntax_error_offset(self):
        with pytest.raises(ExprSyntaxError) as err:
            parse("sin(")
        assert err.value.offset == 4

    def test_trailing_garbage(self):
        with pytest.raises(ExprSyntaxError):
            parse("1+2 )")

    def test_unknown_identifier(self):
        with pytest.raises(UnknownIdentifierError):
            parse("z + 1")
        with pytest.raises(UnknownIdentifierError):
            parse("foo(x)")

    def test_arity_mismatch(self):
        with pytest.raises(ArityError):
            parse("sin(x, y)")
        with pytest.raises(ArityError):
            parse("min(x)")

    def test_unexpected_character(self):
        with pytest.raises(ExprSyntaxError) as err:
            parse("1 + $")
        assert err.value.offset == 4

    @pytest.mark.parametrize(
        "source,offset", [("1e999", 0), ("2*1e309", 2), ("x + 1.8e308*t", 4)]
    )
    def test_out_of_range_literal(self, source, offset):
        # a literal that overflows to infinity is located, not parsed as Num(inf)
        with pytest.raises(ExprSyntaxError, match="out of range") as err:
            parse(source)
        assert err.value.offset == offset

    @pytest.mark.parametrize(
        "source,offset",
        [
            ("(" * 3000 + "x" + ")" * 3000, 100),
            ("sin(" * 3000 + "x" + ")" * 3000, 400),
            ("x^" * 3000 + "x", 200),
            ("+".join(["x"] * 3000), 199),
            ("-(" * 3000 + "x" + ")" * 3000, 200),
        ],
        ids=["parentheses", "calls", "powers", "sum-chain", "negations"],
    )
    def test_nesting_bounded(self, source, offset):
        # past MAX_DEPTH levels the parser stops with a located error
        # instead of exhausting the interpreter's recursion limit
        with pytest.raises(ExprSyntaxError, match="nested deeper") as err:
            parse(source)
        assert err.value.offset == offset

    def test_nesting_up_to_the_bound(self):
        depth = expr.MAX_DEPTH - 1
        tree = parse("(" * depth + "x" + ")" * depth)
        assert tree == Var("x")
        chain = parse("+".join(["1"] * expr.MAX_DEPTH))
        assert evaluate(chain, {}) == expr.MAX_DEPTH
        assert parse(pretty(chain)) == chain

    def test_variables(self):
        assert variables(parse("x*t + min(p, q)")) == {"x", "t", "p", "q"}


class TestEvaluate:
    def test_cosine_product(self):
        tree = parse("(1+cos(pi*x))*(1+t)")
        assert evaluate(tree, {"x": 0.0, "t": 0.0}) == 2.0

    def test_division_by_zero(self):
        with pytest.raises(DomainFaultError) as err:
            evaluate(parse("x/q"), {"x": 1.0, "q": 0.0})
        assert "x/q" in str(err.value)

    def test_log_nonpositive(self):
        with pytest.raises(DomainFaultError):
            evaluate(parse("log(t)"), {"t": 0.0})
        with pytest.raises(DomainFaultError):
            evaluate(parse("log(t)"), {"t": -1.0})

    def test_sqrt_negative(self):
        with pytest.raises(DomainFaultError):
            evaluate(parse("sqrt(x)"), {"x": -4.0})

    def test_overflow_is_a_fault(self):
        with pytest.raises(DomainFaultError):
            evaluate(parse("exp(t)"), {"t": 1e4})

    def test_fractional_power_of_negative(self):
        with pytest.raises(DomainFaultError):
            evaluate(parse("x^0.5"), {"x": -2.0})

    def test_unbound_variable(self):
        with pytest.raises(UnboundVariableError):
            evaluate(parse("x + y"), {"x": 1.0})

    def test_vectorized(self):
        tree = parse("sin(pi*x)^2 + cos(pi*x)^2")
        x = np.linspace(0, 1, 11)
        out = evaluate(tree, {"x": x})
        assert out.shape == (11,)
        np.testing.assert_allclose(out, 1.0, rtol=1e-14)

    def test_vectorized_fault_detected(self):
        with pytest.raises(DomainFaultError):
            evaluate(parse("1/x"), {"x": np.array([1.0, 0.0, 2.0])})

    def test_deterministic(self):
        tree = parse("tanh(x) + abs(t) * sqrt(u)")
        env = {"x": 0.3, "t": -2.0, "u": 4.0}
        assert evaluate(tree, env) == evaluate(tree, env)
        assert evaluate(tree, env) == math.tanh(0.3) + 2.0 * 2.0


# strategy mirroring what the parser can produce (literals are nonnegative)
_numbers = st.floats(
    min_value=0.0, max_value=1e6, allow_nan=False, allow_infinity=False
).map(lambda v: Num(abs(v)))
_vars = st.sampled_from(sorted(expr.VARIABLES)).map(Var)
_leaves = st.one_of(_numbers, _vars)


def _compound(children):
    unary = st.builds(Neg, children)
    binops = st.builds(BinOp, st.sampled_from("+-*/^"), children, children)
    call1 = st.builds(
        lambda f, a: Call(f, (a,)),
        st.sampled_from([f for f, k in expr.FUNCTIONS.items() if k == 1]),
        children,
    )
    call2 = st.builds(
        lambda f, a, b: Call(f, (a, b)), st.sampled_from(["min", "max"]), children, children
    )
    return st.one_of(unary, binops, call1, call2)


@settings(max_examples=300, deadline=None)
@given(st.recursive(_leaves, _compound, max_leaves=25))
def test_print_parse_roundtrip(tree):
    assert parse(pretty(tree)) == tree


_FUZZ_TOKENS = [
    "sin", "cos", "exp", "log", "sqrt", "abs", "tanh", "min", "max",
    "x", "y", "t", "u", "p", "q", "pi", "zz",
    "(", ")", ",", "+", "-", "*", "/", "^",
    "1", "2.5", ".5", "1e3", "1e", ".", "$", "#", " ",
]


def test_fuzz_never_crashes():
    rng = random.Random(20260810)
    for _ in range(2000):
        source = "".join(rng.choices(_FUZZ_TOKENS, k=rng.randint(0, 20)))
        try:
            parse(source)
        except ExprError:
            pass  # located errors are the contract; anything else is a bug
