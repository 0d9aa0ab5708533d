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
        "source,error,message,offset",
        [
            ("x\u00a0+ $", ExprSyntaxError, "unexpected character '$'", 5),
            ("x\u3000+ \u00e9", ExprSyntaxError, "unexpected character '\u00e9'", 6),
            ("sin(x\u00a0, y)", ArityError, "'sin' takes 1 argument(s), got 2", 10),
            ("x\u00a0+", ExprSyntaxError, "expected expression, found end of input", 4),
        ],
        ids=["nbsp", "ideographic-space", "arity", "end-of-input"],
    )
    def test_offsets_count_utf8_bytes(self, source, error, message, offset):
        # a character before the fault that takes two or three bytes in UTF-8
        # moves the offset by as many: it is not the character index
        with pytest.raises(error) as err:
            parse(source)
        assert err.value.offset == offset
        assert str(err.value) == f"{message} (byte offset {offset})"

    # a digit outside 0-9 is no part of a number, in its mantissa or exponent
    @pytest.mark.parametrize(
        "source,offset", [("x*\u0663", 2), ("\uff11", 0), ("1e\u0663", 2)],
        ids=["arabic-indic-three", "fullwidth-one", "arabic-indic-exponent"],
    )
    def test_numbers_take_ascii_digits_only(self, source, offset):
        with pytest.raises(ExprSyntaxError, match="^unexpected character") as err:
            parse(source)
        assert err.value.offset == offset

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


# the exact text of ``pretty``, which fault messages print on the CLI:
# parentheses only where the re-parsed tree needs them
_PRETTY = [
    ("x - (y - t)", "x - (y - t)"),
    ("(x - y) - t", "x - y - t"),
    ("(x/y)*t", "x/y*t"),
    ("x/(y*t)", "x/(y*t)"),
    ("-x^2", "-x^2.0"),
    ("(-x)^2", "(-x)^2.0"),
    ("x^-y", "x^-y"),
    ("(x^y)^t", "(x^y)^t"),
    ("x^y^t", "x^y^t"),
    ("-(x*y)", "-(x*y)"),
    ("(-x)*y", "-x*y"),
    ("-(-x)", "-(-x)"),
    ("-(x^y)", "-x^y"),
    ("x*-y", "x*-y"),
    ("min(x - y, -t)", "min(x - y, -t)"),
    ("(x+y)^2", "(x + y)^2.0"),
]


@pytest.mark.parametrize("source,text", _PRETTY, ids=[s.replace(" ", "") for s, _ in _PRETTY])
def test_pretty_text(source, text):
    assert pretty(parse(source)) == text


class TestEvaluate:
    def test_cosine_product(self):
        tree = parse("(1+cos(pi*x))*(1+t)")
        assert evaluate(tree, {"x": 0.0, "t": 0.0}) == 2.0

    def test_text_is_not_a_node(self):
        with pytest.raises(TypeError, match="^not an expression node: 'x'$"):
            evaluate("x", {"x": 1.0})

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
    "1", "2.5", ".5", "1e3", "1e", ".", "$", "#", " ", "\u00a0", "\u00e9",
]


def test_fuzz_never_crashes():
    rng = random.Random(20260810)
    for _ in range(2000):
        source = "".join(rng.choices(_FUZZ_TOKENS, k=rng.randint(0, 20)))
        try:
            parse(source)
        except ExprError as err:
            # located errors are the contract; anything else is a bug
            offset = getattr(err, "offset", None)
            if offset is not None:
                assert 0 <= offset <= len(source.encode("utf-8")), (source, offset)


# -- compiled evaluation ------------------------------------------------

# values that reach every fault: zeros, negatives, and magnitudes that
# overflow a product or an exponential
_SAMPLES = [0.0, -0.0, 1.0, -1.0, 0.5, -2.5, 3.0, 1e-300, 1e300, -1e300]
_scalars = st.sampled_from(_SAMPLES)
_arrays = st.lists(_scalars, min_size=4, max_size=4).map(np.array)
_trees = st.recursive(_leaves, _compound, max_leaves=25)


def _outcome(fn):
    """('value', type, shape, bytes) or ('fault', text) for a call of ``fn``."""
    try:
        out = fn()
    except DomainFaultError as err:
        return ("fault", str(err))
    return ("value", type(out), np.asarray(out).shape, np.asarray(out).tobytes())


def _assert_same_evaluation(tree, env, bound):
    fixed = {k: v for k, v in env.items() if k in bound}
    free = {k: v for k, v in env.items() if k not in bound}
    interpreted = _outcome(lambda: evaluate(tree, env))
    compiled = _outcome(lambda: evaluate(expr.compile(tree, fixed), free))
    assert compiled == interpreted


@settings(max_examples=600, deadline=None)
@given(
    _trees,
    st.fixed_dictionaries({v: st.one_of(_scalars, _arrays) for v in sorted(expr.VARIABLES)}),
    st.sets(st.sampled_from(sorted(expr.VARIABLES))),
)
def test_compiled_matches_interpreter(tree, env, bound):
    # same bits, or the same DomainFaultError text, whichever variables are bound
    _assert_same_evaluation(tree, env, bound)


_MASKED_FAULTS = [
    ("min(1, 1/x)", 0.0, "division by zero in '1.0/x'"),
    ("exp(-1/x^2)", 0.0, "division by zero in '-1.0/x^2.0'"),
    ("tanh(exp(x))", 1000.0, "domain fault in 'exp(x)'"),
    ("exp(log(x))", 0.0, "log of non-positive value in 'log(x)'"),
    ("max(0, sqrt(x))", -1.0, "sqrt of negative value in 'sqrt(x)'"),
]


class TestCompiled:
    @pytest.mark.parametrize("source,x,message", _MASKED_FAULTS)
    @pytest.mark.parametrize("where", ["free", "bound", "array"])
    def test_masked_fault_raises_as_interpreted(self, source, x, message, where):
        # the root is finite here, so only a per-operation check finds the fault
        tree = parse(source)
        if where == "free":
            compiled, env = expr.compile(tree), {"x": x}
        elif where == "bound":
            compiled, env = expr.compile(tree, {"x": x}), {}
        else:
            compiled, env = expr.compile(tree), {"x": np.array([0.5, x, 2.0])}
        with pytest.raises(DomainFaultError) as err:
            evaluate(compiled, env)
        assert str(err.value) == message

    def test_bound_subtrees_are_folded(self):
        x = np.linspace(0.0, 1.0, 5)
        compiled = expr.compile(parse("cos(pi*x) + t"), {"x": x})
        assert compiled.free == {"t"}
        assert np.array_equal(evaluate(compiled, {"t": 1.0}), np.cos(np.pi * x) + 1.0)

    def test_fully_bound_value_is_read_only(self):
        compiled = expr.compile(parse("2*x"), {"x": np.ones(3)})
        out = evaluate(compiled, {})
        with pytest.raises(ValueError):
            out[0] = 0.0
        assert np.array_equal(evaluate(compiled, {}), np.full(3, 2.0))

    def test_unbound_free_variable(self):
        with pytest.raises(UnboundVariableError):
            evaluate(expr.compile(parse("x + t"), {"x": 1.0}), {})

    @pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
    def test_non_finite_binding_behaves_as_interpreted(self, value):
        # no operation raises a flag on these; the interpreter's checks still apply
        for source in ("exp(-(u+t))", "min(t, u)", "u", "exp(-u)*t"):
            tree = parse(source)
            env = {"u": np.array([1.0, value]), "t": 1.0}
            _assert_same_evaluation(tree, env, ())
            _assert_same_evaluation(tree, env, ("u",))
