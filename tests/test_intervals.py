"""The one decimal renderer: num / den from its integers, the same text
whether or not the ratio is reduced, as the sweep formatter gives it, and
as a Decimal division in a local context gave it."""
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from kronmesh.intervals import decimal_context, decimal_renderer
from kronmesh.intervals import _formatter

MODES = ("nearest", "floor", "ceil")


def _division(x: Fraction, digits: int, mode: str) -> str:
    """A division in a copied local context."""
    with decimal_context(digits, mode):
        return str(Decimal(x.numerator) / Decimal(x.denominator))


# exact quotients (integers, short decimals, powers of ten) and ratios of
# up to 40 digits, each scaled by a common factor g
RATIOS = st.one_of(
    st.tuples(st.integers(0, 10 ** 6), st.sampled_from([1, 2, 4, 5, 8, 10, 16, 20, 25, 1000])),
    st.tuples(st.integers(-10 ** 40, 10 ** 40), st.integers(1, 10 ** 40)),
)


@settings(max_examples=300, deadline=None)
@given(RATIOS, st.integers(1, 10 ** 20), st.integers(1, 120))
@example((4, 2), 1, 1)
@example((2, 8), 1, 1)
@example((10, 1), 1, 1)
@example((4, 2), 7, 1)
@example((2, 8), 3, 1)
@example((10, 1), 10 ** 6, 1)
@example((0, 3), 5, 1)
@example((999, 1), 2, 2)
def test_renderer_text_does_not_depend_on_reduction(ratio, g, digits):
    num, den = ratio
    x = Fraction(num, den)
    render, fmt = decimal_renderer(digits), _formatter(digits)
    for mode in MODES:
        want = _division(x, digits, mode)
        assert render(g * num, g * den, mode) == want, (num, den, g, digits, mode)
        assert fmt((g * num, g * den), mode) == want, (num, den, g, digits, mode)


def test_renderer_pins_exact_values():
    render = decimal_renderer(1)
    assert [render(4, 2, mode) for mode in MODES] == ["2", "2", "2"]
    assert [render(2, 8, mode) for mode in MODES] == ["0.2", "0.2", "0.3"]
    assert [render(10, 1, mode) for mode in MODES] == ["1E+1"] * 3
    assert [render(20, 2, mode) for mode in MODES] == ["1E+1"] * 3
    assert decimal_renderer(5)(1, 3, "ceil") == "0.33334"


def test_renderer_refuses_digits_below_one_on_first_use():
    render = decimal_renderer(0)  # nothing is rendered yet, so nothing raises
    with pytest.raises(ValueError, match="digits must be >= 1"):
        render(1, 2)
    with pytest.raises(ValueError, match="digits must be >= 1"):
        _formatter(0)((1, 2))
