"""Reference routes for the tests: one digit or one segment at a time, in Fractions.

Each route here is written from the paper's identities directly.  The one
package routine it uses is the product tree ``ternary.compose_chain``, here
over ``Fraction`` maps, so that periods of many digits stay cheap; it shares
no other code with the package's closures, and none with
``ternary.digit_triples``:

* ``AffineMap`` -- v -> slope * v + intercept over the rationals, with
  ``affine_compose``, ``IDENTITY``, ``compose_chain`` and the fixed point
  ``affine_fixed_point`` = intercept / (1 - slope);
* ``digit_step_map`` -- the affine action of one base-3 digit on f_a,
  as an ``AffineMap``;
* ``reference_close`` -- the value at an expansion under one map per digit,
  with ``affine_fixed_point`` for the periodic tail;
* ``reference_F`` -- F by a digit-at-a-time walk of the (t, F) maps read
  off the scaling identities of F;
* ``reference_bracket`` -- the f_a refinement followed down the one segment
  that holds x.
"""

from dataclasses import dataclass
from fractions import Fraction

from bourbaki import ternary
from bourbaki.ternary import to_ternary

F = Fraction


@dataclass(frozen=True)
class AffineMap:
    """v -> slope * v + intercept over exact rationals."""

    slope: Fraction
    intercept: Fraction

    def __call__(self, v: Fraction) -> Fraction:
        return self.slope * v + self.intercept


IDENTITY = AffineMap(F(1), F(0))


def affine_compose(outer: AffineMap, inner: AffineMap) -> AffineMap:
    """The map v -> outer(inner(v))."""
    return AffineMap(outer.slope * inner.slope, outer.slope * inner.intercept + outer.intercept)


def compose_chain(maps) -> AffineMap:
    """maps[0] o maps[1] o ... o maps[-1] (identity for an empty chain)."""
    return ternary.compose_chain(maps, affine_compose) if maps else IDENTITY


def affine_fixed_point(m: AffineMap) -> Fraction:
    """The unique v with m(v) = v; the slope must not be 1."""
    return m.intercept / (1 - m.slope)


def digit_step_map(d: int, a: Fraction = F(2, 3)) -> AffineMap:
    """Affine action of prepending base-3 digit d to a point, on v = f_a(tail):

        digit 0:  f(t/3)       = a v
        digit 1:  f((1 + t)/3) = a - (2a - 1) v
        digit 2:  f((2 + t)/3) = a v + (1 - a)
    """
    return {0: AffineMap(a, 0), 1: AffineMap(1 - 2 * a, a), 2: AffineMap(a, 1 - a)}[d]


def reference_close(e, step) -> Fraction:
    """The value at e under the digit maps ``step(d)``, one AffineMap per digit."""
    v = affine_fixed_point(compose_chain([step(d) for d in e.period])) if e.period else F(0)
    return compose_chain([step(d) for d in e.preperiod])(v)


# F(point) = alpha t + beta F(t) + gamma for the tail t after one digit:
# F(t/3) = (2/9) F(t), F((1 + t)/3) = (1 + 2t - F(t))/9,
# F((2 + t)/3) = (5/2 + t)/9 + (2/9) F(t).
_F_ROWS = {0: (F(0), F(2, 9), F(0)), 1: (F(2, 9), F(-1, 9), F(1, 9)), 2: (F(1, 9), F(2, 9), F(5, 18))}


def reference_F(x: Fraction) -> Fraction:
    """F(x) by a digit-at-a-time Fraction walk of the (t, F) maps."""

    def walk(digits):
        # composite (t, F) -> (A t + B, P t + Q F + R), extended one inner digit at a time
        A, B, P, Q, R = F(1), F(0), F(0), F(1), F(0)
        for d in digits:
            alpha, beta, gamma = _F_ROWS[d]
            A, B, P, Q, R = A / 3, B + A * d / 3, P / 3 + Q * alpha, Q * beta, R + P * d / 3 + Q * gamma
        return A, B, P, Q, R

    e = to_ternary(x)
    t, v = F(0), F(0)
    if e.period:
        A, B, P, Q, R = walk(e.period)
        t = B / (1 - A)
        v = (P * t + R) / (1 - Q)
    A, B, P, Q, R = walk(e.preperiod)
    assert A * t + B == x
    return P * t + Q * v + R


def reference_bracket(x: Fraction, a: Fraction, depth: int) -> tuple[Fraction, Fraction]:
    """The end values of the depth-``depth`` segment of the f_a refinement that holds x.

    Each step splits the segment in thirds and puts values a and 1 - a of
    the way from y0 to y1 at its inner breakpoints.  Every later value over
    the segment lies between its end values, so they enclose f_a(x).
    """
    x0, y0, x1, y1 = F(0), F(0), F(1), F(1)
    for _ in range(depth):
        c1, c2 = x0 + (x1 - x0) / 3, x0 + 2 * (x1 - x0) / 3
        v1, v2 = y0 + a * (y1 - y0), y0 + (1 - a) * (y1 - y0)
        if x <= c1:
            x1, y1 = c1, v1
        elif x <= c2:
            x0, y0, x1, y1 = c1, v1, c2, v2
        else:
            x0, y0 = c2, v2
    return min(y0, y1), max(y0, y1)
