"""Integer polynomials in one indeterminate X, just enough to run +/* formulas on them.

A formula written with + and * over ints, evaluated at X, yields a polynomial;
an equality of two such polynomials is an identity that holds at every
integer substituted for X.  Exact division by an int (``//``) and evaluation
at a rational point are there for formulas that divide by a standard integer
and for divisibility tests by Gauss's lemma.
"""


class IntPoly:
    """Coefficients lowest degree first, no trailing zeros; ints coerce to constants."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @staticmethod
    def lift(other):
        return other if isinstance(other, IntPoly) else IntPoly((other,))

    def __add__(self, other):
        a, b = self.coeffs, IntPoly.lift(other).coeffs
        n = max(len(a), len(b))
        return IntPoly((a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n))

    def __mul__(self, other):
        a, b = self.coeffs, IntPoly.lift(other).coeffs
        out = [0] * (len(a) + len(b))
        for i, x in enumerate(a):
            for j, y in enumerate(b, i):
                out[j] += x * y
        return IntPoly(out)

    def __neg__(self):
        return IntPoly(-c for c in self.coeffs)

    def __sub__(self, other):
        return self + -IntPoly.lift(other)

    def __floordiv__(self, n):
        # exact division by a nonzero int, coefficient by coefficient
        assert all(c % n == 0 for c in self.coeffs), f"{n} does not divide {self}"
        return IntPoly(c // n for c in self.coeffs)

    def __call__(self, x):
        """The value at x (an int or a Fraction), by Horner's rule."""
        value = 0
        for c in reversed(self.coeffs):
            value = value * x + c
        return value

    def in_zx_plus(self):
        """True iff self lies in Z[X]+: zero, or a positive leading coefficient."""
        return not self.coeffs or self.coeffs[-1] > 0

    __radd__ = __add__
    __rmul__ = __mul__

    def __eq__(self, other):
        return self.coeffs == IntPoly.lift(other).coeffs

    def __repr__(self):
        return f"IntPoly({self.coeffs!r})"


X = IntPoly((0, 1))
