"""Integer polynomials in named indeterminates, just enough to run +/* formulas on them.

A formula written with + and * over ints, evaluated at indeterminates, yields
a polynomial; an equality of two such polynomials is an identity that holds
at every integer substituted for each indeterminate, and, when every
coefficient on both sides is natural, in every commutative semiring.  Exact
division by an int (``//``), and, for polynomials in one indeterminate,
evaluation at a rational point and the quotient by a divisor with constant
coefficient 1, are there for formulas that divide by a standard integer
and for divisibility tests, by Gauss's lemma or by exact division.
"""


def _times(a, b):
    # the product of two monomials, each a sorted tuple of (name, exponent) pairs
    powers = dict(a)
    for name, e in b:
        powers[name] = powers.get(name, 0) + e
    return tuple(sorted(powers.items()))


class IntPoly:
    """Nonzero int coefficients by monomial, () for the constant one; ints coerce to constants.

    ``IntPoly(coeffs, name)`` is the polynomial in the one indeterminate name
    (X by default) with those coefficients, lowest degree first.
    """

    __slots__ = ("terms",)

    def __init__(self, coeffs=(), name="X"):
        self.terms = {((name, d),) if d else (): c for d, c in enumerate(coeffs) if c}

    @staticmethod
    def of(terms):
        poly = IntPoly()
        poly.terms = {m: c for m, c in terms.items() if c}
        return poly

    @staticmethod
    def lift(other):
        return other if isinstance(other, IntPoly) else IntPoly((other,))

    def __add__(self, other):
        terms = dict(self.terms)
        for m, c in IntPoly.lift(other).terms.items():
            terms[m] = terms.get(m, 0) + c
        return IntPoly.of(terms)

    def __mul__(self, other):
        terms = {}
        for a, x in self.terms.items():
            for b, y in IntPoly.lift(other).terms.items():
                m = _times(a, b)
                terms[m] = terms.get(m, 0) + x * y
        return IntPoly.of(terms)

    def __neg__(self):
        return IntPoly.of({m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        return self + -IntPoly.lift(other)

    def __floordiv__(self, n):
        # exact division by a nonzero int, coefficient by coefficient
        assert all(c % n == 0 for c in self.terms.values()), f"{n} does not divide {self}"
        return IntPoly.of({m: c // n for m, c in self.terms.items()})

    def quotient(self, divisor):
        """The q with q * divisor == self, or None: one indeterminate, divisor's constant coefficient 1.

        Long division from the lowest degree up, exact over the ints
        because the divisor's constant coefficient is 1.
        """
        names = {name for poly in (self, divisor) for m in poly.terms for name, _ in m}
        assert len(names) <= 1, f"{self} and {divisor} are not in one indeterminate"
        d = divisor.coeffs
        assert d[:1] == (1,), f"{divisor} has no constant coefficient 1"
        rest, q = list(self.coeffs), []
        for j in range(len(rest) - len(d) + 1):
            q.append(rest[j])
            for i, c in enumerate(d, j):
                rest[i] -= q[j] * c
        return None if any(rest) else IntPoly(q, *names)

    @property
    def coeffs(self):
        """Coefficients lowest degree first, for a polynomial in at most one indeterminate."""
        assert len({name for m in self.terms for name, _ in m}) <= 1, f"{self} is multivariate"
        by_degree = {m[0][1] if m else 0: c for m, c in self.terms.items()}
        return tuple(by_degree.get(d, 0) for d in range(max(by_degree, default=-1) + 1))

    def __call__(self, x):
        """The value at x (an int or a Fraction), by Horner's rule, in one indeterminate."""
        value = 0
        for c in reversed(self.coeffs):
            value = value * x + c
        return value

    def in_zx_plus(self):
        """True iff self lies in Z[X]+: zero, or a positive leading coefficient."""
        coeffs = self.coeffs
        return not coeffs or coeffs[-1] > 0

    def has_natural_coefficients(self):
        """True iff every coefficient is natural, so that self lies in N[...]."""
        return all(c > 0 for c in self.terms.values())

    __radd__ = __add__
    __rmul__ = __mul__

    def __eq__(self, other):
        return self.terms == IntPoly.lift(other).terms

    def __repr__(self):
        return f"IntPoly({self.terms!r})"


X = IntPoly((0, 1))
