"""Exact sparse arithmetic: multivariate Laurent polynomials and Z[t].

A LaurentPoly maps exponent tuples (fixed arity, ints of either sign) to
nonzero coefficients.  Coefficients are any exact ring elements that support
+, -, *, bool and ==: int, Fraction and TPoly all qualify, and they can be
mixed as long as the operators agree.

Division is exact division only; a failed division raises InexactDivision
rather than returning a remainder.
"""


class ArityMismatch(ValueError):
    pass


class InexactDivision(ArithmeticError):
    pass


class ZeroPolynomial(ZeroDivisionError):
    pass


# ---------------------------------------------------------------------------
# univariate integer polynomials in t


class TPoly:
    """Polynomial in t with int coefficients, stored ascending."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @staticmethod
    def const(c):
        return TPoly((c,))

    @staticmethod
    def t(power=1):
        return TPoly((0,) * power + (1,))

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        if isinstance(other, int):
            return self.coeffs == (TPoly.const(other)).coeffs
        if isinstance(other, TPoly):
            return self.coeffs == other.coeffs
        return NotImplemented

    def __hash__(self):
        return hash(("TPoly", self.coeffs))

    def __neg__(self):
        return TPoly(tuple(-c for c in self.coeffs))

    def _coerce(self, other):
        if isinstance(other, int):
            return TPoly.const(other)
        if isinstance(other, TPoly):
            return other
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return TPoly(out)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if not self or not other:
            return TPoly()
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return TPoly(out)

    __rmul__ = __mul__

    def exact_div(self, other):
        other = self._coerce(other)
        if other is None or not other:
            raise ZeroPolynomial("division by zero in Z[t]")
        num = list(self.coeffs)
        den = other.coeffs
        if not num:
            return TPoly()
        if len(num) < len(den):
            raise InexactDivision(f"{self} not divisible by {other}")
        q = [0] * (len(num) - len(den) + 1)
        for i in range(len(q) - 1, -1, -1):
            c, r = divmod(num[i + len(den) - 1], den[-1])
            if r:
                raise InexactDivision(f"{self} not divisible by {other}")
            q[i] = c
            for j, d in enumerate(den):
                num[i + j] -= c * d
        if any(num):
            raise InexactDivision(f"{self} not divisible by {other}")
        return TPoly(q)

    def subs(self, value):
        """Evaluate at t = value."""
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * value + c
        return acc

    def __str__(self):
        if not self.coeffs:
            return "0"
        pieces = []
        for e, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if e == 0:
                body = str(abs(c))
            else:
                var = "t" if e == 1 else f"t^{e}"
                body = var if abs(c) == 1 else f"{abs(c)}*{var}"
            if not pieces:
                pieces.append(body if c > 0 else f"-{body}")
            else:
                pieces.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(pieces)

    __repr__ = __str__


T_ONE = TPoly.const(1)


def t_factorial(m):
    """[m]_t! = prod_{r=1..m} (1 + t + ... + t^(r-1))."""
    out = T_ONE
    for r in range(1, m + 1):
        out = out * TPoly((1,) * r)
    return out


# ---------------------------------------------------------------------------
# Laurent polynomials


class LaurentPoly:
    """Immutable-by-convention sparse Laurent polynomial of fixed arity."""

    __slots__ = ("arity", "terms")

    def __init__(self, arity, terms=None):
        self.arity = arity
        self.terms = {}
        if terms:
            for e, c in terms.items():
                if len(e) != arity:
                    raise ArityMismatch(f"exponent {e} in arity-{arity} ring")
                if c:
                    self.terms[e] = c

    @staticmethod
    def zero(arity):
        return LaurentPoly(arity)

    @staticmethod
    def constant(arity, c):
        return LaurentPoly(arity, {(0,) * arity: c})

    @staticmethod
    def variable(arity, i, power=1):
        e = [0] * arity
        e[i] = power
        return LaurentPoly(arity, {tuple(e): 1})

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if isinstance(other, int):
            if other == 0:
                return not self.terms
            return self.terms == {(0,) * self.arity: other}
        if isinstance(other, LaurentPoly):
            return self.arity == other.arity and self.terms == other.terms
        return NotImplemented

    def __hash__(self):
        return hash((self.arity, frozenset(self.terms.items())))

    def _check(self, other):
        if self.arity != other.arity:
            raise ArityMismatch(f"arity {self.arity} vs {other.arity}")

    def __add__(self, other):
        if isinstance(other, LaurentPoly):
            self._check(other)
            out = dict(self.terms)
            for e, c in other.terms.items():
                s = out.get(e, 0) + c
                if s:
                    out[e] = s
                elif e in out:
                    del out[e]
            r = LaurentPoly(self.arity)
            r.terms = out
            return r
        return self + LaurentPoly.constant(self.arity, other)

    def __sub__(self, other):
        if isinstance(other, LaurentPoly):
            return self + (-other)
        return self + LaurentPoly.constant(self.arity, -other)

    def __neg__(self):
        r = LaurentPoly(self.arity)
        r.terms = {e: -c for e, c in self.terms.items()}
        return r

    def scale(self, c):
        if not c:
            return LaurentPoly(self.arity)
        r = LaurentPoly(self.arity)
        r.terms = {e: w for e, v in self.terms.items() if (w := c * v)}
        return r

    def __mul__(self, other):
        if not isinstance(other, LaurentPoly):
            return self.scale(other)
        self._check(other)
        a, b = self.terms, other.terms
        if len(a) > len(b):
            a, b = b, a
        out = {}
        for e1, c1 in a.items():
            for e2, c2 in b.items():
                e = tuple(x + y for x, y in zip(e1, e2))
                s = out.get(e, 0) + c1 * c2
                if s:
                    out[e] = s
                elif e in out:
                    del out[e]
        r = LaurentPoly(self.arity)
        r.terms = out
        return r

    __rmul__ = scale

    def shift(self, delta):
        """Multiply by the monomial x^delta."""
        r = LaurentPoly(self.arity)
        r.terms = {tuple(x + d for x, d in zip(e, delta)): c for e, c in self.terms.items()}
        return r

    def invert_variables(self):
        """Substitute 1/x_i for every x_i."""
        r = LaurentPoly(self.arity)
        r.terms = {tuple(-x for x in e): c for e, c in self.terms.items()}
        return r

    def is_symmetric(self):
        """Invariance under the n-1 adjacent transpositions."""
        for i in range(self.arity - 1):
            for e, c in self.terms.items():
                swapped = list(e)
                swapped[i], swapped[i + 1] = swapped[i + 1], swapped[i]
                if self.terms.get(tuple(swapped), 0) != c:
                    return False
        return True

    def map_coefficients(self, fn):
        r = LaurentPoly(self.arity)
        r.terms = {e: w for e, c in self.terms.items() if (w := fn(c))}
        return r

    # -- rendering ----------------------------------------------------------

    def __str__(self):
        if not self.terms:
            return "0"
        pieces = []
        # descending lex reads naturally: x1^2 + x1*x2 + x2^2
        for e in sorted(self.terms, reverse=True):
            c = self.terms[e]
            body = _render_monomial(e)
            cs = _render_coeff(c, body)
            if not pieces:
                pieces.append(cs if not cs.startswith("-") else cs)
            else:
                if cs.startswith("-"):
                    pieces.append(f"- {cs[1:]}")
                else:
                    pieces.append(f"+ {cs}")
        return " ".join(pieces)

    def __repr__(self):
        return f"LaurentPoly({self.arity}, {self.__str__()})"


def divide_by_variable_difference(p, i, j):
    """Exact division of p by (x_i - x_j), by synthetic division in x_i.

    Writing p = sum_d c_d(x) x_i^d, the quotient satisfies
    q_(d-1) = c_d + x_j * q_d from the top degree down, and the final carry
    must vanish.  Linear in the size of p, unlike generic division.
    """
    if not p.terms:
        return p
    by_deg = {}
    for e, c in p.terms.items():
        rest = e[:i] + (0,) + e[i + 1 :]
        by_deg.setdefault(e[i], {})[rest] = c
    top = max(by_deg)
    bottom = min(by_deg)
    out = {}
    prev = {}
    for d in range(top, bottom - 1, -1):
        cur = {}
        for e, c in prev.items():
            cur[e[:j] + (e[j] + 1,) + e[j + 1 :]] = c
        for e, c in by_deg.get(d, {}).items():
            s = cur.get(e, 0) + c
            if s:
                cur[e] = s
            elif e in cur:
                del cur[e]
        if d - 1 >= bottom:
            for e, c in cur.items():
                out[e[:i] + (d - 1,) + e[i + 1 :]] = c
        elif cur:
            raise InexactDivision(f"not divisible by x{i + 1} - x{j + 1}")
        prev = cur
    r = LaurentPoly(p.arity)
    r.terms = out
    return r


def _render_monomial(e):
    factors = []
    for i, x in enumerate(e):
        if x == 0:
            continue
        name = f"x{i + 1}"
        factors.append(name if x == 1 else f"{name}^{x}")
    return "*".join(factors)


def _render_coeff(c, body):
    if isinstance(c, TPoly):
        cs = str(c)
        if not body:
            return cs
        if len(c.coeffs) - c.coeffs.count(0) > 1 or cs.startswith("-"):
            return f"({cs})*{body}"
        if cs == "1":
            return body
        return f"{cs}*{body}"
    if not body:
        return str(c)
    if c == 1:
        return body
    if c == -1:
        return f"-{body}"
    return f"{c}*{body}"
