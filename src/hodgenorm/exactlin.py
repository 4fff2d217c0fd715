"""Exact linear algebra over the Gaussian rationals Q(i).

Scalars are pairs of `fractions.Fraction`.  Matrices are immutable tuples of
row tuples.  Subspaces are stored via a reduced-row-echelon basis, which is
unique for a given row space, so subspace equality is plain tuple equality
and no tolerance ever enters.

Every kernel computes on Gaussian integers.  A row reads as its nonzero
entries, (index, re, im) int triples, times a scale: the lcm of those
entries' denominators.  A `Mat` stores only that int form, however it was
built: a matrix built from entries reads them into it once, and a kernel
result is given it.  Its `GaussianRational` rows are built the first time
`rows` is read, one `Fraction` per nonzero part and `ZERO` for zero
entries, so they are the same scalars that arithmetic over Q(i) gives,
entry for entry.

So each operation costs the nonzero entries it meets, and no operand is
converted twice.  The int form of a row is canonical (ascending indices,
a positive scale sharing no factor with the parts), so equality and
hashing read it too:

- `+`, `-` and scalar `*` combine the triples of each row over the lcm of
  the two scales, and `is_zero` looks for any triple at all;
- `*` puts the right matrix over one common denominator and accumulates
  each output row in ints, in the manner of Gustavson's sparse product;
- `apply` multiplies the triples that meet the vector's nonzeros;
- `transpose` and `conj` move and negate triples;
- `submatrix` picks its triples out of the parent's, and `det` is Bareiss's
  fraction-free elimination over Z[i] on them, divided by the product of
  the row scales at the end, run once per matrix and kept;
- `**` squares from the base itself and stops at the first zero square;
- `nilpotent_exp` writes N = M/d with M a Gaussian-integer matrix, forms
  the powers of M in ints and sums the series over the one denominator
  d^K * K!, so each entry becomes a `Fraction` once.

`_eliminate` is fraction-free Gauss-Jordan elimination over Z[i] on dense
int rows.  `inverse` runs it on [A | D], D the diagonal of A's row scales,
and reads A^-1 off the right half over the leads; `rref` runs it on scaled
rows.  Rescaling rows leaves the row space unchanged, and the reduced
echelon form is unique for a row space, so both give exactly the results
of Gauss-Jordan elimination over Q(i).

A `Subspace` keeps the Gaussian-integer rows that `_eliminate` leaves, each
divided by its integer content, and computes on them: `Subspace.sum` spans
any number of spaces with one elimination of all their stored rows (`+` is
its two-space case), Zassenhaus intersections eliminate them directly,
conjugation negates their imaginary parts, `kernel`, `image` and `apply`
build their spanning rows in ints, and `contains_vector` and `contains`
eliminate the int form of each vector against them, so only vectors handed
in from outside are converted.  A primitive row with a positive lead is
the only such multiple of its reduced row, so equality and hashing read the
stored rows.

Vectors are tuples of scalars with no algebra of their own.  Combinations
of vectors are products with the `Mat` of their rows, and a pairing of two
sets of vectors is one Gram product B·q·Cᵀ, or B·q·conj(C)ᵀ through
`conj_t`; a single pairing is its 1x1 case.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from itertools import compress
from math import factorial, gcd, isqrt, lcm, prod
from operator import or_


class GaussianRational:
    """A complex number with rational real and imaginary parts."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        if isinstance(re, GaussianRational):
            if im:
                raise TypeError("imaginary part must come from the scalar itself")
            self.re, self.im = re.re, re.im
            return
        self.re = Fraction(re)
        self.im = Fraction(im)

    @classmethod
    def _raw(cls, re, im):
        # hot-path constructor: arguments are already Fractions
        self = object.__new__(cls)
        self.re = re
        self.im = im
        return self

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return GaussianRational._raw(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return GaussianRational._raw(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if not self.im and not other.im:
            return GaussianRational._raw(self.re * other.re, self.im)
        return GaussianRational._raw(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if not other.im:
            if not other.re:
                raise ZeroDivisionError("division by zero scalar")
            return GaussianRational._raw(self.re / other.re, self.im / other.re)
        n2 = other.re * other.re + other.im * other.im
        return GaussianRational._raw(
            (self.re * other.re + self.im * other.im) / n2,
            (self.im * other.re - self.re * other.im) / n2,
        )

    def __rtruediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other / self

    def __pow__(self, k):
        if k < 0:
            raise ValueError("negative powers: divide instead")
        out = ONE
        for _ in range(k):
            out = out * self
        return out

    def __neg__(self):
        return GaussianRational._raw(-self.re, -self.im)

    def __pos__(self):
        return self

    def __eq__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __bool__(self):
        # Fraction's slots, read directly, as in `_nonzero_ints`
        return self.re._numerator != 0 or self.im._numerator != 0

    # -- structure ----------------------------------------------------------

    def conjugate(self):
        return GaussianRational._raw(self.re, -self.im) if self.im else self

    def norm2(self) -> Fraction:
        """Squared modulus, an exact nonnegative rational."""
        return self.re * self.re + self.im * self.im

    def to_complex(self) -> complex:
        return complex(self.re) + 1j * float(self.im)

    def __repr__(self):
        if not self.im:
            return str(self.re)
        if not self.re:
            return f"{self.im}i" if self.im != 1 else "i"
        sign = "+" if self.im > 0 else "-"
        mag = abs(self.im)
        tail = "i" if mag == 1 else f"{mag}i"
        return f"{self.re}{sign}{tail}"


def _coerce(x):
    if isinstance(x, GaussianRational):
        return x
    if isinstance(x, (int, Fraction)):
        return GaussianRational(x)
    return NotImplemented


def qi(re=0, im=0) -> GaussianRational:
    """Shorthand constructor: qi(1, -2) is 1 - 2i."""
    return GaussianRational(re, im)


ZERO = GaussianRational(0)
ONE = GaussianRational(1)
I = GaussianRational(0, 1)


def fraction_sqrt(value: Fraction):
    """Exact square root of a nonnegative rational, or None if irrational."""
    value = Fraction(value)
    if value < 0:
        return None
    rn, rd = isqrt(value.numerator), isqrt(value.denominator)
    if rn * rn == value.numerator and rd * rd == value.denominator:
        return Fraction(rn, rd)
    return None


def gauss_sqrt(z: GaussianRational):
    """A square root of z inside Q(i), or None when none exists there.

    With z = a + bi and r = |z|, a root c + di needs c^2 = (a + r)/2 and
    d = b / 2c, so existence reduces to two rational square roots.
    """
    z = GaussianRational(z)
    if not z:
        return ZERO
    r = fraction_sqrt(z.norm2())  # |z|, since norm2 is |z|^2
    if r is None:
        return None
    c = fraction_sqrt((z.re + r) / 2)
    if c is None:
        return None
    if c == 0:
        d = fraction_sqrt(-z.re)
        if d is None:
            return None
        return GaussianRational(0, d)
    return GaussianRational(c, z.im / (2 * c))


# -- vectors ---------------------------------------------------------------


def vec(entries) -> tuple:
    """Normalize an iterable of scalar-likes into a vector tuple."""
    return tuple(GaussianRational(x) if not isinstance(x, GaussianRational) else x
                 for x in entries)


# -- matrices --------------------------------------------------------------


class Mat:
    """Immutable matrix over Q(i), stored in one form: its int form.

    `ints` holds each row's nonzero (index, re, im) int triples over a
    scale, and equality and hashing read it.  A matrix built from entries
    reads them into it once, through `_nonzero_ints`; a kernel result is
    given it.  The `GaussianRational` entries in `rows` are built the first
    time they are read.
    """

    # `ints`, `width` and `_det` (None until `det` computes it) are always
    # set, and `rows` is filled by `__getattr__` when read unset:
    # `perfbench/tracer.py` reads every slot of a matrix whose slots are not
    # ("rows",).
    __slots__ = ("rows", "ints", "width", "_det")

    def __init__(self, rows):
        rows = [tuple(r) for r in rows]
        self.width = len(rows[0]) if rows else 0
        if any(len(r) != self.width for r in rows):
            raise ValueError("ragged rows")
        self.ints = tuple(map(_nonzero_ints, rows))
        self._det = None

    @classmethod
    def _of_ints(cls, ints, width):
        """Kernel results: the rows given as (triples, scale), stored as
        their reduced int form; `rows` is built on first read."""
        self = object.__new__(cls)
        self.ints = tuple(_reduced(row, d) if row else ([], 1) for row, d in ints)
        self.width = width
        self._det = None
        return self

    def __getattr__(self, name):
        # only an unset `rows` slot gets here: build it from the int form
        if name != "rows":
            raise AttributeError(name)
        zero = (ZERO,) * self.width
        self.rows = tuple(tuple(_row_from_triples(row, d, self.width)) if row else zero
                          for row, d in self.ints)
        return self.rows

    @classmethod
    def identity(cls, n):
        return cls._of_ints([([(i, 1, 0)], 1) for i in range(n)], n)

    @classmethod
    def zeros(cls, n):
        return cls._of_ints([([], 1)] * n, n)

    def int_form(self):
        """Each row's nonzero (index, re, im) triples and scale, the stored int form."""
        return self.ints

    @property
    def nrows(self):
        return len(self.ints)

    @property
    def ncols(self):
        return self.width

    @property
    def shape(self):
        return (self.nrows, self.ncols)

    def __getitem__(self, ij):
        i, j = ij
        return self.rows[i][j]

    def __eq__(self, other):
        return (isinstance(other, Mat) and self.width == other.width
                and self.int_form() == other.int_form())

    def __hash__(self):
        return hash((self.width, tuple((tuple(row), d) for row, d in self.int_form())))

    def _plus(self, other, sign):
        """self + sign * other, merging the rows' nonzero triples."""
        if self.shape != other.shape:
            raise ValueError(f"shape mismatch {self.shape} and {other.shape}")
        out = []
        for (left, d), (right, e) in zip(self.int_form(), other.int_form()):
            s = lcm(d, e)
            terms = ((s // d, left), (sign * (s // e), right))
            out.append((_triples(*_dense(terms, self.ncols)), s))
        return Mat._of_ints(out, self.ncols)

    def __add__(self, other):
        return self._plus(other, 1)

    def __sub__(self, other):
        return self._plus(other, -1)

    def __neg__(self):
        return self * -1

    def __mul__(self, other):
        if isinstance(other, Mat):
            if self.ncols != other.nrows:
                raise ValueError(f"shape mismatch {self.shape} * {other.shape}")
            width = other.ncols
            return Mat._of_ints(_int_product(self.int_form(), other.int_form(), width), width)
        if isinstance(other, (int, Fraction, GaussianRational)):
            if not other:
                return Mat._of_ints([([], 1)] * self.nrows, self.ncols)
            ((_, x, y),), e = _nonzero_ints((other,))
            # a product of nonzero Gaussian integers is nonzero
            return Mat._of_ints([([(j, a * x - b * y, a * y + b * x) for j, a, b in row], d * e)
                                 for row, d in self.int_form()], self.ncols)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction, GaussianRational)):
            return self * other
        return NotImplemented

    def __matmul__(self, other):
        # through `*` and `apply`, so a wrapper patched onto either sees the call
        return self.apply(other) if isinstance(other, tuple) else self * other

    def __pow__(self, k):
        """self^k by repeated squaring, from the first factor it needs, not
        from the identity.  Once a square of self is zero every power still
        to be multiplied in is zero too, and that square is returned."""
        if k < 0:
            raise ValueError("negative powers: use inverse() first")
        if not k:
            return Mat.identity(self.nrows)
        out, base = None, self
        while True:
            if k & 1:
                out = base if out is None else out * base
            k >>= 1
            if not k:
                return out
            base = base * base
            if base.is_zero():
                return base

    def apply(self, v):
        """Matrix times column vector."""
        if len(v) != self.ncols:
            raise ValueError("vector length mismatch")
        support, dv = _nonzero_ints(v)
        support = {j: (x, y) for j, x, y in support}
        return tuple(_from_ints(*_pair_ints(row, support), d * dv)
                     for row, d in self.int_form())

    def transpose(self):
        """Each column's triples, put over the lcm of the scales they meet."""
        cols = [[] for _ in range(self.width)]
        for i, (row, d) in enumerate(self.int_form()):
            for j, a, b in row:
                cols[j].append((i, a, b, d))
        out = []
        for col in cols:
            s = lcm(*[d for *_, d in col])
            out.append(([(i, a * (s // d), b * (s // d)) for i, a, b, d in col], s))
        return Mat._of_ints(out, self.nrows)

    def conj(self):
        return Mat._of_ints([([(j, a, -b) for j, a, b in row], d)
                             for row, d in self.int_form()], self.width)

    def conj_t(self):
        return self.transpose().conj()

    def is_zero(self):
        return not any(row for row, _ in self.int_form())

    def det(self):
        """The determinant, computed the first time it is asked for and kept
        in `_det`: a matrix is immutable, so every later reader shares it."""
        if self._det is None:
            self._det = self._bareiss()
        return self._det

    def _bareiss(self):
        if self.nrows != self.ncols:
            raise ValueError("determinant of a non-square matrix")
        # Bareiss (1968) over Z[i]: after step k every entry of the trailing
        # block is a (k+1)-minor of the scaled matrix, so dividing by the
        # previous pivot is exact, and the last pivot is the determinant.
        n = self.nrows
        if not n:
            return ONE
        form = self.int_form()
        res, ims = _dense_rows(form, n)
        scale = prod(d for _, d in form)
        sign = 1
        pr, pi = 1, 0  # the previous pivot
        for k in range(n - 1):
            piv = next((r for r in range(k, n) if res[r][k] or ims[r][k]), None)
            if piv is None:
                return ZERO
            if piv != k:
                res[k], res[piv] = res[piv], res[k]
                ims[k], ims[piv] = ims[piv], ims[k]
                sign = -sign
            kr, ki = res[k], ims[k]
            lr, li = kr[k], ki[k]
            norm = pr * pr + pi * pi
            for i in range(k + 1, n):
                wr, wi = res[i], ims[i]
                fr, fi = wr[k], wi[k]
                if not (fr or fi) and lr == pr and li == pi:
                    continue  # the row would be scaled by lead / previous = 1
                for j in range(k + 1, n):
                    a, b, c, e = wr[j], wi[j], kr[j], ki[j]
                    if not (a or b or c or e):
                        continue
                    # (w*lead - f*p) / previous pivot, exactly
                    x = a * lr - b * li - fr * c + fi * e
                    y = a * li + b * lr - fr * e - fi * c
                    if pi:  # times the conjugate, over the norm
                        wr[j] = (x * pr + y * pi) // norm
                        wi[j] = (y * pr - x * pi) // norm
                    elif pr != 1:
                        wr[j] = x // pr
                        wi[j] = y // pr
                    else:
                        wr[j] = x
                        wi[j] = y
            pr, pi = lr, li
        re, im = res[n - 1][n - 1], ims[n - 1][n - 1]
        return _from_ints(sign * re, sign * im, scale)

    def inverse(self):
        if self.nrows != self.ncols:
            raise ValueError("inverse of a non-square matrix")
        # row i of [A | D], D the diagonal of the row scales, is d_i times row
        # i of [A | I]; A is invertible exactly when it reduces to
        # [diag(a) | diag(a) A^-1]
        n = self.nrows
        res, ims = _dense_rows([([*row, (n + i, d, 0)], d)
                                for i, (row, d) in enumerate(self.int_form())], 2 * n)
        pivots = _eliminate(res, ims)
        if pivots != list(range(n)):
            raise ValueError("matrix is singular")
        return Mat._of_ints([(_triples(re[n:], im[n:]), re[i])
                             for i, (re, im) in enumerate(zip(res, ims))], n)

    def submatrix(self, row_idx, col_idx):
        """The entries at the given rows and columns; the int form is read off this one's."""
        col_idx = tuple(col_idx)
        form = self.int_form()
        ints = []
        for i in row_idx:
            row, d = form[i]
            row = {j: (a, b) for j, a, b in row}
            ints.append(([(k, *row[j]) for k, j in enumerate(col_idx) if j in row], d))
        return Mat._of_ints(ints, len(col_idx))

    def __repr__(self):
        body = "; ".join(" ".join(repr(x) for x in r) for r in self.rows)
        return f"Mat[{body}]"


def commutator(a: Mat, b: Mat) -> Mat:
    return a * b - b * a


def nilpotent_exp(n: Mat) -> Mat:
    """exp of a nilpotent matrix: the Taylor series, which terminates.

    With n = M/d for a Gaussian-integer matrix M whose power M^(K+1) is the
    first to vanish, the series is the sum of M^k * d^(K-k) * K!/k! over the
    one denominator d^K * K!.  The powers of M are formed in ints, and each
    entry becomes a `Fraction` once, at the end.
    """
    size = n.nrows
    if size != n.ncols:
        raise ValueError("exp of a non-square matrix")
    form = n.int_form()
    d = lcm(*[s for _, s in form])
    m = [([(j, a * (d // s), b * (d // s)) for j, a, b in row], 1) for row, s in form]
    powers = [[([(i, 1, 0)], 1) for i in range(size)]]
    term = m
    while any(row for row, _ in term):
        if len(powers) == size:
            raise ValueError("matrix is not nilpotent")
        powers.append(term)
        term = _int_product(term, m, size)
    top = len(powers) - 1
    coeffs = [d ** (top - k) * (factorial(top) // factorial(k)) for k in range(top + 1)]
    sums = [_triples(*_dense([(c, p[i][0]) for c, p in zip(coeffs, powers)], size))
            for i in range(size)]
    return Mat._of_ints([(row, d ** top * factorial(top)) for row in sums], size)


# -- int forms and elimination ---------------------------------------------


def _nonzero_ints(row):
    """The nonzero entries of a row as (index, re, im) int triples, and their scale.

    The scale is the lcm of just those entries' denominators, and the
    triples hold the entries times it.
    """
    try:
        nz = [(j, x.re, x.im) for j, x in enumerate(row)
              if x.re._numerator or x.im._numerator]
    except AttributeError:  # plain ints or Fractions among the entries
        nz = [(j, x.re, x.im) for j, x in enumerate(vec(row))
              if x.re._numerator or x.im._numerator]
    return _scaled_ints(nz)


def _scaled_ints(nz):
    """(index, re, im) triples of `Fraction`s, not both zero, as int triples
    over the lcm of their denominators, and that lcm."""
    if not nz:
        return nz, 1
    scale = lcm(*[a._denominator for _, a, _ in nz], *[b._denominator for _, _, b in nz])
    if scale == 1:
        return [(j, a._numerator, b._numerator) for j, a, b in nz], 1
    return [(j, a._numerator * (scale // a._denominator),
             b._numerator * (scale // b._denominator)) for j, a, b in nz], scale


def _dense(terms, width):
    """The sum of c * row over the (c, row) pairs of terms, rows of (index, re,
    im) triples, as the int lists of its real and of its imaginary parts."""
    re, im = [0] * width, [0] * width
    for c, row in terms:
        for j, a, b in row:
            re[j] += c * a
            im[j] += c * b
    return re, im


def _triples(re, im):
    """The nonzero entries of dense int lists re, im as (index, re, im) triples."""
    return [(j, re[j], im[j]) for j in compress(range(len(re)), map(or_, re, im))]


def _pair_ints(row, support):
    """The sum of a * support[j] over the (j, a) triples of row whose index support holds."""
    sr = si = 0
    for j, a, b in row:
        if j in support:
            x, y = support[j]
            sr += a * x - b * y
            si += a * y + b * x
    return sr, si


def _reduced(row, scale):
    """Triples over a scale, divided by their common factor with it."""
    if scale != 1:
        g = gcd(scale, *[a for _, a, _ in row], *[b for _, _, b in row])
        if g != 1:
            return [(j, a // g, b // g) for j, a, b in row], scale // g
    return row, scale


def _int_product(left, right, width):
    """The product of two matrices in int form: rows (triples, scale), unreduced.

    The right matrix is put over one common denominator, as sparse int rows
    of its real and of its imaginary parts, and each output row accumulates
    in ints, in the manner of Gustavson's sparse product.
    """
    den = lcm(*[d for _, d in right])
    right_re, right_im = [], []
    for row, d in right:
        f = den // d
        right_re.append([(j, f * x) for j, x, _ in row if x])
        right_im.append([(j, f * y) for j, _, y in row if y])
    out = []
    for row, d in left:
        if not row:
            out.append((row, 1))
            continue
        acc_re = [0] * width
        acc_im = [0] * width
        for k, a, b in row:
            if a:
                for j, x in right_re[k]:
                    acc_re[j] += a * x
                for j, y in right_im[k]:
                    acc_im[j] += a * y
            if b:
                for j, x in right_re[k]:
                    acc_im[j] += b * x
                for j, y in right_im[k]:
                    acc_re[j] -= b * y
        out.append((_triples(acc_re, acc_im), d * den))
    return out


_FRACTION_ZERO = Fraction(0)


def _from_ints(re, im, den):
    """The scalar (re + i*im) / den for ints re, im and den > 0; ZERO for zero."""
    if not (re or im):
        return ZERO
    return GaussianRational._raw(Fraction(re, den) if re else _FRACTION_ZERO,
                                 Fraction(im, den) if im else _FRACTION_ZERO)


def _row_from_triples(row, den, width):
    """The row of the given width with (index, re, im) triples over den, as scalars."""
    out = [ZERO] * width
    for j, a, b in row:
        out[j] = _from_ints(a, b, den)
    return out


def _reduced_row(re, im, col):
    """A row of Gaussian integers with real pivot re[col], divided by it."""
    out = _row_from_triples(_triples(re, im), re[col], len(re))
    out[col] = ONE
    return tuple(out)


def _eliminate(res, ims):
    """Fraction-free Gauss-Jordan elimination over Z[i], in place.

    `res` and `ims` hold the real and imaginary parts of equal-length rows
    of Gaussian integers, as int lists that the elimination overwrites.
    Returns the pivot columns; the first len(pivots) rows then hold the
    reduced echelon basis of the row space, each row with a positive
    integer lead at its pivot and zeros in every other pivot column.

    Integer content is removed where Bareiss (1968) divides exactly.  Each
    column's pivot is the row with the smallest lead; the pivot row p is
    multiplied by the conjugate of its lead, so the lead becomes a positive
    integer a, and divided by its integer content.  Every other row w with
    w[col] = f becomes a*w - f*p, once the common integer factor of a and f
    is cancelled, and sheds its integer content whenever it was scaled.
    Rotating the lead onto the reals matters: an integer gcd cannot remove
    a Gaussian factor such as 2+i, so eliminating with a complex lead lets
    entries grow.
    """
    if not res:
        return []
    nrows = len(res)
    ncols = len(res[0])
    pivots = []
    row = 0
    for col in range(ncols):
        # the smallest lead keeps the scalings small; a unit lead ends the search
        piv = None
        best = None
        for r in range(row, nrows):
            x, y = res[r][col], ims[r][col]
            if x or y:
                size = abs(x) + abs(y)
                if best is None or size < best:
                    piv, best = r, size
                    if size == 1:
                        break
        if piv is None:
            continue
        res[row], res[piv] = res[piv], res[row]
        ims[row], ims[piv] = ims[piv], ims[row]
        pr, pi = res[row], ims[row]
        # rows from `row` on are zero left of col, so the pivot row is too
        lr, li = pr[col], pi[col]
        if li:
            # times conj(lead): the lead becomes |lead|^2, a positive integer
            for j in range(col, ncols):
                x, y = pr[j], pi[j]
                if x or y:
                    pr[j], pi[j] = x * lr + y * li, y * lr - x * li
        elif lr < 0:
            for j in range(col, ncols):
                pr[j] = -pr[j]
                pi[j] = -pi[j]
        g = gcd(*pr, *pi)
        if g != 1:
            for j in range(col, ncols):
                pr[j] //= g
                pi[j] //= g
        lead = pr[col]
        nz = [j for j in range(col + 1, ncols) if pr[j] or pi[j]]
        real = not any(pi)
        for r in range(nrows):
            wr, wi = res[r], ims[r]
            fr, fi = wr[col], wi[col]
            if r == row or not (fr or fi):
                continue
            g = gcd(lead, fr, fi)
            a = lead // g
            if g != 1:
                fr //= g
                fi //= g
            if a != 1:
                wr = res[r] = [a * x for x in wr]
                wi = ims[r] = [a * x for x in wi]
            wr[col] = wi[col] = 0
            if real:
                if fi:
                    for j in nz:
                        b = pr[j]
                        wr[j] -= fr * b
                        wi[j] -= fi * b
                else:
                    for j in nz:
                        wr[j] -= fr * pr[j]
            else:
                for j in nz:
                    b, c = pr[j], pi[j]
                    wr[j] -= fr * b - fi * c
                    wi[j] -= fr * c + fi * b
            if a != 1:
                g = gcd(*wr, *wi)
                if g > 1:
                    res[r] = [x // g for x in wr]
                    ims[r] = [x // g for x in wi]
        pivots.append(col)
        row += 1
        if row == nrows:
            break
    return pivots


def _zassenhaus(a, b, n):
    """The meet of the spans of two lists of (re, im) rows of Gaussian
    integers, each of n int entries: row-reduce [A|A; B|0].  The rows with a
    pivot in the right half carry A∩B, and their right halves are its
    reduced echelon basis; returns them as (res, ims, pivots)."""
    z = [0] * n
    res = [[*re, *re] for re, _ in a] + [[*re, *z] for re, _ in b]
    ims = [[*im, *im] for _, im in a] + [[*im, *z] for _, im in b]
    pivots = _eliminate(res, ims)
    left = bisect_left(pivots, n)
    return ([re[n:] for re in res[left:len(pivots)]], [im[n:] for im in ims[left:len(pivots)]],
            [p - n for p in pivots[left:]])


def _dense_rows(form, width):
    """The triples of int-form rows as int lists of their real and of their
    imaginary parts; the scales are dropped, which leaves the row space alone."""
    res, ims = [], []
    for row, _ in form:
        re, im = _dense(((1, row),), width)
        res.append(re)
        ims.append(im)
    return res, ims


def _int_rows(rows, width):
    """Rows of scalars, each checked to have `width` entries, as the int
    lists of their real and of their imaginary parts."""
    rows = tuple(rows)
    if any(len(r) != width for r in rows):
        raise ValueError("vector length differs from ambient dimension")
    return _dense_rows(map(_nonzero_ints, rows), width)


def rref(rows):
    """Reduced row echelon form.

    Returns (reduced_rows, pivot_columns) with zero rows dropped, pivots
    normalized to 1 and cleared above and below.  The result depends only on
    the row space.  The elimination is `_eliminate`'s, on the rows scaled to
    Gaussian integers.  The package itself reads its subspaces and inverses
    off `_eliminate` directly; `perfbench/tracer.py` still targets this.
    """
    rows = tuple(rows)
    res, ims = _int_rows(rows, len(rows[0]) if rows else 0)
    pivots = _eliminate(res, ims)
    return tuple(map(_reduced_row, res, ims, pivots)), tuple(pivots)


def kernel(mat: Mat) -> "Subspace":
    """Kernel of the linear map given by mat (acting on column vectors).

    With the rows of mat eliminated, row r having lead a_r at pivot p_r,
    each free column f gives the kernel vector with 1 at f and
    -row_r[f] / a_r at each p_r: times the lcm m of the leads it meets, a
    row of Gaussian integers.  Those rows span the kernel, so one more
    elimination gives its echelon basis.
    """
    n = mat.ncols
    res, ims = _dense_rows(mat.int_form(), n)
    pivots = _eliminate(res, ims)
    pivoted = set(pivots)
    out_re, out_im = [], []
    for free in range(n):
        if free in pivoted:
            continue
        meets = [r for r in range(len(pivots)) if res[r][free] or ims[r][free]]
        m = lcm(*[res[r][pivots[r]] for r in meets])
        re, im = [0] * n, [0] * n
        re[free] = m
        for r in meets:
            f = m // res[r][pivots[r]]
            re[pivots[r]] = -f * res[r][free]
            im[pivots[r]] = -f * ims[r][free]
        out_re.append(re)
        out_im.append(im)
    return Subspace._echelon(n, out_re, out_im, _eliminate(out_re, out_im))


def image(mat: Mat) -> "Subspace":
    """The column space: the span of the rows of the transpose."""
    return Subspace._span(mat.nrows, mat.transpose().int_form())


# -- subspaces -------------------------------------------------------------


class Subspace:
    """A linear subspace of Q(i)^n with a canonical echelon basis.

    `int_rows` holds the reduced echelon basis as `_eliminate` leaves it,
    triples (pivot, re, im) of Gaussian integers with a positive integer
    lead re[pivot], each divided by its integer content.  Such a row is the
    only primitive multiple of its reduced row with a positive lead, so
    equality and hashing read `int_rows`.  `rows`, the same basis with
    pivots 1 as `GaussianRational`s, is built the first time it is read.
    """

    # `ambient` and `int_rows` are always set, and `__getattr__` fills `rows`
    # when read unset: `perfbench/tracer.py` reads every slot of a subspace.
    __slots__ = ("ambient", "rows", "int_rows")

    def __init__(self, ambient, vectors=()):
        self.ambient = int(ambient)
        res, ims = _int_rows(vectors, self.ambient)
        self._set(res, ims, _eliminate(res, ims))

    def _set(self, res, ims, pivots):
        """Store the reduced rows that _eliminate left first in res and ims,
        each divided by its integer content."""
        rows = []
        for p, re, im in zip(pivots, res, ims):
            g = gcd(*re, *im)
            if g != 1:
                re = [x // g for x in re]
                im = [x // g for x in im]
            rows.append((p, tuple(re), tuple(im)))
        self.int_rows = tuple(rows)

    def __getattr__(self, name):
        # only an unset `rows` slot gets here: build it from the int rows
        if name != "rows":
            raise AttributeError(name)
        self.rows = tuple(_reduced_row(re, im, p) for p, re, im in self.int_rows)
        return self.rows

    @classmethod
    def _echelon(cls, ambient, res, ims, pivots):
        self = object.__new__(cls)
        self.ambient = ambient
        self._set(res, ims, pivots)
        return self

    @classmethod
    def _span(cls, ambient, form):
        """The span of rows in `Mat.int_form`'s (triples, scale) form, scales dropped."""
        res, ims = _dense_rows(form, ambient)
        return cls._echelon(ambient, res, ims, _eliminate(res, ims))

    @classmethod
    def zero(cls, ambient):
        return cls(ambient, ())

    @classmethod
    def full(cls, ambient):
        ambient = int(ambient)
        units = [[int(i == j) for j in range(ambient)] for i in range(ambient)]
        zeros = [[0] * ambient for _ in range(ambient)]
        return cls._echelon(ambient, units, zeros, list(range(ambient)))

    @property
    def dim(self):
        return len(self.int_rows)

    @property
    def basis(self):
        return self.rows

    def __eq__(self, other):
        return (isinstance(other, Subspace)
                and self.ambient == other.ambient
                and self.int_rows == other.int_rows)

    def __hash__(self):
        return hash((self.ambient, self.int_rows))

    def _holds(self, re, im):
        """Whether v = re + i*im, a row of Gaussian integers, lies in the span.

        Each stored row r with lead a at its pivot clears v's entry f
        there: v becomes a*v - f*r, over their common integer factor.  The
        other rows' pivot columns stay as they were, so v lies in the span
        exactly when nothing is left.
        """
        re, im = list(re), list(im)
        n = self.ambient
        for p, rr, ri in self.int_rows:
            fr, fi = re[p], im[p]
            if not (fr or fi):
                continue
            a = rr[p]
            g = gcd(a, fr, fi)
            if g != 1:
                a //= g
                fr //= g
                fi //= g
            if a != 1:
                re = [a * x for x in re]
                im = [a * x for x in im]
            for j in range(p, n):  # the row is zero left of its pivot
                b, c = rr[j], ri[j]
                if b or c:
                    re[j] -= fr * b - fi * c
                    im[j] -= fr * c + fi * b
        return not (any(re) or any(im))

    def contains_vector(self, v):
        (re,), (im,) = _int_rows([v], self.ambient)
        return self._holds(re, im)

    def contains(self, other: "Subspace"):
        if other.int_rows and other.ambient != self.ambient:
            raise ValueError("vector length differs from ambient dimension")
        return all(self._holds(re, im) for _, re, im in other.int_rows)

    def __le__(self, other):
        return other.contains(self)

    @classmethod
    def sum(cls, ambient, spaces):
        """The span of all the spaces: one elimination of their stored int rows."""
        ambient = int(ambient)
        res, ims = [], []
        for space in spaces:
            if space.ambient != ambient:
                raise ValueError("ambient dimensions differ")
            for _, re, im in space.int_rows:
                res.append(list(re))
                ims.append(list(im))
        return cls._echelon(ambient, res, ims, _eliminate(res, ims))

    def __add__(self, other):
        return Subspace.sum(self.ambient, (self, other))

    def intersect(self, other: "Subspace"):
        """Zassenhaus: row-reduce [A|A; B|0]; zero-left rows carry A∩B.

        Those rows are the ones with a pivot in the right half, and their
        right halves are already the reduced echelon basis of A∩B.  A meet
        with the full or the zero space is read off without elimination.
        """
        if self.ambient != other.ambient:
            raise ValueError("ambient dimensions differ")
        n = self.ambient
        if other.dim == n or not self.dim:
            return self
        if self.dim == n or not other.dim:
            return other
        return Subspace._echelon(n, *_zassenhaus([row[1:] for row in self.int_rows],
                                                 [row[1:] for row in other.int_rows], n))

    def __and__(self, other):
        return self.intersect(other)

    def conj(self):
        """The conjugate space; conjugating a reduced echelon basis keeps it reduced."""
        out = object.__new__(Subspace)
        out.ambient = self.ambient
        out.int_rows = tuple((p, re, tuple(-y for y in im)) for p, re, im in self.int_rows)
        return out

    def apply(self, mat: Mat):
        """Image of this subspace under mat: mat times each stored row, with
        the rows of mat over the lcm of their scales."""
        if mat.ncols != self.ambient:
            raise ValueError("vector length mismatch")
        form = mat.int_form()
        den = lcm(*[d for _, d in form])
        factors = [den // d for _, d in form]
        res, ims = [], []
        for _, re, im in self.int_rows:
            support = {j: (x, y) for j, x, y in _triples(re, im)}
            images = [_pair_ints(row, support) for row, _ in form]
            res.append([f * x for f, (x, _) in zip(factors, images)])
            ims.append([f * y for f, (_, y) in zip(factors, images)])
        return Subspace._echelon(mat.nrows, res, ims, _eliminate(res, ims))

    def __repr__(self):
        return f"Subspace(dim {self.dim} of {self.ambient})"


def _rows(spaces, n) -> Mat:
    """The echelon bases of the spaces, in order, as the rows of one n-column
    matrix: each stored int row as it is, a positive multiple of its basis row."""
    return Mat._of_ints([(_triples(re, im), 1) for s in spaces for _, re, im in s.int_rows], n)


def hermitian_positive_definite(gram: Mat) -> bool:
    """Sylvester test for an exact Hermitian Gram matrix."""
    if gram != gram.conj_t():
        raise ValueError("matrix is not Hermitian")
    n = gram.nrows
    for k in range(1, n + 1):
        minor = gram.submatrix(range(k), range(k)).det()
        if minor.im:
            raise ArithmeticError("principal minor of a Hermitian matrix must be real")
        if minor.re <= 0:
            return False
    return True
