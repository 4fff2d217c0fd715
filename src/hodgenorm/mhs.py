"""Mixed Hodge structures: the Deligne splitting and polarization checks.

A mixed structure is a pair (W, F) of filtrations; it is accepted exactly when
the canonical bigraded splitting

    I^{p,q} = F^p ∩ W_{p+q} ∩ ( conj(F)^q ∩ W_{p+q} + Σ_{j≥1} conj(F)^{q-j} ∩ W_{p+q-j-1} )

recovers both filtrations as direct sums and is conjugation-symmetric up to
strictly smaller bidegrees.  Everything here is exact; a structure is either
valid or rejected with the first failing identity.

The splitting owns its frame (A, A^{-1}, grades): A has the pieces' echelon
bases as its columns.  `deligne_split` builds it once, from the pieces' int
rows, and verifies every identity in it as a support pattern of frame
coordinates.  The symmetry-algebra layers (`lie`), the bracket suite and the
twist check of `orbit.orbit_spec` read the same frame off `structure.split()`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .exactlin import (
    I,
    Mat,
    ONE,
    Subspace,
    _rows,
    commutator,
    hermitian_positive_definite,
    kernel,
)
from .filtrations import (
    DecreasingFiltration,
    IncreasingFiltration,
    weight_filtration,
)


def i_power(k):
    """i^k as an exact scalar."""
    return (ONE, I, -ONE, -I)[k % 4]


@dataclass(frozen=True)
class MixedHodge:
    """Weight-n mixed structure (W, F) with an optional pairing Q; its
    `split` (with the splitting frame) and `f_isotropy` are computed once
    and shared."""

    n: int
    w: IncreasingFiltration
    f: DecreasingFiltration
    q: Mat | None = None

    def __post_init__(self):
        # each message starts with the field at fault, as fixture paths do
        if self.w.ambient != self.f.ambient:
            raise ValueError("f: W and F live on spaces of different dimension")
        if not self.w.is_exhaustive():
            raise ValueError("w: W must reach the full space")
        if not self.f.is_exhaustive():
            raise ValueError("f: F must start at the full space")
        if self.q is not None:
            if self.q.shape != (self.ambient, self.ambient):
                raise ValueError("q: pairing has the wrong shape")
            sign = 1 if self.n % 2 == 0 else -1
            if self.q.transpose() != self.q * sign:
                raise ValueError("q: pairing must be (-1)^n-symmetric")
            if not self.q.det():
                raise ValueError("q: pairing is degenerate")

    @property
    def ambient(self):
        return self.w.ambient

    def split(self) -> DeligneSplitting:
        """The Deligne splitting of (W, F), computed and verified once.

        Every reader of the splitting shares this one instance, the same one
        deligne_split(self) returns, whichever runs first.  The first
        computation checks every defining identity; a structure that fails
        raises ValueError on every call, since a failed build is not kept.
        """
        return self._split

    @cached_property
    def _split(self) -> DeligneSplitting:
        return deligne_split(self)

    @cached_property
    def f_isotropy(self):
        """F.isotropy(q, n): whether Q(F^a, F^b) = 0 for a + b > n, with its
        witness; tested once and shared by every reader."""
        return self.f.isotropy(self.q, self.n)


class DeligneSplitting:
    """The bigraded pieces I^{p,q} of a mixed structure, indexed by (p, q).

    Only nonzero pieces are kept, in ascending (p, q) order.  The splitting
    owns its frame, the splitting frame of V: (A, A^{-1}, grades), with the
    pieces' echelon bases as A's columns in that order and each column's
    bidegree in grades.  It is built once, with the splitting, from the
    pieces' int rows, and is None when the pieces are not a basis of V.
    Every span of pieces (`span_where`) is one `Subspace.sum` of their
    stored rows.  The layers of a symmetry algebra are the same object
    inside End(V) (`lie.LieSplit`), with its own `diamond`, which
    `total_dim` reads; its `frame` is the frame of V its layers live in.
    """

    __slots__ = ("ambient", "pieces", "frame")

    def __init__(self, ambient, pieces):
        self.ambient = int(ambient)
        self.pieces = pieces = {pq: sub for pq, sub in sorted(pieces.items()) if sub.dim}
        a = _rows(pieces.values(), self.ambient).transpose()
        try:
            self.frame = a, a.inverse(), tuple(pq for pq, s in pieces.items() for _ in s.int_rows)
        except ValueError:  # A is not square, or singular
            self.frame = None

    def piece(self, p, q) -> Subspace:
        return self.pieces.get((p, q), Subspace.zero(self.ambient))

    def diamond(self):
        return {pq: sub.dim for pq, sub in self.pieces.items()}

    def span_where(self, pred) -> Subspace:
        """The span of the pieces whose bidegree satisfies pred(p, q)."""
        return Subspace.sum(self.ambient, (sub for (p, q), sub in self.pieces.items()
                                           if pred(p, q)))

    def total_dim(self):
        return sum(self.diamond().values())

    def __repr__(self):
        body = ", ".join(f"({p},{q}):{d}" for (p, q), d in self.diamond().items())
        return f"{type(self).__name__}[{body}]"


def deligne_split(structure: MixedHodge) -> DeligneSplitting:
    """Compute the canonical splitting; reject inputs that are not mixed Hodge.

    Every defining identity of the splitting is checked exactly and a
    ValueError names the first failure, under the field f as MixedHodge's
    own errors name theirs.  Within one computation each F^a ∩ W_b and
    conj(F)^a ∩ W_b is formed once, keyed by the identity of the two steps
    that at() returns, which the filtrations keep alive.  The verified
    splitting is kept on the structure, where MixedHodge.split() reads it:
    later calls return that same object, and it lives exactly as long as
    the structure.  A failed build is not kept.
    """
    kept = structure.__dict__.get("_split")
    if kept is not None:
        return kept
    w, f = structure.w, structure.f
    fbar = f.conj()
    meets = {}

    def meet(x, y):
        key = (id(x), id(y))
        if key not in meets:
            meets[key] = x.intersect(y)
        return meets[key]

    pieces = {}
    if w.steps and f.steps:
        p_lo, p_hi = f.jump_levels[0], f.jump_levels[-1]
        l_lo, l_hi = w.jump_levels[0], w.jump_levels[-1]
        for p in range(p_lo, p_hi + 1):
            for l in range(l_lo, l_hi + 1):
                q = l - p
                base = meet(f.at(p), w.at(l))
                if not base.dim:
                    continue
                corr = meet(fbar.at(q), w.at(l))
                j = 1
                while w.at(l - j - 1).dim:
                    corr = corr + meet(fbar.at(q - j), w.at(l - j - 1))
                    j += 1
                piece = base.intersect(corr)
                if piece.dim:
                    pieces[(p, q)] = piece
    split = DeligneSplitting(structure.ambient, pieces)
    defect = splitting_defect(structure, split)
    if defect is not None:
        raise ValueError(f"f: not a mixed Hodge structure: {defect}")
    structure.__dict__["_split"] = split
    return split


def splitting_defect(structure: MixedHodge, split: DeligneSplitting):
    """First identity the splitting fails to satisfy, or None if it is valid.

    Each identity is a support pattern in the splitting frame.  The pieces
    are independent and span V exactly when A is square and invertible;
    when it is not, they are dependent exactly when A has a kernel.  A step
    of F or W is the span of the pieces whose bidegree satisfies pred
    exactly when it has as many dimensions as those columns and the rows of
    A^{-1} outside them vanish on its vectors.  The conjugate of each piece
    is read off the one product A^{-1} conj(A).
    """
    n = split.ambient
    if split.frame is None:
        if kernel(_rows(split.pieces.values(), n).transpose()).dim:
            return "bigraded pieces are not independent"
        return "bigraded pieces do not span the space"
    a, a_inv, grades = split.frame

    def spans(step, pred):
        outside = a_inv.submatrix([k for k, pq in enumerate(grades) if not pred(*pq)], range(n))
        return step.dim == n - outside.nrows and (outside * _rows((step,), n).transpose()).is_zero()

    for k in structure.f.jump_levels:
        if not spans(structure.f.at(k), lambda p, q: p >= k):
            return f"F^{k} is not the span of pieces with p >= {k}"
    for l in structure.w.jump_levels:
        if not spans(structure.w.at(l), lambda p, q: p + q <= l):
            return f"W_{l} is not the span of pieces with p+q <= {l}"
    # row l of (A^{-1} conj(A))^T: the frame coordinates of column l's conjugate
    for (p, q), (row, _) in zip(grades, (a_inv * a.conj()).transpose().int_form()):
        if any(grades[k] != (q, p) and not (grades[k][0] < q and grades[k][1] < p)
               for k, _, _ in row):
            return f"conjugate of piece ({p},{q}) escapes ({q},{p}) + lower"
    return None


def check_symmetries(diamond: dict, n: int, limiting: bool = False):
    """Conjugation symmetry of a diamond; for limiting ones also the
    reflection h^{p,q} = h^{p-k,q-k} with k = p+q-n."""
    for (p, q), d in diamond.items():
        if diamond.get((q, p), 0) != d:
            return False, f"h({p},{q}) = {d} but h({q},{p}) = {diamond.get((q, p), 0)}"
        if limiting:
            k = p + q - n
            mirror = diamond.get((p - k, q - k), 0)
            if mirror != d:
                return False, (f"h({p},{q}) = {d} but h({p - k},{q - k}) = {mirror}")
    return True, None


def f_infinity(split: DeligneSplitting, n: int) -> DecreasingFiltration:
    """The opposite limit filtration: level k is the span of pieces with q ≤ n-k."""
    return DecreasingFiltration(split.ambient, {
        n - q: split.span_where(lambda r, s: s <= q) for q in {q for _, q in split.pieces}})


# -- nilpotent cones ---------------------------------------------------------


def is_infinitesimal_isometry(x: Mat, q: Mat) -> bool:
    """Whether x^T q + q x = 0, so that exp(t x) preserves the pairing q."""
    return (x.transpose() * q + q * x).is_zero()


class NilpotentCone:
    """Commuting nilpotent generators, each an infinitesimal isometry of q."""

    __slots__ = ("generators", "q")

    def __init__(self, generators, q: Mat | None = None):
        self.generators = tuple(generators)
        self.q = q
        for idx, g in enumerate(self.generators):
            if g.is_zero():
                raise ValueError(f"cone[{idx}]: generator {idx} is zero")
            if not (g ** g.nrows).is_zero():
                raise ValueError(f"cone[{idx}]: generator {idx} is not nilpotent")
            if q is not None and not is_infinitesimal_isometry(g, q):
                raise ValueError(f"cone[{idx}]: generator {idx} is not infinitesimally skew")
        for i, a in enumerate(self.generators):
            for b in self.generators[i + 1:]:
                if not commutator(a, b).is_zero():
                    raise ValueError("cone: generators do not commute")

    def __len__(self):
        return len(self.generators)

    def __iter__(self):
        return iter(self.generators)

    def element(self, coeffs) -> Mat:
        """The combination Σ c_j N_j."""
        coeffs = tuple(coeffs)
        if len(coeffs) != len(self.generators):
            raise ValueError("one coefficient per generator")
        out = Mat.zeros(self.generators[0].nrows)
        for c, g in zip(coeffs, self.generators):
            out = out + g * c
        return out


def cone_compatibility(structure: MixedHodge, cone: NilpotentCone):
    """Each generator must shift W by -2 and F by -1; returns (ok, detail)."""
    for idx, g in enumerate(cone):
        l = structure.w.first_escape(g, -2)
        if l is not None:
            return False, f"generator {idx} does not move W_{l} into W_{l - 2}"
        p = structure.f.first_escape(g, -1)
        if p is not None:
            return False, f"generator {idx} does not move F^{p} into F^{p - 1}"
    return True, None


def polarization_check(structure: MixedHodge, cone: NilpotentCone | None = None):
    """Decide whether (W, F, Q) is polarized by the cone.

    Checks, in order: the splitting identities; the vanishing Q(F^a, F^b) = 0
    for a+b > n, read from the structure's f_isotropy, which is shared with
    every other reader; agreement of W with the weight filtration of two
    interior cone elements; W- and F-compatibility of each generator
    (cone_compatibility); and positivity of the exact Hermitian form
    i^{p-q} Q(u, N^l conj v) on every primitive piece I^{p,q} ∩ ker N^{l+1},
    l = p+q-n ≥ 0.
    """
    if structure.q is None:
        return False, "no pairing to polarize"
    try:
        split = structure.split()
    except ValueError as err:
        return False, str(err)
    n = structure.n
    ok, witness = structure.f_isotropy
    if not ok:
        a, b, _, _ = witness
        return False, f"pairing does not vanish on F^{a} x F^{b}"

    if cone is not None and len(cone):
        k = len(cone)
        # one filtration per distinct element: for k = 1 the two coincide
        for coeffs in dict.fromkeys(((1,) * k, tuple(range(1, k + 1)))):
            if weight_filtration(cone.element(coeffs), center=n) != structure.w:
                return False, f"W differs from the weight filtration at {coeffs}"
        ok, detail = cone_compatibility(structure, cone)
        if not ok:
            return False, detail
        n_int = cone.element((1,) * k)
    else:
        if structure.w.jump_levels != (n,):
            return False, "a genuinely mixed W needs a cone to polarize it"
        n_int = Mat.zeros(structure.ambient)

    powers = {0: Mat.identity(structure.ambient)}
    kernels = {}  # ker N^{l+1}, one per l
    for (p, q), sub in split.pieces.items():
        l = p + q - n
        if l < 0:
            continue
        for j in range(1, l + 2):
            if j not in powers:
                powers[j] = powers[j - 1] * n_int
        if l not in kernels:
            kernels[l] = kernel(powers[l + 1])
        prim = sub.intersect(kernels[l])
        if not prim.dim:
            continue
        # the stored int rows are the basis rows times positive integers d_i,
        # which scale the form to D·G·D: its Sylvester verdicts are G's
        basis = _rows((prim,), structure.ambient)
        gram = i_power(p - q) * (basis * structure.q * powers[l] * basis.conj_t())
        try:
            if not hermitian_positive_definite(gram):
                return False, f"primitive form on ({p},{q}) is not positive"
        except (ValueError, ArithmeticError):
            return False, f"primitive form on ({p},{q}) is not Hermitian"
    return True, None
