"""Mixed Hodge structures: the Deligne splitting and polarization checks.

A mixed structure is a pair (W, F) of filtrations; it is accepted exactly when
the canonical bigraded splitting

    I^{p,q} = F^p ∩ W_{p+q} ∩ ( conj(F)^q ∩ W_{p+q} + Σ_{j≥1} conj(F)^{q-j} ∩ W_{p+q-j-1} )

recovers both filtrations as direct sums and is conjugation-symmetric up to
strictly smaller bidegrees.  Everything here is exact; a structure is either
valid or rejected with the first failing identity.

A structure built from a bigraded basis (an induced structure: the
monomials of V's frame) carries that basis, and `deligne_split` spans it by
bigrade.  Otherwise it reads every meet F^p ∩ W_l and conj(F)^q ∩ W_l off
one echelon form per step of F and of conj(F), written in a basis of V
adapted to W, and forms each piece with one Zassenhaus intersection in those
coordinates.  The splitting owns its frame (A, A^{-1}, grades): A has the
pieces' echelon bases as its columns.  `deligne_split` builds it once, from
the pieces' int rows, and verifies every identity in it as a support pattern
of frame coordinates, whichever way the pieces were found.
`polarization_check` reads the cone in the same frame, one A^{-1} N A per
generator.  The symmetry-algebra layers (`lie`), the bracket suite and the
twist check of `orbit.orbit_spec` read the same frame off
`structure.split()`.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from functools import cached_property

from .exactlin import (
    I,
    Mat,
    ONE,
    Subspace,
    _dense_rows,
    _eliminate,
    _int_product,
    _rows,
    _triples,
    _zassenhaus,
    commutator,
    hermitian_positive_definite,
    kernel,
)
from .filtrations import DecreasingFiltration, IncreasingFiltration


def i_power(k):
    """i^k as an exact scalar."""
    return (ONE, I, -ONE, -I)[k % 4]


class FixtureError(ValueError):
    """A refusal of input data that names the field at fault.

    `field` is the fixture path or option that is wrong and `message` says
    how; str() is "field: message".
    """

    def __init__(self, field, message):
        super().__init__(f"{field}: {message}")
        self.field, self.message = field, message


@dataclass(frozen=True)
class MixedHodge:
    """Weight-n mixed structure (W, F) with an optional pairing Q; its
    `split` (with the splitting frame) and `f_isotropy` are computed once
    and shared.

    `basis` is the bigraded basis the structure was built from, if any:
    ((p, q), int-form row) pairs that `deligne_split` spans by bigrade in
    place of the intersection formula.  It is not part of the structure's
    identity: equality, hash and repr read (n, W, F, Q) alone.
    """

    n: int
    w: IncreasingFiltration
    f: DecreasingFiltration
    q: Mat | None = None
    basis: tuple = field(default=(), compare=False, repr=False)

    def __post_init__(self):
        if self.w.ambient != self.f.ambient:
            raise FixtureError("f", "W and F live on spaces of different dimension")
        if not self.w.is_exhaustive():
            raise FixtureError("w", "W must reach the full space")
        if not self.f.is_exhaustive():
            raise FixtureError("f", "F must start at the full space")
        if self.q is not None:
            if self.q.shape != (self.ambient, self.ambient):
                raise FixtureError("q", "pairing has the wrong shape")
            sign = 1 if self.n % 2 == 0 else -1
            if self.q.transpose() != self.q * sign:
                raise FixtureError("q", "pairing must be (-1)^n-symmetric")
            if not self.q.det():
                raise FixtureError("q", "pairing is degenerate")

    @property
    def ambient(self):
        return self.w.ambient

    def split(self) -> DeligneSplitting:
        """The Deligne splitting of (W, F), computed and verified once.

        Every reader of the splitting shares this one instance, the same one
        deligne_split(self) returns, whichever runs first.  The first
        computation checks every defining identity; a structure that fails
        raises FixtureError on every call, since a failed build is not kept.
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


class DirectSumError(FixtureError):
    """The bigraded pieces of a structure are not a basis of V."""


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

    The pieces are the structure's bigraded basis spanned by bigrade when it
    carries one (`_basis_pieces`), and the intersection formula otherwise
    (`_meet_pieces`).  Either way every defining identity of the splitting
    is checked exactly, and a FixtureError on the field f names the first
    failure; the splitting is unique (Cattani-Kaplan-Schmid), so pieces that
    pass are the Deligne splitting.  The verified splitting is kept on the
    structure, where MixedHodge.split() reads it: later calls return that
    same object, and it lives exactly as long as the structure.  A failed
    build is not kept; pieces that are not a basis of V raise
    DirectSumError.
    """
    kept = structure.__dict__.get("_split")
    if kept is not None:
        return kept
    n = structure.ambient
    pieces = _basis_pieces(structure.basis, n) if structure.basis else _meet_pieces(structure)
    split = DeligneSplitting(n, pieces)
    defect = splitting_defect(structure, split)
    if defect is not None:
        error = DirectSumError if split.frame is None else FixtureError
        raise error("f", f"not a mixed Hodge structure: {defect}")
    structure.__dict__["_split"] = split
    return split


def _basis_pieces(basis, n):
    """The spans of a bigraded basis, one per bigrade.

    A basis that is not n rows with every index below n is refused as a
    DirectSumError on f before any span is taken.
    """
    if len(basis) != n or any(j >= n for _, (row, _) in basis for j, _, _ in row):
        raise DirectSumError("f", f"not a mixed Hodge structure: the bigraded basis is "
                                  f"not {n} rows of length {n}")
    gathered = {}
    for pq, row in basis:
        gathered.setdefault(pq, []).append(row)
    return {pq: Subspace._span(n, rows) for pq, rows in gathered.items()}


def _meet_pieces(structure: MixedHodge):
    """The pieces by the intersection formula.

    The meets are read off one basis B of V adapted to W: the rows of each
    step's echelon basis whose pivot is new, in reverse, so W_l is spanned
    by the last dim W_l rows.  Each step of F and of conj(F) is written in
    B-coordinates and eliminated once; its echelon rows with pivot at or
    after n - dim W_l then span its meet with W_l, for every l at once, and
    each `corr` sum is a union of such rows.  A piece is one Zassenhaus
    intersection on the last dim W_l coordinates, mapped back through B and
    spanned once.
    """
    w, f, n = structure.w, structure.f, structure.ambient
    basis = _w_adapted_rows(w)
    b_inv = Mat._of_ints(basis, n).inverse()
    jumps = f.jump_levels
    f_rows = [_in_flag_coords(sub, b_inv) for _, sub in f.steps]
    fbar_rows = [_in_flag_coords(sub.conj(), b_inv) for _, sub in f.steps]

    def meet(echelons, p, l):
        """The B-coordinate rows spanning F^p ∩ W_l, or conj(F)^p ∩ W_l:
        F^p is the step of the first jump at or above p, zero above the last."""
        i = bisect_left(jumps, p)
        if i == len(jumps):
            return []
        pivots, rows = echelons[i]
        return rows[bisect_left(pivots, n - w.at(l).dim):]

    pieces = {}
    l_lo, l_hi = w.jump_levels[0], w.jump_levels[-1]
    for p in range(jumps[0], jumps[-1] + 1):
        for l in range(l_lo, l_hi + 1):
            q = l - p
            base = meet(f_rows, p, l)
            if not base:
                continue
            corr = meet(fbar_rows, q, l)
            j = 1
            while w.at(l - j - 1).dim:
                corr = corr + meet(fbar_rows, q - j, l - j - 1)
                j += 1
            # a meet on the last d coordinates, written back in V through B
            d = w.at(l).dim
            res, ims, _ = _zassenhaus([(re[-d:], im[-d:]) for re, im in base],
                                      [(re[-d:], im[-d:]) for re, im in corr], d)
            if res:
                piece = [(_triples(re, im), 1) for re, im in zip(res, ims)]
                pieces[(p, q)] = Subspace._span(n, _int_product(piece, basis[n - d:], n))
    return pieces


def _w_adapted_rows(w: IncreasingFiltration):
    """A basis of V adapted to W, as int-form rows, W_l spanned by the last
    dim W_l of them.

    Nested echelon bases have nested pivot sets, so the rows of each step
    whose pivot is new, taken step by step upward, are independent, and the
    first dim W_l of them span W_l; the rows are kept in reverse.
    """
    seen, rows = set(), []
    for _, sub in w.steps:
        for p, re, im in sub.int_rows:
            if p not in seen:
                seen.add(p)
                rows.append((_triples(re, im), 1))
    return rows[::-1]


def _in_flag_coords(sub: Subspace, b_inv: Mat):
    """The echelon form of sub written in the coordinates that b_inv reads
    off: its pivots and its rows as dense (re, im) int lists.  The rows with
    pivot at or after n - d span sub's meet with the last d basis rows.
    V itself is the unit rows in any coordinates."""
    n = b_inv.nrows
    if sub.dim == n:
        sub = Subspace.full(n)
    else:
        res, ims = _dense_rows((_rows((sub,), n) * b_inv).int_form(), n)
        sub = Subspace._echelon(n, res, ims, _eliminate(res, ims))
    return [p for p, _, _ in sub.int_rows], [(re, im) for _, re, im in sub.int_rows]


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
                raise FixtureError(f"cone[{idx}]", f"generator {idx} is zero")
            if not (g ** g.nrows).is_zero():
                raise FixtureError(f"cone[{idx}]", f"generator {idx} is not nilpotent")
            if q is not None and not is_infinitesimal_isometry(g, q):
                raise FixtureError(f"cone[{idx}]", f"generator {idx} is not infinitesimally skew")
        for i, a in enumerate(self.generators):
            for b in self.generators[i + 1:]:
                if not commutator(a, b).is_zero():
                    raise FixtureError("cone", "generators do not commute")

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


def cone_compatibility(structure: MixedHodge, cone: NilpotentCone, in_frame=None):
    """Each generator must shift W by -2 and F by -1; returns (ok, detail).

    Read in the structure's verified splitting frame, as a support pattern
    of each M_j = A^{-1} N_j A (`in_frame`, when the caller has them).  The
    pieces lie in F^p ∩ W_{p+q} and are a basis, so at every level W_l is
    the span of the columns with p+q <= l and F^k of those with p >= k.  A
    nonzero cell (r, c) of M_j sends column c onto column r: it moves W_l
    outside W_{l-2} exactly when wt(c) <= l < wt(r) + 2, and F^k outside
    F^{k-1} exactly when p(r) + 1 < k <= p(c).  The detail names the first
    jump, ascending, that `first_escape` finds.  A structure that does not
    split raises its splitting's FixtureError.
    """
    split = structure.split()
    grades = split.frame[2]
    for idx, m in enumerate(in_frame or _in_frame(split, cone)):
        cells = {(grades[r], grades[c]) for r, (row, _) in enumerate(m.int_form())
                 for c, _, _ in row}
        for l in structure.w.jump_levels:
            if any(sum(c) <= l < sum(r) + 2 for r, c in cells):
                return False, f"generator {idx} does not move W_{l} into W_{l - 2}"
        for k in structure.f.jump_levels:
            if any(r[0] + 1 < k <= c[0] for r, c in cells):
                return False, f"generator {idx} does not move F^{k} into F^{k - 1}"
    return True, None


def _in_frame(split: DeligneSplitting, cone: NilpotentCone):
    """The generators in the splitting frame: one A^{-1} N A each."""
    a, a_inv, _ = split.frame
    return [a_inv * g * a for g in cone]


def _is_weight_filtration(m: Mat, weights, center):
    """Whether W, the span of the frame columns of weight <= l at each l,
    is the weight filtration of m (a cone element in the frame) centered
    at `center`.

    It is exactly when W satisfies the defining axioms, which fix it
    uniquely (Deligne): every nonzero cell of m lowers the weight by at
    least 2, and for each k >= 1 the block of m^k from the weight
    center+k columns to the weight center-k rows, the map that m^k induces
    from Gr_{center+k} to Gr_{center-k}, is square and nonsingular.
    """
    form = m.int_form()
    if any(weights[r] > weights[c] - 2 for r, (row, _) in enumerate(form) for c, _, _ in row):
        return False
    power = Mat.identity(len(weights))
    for k in range(1, max(abs(wt - center) for wt in weights) + 1):
        power = power * m
        rows = [r for r, wt in enumerate(weights) if wt == center - k]
        cols = [c for c, wt in enumerate(weights) if wt == center + k]
        if len(rows) != len(cols) or (rows and not power.submatrix(rows, cols).det()):
            return False
    return True


def polarization_check(structure: MixedHodge, cone: NilpotentCone | None = None):
    """Decide whether (W, F, Q) is polarized by the cone.

    Checks, in order: the splitting identities; the vanishing Q(F^a, F^b) = 0
    for a+b > n, read from the structure's f_isotropy, which is shared with
    every other reader; agreement of W with the weight filtration of two
    interior cone elements; W- and F-compatibility of each generator
    (cone_compatibility); and positivity of the exact Hermitian form
    i^{p-q} Q(u, N^l conj v) on every primitive piece I^{p,q} ∩ ker N^{l+1},
    l = p+q-n >= 0.  The cone is read in the verified splitting frame, one
    A^{-1} N_j A per generator: the weight filtrations are certified by
    their defining axioms (`_is_weight_filtration`), and the compatibility
    is a support pattern of each generator.
    """
    if structure.q is None:
        return False, "no pairing to polarize"
    try:
        split = structure.split()
    except FixtureError as err:
        return False, str(err)
    n = structure.n
    ok, witness = structure.f_isotropy
    if not ok:
        a, b, _, _ = witness
        return False, f"pairing does not vanish on F^{a} x F^{b}"

    if cone is not None and len(cone):
        k = len(cone)
        in_frame = _in_frame(split, cone)
        weights = [p + q for p, q in split.frame[2]]
        # one test per distinct element: for k = 1 the two coincide
        for coeffs in dict.fromkeys(((1,) * k, tuple(range(1, k + 1)))):
            element = in_frame[0] * coeffs[0]
            for c, m in zip(coeffs[1:], in_frame[1:]):
                element = element + m * c
            if not _is_weight_filtration(element, weights, n):
                return False, f"W differs from the weight filtration at {coeffs}"
        ok, detail = cone_compatibility(structure, cone, in_frame)
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
        except ValueError:
            return False, f"primitive form on ({p},{q}) is not Hermitian"
    return True, None
