"""Structures induced on wedge powers and tensor products.

From weight-w data (Q, F, cone) on V this builds

    H = Λ^{d_w} V ⊗ Λ^{d_{w-1}} V ⊗ ... ⊗ Λ^{d_c} V,   c = ⌈(w+1)/2⌉,

with d_p = dim F^p, carrying the determinant pairing on each wedge factor,
the derivation action of every cone generator, and the filtrations spanned
by monomials of a bigraded basis of V with their total levels.  Downstream:
a Tate shift that renormalizes the top filtration level to a line, and the
distinguished vectors (e0, e_infinity, e_d) with the pairing scalar between
them.

Wedge coordinates and compound matrices are k×k minors.  They come from one
Laplace expansion over row prefixes in Gaussian integers, which shares each
(j-1)-minor among all the j-minors that expand into it, and each result is
divided by the product of its row scales once.  Kronecker products multiply
the int triples of the factors' rows.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property

from .exactlin import (
    GaussianRational,
    Mat,
    ONE,
    Subspace,
    ZERO,
    _from_ints,
    _nonzero_ints,
)
from .filtrations import (
    DecreasingFiltration,
    IncreasingFiltration,
    level,
    weight_filtration,
)
from .mhs import DeligneSplitting, MixedHodge, NilpotentCone


# -- multilinear building blocks ---------------------------------------------


def wedge_indices(v_dim, k):
    return tuple(itertools.combinations(range(v_dim), k))


def _prefix_minors(form, prefix, memo):
    """The nonzero minors of the rows `prefix` of an int-form matrix, as
    {column set: [re, im]} in Gaussian integers, before dividing by the
    row scales.

    Laplace expansion along the last row: the minor on columns S is the sum,
    over the columns c of S where that row is nonzero, of
    (-1)^(j + position of c in S) times the row's entry at c times the minor
    of the first j rows on S without c.  Those (j-1)-minors come from
    `memo`, keyed by row prefix, so prefixes that several row sets share
    are expanded once.
    """
    if not prefix:
        return {(): [1, 0]}
    got = memo.get(prefix)
    if got is not None:
        return got
    below = _prefix_minors(form, prefix[:-1], memo)
    j = len(prefix) - 1
    out = {}
    for c, a, b in form[prefix[-1]][0]:
        for cols, (x, y) in below.items():
            if c in cols:
                continue
            pos = bisect_left(cols, c)
            sign = -1 if (j + pos) % 2 else 1
            acc = out.setdefault(cols[:pos] + (c,) + cols[pos:], [0, 0])
            acc[0] += sign * (a * x - b * y)
            acc[1] += sign * (a * y + b * x)
    got = memo[prefix] = {cols: v for cols, v in out.items() if v[0] or v[1]}
    return got


def wedge_coords(vectors, v_dim):
    """Coordinates of v1 ∧ ... ∧ vk in the standard wedge basis: the k×k
    minors of the vectors taken as rows, by Laplace expansion."""
    form = [_nonzero_ints(v) for v in vectors]
    k = len(form)
    minors = _prefix_minors(form, tuple(range(k)), {})
    scale = math.prod(d for _, d in form)
    return tuple(_from_ints(*minors[cols], scale) if cols in minors else ZERO
                 for cols in wedge_indices(v_dim, k))


def wedge_matrix(m: Mat, k: int) -> Mat:
    """The compound matrix: action of m on Λ^k by k×k minors.

    The minors of each row set come from one Laplace expansion, whose
    (j-1)-minors are shared by every row set with the same first j-1 rows;
    each row of the result is divided by the product of its row scales.
    """
    combos = wedge_indices(m.nrows, k)
    index = {cols: i for i, cols in enumerate(combos)}
    form = m.int_form()
    memo = {}
    out = []
    for rows in combos:
        minors = _prefix_minors(form, rows, memo)
        out.append((sorted((index[cols], re, im) for cols, (re, im) in minors.items()),
                    math.prod(form[i][1] for i in rows)))
    return Mat._of_ints(out, len(combos))


def wedge_derivation(m: Mat, k: int) -> Mat:
    """The action of m on Λ^k by the Leibniz rule."""
    v_dim = m.nrows
    combos = wedge_indices(v_dim, k)
    index = {c: i for i, c in enumerate(combos)}
    cols = []
    for s in combos:
        col = [ZERO] * len(combos)
        for pos, i in enumerate(s):
            rest = s[:pos] + s[pos + 1:]
            for r in range(v_dim):
                coeff = m[r, i]
                if not coeff or r in rest:
                    continue
                new = tuple(sorted(rest + (r,)))
                sign = -1 if (pos - new.index(r)) % 2 else 1
                slot = index[new]
                col[slot] = col[slot] + coeff * sign
        cols.append(col)
    return Mat.from_cols(cols)


def kron(a: Mat, b: Mat) -> Mat:
    """The Kronecker product, from the products of the rows' int triples."""
    w = b.ncols
    return Mat._of_ints([([(j1 * w + j2, x1 * x2 - y1 * y2, x1 * y2 + y1 * x2)
                           for j1, x1, y1 in ra for j2, x2, y2 in rb], da * db)
                         for ra, da in a.int_form() for rb, db in b.int_form()],
                        a.ncols * w)


def kron_vec(u, v):
    return tuple(a * b for a in u for b in v)


def induced_endomorphism(x: Mat, exponents) -> Mat:
    """Leibniz action of x ∈ End(V) on Λ^{k1}V ⊗ Λ^{k2}V ⊗ ...

    `exponents` is the factor list ((p1, k1), (p2, k2), ...) of an induced
    structure; only the k's matter here.
    """
    built = Mat.zeros(1)
    dims_so_far = 1
    for _, k in exponents:
        d = wedge_derivation(x, k)
        built = kron(built, Mat.identity(d.nrows)) \
            + kron(Mat.identity(dims_so_far), d)
        dims_so_far *= d.nrows
    return built


# -- input and output records -------------------------------------------------


@dataclass(frozen=True)
class PureHodgeData:
    """Weight-w input data on V: pairing, limit filtration, nilpotent cone.

    The mixed structure is built once per instance and shared by every
    caller; split() is that structure's own cached, verified splitting.
    """

    weight: int
    q: Mat
    f: DecreasingFiltration
    cone: NilpotentCone
    w: IncreasingFiltration | None = None

    def __post_init__(self):
        if self.w is None:
            if len(self.cone):
                interior = self.cone.element((1,) * len(self.cone))
                computed = weight_filtration(interior, center=self.weight)
            else:
                computed = IncreasingFiltration(
                    self.f.ambient, {self.weight: Subspace.full(self.f.ambient)})
            object.__setattr__(self, "w", computed)
        # MixedHodge construction validates shapes, symmetry, nondegeneracy
        self.structure()

    @property
    def dim(self):
        return self.f.ambient

    def structure(self) -> MixedHodge:
        return self._structure

    def split(self) -> DeligneSplitting:
        return self.structure().split()

    @cached_property
    def _structure(self) -> MixedHodge:
        return MixedHodge(self.weight, self.w, self.f, self.q)


@dataclass(frozen=True)
class InducedStructure:
    """H with its pairing, filtrations, cone, and the predicted bigrading."""

    weight: int
    twist: int
    q: Mat
    f: DecreasingFiltration
    w: IncreasingFiltration
    cone: NilpotentCone
    factor_exponents: tuple
    v_data: PureHodgeData
    bigraded: tuple  # ((P, Q), vector) for every monomial of the adapted basis

    @property
    def dim(self):
        return self.f.ambient

    def structure(self) -> MixedHodge:
        """The mixed structure (W, F, Q) of H, built once per instance."""
        return self._structure

    @cached_property
    def _structure(self) -> MixedHodge:
        return MixedHodge(self.weight, self.w, self.f, self.q)

    def predicted_split(self) -> DeligneSplitting:
        """The splitting functoriality predicts: spans of bigraded monomials.

        Independent of the general intersection formula, so the two must
        agree piece by piece; the twist shifts a monomial (P, Q) by (-k, -k).
        """
        gathered = {}
        for (p, q), v in self.bigraded:
            gathered.setdefault((p - self.twist, q - self.twist), []).append(v)
        return DeligneSplitting(
            self.dim,
            {pq: Subspace(self.dim, vs) for pq, vs in gathered.items()})


# Largest induced dimension `induce` builds.  Its cost grows about as the
# cube of that dimension: the 231-dimensional structure induced from a
# 22-dimensional weight_two(3) takes about 4 s through `hodge induce`, while
# a1 would induce 3,695,120 dimensions.  Every shipped fixture and worked
# family stays far below: a1_input induces 20, the tested families at most 45.
MAX_INDUCED_DIM = 256


def _factor_exponents(v: PureHodgeData):
    """The factors (p, dim F^p) of H, for p from the weight down to the middle."""
    c = (v.weight + 2) // 2
    exponents = [(p, v.f.at(p).dim) for p in range(v.weight, c - 1, -1)]
    return [(p, k) for p, k in exponents if k > 0]


def induced_dimension(v: PureHodgeData) -> int:
    """dim H, the product of the binomials C(dim V, dim F^p) over its factors."""
    return math.prod(math.comb(v.dim, k) for _, k in _factor_exponents(v))


def induce(v: PureHodgeData) -> InducedStructure:
    """Build H = Λ^{d_w}V ⊗ ... ⊗ Λ^{d_c}V with everything it inherits.

    Refuses, before any work, an H above MAX_INDUCED_DIM dimensions.
    """
    w_v = v.weight
    exponents = _factor_exponents(v)
    if not exponents:
        raise ValueError("every filtration level above the middle is empty")
    size = induced_dimension(v)
    if size > MAX_INDUCED_DIM:
        raise ValueError(f"f: the induced structure would have dimension {size}, "
                         f"above the bound {MAX_INDUCED_DIM}")

    v_split = v.split()
    adapted = []
    for (p, q), sub in v_split.pieces.items():
        for vector in sub.basis:
            adapted.append((p, q, vector))

    gens = list(v.cone.generators)
    n_h = [induced_endomorphism(g, exponents) for g in gens]
    q_h = Mat.identity(1)
    monomials = [((0, 0), (ONE,))]
    for p, k in exponents:
        q_h = kron(q_h, wedge_matrix(v.q, k))
        fresh = []
        for subset in itertools.combinations(range(len(adapted)), k):
            pp = sum(adapted[i][0] for i in subset)
            qq = sum(adapted[i][1] for i in subset)
            coords = wedge_coords([adapted[i][2] for i in subset], v.dim)
            fresh.append(((pp, qq), coords))
        monomials = [((bp + mp, bq + mq), kron_vec(bv, mv))
                     for (bp, bq), bv in monomials
                     for (mp, mq), mv in fresh]

    weight = w_v * sum(k for _, k in exponents)
    dim_h = len(monomials)
    f_gens, w_gens = {}, {}
    for (pp, qq), coords in monomials:
        f_gens.setdefault(pp, []).append(coords)
        w_gens.setdefault(pp + qq, []).append(coords)
    return InducedStructure(
        weight=weight,
        twist=0,
        q=q_h,
        f=DecreasingFiltration.from_generators(dim_h, f_gens),
        w=IncreasingFiltration.from_generators(dim_h, w_gens),
        cone=NilpotentCone(n_h, q_h) if gens else NilpotentCone((), q_h),
        factor_exponents=tuple(exponents),
        v_data=v,
        bigraded=tuple(monomials),
    )


def tate_normalize(ind: InducedStructure) -> InducedStructure:
    """Shift weights so the deepest filtration level becomes the top line.

    With D the largest level where F is nonzero, the twist is k = weight - D;
    levels move by F^j -> F^{j+k}, W_l -> W_{l+2k}, weight -> weight - 2k.
    """
    top = ind.f.jump_levels[-1]
    if ind.f.at(top).dim != 1:
        raise ValueError("the deepest filtration level is not a line")
    k = ind.weight - top
    if k == 0:
        return ind
    out = InducedStructure(
        weight=ind.weight - 2 * k,
        twist=ind.twist + k,
        q=ind.q,
        f=ind.f.shift(k),
        w=ind.w.shift(2 * k),
        cone=ind.cone,
        factor_exponents=ind.factor_exponents,
        v_data=ind.v_data,
        bigraded=ind.bigraded,
    )
    if out.f.at(out.weight).dim != 1:
        raise ArithmeticError("normalization did not leave a line on top")
    return out


@dataclass(frozen=True)
class Markers:
    """The distinguished vectors of a normalized induced structure."""

    n: int
    m: int
    e0: tuple
    einf: tuple
    ed: tuple
    lam: GaussianRational


def locate_markers(ind: InducedStructure) -> Markers:
    """Find m, e0, e_infinity, e_d and the normalizing scalar λ.

    m is the level of the top line inside W; the opposite line is
    W_{2n-m} ∩ F^{2n-m}, which must be one-dimensional.
    """
    n = ind.weight
    top = ind.f.at(n)
    if top.dim != 1:
        raise ValueError("top filtration level is not a line — normalize first")
    e0 = top.basis[0]
    m = level(e0, ind.w)
    if not n <= m <= 2 * n:
        raise ArithmeticError(f"level {m} of the top line is outside [{n}, {2 * n}]")
    opposite = ind.w.at(2 * n - m).intersect(ind.f.at(2 * n - m))
    if opposite.dim != 1:
        raise ValueError(
            f"W_{2 * n - m} ∩ F^{2 * n - m} has dimension {opposite.dim}, not 1")
    einf = opposite.basis[0]
    einf_bar = Mat([einf]).conj()
    s = (Mat([e0]) * ind.q * einf_bar.transpose())[0, 0]
    if not s:
        raise ArithmeticError("the top and opposite lines do not pair")
    scale = ONE / s
    ed = (einf_bar * scale).rows[0]
    lam = scale.conjugate()
    return Markers(n=n, m=m, e0=e0, einf=einf, ed=ed, lam=lam)
