"""Structures induced on wedge powers and tensor products.

From weight-w data (Q, F, cone) on V this builds

    H = Λ^{d_w} V ⊗ Λ^{d_{w-1}} V ⊗ ... ⊗ Λ^{d_c} V,   c = ⌈(w+1)/2⌉,

with d_p = dim F^p, carrying the determinant pairing on each wedge factor,
the derivation action of every cone generator, and the filtrations spanned
by monomials of the splitting frame of V with their total levels.
Downstream: a Tate shift that renormalizes the top filtration level to a
line, and the distinguished vectors (e0, e_infinity, e_d) with the pairing
scalar between them.

V and H are records of one kind: `InducedStructure` is a `PureHodgeData`
that also carries its twist, its factors and its bigraded monomial basis,
so everything that reads weight-w data (the fixture writer, the orbit spec,
the markers) reads either.  F and W are built from that basis, and the
tests build the splitting that functoriality predicts from it.  Every
record is verified when built, and finds its markers once, when they are
first read.

H is built in one number type, Gaussian-integer rows over a scale.  Its
pairing is the Kronecker product of the compound matrices Λ^k Q, and its
monomial basis the Kronecker product of the Λ^k B, with B the rows of V's
splitting frame (each piece's stored int rows, in piece order): row S of
Λ^k B is the wedge of the frame rows in S, with the sum of their bigrades,
in the same `combinations` order.  F and W are spans of those rows, and
each cone generator acts through its derivations, read off the int form of
its columns.  Compound matrices are k×k minors from one Laplace expansion
over row prefixes, which shares each (j-1)-minor among all the j-minors
that expand into it, and each row is divided by the product of its row
scales once.  Kronecker products multiply the int triples of the factors'
rows.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property

from .exactlin import GaussianRational, Mat, ONE, Subspace
from .filtrations import (
    DecreasingFiltration,
    IncreasingFiltration,
    level,
    weight_filtration,
)
from .mhs import DeligneSplitting, FixtureError, MixedHodge, NilpotentCone


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
    """The action of m on Λ^k by the Leibniz rule.

    Column S is the sum, over i in S and the nonzero entries (r, i) of m's
    column i with r outside S, of that entry at S with i replaced by r,
    signed by how far r moves to reach its sorted place.  The columns of m
    are read as int triples over their common denominator.
    """
    combos = wedge_indices(m.nrows, k)
    index = {c: i for i, c in enumerate(combos)}
    form = m.transpose().int_form()
    den = math.lcm(*[d for _, d in form])
    cols = []
    for s in combos:
        acc = {}
        for pos, i in enumerate(s):
            rest = s[:pos] + s[pos + 1:]
            col, d = form[i]
            f = den // d
            for r, a, b in col:
                if r in rest:
                    continue
                at = bisect_left(rest, r)
                sign = f if (pos - at) % 2 == 0 else -f
                cell = acc.setdefault(index[rest[:at] + (r,) + rest[at:]], [0, 0])
                cell[0] += sign * a
                cell[1] += sign * b
        cols.append(([(j, a, b) for j, (a, b) in sorted(acc.items()) if a or b], den))
    return Mat._of_ints(cols, len(combos)).transpose()


def kron(a: Mat, b: Mat) -> Mat:
    """The Kronecker product, from the products of the rows' int triples."""
    w = b.ncols
    return Mat._of_ints([([(j1 * w + j2, x1 * x2 - y1 * y2, x1 * y2 + y1 * x2)
                           for j1, x1, y1 in ra for j2, x2, y2 in rb], da * db)
                         for ra, da in a.int_form() for rb, db in b.int_form()],
                        a.ncols * w)


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
    """Weight-w data on V: pairing, limit filtration, nilpotent cone.

    Every record is verified when built: its mixed structure is built then,
    once, and shared by every caller, and split() is that structure's own
    cached, verified splitting.  `markers` are found once, when first read;
    like the structure, a build that raises is not kept.
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

    @cached_property
    def markers(self) -> Markers:
        return locate_markers(self)


@dataclass(frozen=True)
class InducedStructure(PureHodgeData):
    """H as weight-w data, with its Tate twist, its factors (p, dim F^p) and
    its bigraded monomial basis: ((P, Q), int-form row) for every monomial
    of the frame, before the twist.  `induce` builds F and W from it, and
    the tests' predicted splitting spans its monomials by bigrade."""

    twist: int = 0
    factor_exponents: tuple = ()
    bigraded: tuple = ()


# Largest induced dimension `induce` builds.  Its cost grows about as the
# cube of that dimension: the 231-dimensional structure induced from a
# 22-dimensional weight_two(3) takes about 1 s through `hodge induce`, 0.14 s
# of it in `induce` (2 vCPU, CPython 3.11), while a1 would induce 3,695,120
# dimensions.  Every shipped fixture and worked
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
        raise FixtureError("f", "every filtration level above the middle is empty")
    size = induced_dimension(v)
    if size > MAX_INDUCED_DIM:
        raise FixtureError("f", f"the induced structure would have dimension {size}, "
                                f"above the bound {MAX_INDUCED_DIM}")

    a, _, grades = v.split().frame
    gens = list(v.cone.generators)
    n_h = [induced_endomorphism(g, exponents) for g in gens]
    q_h = monomials = Mat.identity(1)
    bigrades = [(0, 0)]
    for _, k in exponents:
        q_h = kron(q_h, wedge_matrix(v.q, k))
        monomials = kron(monomials, wedge_matrix(a.transpose(), k))
        fresh = [tuple(map(sum, zip(*(grades[i] for i in s)))) for s in wedge_indices(v.dim, k)]
        bigrades = [(bp + mp, bq + mq) for bp, bq in bigrades for mp, mq in fresh]

    bigraded = tuple(zip(bigrades, monomials.int_form()))
    f_gens, w_gens = {}, {}
    for (pp, qq), row in bigraded:
        f_gens.setdefault(pp, []).append(row)
        w_gens.setdefault(pp + qq, []).append(row)
    dim_h = monomials.nrows
    return InducedStructure(
        weight=w_v * sum(k for _, k in exponents),
        twist=0,
        q=q_h,
        f=DecreasingFiltration.from_int_rows(dim_h, f_gens),
        w=IncreasingFiltration.from_int_rows(dim_h, w_gens),
        cone=NilpotentCone(n_h, q_h) if gens else NilpotentCone((), q_h),
        factor_exponents=tuple(exponents),
        bigraded=bigraded,
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
    out = dataclasses.replace(ind, weight=ind.weight - 2 * k, twist=ind.twist + k,
                              f=ind.f.shift(k), w=ind.w.shift(2 * k))
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


def locate_markers(ind: PureHodgeData) -> Markers:
    """Find m, e0, e_infinity, e_d and the normalizing scalar λ.

    m is the level of the top line inside W; the opposite line is
    W_{2n-m} ∩ F^{2n-m}, which must be one-dimensional.  A record reads
    these once, through its `markers`.  Undefined markers are refused as a
    FixtureError on f, whose levels they are read from.
    """
    n = ind.weight
    top = ind.f.at(n)
    if top.dim != 1:
        raise FixtureError("f", "top filtration level is not a line — normalize first")
    e0 = top.basis[0]
    m = level(e0, ind.w)
    if not n <= m <= 2 * n:
        raise FixtureError("f", f"level {m} of the top line is outside [{n}, {2 * n}]")
    opposite = ind.w.at(2 * n - m).intersect(ind.f.at(2 * n - m))
    if opposite.dim != 1:
        raise FixtureError(
            "f", f"W_{2 * n - m} ∩ F^{2 * n - m} has dimension {opposite.dim}, not 1")
    einf = opposite.basis[0]
    einf_bar = Mat([einf]).conj()
    s = (Mat([e0]) * ind.q * einf_bar.transpose())[0, 0]
    if not s:
        raise FixtureError("f", "the top and opposite lines do not pair")
    scale = ONE / s
    ed = (einf_bar * scale).rows[0]
    lam = scale.conjugate()
    return Markers(n=n, m=m, e0=e0, einf=einf, ed=ed, lam=lam)
