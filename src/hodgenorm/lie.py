"""Infinitesimal symmetries of a pairing and their bigraded layers.

For a nondegenerate (anti)symmetric pairing q on V, the matrices X with
X^T q + q X = 0 form a Lie algebra g, with the closed-form basis of
`lie_algebra`.  A mixed structure on V makes g bigraded: g^{p,q} collects
the elements that shift every splitting piece of V by (p, q).  These layers
are the Deligne splitting of the mixed structure g inherits from End(V)
(Cattani-Kaplan-Schmid), so `LieSplit` is a `DeligneSplitting` whose pieces
live in End(V).  Two verdicts
read off this decomposition drive everything downstream — whether the
layers stay inside the unit box |p|, |q| <= 1, and whether the part of g
transverse to the stabilizer of F is confined to nonpositive total degree.

`lie_deligne_split` reads the layers off the closed-form basis taken in the
splitting frame of the structure, which its `DeligneSplitting` owns.  Under
a polarization, Q pairs I^{p,q} only with I^{n-p,n-q}, so every element
shifts by one bidegree and bucketing by shift gives the layers; otherwise
each layer is cut out of g by one kernel per shift.

All computations are exact.  The layers stay in the frame, where the
diamond, the verdicts and the bracket suite read them; their spans in
flattened endomorphism coordinates (row-major, ambient dimension n^2) are
built only when read.
"""

from dataclasses import dataclass
from functools import cached_property
from math import lcm

from .exactlin import Mat, Subspace, _triples, commutator, kernel
from .mhs import DeligneSplitting, MixedHodge


@dataclass(frozen=True)
class LieAlgebraBasis:
    """The symmetry algebra {X : X^T q + q X = 0} of a nondegenerate pairing
    q with q^T = eps q.  Its dimension is read off n and eps; its exact basis
    is built the first time `basis` is read."""

    q: Mat
    eps: int

    @property
    def ambient(self):
        return self.q.nrows

    @property
    def dim(self):
        return self.ambient * (self.ambient - self.eps) // 2

    @cached_property
    def basis(self) -> tuple:
        """The closed-form basis.

        X satisfies X^T q + q X = 0 exactly when S = q X obeys S^T = -eps S.
        Running S over the standard (anti)symmetric seeds and mapping back
        through q^{-1} therefore yields a complete basis: dimension n(n-1)/2
        for symmetric q and n(n+1)/2 for antisymmetric q.
        """
        n, eps = self.ambient, self.eps
        # q^{-1} (E_ij - eps E_ji) has two nonzero columns: column j is column i
        # of q^{-1}, and column i is -eps times column j of q^{-1}; the columns
        # are taken in int form, as the rows of the transpose
        q_inv_cols = self.q.inverse().transpose().int_form()
        scaled_cols = [([(i, -eps * a, -eps * b) for i, a, b in col], d) for col, d in q_inv_cols]
        basis = []
        for i in range(n):
            if eps == -1:
                basis.append(_with_columns(n, {i: q_inv_cols[i]}))
            for j in range(i + 1, n):
                basis.append(_with_columns(n, {i: scaled_cols[j], j: q_inv_cols[i]}))
        return tuple(basis)


def lie_algebra(q: Mat) -> LieAlgebraBasis:
    """The symmetry algebra of q, once q is checked square, nondegenerate and
    symmetric or antisymmetric; its basis is built when first read."""
    if q.nrows != q.ncols:
        raise ValueError("pairing must be square")
    if not q.det():
        raise ValueError("pairing is degenerate")
    eps = 1 if q.transpose() == q else -1
    if q.transpose() != q * eps:
        raise ValueError("pairing must be symmetric or antisymmetric")
    return LieAlgebraBasis(q, eps)


def _with_columns(n, columns):
    """The n x n matrix with the given {index: column} and zeros elsewhere.

    Each column is given in int form, as (index, re, im) triples over a
    scale; the matrix is built from the triples over one common scale.
    """
    scale = lcm(*[d for _, d in columns.values()])
    rows = [[] for _ in range(n)]
    for j in sorted(columns):
        col, d = columns[j]
        f = scale // d
        for i, a, b in col:
            rows[i].append((j, f * a, f * b))
    return Mat._of_ints([(row, scale) for row in rows], n)


class LieSplit(DeligneSplitting):
    """The layers g^{p,q}: the Deligne splitting of g inside End(V).

    Each layer is kept as its bucket of elements x in the splitting frame of
    V, (A, A^{-1}, grades), standing for A x A^{-1}; the diamond counts them.
    The frame is not built here: it is the one V's `DeligneSplitting` owns,
    held in the inherited `frame` slot.  The pieces in flattened End(V)
    (`ambient` n^2) are built when first read.
    """

    # `pieces` is filled by `__getattr__` when read unset
    __slots__ = ("algebra", "layers")

    def __init__(self, algebra: LieAlgebraBasis, frame, layers):
        self.ambient = algebra.ambient ** 2
        self.algebra = algebra
        self.frame = frame
        self.layers = {pq: tuple(xs) for pq, xs in sorted(layers.items()) if xs}

    def __getattr__(self, name):
        # only an unset `pieces` slot gets here: span each bucket in End(V)
        if name != "pieces":
            raise AttributeError(name)
        a, a_inv, _ = self.frame
        n = self.algebra.ambient
        row_major = {(k, l): k * n + l for k in range(n) for l in range(n)}
        self.pieces = {pq: Subspace._span(n * n, [_flat(a * x * a_inv, row_major) for x in xs])
                       for pq, xs in self.layers.items()}
        return self.pieces

    def diamond(self):
        return {pq: len(xs) for pq, xs in self.layers.items()}

    def slot_matrices(self, p, q):
        """The echelon basis of g^{p,q} in End(V), as matrices."""
        n = self.algebra.ambient
        return [Mat._of_ints([(_triples(re[k * n:k * n + n], im[k * n:k * n + n]), re[j])
                              for k in range(n)], n)
                for j, re, im in self.piece(p, q).int_rows]

    def in_layer(self, p, q, x: Mat) -> bool:
        """Whether the endomorphism x of V lies in g^{p,q}: whether A^{-1} x A
        adds to the rank of the bucket's independent elements."""
        a, a_inv, _ = self.frame
        cells = {}
        rows = [_flat(y, cells) for y in self.layers.get((p, q), ()) + (a_inv * x * a,)]
        return Subspace._span(len(cells), rows).dim < len(rows)

    @property
    def s_f(self) -> Subspace:
        """Layers with p >= 0: the stabilizer of the Hodge filtration."""
        return self.span_where(lambda p, q: p >= 0)

    @property
    def s_f_perp(self) -> Subspace:
        """Layers with p < 0: the complement transverse to s_f."""
        return self.span_where(lambda p, q: p < 0)

    @property
    def s_w(self) -> Subspace:
        """Layers of nonpositive total degree: the stabilizer of W."""
        return self.span_where(lambda p, q: p + q <= 0)

    @property
    def m_x(self) -> Subspace:
        """Layers with both p <= 0 and q <= 0; nilpotent cones land in p,q <= -1."""
        return self.span_where(lambda p, q: p <= 0 and q <= 0)


def lie_deligne_split(algebra: LieAlgebraBasis, structure: MixedHodge) -> LieSplit:
    """Decompose the symmetry algebra along the splitting of a mixed structure.

    The layer g^{p,q} consists of the X in g carrying each splitting piece
    I^{r,s} of V into I^{r+p, s+q}.  In the structure's splitting frame A
    (`structure.split().frame`), g is the symmetry algebra of A^T q A, and cell
    (k, l) shifts by g_k - g_l.  When each closed-form element has one shift,
    as under a polarization, the elements bucketed by shift are independent,
    sum to g and lie in their own layers, so each bucket spans its layer.
    Otherwise the layers are cut out of g by definition (`_cut_out_layers`).
    """
    if structure.ambient != algebra.ambient:
        raise ValueError("mixed structure and pairing have different dimensions")
    if structure.q is not None and structure.q != algebra.q:
        raise ValueError("mixed structure carries a different pairing")
    a, _, grades = frame = structure.split().frame
    shift = {(k, l): (pk - pl, qk - ql)
             for k, (pk, qk) in enumerate(grades) for l, (pl, ql) in enumerate(grades)}
    local = lie_algebra(a.transpose() * algebra.q * a).basis
    supports = [{shift[k, l] for k, (row, _) in enumerate(x.int_form()) for l, _, _ in row}
                for x in local]
    if any(len(shifts) > 1 for shifts in supports):
        return LieSplit(algebra, frame, _cut_out_layers(local, shift))
    layers = {}
    for (d,), x in zip(supports, local):
        layers.setdefault(d, []).append(x)
    return LieSplit(algebra, frame, layers)


def _flat(x: Mat, cells):
    """x's nonzero cells (k, l) as one int-form row over a common scale, each
    at its index in the dict `cells`, which takes in cells it lacks."""
    form = x.int_form()
    scale = lcm(*[d for _, d in form])
    return [(cells.setdefault((k, l), len(cells)), a * (scale // d), b * (scale // d))
            for k, (row, d) in enumerate(form) for l, a, b in row], scale


def _cut_out_layers(local, shift) -> dict:
    """Each layer as g intersected with the shift-d endomorphisms, in the frame:
    the combinations of the adapted basis whose cells off shift d vanish."""
    cells = {}
    flats = [_flat(x, cells) for x in local]
    coords = Mat._of_ints(flats, len(cells)).transpose().int_form()
    shifts = [shift[c] for c in cells]
    zero = Mat.zeros(local[0].nrows)
    layers = {}
    for d in sorted(set(shifts)):
        coeffs = kernel(Mat._of_ints([c for c, s in zip(coords, shifts) if s != d], len(local)))
        layers[d] = [sum((x * c for c, x in zip(row, local) if c), zero) for row in coeffs.basis]
    return layers


def hermitian_test(split: LieSplit):
    """Whether every layer of the splitting sits inside the unit box.

    Returns (verdict, detail).  A True verdict is additionally certified by
    checking that the F-transverse part commutes with the layers of total
    degree <= -2; a failure there indicates an inconsistent splitting and
    raises rather than returning.
    """
    bad = sorted(pq for pq in split.layers
                 if abs(pq[0]) > 1 or abs(pq[1]) > 1)
    if bad:
        p, q = bad[0]
        return False, f"layer ({p},{q}) lies outside the unit box"
    # conjugation by the frame keeps [x, y] = 0: the buckets stand in for the layers
    perp = [x for (p, q), xs in split.layers.items() if p < 0 for x in xs]
    deep = [y for (p, q), ys in split.layers.items() if p + q <= -2 for y in ys]
    for x in perp:
        for y in deep:
            if not commutator(x, y).is_zero():
                raise ArithmeticError(
                    "unit-box layers fail the deep commutation identity")
    return True, "all layers lie in the unit box"


def smoothness_test(split: LieSplit):
    """Whether the F-transverse part is confined to nonpositive total degree.

    Equivalent to the containment of s_f_perp in the stabilizer of W; the
    layer form of the test is exact because both sides are unions of layers.
    """
    bad = sorted(pq for pq in split.layers
                 if pq[0] < 0 and pq[0] + pq[1] > 0)
    if bad:
        p, q = bad[0]
        return False, f"F-transverse layer ({p},{q}) has positive total degree"
    return True, "the F-transverse part sits in nonpositive total degree"
