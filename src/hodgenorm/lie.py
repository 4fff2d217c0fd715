"""Infinitesimal symmetries of a pairing and their bigraded layers.

For a nondegenerate pairing q on V with q^T = eps q, the matrices X with
X^T q + q X = 0 form a Lie algebra g.  X solves it exactly when S = q X
obeys S^T = -eps S, so g has one element for each seed (i, j), i < j, and
i = j too when eps = -1: X = q^{-1} S with S = E_ij - eps E_ji (S = E_ii
when i = j).  Its column j is column i of q^{-1}, its column i is -eps
times column j of q^{-1}, and its other columns vanish.
`LieAlgebraBasis.element` is that closed form, the only place it is
written.

A mixed structure on V makes g bigraded: g^{p,q} collects the elements
that shift every splitting piece of V by (p, q).  These layers are the
Deligne splitting of the mixed structure g inherits from End(V)
(Cattani-Kaplan-Schmid), so `LieSplit` is a `DeligneSplitting` whose pieces
live in End(V).  Two verdicts read off this decomposition drive everything
downstream — whether the layers stay inside the unit box |p|, |q| <= 1, and
whether the part of g transverse to the stabilizer of F is confined to
nonpositive total degree.

`lie_deligne_split` takes g in the splitting frame A of the structure,
which its `DeligneSplitting` owns, as the symmetry algebra of Q' = A^T q A.
Each seed's shifts are read off the grades of the supports of its two
columns of Q'^{-1}, with no matrix built.  Under a polarization, Q' pairs
I^{p,q} only with I^{n-p,n-q}, so every seed has one shift and bucketing
the seeds by shift gives the layers; otherwise each layer is cut out of g
by one kernel per shift.

All computations are exact.  A layer's matrices are built the first time
the layer is read, and the layers' spans in flattened endomorphism
coordinates (row-major, ambient dimension n^2) only when read.
"""

from dataclasses import dataclass
from functools import cached_property
from math import lcm

from .exactlin import Mat, Subspace, _triples, commutator, kernel
from .mhs import DeligneSplitting, MixedHodge


@dataclass(frozen=True)
class LieAlgebraBasis:
    """The symmetry algebra {X : X^T q + q X = 0} of a nondegenerate pairing
    q with q^T = eps q, one closed-form element per seed (i, j).  Its
    dimension is read off n and eps; q^{-1} is formed the first time a
    seed's columns are read, and an element only when it is asked for."""

    q: Mat
    eps: int

    @property
    def ambient(self):
        return self.q.nrows

    @property
    def dim(self):
        return self.ambient * (self.ambient - self.eps) // 2

    @property
    def seeds(self) -> list:
        """The seeds (i, j), i < j, and i = j too when eps = -1, in order."""
        n = self.ambient
        return [(i, j) for i in range(n) for j in range(i + (self.eps == 1), n)]

    @cached_property
    def columns(self) -> tuple:
        """The columns of q^{-1} in int form, as the rows of its transpose."""
        return self.q.inverse().transpose().int_form()

    def element(self, seed) -> Mat:
        """The closed-form element q^{-1} S of the seed (i, j), S = E_ij - eps E_ji.

        Its column j is column i of q^{-1} and its column i is -eps times
        column j of q^{-1}; when i = j it has column i alone.  The columns
        are placed as rows of its transpose.
        """
        i, j = seed
        col_j, e = self.columns[j]
        rows = [([], 1)] * self.ambient
        rows[i] = ([(k, -self.eps * a, -self.eps * b) for k, a, b in col_j], e)
        rows[j] = self.columns[i]
        return Mat._of_ints(rows, self.ambient).transpose()

    def column_shifts(self, x, grades) -> dict:
        """{l: the shifts of the cells in column l} of the element x, where
        cell (k, l) shifts grades[l] to grades[k].

        A seed (i, j) reads them off the supports of columns j and i of
        q^{-1}, which fill its columns i and j, with no matrix built; a
        built element reads its own columns.
        """
        if isinstance(x, Mat):
            columns = dict(enumerate(col for col, _ in x.transpose().int_form()))
        else:
            i, j = x
            columns = {i: self.columns[j][0], j: self.columns[i][0]}
        return {l: {(grades[k][0] - grades[l][0], grades[k][1] - grades[l][1])
                    for k, _, _ in col} for l, col in columns.items()}


def lie_algebra(q: Mat) -> LieAlgebraBasis:
    """The symmetry algebra of q, once q is checked square, nondegenerate and
    symmetric or antisymmetric; its elements are built when first read."""
    if q.nrows != q.ncols:
        raise ValueError("pairing must be square")
    if not q.det():
        raise ValueError("pairing is degenerate")
    eps = 1 if q.transpose() == q else -1
    if q.transpose() != q * eps:
        raise ValueError("pairing must be symmetric or antisymmetric")
    return LieAlgebraBasis(q, eps)


class LieSplit(DeligneSplitting):
    """The layers g^{p,q}: the Deligne splitting of g inside End(V).

    `local` is g in the splitting frame of V, (A, A^{-1}, grades): the
    symmetry algebra of Q' = A^T q A, whose element X stands for A X A^{-1}.
    Each layer is kept as its seeds in `local`; the cut-out route keeps
    built elements of Q' instead.  The diamond counts them.  The frame is
    not built here: it is the one V's `DeligneSplitting` owns, held in the
    inherited `frame` slot.  A layer's frame matrices are built the first
    time the layer is read and kept in `built`; its span in flattened
    End(V) (`ambient` n^2) is built when `pieces` is first read.
    """

    # `pieces` is filled by `__getattr__` when read unset
    __slots__ = ("local", "layers", "built")

    def __init__(self, frame, local: LieAlgebraBasis, layers):
        self.ambient = local.ambient ** 2
        self.frame = frame
        self.local = local
        self.layers = {pq: tuple(xs) for pq, xs in sorted(layers.items()) if xs}
        self.built = {}

    def __getattr__(self, name):
        # only an unset `pieces` slot gets here: span each layer in End(V)
        if name != "pieces":
            raise AttributeError(name)
        a, a_inv, _ = self.frame
        n = self.local.ambient
        row_major = {(k, l): k * n + l for k in range(n) for l in range(n)}
        self.pieces = {pq: Subspace._span(n * n, [_flat(a * x * a_inv, row_major)
                                                  for x in self.matrices(*pq)])
                       for pq in self.layers}
        return self.pieces

    def diamond(self):
        return {pq: len(xs) for pq, xs in self.layers.items()}

    def matrices(self, p, q) -> tuple:
        """The frame matrices of the elements of g^{p,q}: each seed's closed
        form, built the first time the layer is read and kept in `built`,
        or the built elements of the cut-out route as they are."""
        if (p, q) not in self.built:
            self.built[p, q] = tuple(x if isinstance(x, Mat) else self.local.element(x)
                                     for x in self.layers.get((p, q), ()))
        return self.built[p, q]

    def slot_matrices(self, p, q):
        """The echelon basis of g^{p,q} in End(V), as matrices."""
        n = self.local.ambient
        return [Mat._of_ints([(_triples(re[k * n:k * n + n], im[k * n:k * n + n]), re[j])
                              for k in range(n)], n)
                for j, re, im in self.piece(p, q).int_rows]

    def in_layer(self, p, q, x: Mat) -> bool:
        """Whether the endomorphism x of V lies in g^{p,q}: whether A^{-1} x A
        adds to the rank of the layer's independent elements."""
        a, a_inv, _ = self.frame
        cells = {}
        rows = [_flat(y, cells) for y in self.matrices(p, q) + (a_inv * x * a,)]
        return Subspace._span(len(cells), rows).dim < len(rows)


def lie_deligne_split(algebra: LieAlgebraBasis, structure: MixedHodge) -> LieSplit:
    """Decompose the symmetry algebra along the splitting of a mixed structure.

    The layer g^{p,q} consists of the X in g carrying each splitting piece
    I^{r,s} of V into I^{r+p, s+q}.  In the structure's splitting frame A
    (`structure.split().frame`), g is the symmetry algebra of Q' = A^T q A,
    and cell (k, l) shifts by g_k - g_l.  Each seed's shifts are read off
    the grades of its two columns' supports in Q'^{-1}.  When each seed has
    one shift, as under a polarization, the seeds bucketed by shift give
    independent elements that sum to g and lie in their own layers, so each
    bucket spans its layer.  Otherwise the layers are cut out of g by
    definition (`_cut_out_layers`), from the seeds' built elements.
    """
    if structure.ambient != algebra.ambient:
        raise ValueError("mixed structure and pairing have different dimensions")
    if structure.q is not None and structure.q != algebra.q:
        raise ValueError("mixed structure carries a different pairing")
    a, _, grades = frame = structure.split().frame
    local = LieAlgebraBasis(a.transpose() * algebra.q * a, algebra.eps)
    buckets = {}
    for seed in local.seeds:
        shifts = frozenset().union(*local.column_shifts(seed, grades).values())
        buckets.setdefault(shifts, []).append(seed)
    if any(len(d) > 1 for d in buckets):
        elements = [local.element(seed) for seed in local.seeds]
        return LieSplit(frame, local, _cut_out_layers(elements, grades))
    return LieSplit(frame, local, {d: seeds for (d,), seeds in buckets.items()})


def _flat(x: Mat, cells):
    """x's nonzero cells (k, l) as one int-form row over a common scale, each
    at its index in the dict `cells`, which takes in cells it lacks."""
    form = x.int_form()
    scale = lcm(*[d for _, d in form])
    return [(cells.setdefault((k, l), len(cells)), a * (scale // d), b * (scale // d))
            for k, (row, d) in enumerate(form) for l, a, b in row], scale


def _cut_out_layers(elements, grades) -> dict:
    """Each layer as g intersected with the shift-d endomorphisms, in the frame:
    the combinations of the elements whose cells off shift d vanish, where
    cell (k, l) shifts grades[l] to grades[k]."""
    cells = {}
    flats = [_flat(x, cells) for x in elements]
    coords = Mat._of_ints(flats, len(cells)).transpose().int_form()
    shifts = [(grades[k][0] - grades[l][0], grades[k][1] - grades[l][1]) for k, l in cells]
    zero = Mat.zeros(len(grades))
    layers = {}
    for d in sorted(set(shifts)):
        coeffs = kernel(Mat._of_ints([c for c, s in zip(coords, shifts) if s != d], len(elements)))
        layers[d] = [sum((x * c for c, x in zip(row, elements) if c), zero) for row in coeffs.basis]
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
    # conjugation by the frame keeps [x, y] = 0: the frame matrices stand in
    # for the layers; only these are built
    perp = [x for p, q in split.layers if p < 0 for x in split.matrices(p, q)]
    deep = [y for p, q in split.layers if p + q <= -2 for y in split.matrices(p, q)]
    for x in perp:
        for y in deep:
            if not commutator(x, y).is_zero():
                raise ArithmeticError(
                    "unit-box layers fail the deep commutation identity")
    return True, "all layers lie in the unit box"


def smoothness_test(split: LieSplit):
    """Whether the F-transverse part is confined to nonpositive total degree.

    Equivalent to the span of the layers with p < 0 lying inside the span
    of the layers with p + q <= 0, the stabilizer of W; the layer form of
    the test is exact because both sides are unions of layers.
    """
    bad = sorted(pq for pq in split.layers
                 if pq[0] < 0 and pq[0] + pq[1] > 0)
    if bad:
        p, q = bad[0]
        return False, f"F-transverse layer ({p},{q}) has positive total degree"
    return True, "the F-transverse part sits in nonpositive total degree"
