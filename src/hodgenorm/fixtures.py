"""Worked degenerations used by the test-suite and the command line.

Each builder returns exact data (pairing, filtrations, cone) constructed by
hand; the expected diamonds and marker levels recorded here were computed on
paper and are asserted against the engine in the tests.
"""

from __future__ import annotations

import functools
import random
from fractions import Fraction

from .exactlin import Mat, Subspace, qi, vec
from .filtrations import DecreasingFiltration, IncreasingFiltration, weight_filtration
from .induced import PureHodgeData, induce, induced_endomorphism, tate_normalize
from .lie import lie_algebra, lie_deligne_split
from .mhs import MixedHodge, NilpotentCone
from .orbit import orbit_spec


def elliptic():
    """Dimension-2 limiting structure of a one-parameter elliptic degeneration.

    N sends e0 to e1 and Q(e0, e1) = 1, which polarizes the structure.
    """
    n_op = Mat([[0, 0], [1, 0]])
    q = Mat([[0, 1], [-1, 0]])
    w = weight_filtration(n_op, center=1)
    f = DecreasingFiltration.from_generators(
        2, {1: [vec((1, 0))], 0: [vec((0, 1))]})
    structure = MixedHodge(1, w, f, q)
    return structure, NilpotentCone([n_op], q)


# -- random structures -------------------------------------------------------


def random_unimodular(rng: random.Random, n: int) -> Mat:
    """A random integer matrix of determinant ±1: the product of 3n row moves."""
    m = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    if n < 2:
        return Mat(m)
    for _ in range(3 * n):
        i, j = rng.sample(range(n), 2)
        c = rng.randint(-2, 2)
        m[i] = [a + c * b for a, b in zip(m[i], m[j])]
    return Mat(m)


def random_split_mixed_hodge(rng: random.Random, max_dim: int = 8) -> MixedHodge:
    """A random valid mixed structure: a split one moved by a real basis change.

    The diamond is conjugation-symmetric by construction; off-diagonal pieces
    are spanned by x ± iy over a real pair, so the real basis change preserves
    all the defining identities.
    """
    n = rng.randint(0, 4)
    diamond = {}
    total = 0
    for _ in range(rng.randint(1, 4)):
        p = rng.randint(0, n + 1)
        q = rng.randint(0, n + 1)
        d = rng.randint(1, 2)
        cost = d if p == q else 2 * d
        if total + cost > max_dim:
            continue
        key = (min(p, q), max(p, q))
        diamond[key] = diamond.get(key, 0) + d
        total += cost
    if not diamond:
        diamond[(0, 0)] = 1
        total = 1

    f_gens, w_gens = {}, {}
    idx = 0

    def push(level_f, level_w, vector):
        f_gens.setdefault(level_f, []).append(vector)
        w_gens.setdefault(level_w, []).append(vector)

    for (p, q), d in sorted(diamond.items()):
        for _ in range(d):
            if p == q:
                push(p, p + q, vec([1 if j == idx else 0 for j in range(total)]))
                idx += 1
            else:
                x = [1 if j == idx else 0 for j in range(total)]
                y = [1 if j == idx + 1 else 0 for j in range(total)]
                plus = vec([qi(a, b) for a, b in zip(x, y)])
                minus = vec([qi(a, -b) for a, b in zip(x, y)])
                push(q, p + q, plus)   # piece (q, p), says p-level q
                push(p, p + q, minus)  # conjugate piece (p, q)
                idx += 2
    g = random_unimodular(rng, total)
    f = DecreasingFiltration.from_generators(total, f_gens).apply(g)
    w = IncreasingFiltration.from_generators(total, w_gens).apply(g)
    return MixedHodge(n, w, f)


def defective_inputs():
    """Named constructors that must each be rejected with a ValueError."""

    def rational_f_line():
        w = IncreasingFiltration(2, {1: Subspace.full(2)})
        f = DecreasingFiltration.from_generators(
            2, {1: [vec((1, 0))], 0: [vec((0, 1))]})
        return MixedHodge(1, w, f).split()

    def overfull_f():
        w = IncreasingFiltration(2, {0: Subspace.full(2)})
        f = DecreasingFiltration.from_generators(
            2, {1: [vec((1, 0))], 0: [vec((0, 1))]})
        return MixedHodge(0, w, f).split()

    def mismatched_f_and_w():
        w = IncreasingFiltration.from_generators(
            2, {0: [vec((1, 0))], 2: [vec((0, 1))]})
        f = DecreasingFiltration.from_generators(
            2, {2: [vec((1, 1))], 0: [vec((1, 0))]})
        return MixedHodge(2, w, f).split()

    def non_commuting_cone():
        a = Mat([[0, 1, 0], [0, 0, 0], [0, 0, 0]])
        b = Mat([[0, 0, 0], [0, 0, 1], [0, 0, 0]])
        return NilpotentCone([a, b])

    def non_nilpotent_cone():
        return NilpotentCone([Mat.identity(2)])

    def non_skew_cone():
        return NilpotentCone([Mat([[0, 0], [1, 0]])], Mat.identity(2))

    def zero_generator():
        return NilpotentCone([Mat.zeros(2)])

    def wrong_pairing_symmetry():
        w = IncreasingFiltration(2, {1: Subspace.full(2)})
        f = DecreasingFiltration.from_generators(
            2, {1: [vec((qi(1), qi(0, 1)))], 0: [vec((0, 1))]})
        return MixedHodge(1, w, f, Mat.identity(2))  # weight 1 needs skew

    def degenerate_pairing():
        w = IncreasingFiltration(2, {0: Subspace.full(2)})
        f = DecreasingFiltration(2, {0: Subspace.full(2)})
        return MixedHodge(0, w, f, Mat.zeros(2))

    return {
        "rational-f-line": rational_f_line,
        "overfull-f": overfull_f,
        "mismatched-f-and-w": mismatched_f_and_w,
        "non-commuting-cone": non_commuting_cone,
        "non-nilpotent-cone": non_nilpotent_cone,
        "non-skew-cone": non_skew_cone,
        "zero-cone-generator": zero_generator,
        "wrong-pairing-symmetry": wrong_pairing_symmetry,
        "degenerate-pairing": degenerate_pairing,
    }


# -- direct-sum building blocks ------------------------------------------------
#
# The families below are assembled block by block.  Each block records its
# local pairing, its filtration generators by level, and (optionally) a local
# nilpotent map; _glue embeds everything in one space.  The expected splittings
# were worked out by hand per block, so any diamond asserted for a glued family
# is an independent computation, not a re-run of the engine.


def _degenerate_curve_block():
    """Rank-one weight-1 degeneration: N x = z, Q(x, z) = 1, F^1 = <x>.

    Limit splitting: x of type (1,1), z of type (0,0).
    """
    return {
        "dim": 2,
        "q": [[0, 1], [-1, 0]],
        "f": {1: [(1, 0)], 0: [(0, 1)]},
        "n": [[0, 0], [1, 0]],
    }


def _pure_curve_block():
    """Untouched weight-1 piece: F^1 = <u + iw>, Q(u, w) = 1.

    Types (1,0) and (0,1); stays pure in every limit.
    """
    return {
        "dim": 2,
        "q": [[0, 1], [-1, 0]],
        "f": {1: [(1, qi(0, 1))], 0: [(0, 1)]},
        "n": None,
    }


def _p20_block():
    """Pure weight-2 piece of types (2,0) and (0,2): F^2 = <p + iq>, Q = -id."""
    return {
        "dim": 2,
        "q": [[-1, 0], [0, -1]],
        "f": {2: [(1, qi(0, 1))], 0: [(1, 0)]},
        "n": None,
    }


def _p11_block(count):
    """`count` untouched (1,1) classes with Q = +id."""
    return {
        "dim": count,
        "q": [[int(i == j) for j in range(count)] for i in range(count)],
        "f": {1: [tuple(int(j == i) for j in range(count))
                  for i in range(count)]},
        "n": None,
    }


def _tii_block():
    """Weight-2 degeneration with two length-2 Jordan chains: N a = c, N b = d.

    Q(a, d) = 1, Q(b, c) = -1; F^2 = <a + ib>; F^1 also contains the
    conjugate line a - ib, so it is <a, b, c + id>, of dimension three.
    Limit types: (2,1) = a + ib, (1,2) = a - ib, (1,0) = c + id,
    (0,1) = c - id, sitting at levels 3, 3, 1, 1 of the weight filtration.
    """
    return {
        "dim": 4,
        "q": [[0, 0, 0, 1], [0, 0, -1, 0], [0, -1, 0, 0], [1, 0, 0, 0]],
        "f": {2: [(1, qi(0, 1), 0, 0)],
              1: [(0, 1, 0, 0), (0, 0, 1, qi(0, 1))],
              0: [(0, 0, 0, 1)]},
        "n": [[0, 0, 0, 0], [0, 0, 0, 0], [1, 0, 0, 0], [0, 1, 0, 0]],
    }


def _tiii_block():
    """Weight-2 degeneration with one length-3 Jordan chain x -> y -> z.

    Q(x, z) = 1, Q(y, y) = -1; F^2 = <x>, F^1 = <x, y>.  Limit types
    (2,2), (1,1), (0,0) at levels 4, 2, 0.
    """
    return {
        "dim": 3,
        "q": [[0, 0, 1], [0, -1, 0], [1, 0, 0]],
        "f": {2: [(1, 0, 0)], 1: [(0, 1, 0)], 0: [(0, 0, 1)]},
        "n": [[0, 0, 0], [1, 0, 0], [0, 1, 0]],
    }


def _embed(local, offset, ambient):
    out = [0] * ambient
    for i, value in enumerate(local):
        out[offset + i] = value
    return vec(out)


def _place(rows, block, offset):
    """Copy a square block into rows, its corner at (offset, offset)."""
    for i, block_row in enumerate(block):
        for j, value in enumerate(block_row):
            rows[offset + i][offset + j] = value


def _glue(blocks, weight, split_cone=False):
    """Direct-sum block data into one PureHodgeData of the given weight.

    With split_cone the blocks' nilpotent maps become separate cone
    generators; otherwise their sum is the single generator.  Blocks with
    no map contribute nothing to the cone, so an all-pure list yields an
    empty cone and a pure structure.
    """
    blocks = [b for b in blocks if b["dim"]]
    total = sum(b["dim"] for b in blocks)
    q_rows = [[0] * total for _ in range(total)]
    f_gens = {}
    pieces = []
    offset = 0
    for b in blocks:
        _place(q_rows, b["q"], offset)
        for lvl, vectors in b["f"].items():
            f_gens.setdefault(lvl, []).extend(
                _embed(v, offset, total) for v in vectors)
        if b["n"] is not None:
            n_rows = [[0] * total for _ in range(total)]
            _place(n_rows, b["n"], offset)
            pieces.append(Mat(n_rows))
        offset += b["dim"]
    q = Mat(q_rows)
    if split_cone:
        gens = pieces
    elif pieces:
        summed = pieces[0]
        for extra in pieces[1:]:
            summed = summed + extra
        gens = [summed]
    else:
        gens = []
    return PureHodgeData(
        weight, q, DecreasingFiltration.from_generators(total, f_gens),
        NilpotentCone(gens, q))


def weight_one(degenerate=1, split_cone=False):
    """Weight-1 polarized data on a six-dimensional space.

    `degenerate` of the three rank-2 pieces acquire a nilpotent map (0 to 3);
    the rest stay pure.  Limit diamond: (1,1) and (0,0) each of dimension
    `degenerate`, (1,0) and (0,1) each of dimension 3 - degenerate.  On
    H = Λ³V (weight 3, dimension 20) the top line sits at level
    3 + degenerate of the weight filtration.
    """
    if not 0 <= degenerate <= 3:
        raise ValueError("between zero and three degenerating pieces")
    blocks = [_degenerate_curve_block() for _ in range(degenerate)]
    blocks += [_pure_curve_block() for _ in range(3 - degenerate)]
    return _glue(blocks, 1, split_cone=split_cone)


def curve_pair():
    """Two degenerating rank-2 weight-1 pieces and nothing else.

    Dimension 4 with a two-generator cone; H = Λ²V has dimension 6,
    weight 2, and top-line level m = 4.
    """
    return _glue([_degenerate_curve_block(), _degenerate_curve_block()], 1,
                 split_cone=True)


# The six weight-2 families with a two-dimensional top filtration level,
# ordered by the level m = 4,5,6,6,7,8 of the induced top line on Λ²V.
_WEIGHT_TWO_RECIPES = (
    (_p20_block, _p20_block),
    (_p20_block, _tii_block),
    (_p20_block, _tiii_block),
    (_tii_block, _tii_block),
    (_tii_block, _tiii_block),
    (_tiii_block, _tiii_block),
)

# (1,1)-classes the two distinguished blocks already carry, per kind.
_WEIGHT_TWO_BUILTIN = (0, 2, 1, 4, 3, 2)


def weight_two_minimum_classes(kind):
    """Smallest legal `classes` argument for weight_two(kind)."""
    return max(2, _WEIGHT_TWO_BUILTIN[kind])


def weight_two(kind, classes=None, split_cone=False):
    """The weight-2 degenerations with two independent top-level lines.

    `kind` runs 0-5; `classes` is the total number of middle (1,1) classes
    of the generic fibre (defaults to the smallest value the kind allows).
    Kinds 3 and 4 consume 4 and 3 classes in their distinguished blocks, so
    they cannot be realized with only two classes; the smallest ambient
    dimensions are then 8 and 7 instead of 6.
    """
    if kind not in range(6):
        raise ValueError("kind must be 0..5")
    if classes is None:
        classes = weight_two_minimum_classes(kind)
    spare = classes - _WEIGHT_TWO_BUILTIN[kind]
    if spare < 0:
        raise ValueError(
            f"kind {kind} needs at least {_WEIGHT_TWO_BUILTIN[kind]} classes")
    blocks = [build() for build in _WEIGHT_TWO_RECIPES[kind]]
    blocks.append(_p11_block(spare))
    return _glue(blocks, 2, split_cone=split_cone)


# -- assembled orbit data -----------------------------------------------------
#
# Each builder returns a ready-to-evaluate OrbitSpec on the Λ-induced space of
# one of the structures above.  Twist amplitudes are kept small (1/4): the
# positivity of the stratum limit is an asymptotic statement, and a twist of
# order one can push the pairing into layers where the fixed marker Weil
# weight changes sign.


def curve():
    """The degenerate-curve data (dimension 2) in induced-structure form."""
    return _glue([_degenerate_curve_block()], 1)


def _induced_slots(v, exponents, wanted, scale=1):
    """dΛ-images of chosen Lie layer elements of the input structure."""
    split = lie_deligne_split(lie_algebra(v.q), v.structure())
    return [scale * induced_endomorphism(split.slot_matrices(p, q)[idx], exponents)
            for (p, q, idx) in wanted]


@functools.lru_cache(maxsize=None)
def orbit_elliptic():
    """One-generator orbit on the curve, twisted along N itself.

    Hand values: h-tilde, the stratum values, and the limit norm are all
    identically 1, and the frame is exp((ell + t_1) N) on the nose.
    """
    h = tate_normalize(induce(curve()))
    n_op = h.cone.generators[0]
    return orbit_spec(h, {(0,): {(0, 1): n_op}}, n_coords=2)


@functools.lru_cache(maxsize=None)
def orbit_weight_one(split_cone=False):
    """Λ³ weight-one orbit (dimension 20) with a marker-fixing twist.

    The twist layers cannot reach below the second marker's slot, so h-tilde
    is identically 1 while the twist still acts nontrivially on the frame.
    With `split_cone` two pieces degenerate separately, the cone has two
    generators, and the twist rides the deepest stratum only.
    """
    v = weight_one(2 if split_cone else 1, split_cone=split_cone)
    h = tate_normalize(induce(v))
    if split_cone:
        total = h.cone.element((1, 1))
        return orbit_spec(h, {(0, 1): {(0, 0, 1): total}}, n_coords=3)
    f_a, f_b = _induced_slots(v, h.factor_exponents,
                              [(-1, 0, 0), (-1, 0, 1)], scale=Fraction(1, 4))
    return orbit_spec(h, {(): {(1, 0): f_a}, (0,): {(0, 0): f_b}}, n_coords=2)


@functools.lru_cache(maxsize=None)
def orbit_pair():
    """Two-generator orbit on Λ² of the curve pair (dimension 6)."""
    h = tate_normalize(induce(curve_pair()))
    total = h.cone.element((1, 1))
    return orbit_spec(h, {(0, 1): {(0, 0, 1): total}}, n_coords=3)


@functools.lru_cache(maxsize=None)
def orbit_varying():
    """Λ² of the first weight-two family: the twist moves both markers.

    Quarter-amplitude layers: one that keeps the frame conjugation trivial
    would be too tame here, so the coordinate-free part uses a layer that
    does not commute with N (making the conjugated and plain twists differ),
    while the divisor part commutes as required.
    """
    v = weight_two(1)
    h = tate_normalize(induce(v))
    f_move, f_skew, f_deep = _induced_slots(
        v, h.factor_exponents, [(-1, 1, 0), (-1, 2, 0), (-2, 1, 0)],
        scale=Fraction(1, 4))
    return orbit_spec(
        h,
        {(): {(1, 0): f_skew}, (0,): {(0, 0): f_move, (0, 1): f_deep}},
        n_coords=2)


@functools.lru_cache(maxsize=None)
def orbit_hermitian():
    """Doubly-degenerate Λ³ orbit whose stratum value genuinely varies.

    The input Lie layers all sit in the unit box (the hermitian case), and
    the twist moves the second marker, so the deepest-stratum value is a
    non-constant positive function of the two transverse coordinates — it
    depends only on their sum, making (1, -1) a flat direction.
    """
    v = weight_one(2)
    h = tate_normalize(induce(v))
    (f_t,) = _induced_slots(v, h.factor_exponents, [(-1, 1, 0)],
                            scale=Fraction(1, 4))
    return orbit_spec(h, {(0,): {(0, 1, 0): f_t, (0, 0, 1): f_t}}, n_coords=3)
