"""Gram products against the tuple formulations they replaced.

Every pairing in the exact core is a Gram product B·q·Cᵀ (or B·q·conj(C)ᵀ)
of `Mat`s: the isotropy test of a filtration, the primitive forms of the
polarization check, the anti-diagonal adapted basis and its Gram-Schmidt,
the marker pairing, and the frame's triangularity read off A⁻¹·η·A − I.
The first formulations ran on a vector algebra over `GaussianRational`
tuples, one `dot` per pair of basis vectors.  That algebra and those
formulations are kept here as references, and each rewritten caller is
compared with its reference, verdicts, witnesses and messages included, on
the shipped fixtures, the fixture families, moved copies of them and the
loadable fuzz mutations of elliptic and pair.  `Mat.inverse` is compared
with the `rref` route it replaced, and the int-form parser with the
entrywise one.
"""

import dataclasses
import functools
import json
import random
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from hodgenorm import cli, fixtures, orbit
from hodgenorm.cli import load_fixture, parse_fixture
from hodgenorm.exactlin import (
    GaussianRational,
    Mat,
    ONE,
    Subspace,
    ZERO,
    gauss_sqrt,
    hermitian_positive_definite,
    kernel,
    qi,
    rref,
)
from hodgenorm.filtrations import (
    DecreasingFiltration,
    IncreasingFiltration,
    level,
    weight_filtration,
)
from hodgenorm.induced import Markers, induce, locate_markers, tate_normalize
from hodgenorm.mhs import (
    FixtureError,
    MixedHodge,
    cone_compatibility,
    i_power,
    polarization_check,
)
from hodgenorm.orbit import (
    AdaptedBasis,
    adapted_basis,
    eval_frame,
    orbit_spec,
    triangularity_check,
)

from test_cli import DATA, FUZZ_DOCS, FUZZ_SITES, FUZZ_VALUES, LOADS, SHIPPED, _mutated

# -- the tuple vector algebra, kept as the reference ------------------------------


def vec_add(u, v):
    return tuple(a + b if b else a for a, b in zip(u, v, strict=True))


def vec_sub(u, v):
    return tuple(a - b if b else a for a, b in zip(u, v, strict=True))


def vec_scale(c, v):
    return tuple(c * x if x else x for x in v)


def vec_conj(v):
    return tuple(x.conjugate() for x in v)


def dot(u, v):
    assert len(u) == len(v)
    return sum((a * b for a, b in zip(u, v) if a and b), ZERO)


def form_value(q, u, v):
    return dot(u, q.apply(v))


def from_cols(cols):
    """The matrix with the given columns."""
    return Mat(cols).transpose()


def ref_inverse(a):
    """[A | I] reduced by `rref`, A^-1 read off the right half."""
    n = a.nrows
    aug = [list(r) + [ONE if j == i else ZERO for j in range(n)] for i, r in enumerate(a.rows)]
    red, pivots = rref(aug)
    if len(pivots) < n or any(p >= n for p in pivots[:n]):
        raise ValueError("matrix is singular")
    return Mat([r[n:] for r in red])


def ref_isotropy(filtration, q, bound):
    """One `dot` per pair of basis vectors, the first nonzero one the witness."""
    s = filtration._sign
    jumps = filtration.jump_levels
    for a in jumps:
        partners = [b for b in jumps if s * (a + b) < s * bound]
        if not partners:
            continue
        b = max(partners, key=lambda m: s * m)
        right = filtration.at(b).basis
        q_right = [q.apply(v) for v in right]
        for u in filtration.at(a).basis:
            for v, qv in zip(right, q_right):
                if dot(u, qv):
                    return False, (a, b, u, v)
    return True, None


def ref_polarization_check(structure, cone):
    """polarization_check with its primitive forms built entry by entry."""
    if structure.q is None:
        return False, "no pairing to polarize"
    try:
        split = structure.split()
    except ValueError as err:
        return False, str(err)
    n = structure.n
    ok, witness = ref_isotropy(structure.f, structure.q, n)
    if not ok:
        a, b, _, _ = witness
        return False, f"pairing does not vanish on F^{a} x F^{b}"
    if cone is not None and len(cone):
        k = len(cone)
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
    for (p, q), sub in split.pieces.items():
        l = p + q - n
        if l < 0:
            continue
        for j in range(1, l + 2):
            powers.setdefault(j, powers[j - 1] * n_int)
        prim = sub.intersect(kernel(powers[l + 1]))
        if not prim.dim:
            continue
        sign = i_power(p - q)
        basis = prim.basis
        q_moved = [structure.q.apply(powers[l].apply(vec_conj(v))) for v in basis]
        gram = Mat([[sign * dot(u, qm) for qm in q_moved] for u in basis])
        try:
            if not hermitian_positive_definite(gram):
                return False, f"primitive form on ({p},{q}) is not positive"
        except (ValueError, ArithmeticError):
            return False, f"primitive form on ({p},{q}) is not Hermitian"
    return True, None


def ref_symmetric_diagonal_basis(q, vectors):
    gram = lambda u, v: form_value(q, u, v)
    work = list(vectors)
    out = []
    while work:
        v = next((x for x in work if gram(x, x)), None)
        if v is None:
            u = work[0]
            partner = next((x for x in work[1:] if gram(u, x)), None)
            if partner is None:
                raise FixtureError("f", "no compatible basis: the middle layer pairing degenerates")
            v = vec_add(u, partner)
        d = gram(v, v)
        out.append(v)
        rest = [y for x in work for y in [vec_sub(x, vec_scale(gram(v, x) / d, v))] if any(y)]
        work = list(Subspace(len(v), rest).basis) if rest else []
    return out


def ref_middle_block_basis(q, vectors):
    diag = ref_symmetric_diagonal_basis(q, vectors)
    pivots = [form_value(q, v, v) for v in diag]
    k = len(diag)
    unmatched = list(range(k))
    center = None
    if k % 2:
        for idx in unmatched:
            root = gauss_sqrt(pivots[idx])
            if root is not None:
                center = vec_scale(ONE / root, diag[idx])
                unmatched.remove(idx)
                break
        if center is None:
            raise FixtureError(
                "f", "no compatible basis: no middle-layer pivot has a Gaussian-rational "
                     "square root")
    pairs = []
    while unmatched:
        a = unmatched.pop(0)
        fold = next(((b, c) for b in unmatched
                     for c in [gauss_sqrt(-pivots[a] / pivots[b])] if c is not None), None)
        if fold is None:
            raise FixtureError(
                "f", "no compatible basis: middle-layer pivots do not fold into hyperbolic pairs "
                     "over the Gaussian rationals")
        b, c = fold
        unmatched.remove(b)
        u = vec_add(diag[a], vec_scale(c, diag[b]))
        w = vec_scale(ONE / (pivots[a] + pivots[a]), vec_sub(diag[a], vec_scale(c, diag[b])))
        pairs.append((u, w))
    out = [None] * k
    for j, (u, w) in enumerate(pairs):
        out[j] = u
        out[k - 1 - j] = w
    if center is not None:
        out[k // 2] = center
    return out


def ref_dual_pair_normalize(q, kept, replaced):
    k = len(kept)
    gram = Mat([[form_value(q, a, b) for b in replaced] for a in kept])
    try:
        correction = ref_inverse(gram)
    except ValueError:
        raise FixtureError(
            "f", "no compatible basis: the pairing degenerates between dual layers") from None
    anti = Mat([[ONE if i + j == k - 1 else ZERO for j in range(k)] for i in range(k)])
    return ((correction * anti).transpose() * Mat(replaced)).rows


def ref_adapted_basis(structure):
    """adapted_basis with every pairing a `form_value`."""
    n, q = structure.n, structure.q
    jumps = structure.w.jump_levels
    if not jumps or jumps[0] + jumps[-1] != 2 * n:
        raise FixtureError(
            "w", f"no compatible basis: weight levels are not symmetric about {n}")
    pieces = dict(structure.split().pieces)
    if not ref_isotropy(structure.f, q, n)[0]:
        raise FixtureError(
            "f", "no compatible basis: the pairing does not vanish on opposite filtration levels")
    blocks = sorted(pieces, key=lambda pq: (-pq[0], -pq[1]))
    for p, qq in blocks:
        anti = (n - p, n - qq)
        if anti not in pieces or pieces[anti].dim != pieces[(p, qq)].dim:
            raise FixtureError("f", "no compatible basis: splitting layers are not dually paired")
    vectors = {pq: list(pieces[pq].basis) for pq in blocks}
    for i, bi in enumerate(blocks):
        for bj in blocks[i:]:
            if (bi[0] + bj[0], bi[1] + bj[1]) == (n, n):
                continue
            if any(form_value(q, u, v) for u in vectors[bi] for v in vectors[bj]):
                raise FixtureError(
                    "f", "no compatible basis: the pairing links non-dual splitting layers")
    for i, bi in enumerate(blocks):
        anti = (n - bi[0], n - bi[1])
        if bi == anti:
            vectors[bi] = ref_middle_block_basis(q, vectors[bi])
        elif blocks.index(anti) > i:
            vectors[anti] = ref_dual_pair_normalize(q, vectors[bi], vectors[anti])
    columns, bigrades = [], []
    for b in blocks:
        columns.extend(vectors[b])
        bigrades.extend([b] * len(vectors[b]))
    d = len(columns) - 1
    for i in range(d // 2 + 1):
        for j in range(d + 1):
            if form_value(q, columns[i], columns[j]) != (ONE if i + j == d else ZERO):
                raise ArithmeticError("adapted pairing normalization failed")
    mat = from_cols(columns)
    return AdaptedBasis(mat=mat, inv=ref_inverse(mat), bigrades=tuple(bigrades), n=n)


def ref_locate_markers(ind):
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
    s = form_value(ind.q, e0, vec_conj(einf))
    if not s:
        raise FixtureError("f", "the top and opposite lines do not pair")
    ed = vec_scale(ONE / s, vec_conj(einf))
    return Markers(n=n, m=m, e0=e0, einf=einf, ed=ed, lam=(ONE / s).conjugate())


def ref_triangularity_check(frame):
    """One coordinate vector inv·(η·e_j − e_j) per basis column."""
    basis = frame.spec.basis
    for j in range(basis.dim):
        col = basis.column(j)
        delta = vec_sub(frame.eta.apply(col), col)
        if not any(delta):
            continue
        p_j = basis.bigrades[j][0]
        for i, c in enumerate(basis.inv.apply(delta)):
            if c and basis.bigrades[i][0] >= p_j:
                return False, (f"frame vector {j} leaks into grade {basis.bigrades[i]}"
                               f" at or above its own grade {basis.bigrades[j]}")
    return True, "frame is unitriangular across the filtration grading"


def ref_matrix(node):
    """The entrywise parser: a `GaussianRational` for every entry."""
    def scalar(x):
        return GaussianRational(Fraction(x[0]), Fraction(x[1])) if isinstance(x, list) \
            else GaussianRational(Fraction(x))
    return Mat([[scalar(x) for x in row] for row in node])


def ref_levels(node, dim, cls):
    return cls.from_generators(dim, {int(key): [ref_matrix([v]).rows[0] for v in vectors]
                                     for key, vectors in node.items()})


# -- the cases -----------------------------------------------------------------------


def _outcome(call, *args):
    try:
        return call(*args)
    except (ValueError, ArithmeticError) as exc:
        return type(exc), str(exc)


@functools.cache
def mutated_documents():
    """The loadable fuzz mutations of elliptic and pair, one per distinct
    document, without their marker expectations, which only refuse more."""
    bare = {name: {key: node for key, node in doc.items() if key != "markers"}
            for name, doc in FUZZ_DOCS.items()}
    mutations = [("drop", None), ("add", None), ("flip", None)]
    mutations += [("swap", value) for value in FUZZ_VALUES]
    docs = {}
    for name, path in FUZZ_SITES:
        if path[:1] == ("markers",):
            continue
        for kind, value in mutations:
            doc = _mutated(bare[name], path, kind, value)
            try:
                fixture = parse_fixture(doc)
            except (ValueError, ArithmeticError):
                continue
            key = json.dumps(cli.fixture_document(fixture.data, fixture.zeta, fixture.n_coords))
            docs.setdefault(key, (doc, fixture))
    return list(docs.values())


@functools.cache
def structures():
    """(label, PureHodgeData, zeta or None, n_coords) for every case."""
    out = [(name, fx.data, fx.zeta, fx.n_coords)
           for name in SHIPPED for fx in [load_fixture(DATA / name)]]
    plain = [fixtures.weight_one(a) for a in range(4)]
    plain += [fixtures.weight_two(k) for k in range(6)]
    plain += [fixtures.weight_one(2, split_cone=True), fixtures.curve_pair(), fixtures.curve()]
    out += [(f"family {j}", v, None, None) for j, v in enumerate(plain)]
    out += [(f"induced {j}", tate_normalize(induce(v)), None, None)
            for j, v in enumerate((fixtures.curve(), fixtures.curve_pair()))]
    for j, v in enumerate(plain):
        g = fixtures.random_unimodular(random.Random(f"gram:{j}"), v.dim)
        out.append((f"moved {j}", LOADS.moved(v, g), None, None))
    out += [(f"mutation {j}", fx.data, fx.zeta, fx.n_coords)
            for j, (_, fx) in enumerate(mutated_documents())]
    return out


def _random_pairing(rng, n):
    """A Gaussian matrix with a few nonzero entries, which pairs most spaces."""
    rows = [[ZERO] * n for _ in range(n)]
    for _ in range(max(2, n // 2)):
        rows[rng.randrange(n)][rng.randrange(n)] = qi(rng.randint(-3, 3), rng.randint(-1, 1))
    return Mat(rows)


def test_the_cases_cover_every_source():
    labels = {label.split()[0] for label, *_ in structures()}
    assert labels >= {"family", "moved", "mutation"}
    assert len(mutated_documents()) >= 50


def test_isotropy_matches_the_dot_loop_witness_for_witness():
    failures = 0
    rng = random.Random("isotropy")
    for label, data, _, _ in structures():
        st_ = _outcome(data.structure)
        if isinstance(st_, tuple):
            continue
        n, q = st_.n, st_.q
        filtrations = [(st_.f, n), (st_.w, 2 * n)]
        filtrations += [(weight_filtration(g, center=n), 2 * n) for g in data.cone.generators]
        for filtration, bound in filtrations:
            for pairing in (q, _random_pairing(rng, q.nrows)):
                got = filtration.isotropy(pairing, bound)
                assert got == ref_isotropy(filtration, pairing, bound), label
                assert repr(got) == repr(ref_isotropy(filtration, pairing, bound)), label
                failures += not got[0]
    assert failures >= 100


def test_polarization_check_matches_the_entrywise_gram():
    verdicts = set()
    for label, data, _, _ in structures():
        st_ = _outcome(data.structure)
        if isinstance(st_, tuple):
            continue
        got = _outcome(polarization_check, st_, data.cone)
        assert got == _outcome(ref_polarization_check, st_, data.cone), label
        verdicts.add(got[0])
    assert verdicts == {True, False}


def test_adapted_basis_matches_the_tuple_gram_schmidt():
    built = 0
    for label, data, _, _ in structures():
        st_ = _outcome(data.structure)
        if isinstance(st_, tuple):
            continue
        got = _outcome(adapted_basis, st_)
        want = _outcome(ref_adapted_basis, st_)
        if isinstance(want, AdaptedBasis):
            assert isinstance(got, AdaptedBasis), (label, got)
            assert (got.mat, got.inv, got.bigrades, got.n) == \
                (want.mat, want.inv, want.bigrades, want.n), label
            assert got.mat.int_form() == want.mat.int_form(), label
            assert got.inv.int_form() == want.inv.int_form(), label
            built += 1
        else:
            assert got == want, label
    assert built >= 30


def pure_weight_zero(q):
    """The whole space as the (0,0) layer, so adapted_basis normalizes q itself."""
    n = q.nrows
    full = Subspace.full(n)
    return MixedHodge(0, IncreasingFiltration(n, {0: full}), DecreasingFiltration(n, {0: full}), q)


def test_middle_layer_normalization_matches_on_symmetric_pairings():
    # hyperbolic planes, whose first vector is isotropic, lone and folding
    # pivots, pivots with no root, and dense symmetric pairings
    pairings = [[[0, 1], [1, 0]], [[0, 2], [2, 0]], [[0, 1, 0], [1, 0, 0], [0, 0, -1]],
                [[0, 0, 1], [0, 1, 0], [1, 0, 0]],
                [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]],
                [[2, 0], [0, -2]], [[-1]], [[2]], [[1, 0, 0], [0, 1, 0], [0, 0, 2]],
                [[qi(0, 1), 1], [1, 0]]]
    rng = random.Random("middle layer")
    for _ in range(30):
        n = rng.randint(1, 5)
        a = [[qi(rng.randint(-2, 2), rng.randint(-1, 1)) for _ in range(n)] for _ in range(n)]
        pairings.append([[a[i][j] + a[j][i] for j in range(n)] for i in range(n)])
    outcomes = set()
    for rows in pairings:
        q = Mat(rows)
        if not q.det():
            continue
        st_ = pure_weight_zero(q)
        basis = Subspace.full(q.nrows).basis
        diag = _outcome(orbit._symmetric_diagonal_basis, q, Mat(basis))
        want = _outcome(ref_symmetric_diagonal_basis, q, basis)
        assert (diag.rows if isinstance(diag, Mat) else diag) == tuple(want), rows
        got, want = _outcome(adapted_basis, st_), _outcome(ref_adapted_basis, st_)
        if isinstance(want, AdaptedBasis):
            assert (got.mat, got.inv, got.bigrades) == (want.mat, want.inv, want.bigrades), rows
            outcomes.add("built")
        else:
            assert got == want, rows
            outcomes.add(want[1])
    assert len(outcomes) >= 3


def test_markers_match_the_tuple_pairing():
    found = 0
    for label, data, _, _ in structures():
        got = _outcome(locate_markers, data)
        assert got == _outcome(ref_locate_markers, data), label
        found += isinstance(got, Markers)
    assert found >= 20


def _orbit_cases():
    for label, data, zeta, n_coords in structures():
        if zeta is not None:
            spec = _outcome(orbit_spec, data, zeta, n_coords)
            if not isinstance(spec, tuple):
                yield label, spec
    for build in (fixtures.orbit_elliptic, fixtures.orbit_pair, fixtures.orbit_varying,
                  fixtures.orbit_hermitian, fixtures.orbit_weight_one):
        yield build.__name__, build()


def test_triangularity_check_matches_the_column_loop():
    details = set()
    rng = random.Random("triangularity")
    for label, spec in _orbit_cases():
        for t, ell in cli._deterministic_points(spec):
            frame = eval_frame(spec, t, ell)
            d = spec.dim
            # the frame itself, and frames whose eta leaks upward
            etas = [frame.eta, frame.eta.transpose(),
                    frame.eta * fixtures.random_unimodular(rng, d)]
            for eta in etas:
                moved = dataclasses.replace(frame, eta=eta)
                got = triangularity_check(moved)
                assert got == ref_triangularity_check(moved), label
                details.add(got[1])
    assert len(details) >= 10


# -- Mat.inverse against the rref route --------------------------------------------


gaussian = st.builds(lambda a, b, d: GaussianRational(Fraction(a, d), Fraction(b, d)),
                     st.integers(-9, 9), st.integers(-9, 9), st.integers(1, 6))
entries = st.one_of(st.just(ZERO), st.just(ZERO), gaussian)


@st.composite
def square_matrices(draw):
    n = draw(st.integers(1, 6))
    rows = [draw(st.lists(entries, min_size=n, max_size=n)) for _ in range(n)]
    if n > 1 and draw(st.booleans()):
        # the last row a combination of the first and the one before it
        c = draw(gaussian)
        rows[-1] = [c * x + (y if n > 2 else ZERO) for x, y in zip(rows[0], rows[-2])]
    return Mat(rows)


@settings(max_examples=300, deadline=None)
@given(square_matrices())
def test_inverse_matches_the_rref_route(a):
    got, want = _outcome(a.inverse), _outcome(ref_inverse, a)
    assert got == want
    if isinstance(want, Mat):
        assert got.int_form() == want.int_form()
        assert a * got == Mat.identity(a.nrows)


# -- the int-form parser against the entrywise one -------------------------------------


def test_parsed_matrices_and_filtrations_match_the_entrywise_parser():
    docs = [json.loads((DATA / name).read_text()) for name in SHIPPED]
    docs += [doc for doc, _ in mutated_documents()]
    for doc in docs:
        fx = parse_fixture(doc)
        data = fx.data
        pairs = [(data.q, ref_matrix(doc["q"]))]
        pairs += list(zip(data.cone.generators, map(ref_matrix, doc["cone"]), strict=True))
        for key, terms in doc.get("zeta", {}).items():
            idx = frozenset(int(s) for s in key.split(",")) if key else frozenset()
            pairs += [(fx.zeta[idx][tuple(term["powers"])], ref_matrix(term["matrix"]))
                      for term in terms]
        for got, want in pairs:
            assert got == want
            assert got.int_form() == want.int_form()
            assert got.rows == want.rows
        assert data.f == ref_levels(doc["f"], doc["dim"], DecreasingFiltration)
        if "w" in doc:
            assert data.w == ref_levels(doc["w"], doc["dim"], IncreasingFiltration)
