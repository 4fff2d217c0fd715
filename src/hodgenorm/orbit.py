"""Frames along a degenerating family and the extended norm of its top line.

A polydisc carries coordinates t = (t_0, ..., t_{r-1}); the family
degenerates along the divisor t_0 ... t_{k-1} = 0, and each divisor
coordinate contributes a nilpotent generator N_j.  The multivalued frame is

    eta(t) = theta(t) * zeta(t),          theta(t) = exp(sum_j ell_j N_j),
    log zeta(t) = sum_I that_I * f_I(t),  that_I = prod_{j < k, j not in I} t_j,

where ell_j stands for log(t_j)/(2*pi*i) on a chosen branch and each twist
coefficient f_I is a polynomial map into the pairing's infinitesimal
symmetries, strictly lowering the filtration grading and commuting with N_j
for every j in I.  The norm of the marked line extends continuously to the
divisor; at an interior point it reads

    h(t) = Re Q(eta.e0, conj(lam * eta.einf)).

Each evaluation formula is written once here, over a number kit: the exact
kit of this module (Gaussian rationals; exponentials of nilpotents are
finite sums) or the probe module's float kit, which runs the same formulas
in double precision for numeric sweeps.  The exact entry points take
ell-values explicitly, so no multivalued log is ever taken silently.
"""

from dataclasses import dataclass
from fractions import Fraction

from .exactlin import (
    Mat,
    ONE,
    Subspace,
    GaussianRational,
    _coerce,
    commutator,
    gauss_sqrt,
    nilpotent_exp,
)
from .filtrations import level, weight_filtration
from .induced import Markers, PureHodgeData
from .mhs import (
    FixtureError,
    MixedHodge,
    NilpotentCone,
    i_power,
    is_infinitesimal_isometry,
    polarization_check,
)


# -- adapted bases -----------------------------------------------------------


@dataclass(frozen=True)
class AdaptedBasis:
    """A basis e_0..e_d adapted to (F, W, Q) all at once.

    Every F^p is spanned by an initial segment of the columns, every W_l by a
    subset, each column has a pure bigrade, and the pairing is anti-diagonal:
    Q(e_i, e_j) = 1 exactly when i + j = d (checked for i <= d/2), else 0.
    """

    mat: Mat
    inv: Mat
    bigrades: tuple
    n: int

    @property
    def dim(self):
        return self.mat.ncols

    @property
    def top(self):
        return self.mat.ncols - 1

    def column(self, j):
        return self.mat.col(j)


def _symmetric_diagonal_basis(q, vectors: Mat) -> Mat:
    """Congruence-diagonalize a symmetric pairing on the span of the rows.

    Each step takes the first row v with Q(v, v) != 0 (else the first row
    plus its first partner), projects every row off v by one product for
    the coefficients Q(v, x) / Q(v, v) and a rank-one update, and goes on
    with the echelon basis of what is left.
    """
    width = vectors.ncols
    work = vectors
    out = []
    while work.nrows:
        k = work.nrows
        gram = work * q * work.transpose()
        pick = next((i for i in range(k) if gram[i, i]), None)
        if pick is not None:
            units = [(pick, 1, 0)]
        else:
            partner = next((j for j in range(1, k) if gram[0, j]), None)
            if partner is None:
                raise FixtureError("f", "no compatible basis: the middle layer pairing degenerates")
            units = [(0, 1, 0), (partner, 1, 0)]
        select = Mat._of_ints([(units, 1)], k)
        v = select * work
        coeffs = select * gram
        d = (coeffs * select.transpose())[0, 0]
        out.append(v.rows[0])
        rest = work - (coeffs * (ONE / d)).transpose() * v
        work = Mat(Subspace(width, rest.rows).basis)
    return Mat(out)


def _middle_block_basis(q, vectors: Mat) -> Mat:
    """Anti-diagonal normalization of the self-dual middle layer.

    Congruence-diagonalizes the pairing and folds diagonal vectors into
    hyperbolic pairs.  Two pivots d_a, d_b fold whenever d_a/d_b has a
    Gaussian-rational square root c (then v_a + c*v_b is isotropic, since
    -1 is a square); no individual pivot needs a root of its own.  An odd
    count leaves one central vector, whose pivot must itself be a square.
    """
    diag = _symmetric_diagonal_basis(q, vectors)
    gram = diag * q * diag.transpose()
    k = diag.nrows
    pivots = [gram[i, i] for i in range(k)]
    rows = lambda *idx: diag.submatrix(idx, range(diag.ncols))
    unmatched = list(range(k))
    out = [None] * k
    if k % 2:
        for idx in unmatched:
            root = gauss_sqrt(pivots[idx])
            if root is not None:
                out[k // 2] = (rows(idx) * (ONE / root)).rows[0]
                unmatched.remove(idx)
                break
        else:
            raise FixtureError(
                "f", "no compatible basis: no middle-layer pivot has a Gaussian-rational "
                     "square root")
    j = 0
    while unmatched:
        a = unmatched.pop(0)
        fold = None
        for b in unmatched:
            c = gauss_sqrt(-pivots[a] / pivots[b])
            if c is not None:
                fold = (b, c)
                break
        if fold is None:
            raise FixtureError(
                "f", "no compatible basis: middle-layer pivots do not fold into hyperbolic pairs "
                     "over the Gaussian rationals")
        b, c = fold
        unmatched.remove(b)
        h = ONE / (pivots[a] + pivots[a])
        # u = v_a + c v_b and w = (v_a - c v_b) / 2d_a
        out[j], out[k - 1 - j] = (Mat([[ONE, c], [h, -c * h]]) * rows(a, b)).rows
        j += 1
    return Mat(out)


def _anti_identity(k):
    return Mat._of_ints([([(k - 1 - i, 1, 0)], 1) for i in range(k)], k)


def _dual_pair_normalize(q, kept: Mat, replaced: Mat) -> Mat:
    """Recombine the later of two dual layers so the cross Gram is anti-identity."""
    try:
        correction = (kept * q * replaced.transpose()).inverse()
    except ValueError:
        raise FixtureError(
            "f", "no compatible basis: the pairing degenerates between dual layers") from None
    return (correction * _anti_identity(kept.nrows)).transpose() * replaced


def adapted_basis(structure: MixedHodge) -> AdaptedBasis:
    """Build a basis pairing anti-diagonally and adapted to both filtrations.

    Reads the central weight n and the cached splitting off the structure,
    whose W must be symmetric about n; the splitting layers are sorted by
    descending grade so F comes out as initial segments, dual layers are
    normalized against each other, and the middle layer (when present) is
    reduced to hyperbolic pairs.  Raises FixtureError on the field f ("no
    compatible basis: ..."), on w for asymmetric weights, or the splitting's
    own, whenever (F, W, Q) are inconsistent.
    """
    n, q = structure.n, structure.q
    jumps = structure.w.jump_levels
    if not jumps or jumps[0] + jumps[-1] != 2 * n:
        raise FixtureError(
            "w", f"no compatible basis: weight levels are not symmetric about {n}")
    split = structure.split()
    ok, _ = structure.f_isotropy
    if not ok:
        raise FixtureError(
            "f", "no compatible basis: the pairing does not vanish on opposite filtration levels")

    pieces = dict(split.pieces)
    blocks = sorted(pieces, key=lambda pq: (-pq[0], -pq[1]))
    for p, qq in blocks:
        anti = (n - p, n - qq)
        if anti not in pieces or pieces[anti].dim != pieces[(p, qq)].dim:
            raise FixtureError("f", "no compatible basis: splitting layers are not dually paired")

    # Q pairs column k of the splitting frame A only with the columns l of
    # the dual bidegree: cell (k, l) of A^T q A is their pairing
    a, _, grades = split.frame
    if any(grades[k][0] + grades[l][0] != n or grades[k][1] + grades[l][1] != n
           for k, (row, _) in enumerate((a.transpose() * q * a).int_form()) for l, _, _ in row):
        raise FixtureError("f", "no compatible basis: the pairing links non-dual splitting layers")
    vectors = {pq: Mat(pieces[pq].basis) for pq in blocks}

    for i, bi in enumerate(blocks):
        anti = (n - bi[0], n - bi[1])
        if bi == anti:
            vectors[bi] = _middle_block_basis(q, vectors[bi])
        elif blocks.index(anti) > i:
            vectors[anti] = _dual_pair_normalize(q, vectors[bi], vectors[anti])

    columns = Mat([row for b in blocks for row in vectors[b].rows])
    bigrades = tuple(b for b in blocks for _ in range(vectors[b].nrows))
    # Q(e_i, e_j) is cell (i, j) of C^T q C, checked on its rows i <= d/2
    size = len(bigrades)
    half, full = range((size - 1) // 2 + 1), range(size)
    gram = columns * q * columns.transpose()
    if gram.submatrix(half, full) != _anti_identity(size).submatrix(half, full):
        raise ArithmeticError("adapted pairing normalization failed")
    mat = columns.transpose()
    return AdaptedBasis(mat=mat, inv=mat.inverse(), bigrades=bigrades, n=n)


# -- orbit data --------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class OrbitSpec:
    """Validated degeneration data over the polydisc.

    `structure` is normalized limit data whose top filtration level is a
    line; the first len(cone) of the n_coords coordinates are the divisor
    coordinates.  zeta_coeffs maps a frozen index set to the polynomial f_I,
    stored as {exponent tuple: coefficient matrix}.  Instances are built by
    orbit_spec() and treated as immutable afterwards; every evaluation is a
    pure function of (spec, point, ell-values).
    """

    structure: PureHodgeData
    markers: Markers
    basis: AdaptedBasis
    cone: NilpotentCone
    n_coords: int
    zeta_coeffs: dict

    @property
    def dim(self):
        return self.structure.dim

    @property
    def k(self):
        return len(self.cone)

    @property
    def n(self):
        return self.markers.n

    @property
    def m(self):
        return self.markers.m


def _canonical_coeffs(zeta_coeffs, k, n_coords, dim):
    canon = {}
    for key, poly in (zeta_coeffs or {}).items():
        idx = frozenset(int(i) for i in key)
        if not idx <= set(range(k)):
            raise ValueError(f"index set {sorted(idx)} reaches outside the divisor coordinates")
        if isinstance(poly, Mat):
            poly = {(0,) * n_coords: poly}
        entry = {}
        for expo, coeff in poly.items():
            expo = tuple(int(e) for e in expo)
            if len(expo) != n_coords or any(e < 0 for e in expo):
                raise ValueError(
                    "exponent tuples must list one nonnegative power per coordinate")
            if coeff.shape != (dim, dim):
                raise ValueError("twist coefficients must be square matrices on the fibre")
            if not coeff.is_zero():
                entry[expo] = coeff
        if entry:
            canon[idx] = entry
    return canon


def lowers_grade(m: Mat, grades) -> bool:
    """Whether m, a matrix in the splitting frame whose columns have the
    bigrades `grades`, strictly lowers the grade p: every nonzero cell
    (k, l) has p_k < p_l."""
    return all(grades[k][0] < grades[l][0]
               for k, (row, _) in enumerate(m.int_form()) for l, _, _ in row)


def orbit_spec(structure: PureHodgeData, zeta_coeffs=None, n_coords=None) -> OrbitSpec:
    """Validate degeneration data and assemble an OrbitSpec.

    `structure` is weight-w data whose top filtration level is a line —
    normalize first if needed — and the spec takes its `markers` and its
    cone.  The cone must polarize the limit data and the twist data must
    pass their algebraic validation; there is no way around either, so
    every OrbitSpec is polarized.
    """
    cone = structure.cone
    k = len(cone)
    n_coords = k if n_coords is None else int(n_coords)
    if n_coords < k:
        raise ValueError("need at least one coordinate per divisor generator")

    markers = structure.markers
    basis = adapted_basis(structure.structure())
    if basis.column(0) != markers.e0 or basis.column(basis.top) != markers.ed:
        raise ArithmeticError("adapted basis disagrees with the markers")

    for j, g in enumerate(cone.generators):
        if any(g.apply(markers.einf)):
            raise FixtureError(f"cone[{j}]",
                               f"generator {j} does not annihilate the opposite marker")

    ok, detail = polarization_check(structure.structure(), cone)
    if not ok:
        raise FixtureError("cone", f"does not polarize the limit data: {detail}")

    # the float kit's series are bounded by the p-levels on this premise
    a, a_inv, grades = structure.structure().split().frame
    for j, g in enumerate(cone.generators):
        if not lowers_grade(a_inv * g * a, grades):
            raise FixtureError(
                f"cone[{j}]", f"generator {j} does not strictly lower the filtration grade")

    coeffs = _canonical_coeffs(zeta_coeffs, k, n_coords, structure.dim)
    for idx, poly in coeffs.items():
        key = ",".join(map(str, sorted(idx)))
        for expo, coeff in poly.items():
            field, term = f"zeta[{key!r}]", f"f_{sorted(idx)} at exponent {expo}"
            if not is_infinitesimal_isometry(coeff, structure.q):
                raise FixtureError(field, f"{term} is not an infinitesimal isometry of the pairing")
            if not lowers_grade(a_inv * coeff * a, grades):
                raise FixtureError(field, f"{term} does not strictly lower the filtration grade")
            for j in sorted(idx):
                if not commutator(coeff, cone.generators[j]).is_zero():
                    raise FixtureError(field, f"{term} does not commute with generator {j}")

    return OrbitSpec(structure=structure, markers=markers, basis=basis,
                     cone=cone, n_coords=n_coords, zeta_coeffs=coeffs)


# -- evaluation formulas, for either number kit ------------------------------
#
# A kit (`_Exact` below, or the probe module's numpy kit) holds a spec's data
# as its own numbers: dim, k, n_coords, q, gens, coeffs, e0, einf, lam_bar =
# conj(lam), zeros, identity and one.  Its primitives are exp() of a nilpotent
# matrix, exp_pair(a) = (exp(a), exp(-a)), pair(u, v) = Q(u, conj v), real(),
# is_zero() and scalar(x, what).  Matrices multiply with @ and scale as
# scalar * matrix.  pair(), exp() and exp_pair() keep each kit's own order of
# operations: float results depend on it.
# twist_terms() is the one walk over the twist table `coeffs`: zeta_log and
# stratum_frame both read it.
# Sums start at their first term (total(); an empty sum is the kit's own
# `zeros` object), a factor that is the empty product `one` scales nothing,
# and no frame is multiplied by `identity`: each of these would be a kernel
# call that changes no bit, and at the kits' sizes the float sweep's cost is
# per call, not per entry.
# Every matrix exponentiated here strictly lowers the grade p of the splitting
# frame (sums of the N_j and of the that_I f_I, and theta f theta^-1 with theta
# unipotent in p; orbit_spec verifies the generators and coefficients), so
# the float kit's series stops at the number of p-levels less one, where the
# exact powers vanish and only rounding residue would remain.


def check_point(kit, t):
    t = tuple(t)
    if len(t) != kit.n_coords:
        raise ValueError(f"expected {kit.n_coords} coordinates, got {len(t)}")
    return tuple(kit.scalar(x, "polydisc coordinates") for x in t)


def check_interior(kit, t, remedy=""):
    for j in range(kit.k):
        if not t[j]:
            raise ValueError(f"coordinate {j} is zero where a log is required{remedy}")


def check_ell(kit, ell, count, which=""):
    ell = tuple(ell)
    if len(ell) != count:
        raise ValueError(f"expected {count} ell-values{which}, got {len(ell)}")
    return tuple(kit.scalar(x, "ell-values") for x in ell)


def check_stratum(kit, stratum):
    stratum = frozenset(int(i) for i in stratum)
    if not stratum <= set(range(kit.k)):
        raise ValueError("stratum indices must name divisor coordinates")
    return stratum


def check_vanishing(kit, stratum, t):
    for i in sorted(stratum):
        if t[i]:
            raise ValueError(f"coordinate {i} must vanish on this stratum")
    for j in range(kit.k):
        if j not in stratum and not t[j]:
            raise ValueError(f"coordinate {j} is zero but not named in the stratum")


def check_powers(kit, powers):
    powers = tuple(int(a) for a in powers)
    if len(powers) != kit.k:
        raise ValueError("one exponent per generator")
    if any(a < 0 for a in powers):
        raise ValueError("exponents must be nonnegative")
    return powers


def total(kit, terms):
    """The sum of `terms` from the first term on; kit.zeros when there is none."""
    out = kit.zeros
    for x in terms:
        out = x if out is kit.zeros else out + x
    return out


def cone_log(kit, pairs):
    """sum_j ell_j N_j over the given (ell_j, N_j) pairs."""
    return total(kit, (l * g for l, g in pairs))


def cone_exp(kit, pairs):
    """theta = exp(sum_j ell_j N_j) over the given (ell_j, N_j) pairs."""
    return kit.exp(cone_log(kit, pairs))


def cone_exp_pair(kit, pairs):
    """(theta, theta^-1) over the given (ell_j, N_j) pairs, from one series."""
    return kit.exp_pair(cone_log(kit, pairs))


def monomial(kit, expo, x):
    """prod_j x_j ** expo_j."""
    c = kit.one
    for e, v in zip(expo, x):
        if e:
            c = c * v ** e
    return c


def twist_at(kit, poly, t):
    """The twist polynomial f_I, stored as {exponents: coefficient}, at t."""
    terms = ((monomial(kit, expo, t), coeff) for expo, coeff in poly.items())
    return total(kit, (coeff if c is kit.one else c * coeff for c, coeff in terms if c))


def divisor_product(kit, idx, t):
    """that_I: the product of the divisor coordinates outside I."""
    that = kit.one
    for j in range(kit.k):
        if j not in idx:
            that = that * t[j]
    return that


def twist_terms(kit, t, stratum=frozenset()):
    """(I, that_I, f_I(t)) for every index set I of the twist table that
    contains `stratum`, skipping the terms where that_I or f_I(t) is zero."""
    for idx, poly in kit.coeffs.items():
        if not stratum <= idx:
            continue
        that = divisor_product(kit, idx, t)
        if not that:
            continue
        val = twist_at(kit, poly, t)
        if not kit.is_zero(val):
            yield idx, that, val


def zeta_log(kit, t):
    """log zeta(t) = sum_I that_I * f_I(t)."""
    return total(kit, (f if c is kit.one else c * f for _, c, f in twist_terms(kit, t)))


def interior_frame(kit, t, theta):
    """(theta, zeta, eta = theta @ zeta) at an interior point, for theta the
    cone_exp of its ell-values; with no live twist term, zeta is
    kit.identity and eta is theta itself."""
    log = zeta_log(kit, t)
    if log is kit.zeros:
        return theta, kit.identity, theta
    zeta = kit.exp(log)
    return theta, zeta, theta @ zeta


def stratum_frame(kit, stratum, t, ell):
    """The frame whose marker pairing is h on the stratum: exp of the
    surviving that_I f_I, each conjugated by theta outside I, times theta of
    the live divisor coordinates.  `ell` is indexed by divisor coordinate."""
    terms = []
    for idx, that, val in twist_terms(kit, t, stratum):
        outside = [j for j in range(kit.k) if j not in idx]
        if outside:  # else theta is I and that_I the empty product
            th, th_inv = cone_exp_pair(kit, ((ell[j], kit.gens[j]) for j in outside))
            val = that * (th @ val @ th_inv)
        terms.append(val)
    log_hat = total(kit, terms)
    g = kit.identity if log_hat is kit.zeros else kit.exp(log_hat)
    live = [j for j in range(kit.k) if j not in stratum]
    if live:
        theta = cone_exp(kit, ((ell[j], kit.gens[j]) for j in live))
        g = theta if g is kit.identity else g @ theta
    return g


def deep_twist(kit, t):
    """exp(f_J(t)), J every divisor index: the twist left on the deepest stratum."""
    poly = kit.coeffs.get(frozenset(range(kit.k)))
    return kit.exp(twist_at(kit, poly, t)) if poly else kit.identity


def marker_pairing(kit, g):
    """q01 = Q(g.e0, conj(g.einf))."""
    return kit.pair(g @ kit.e0, g @ kit.einf)


def extended_norm(kit, q01):
    """h = Re(conj(lam) * q01)."""
    return kit.real(kit.lam_bar * q01)


def cross_term(kit, zeta_hat, powers):
    """Q(zeta_hat N_0^a0 ... N_{k-1}^a{k-1} e0, conj(zeta_hat einf))."""
    v = kit.e0
    for g, a in zip(kit.gens, powers):
        for _ in range(a):
            v = g @ v
    return kit.pair(zeta_hat @ v, zeta_hat @ kit.einf)


# -- exact evaluation --------------------------------------------------------


def _exact_scalar(x, what):
    x = _coerce(x)
    if x is not NotImplemented:
        return x
    raise TypeError(f"{what} must be exact (int, Fraction, or GaussianRational); "
                    "floating-point sweeps live in the probe module")


class _Exact:
    """The exact number kit of a spec: Gaussian rationals and Mat."""

    one = ONE
    scalar = staticmethod(_exact_scalar)
    real = staticmethod(lambda z: z.re)
    is_zero = staticmethod(Mat.is_zero)
    # a lambda looks the binding up per call, so a wrapper patched onto it sees the call
    exp = staticmethod(lambda a: nilpotent_exp(a))
    exp_pair = staticmethod(lambda a: (nilpotent_exp(a), nilpotent_exp(-a)))

    def __init__(self, spec):
        self.dim, self.k, self.n_coords = spec.dim, spec.k, spec.n_coords
        self.q, self.gens, self.coeffs = spec.structure.q, spec.cone.generators, spec.zeta_coeffs
        mk = spec.markers
        self.e0, self.einf, self.lam_bar = mk.e0, mk.einf, mk.lam.conjugate()
        self.zeros, self.identity = Mat.zeros(self.dim), Mat.identity(self.dim)

    def pair(self, u, v):
        return (Mat([u]) * self.q * Mat([v]).conj_t())[0, 0]


def _branch_shifts(branch, count, what):
    branch = tuple(branch)
    if len(branch) != count:
        raise ValueError(f"one integer branch shift per {what}")
    if any(not isinstance(b, int) for b in branch):
        raise TypeError("branch shifts must be integers")
    return branch


@dataclass(frozen=True, eq=False)
class OrbitFrame:
    """One exact evaluation of the multivalued frame.

    Carries the point, the ell-values actually used, the factors theta and
    zeta with eta = theta * zeta, the raw complex pairing
    q01 = Q(eta.e0, conj(eta.einf)), and the extension value
    h_tilde = Re Q(eta.e0, conj(lam * eta.einf)).
    """

    spec: OrbitSpec
    t: tuple
    ell: tuple
    theta: Mat
    zeta: Mat
    eta: Mat
    q01: GaussianRational
    h_tilde: Fraction


def eval_frame(spec: OrbitSpec, t, ell, branch=None) -> OrbitFrame:
    """Evaluate the frame at an interior point with explicit ell-values.

    The ell-values stand for log(t_j)/(2*pi*i) on the caller's chosen branch;
    integer `branch` shifts are added on top.  All divisor coordinates must
    be nonzero — values on the divisor go through stratum_value.
    """
    kit = _Exact(spec)
    t = check_point(kit, t)
    check_interior(kit, t, "; use stratum_value instead")
    ell = check_ell(kit, ell, kit.k)
    if branch is not None:
        branch = _branch_shifts(branch, spec.k, "divisor coordinate")
        ell = tuple(e + GaussianRational(b) for e, b in zip(ell, branch))
    theta, zeta, eta = interior_frame(kit, t, cone_exp(kit, zip(ell, kit.gens)))
    q01 = marker_pairing(kit, eta)
    return OrbitFrame(spec=spec, t=t, ell=ell, theta=theta, zeta=zeta, eta=eta, q01=q01,
                      h_tilde=extended_norm(kit, q01))


def deck_transform(spec: OrbitSpec, shifts) -> Mat:
    """exp(sum_j shift_j N_j) — the monodromy action of integer branch shifts."""
    shifts = tuple(shifts)
    if len(shifts) != spec.k:
        raise ValueError("one integer shift per divisor coordinate")
    return cone_exp(_Exact(spec), ((GaussianRational(b), g)
                                   for b, g in zip(shifts, spec.cone.generators)))


# -- values on the divisor ---------------------------------------------------


def stratum_value(spec: OrbitSpec, stratum, t=None, ell=None, branch=None) -> Fraction:
    """The continuous extension of h on the stratum where the named divisor
    coordinates vanish.

    `stratum` lists divisor coordinate indices pinned to zero; `t` is the
    full coordinate tuple (zero entries required on the stratum, defaulting
    to all zeros) and `ell` supplies ell-values for the surviving divisor
    coordinates.  With an empty stratum this reproduces the interior value
    exactly; with every divisor coordinate pinned it is the deepest-stratum
    formula driven by f on the divisor alone.
    """
    kit = _Exact(spec)
    stratum = check_stratum(kit, stratum)
    t = check_point(kit, t if t is not None else (0,) * spec.n_coords)
    check_vanishing(kit, stratum, t)
    live = [j for j in range(spec.k) if j not in stratum]
    full = {}
    if live:
        if ell is None:
            raise ValueError("surviving divisor coordinates need ell-values")
        ell = check_ell(kit, ell, len(live), " for the surviving coordinates")
        branch = _branch_shifts((0,) * len(live) if branch is None else branch,
                                len(live), "surviving coordinate")
        for j, e, b in zip(live, ell, branch):
            full[j] = e + b
    return extended_norm(kit, marker_pairing(kit, stratum_frame(kit, stratum, t, full)))


def limit_norm(spec: OrbitSpec, t=None) -> Fraction:
    """The norm of the limit line on the deepest stratum.

    With N the sum of the generators, E = exp(f_J) evaluated at the stratum
    point, and (n, m) the marker weights, this is the exact real number

        i^(2n - m) * Q(E.e0, N^(m - n) * conj(E.e0)),

    positive whenever the cone polarizes the data.  Raises ValueError on an
    empty cone and ArithmeticError if the value picks up an imaginary part.
    """
    if spec.k == 0:
        raise ValueError("an empty cone has no divisor stratum")
    kit = _Exact(spec)
    t = check_point(kit, t if t is not None else (0,) * spec.n_coords)
    for j in range(spec.k):
        if t[j]:
            raise ValueError("the deepest stratum pins every divisor coordinate to zero")
    mk = spec.markers
    u = Mat([deep_twist(kit, t) @ mk.e0])
    power = spec.cone.element((1,) * spec.k) ** (mk.m - mk.n)
    val = i_power(2 * mk.n - mk.m) * (u * spec.structure.q * power * u.conj_t())[0, 0]
    if val.im:
        raise ArithmeticError("stratum norm came out non-real; pairing conventions are inconsistent")
    return val.re


# -- checks and reports ------------------------------------------------------


def monodromy_check(spec: OrbitSpec, t, ell, shifts):
    """Verify h and the raw pairing are blind to integer branch shifts.

    Evaluates the frame at ell and at ell + shifts and compares the h value,
    the raw complex pairing q01, and the deck relation eta' = exp(sum k_j N_j)
    * eta — all exactly.  Returns (ok, detail).
    """
    base = eval_frame(spec, t, ell)
    moved = eval_frame(spec, t, ell, branch=tuple(shifts))
    if moved.h_tilde != base.h_tilde:
        return False, f"h changed under the shift: {base.h_tilde} -> {moved.h_tilde}"
    if moved.q01 != base.q01:
        return False, f"raw pairing changed under the shift: {base.q01} -> {moved.q01}"
    if moved.eta != deck_transform(spec, shifts) * base.eta:
        return False, "frame did not transform by the expected deck matrix"
    return True, "invariant under the branch shift"


def triangularity_check(frame: OrbitFrame):
    """Each frame vector equals its basis column modulo strictly lower grades.

    In the adapted coordinates eta is block-unitriangular for the filtration
    grading: the coordinates of eta.e_j - e_j vanish on every column whose
    grade is not strictly below e_j's.  Returns (ok, detail).
    """
    basis = frame.spec.basis
    grades = basis.bigrades
    # column j of A^-1 eta A - I holds the coordinates of eta.e_j - e_j
    delta = basis.inv * frame.eta * basis.mat - Mat.identity(basis.dim)
    for j, (col, _) in enumerate(delta.transpose().int_form()):
        for i, _, _ in col:
            if grades[i][0] >= grades[j][0]:
                return False, (f"frame vector {j} leaks into grade {grades[i]}"
                               f" at or above its own grade {grades[j]}")
    return True, "frame is unitriangular across the filtration grading"


@dataclass(frozen=True)
class GeneratorLevels:
    """Marker levels along one generator's weight filtration."""

    index: int
    level: int            # level of e0, to compare against [n, m]
    bounds_ok: bool
    opposite_level: int   # level of einf, expected 2n - level
    opposite_ok: bool

    def __bool__(self):
        return self.bounds_ok and self.opposite_ok


@dataclass(frozen=True)
class GeneratorLevelReport:
    """Per-generator level bracketing for the two marker lines."""

    n: int
    m: int
    per_generator: tuple
    ok: bool

    def __bool__(self):
        return self.ok


def generator_level_check(spec: OrbitSpec) -> GeneratorLevelReport:
    """Bracket the marker levels along each single generator.

    For each generator N_j, recenter its weight filtration at n and measure
    the level m_j of e0 there: it must satisfy n <= m_j <= m, and einf must
    sit at level 2n - m_j exactly — inside W_{2n-m_j} but outside
    W_{2n-m_j-1}.  The spec's cone is polarizing, as orbit_spec checked when
    it built the spec.  Raises ValueError when the cone is empty.
    """
    if spec.k == 0:
        raise ValueError("no generators to check")
    mk = spec.markers
    records = []
    for j, g in enumerate(spec.cone.generators):
        wj = weight_filtration(g, center=mk.n)
        mj = level(mk.e0, wj)
        opposite = level(mk.einf, wj)
        records.append(GeneratorLevels(
            index=j,
            level=mj,
            bounds_ok=mk.n <= mj <= mk.m,
            opposite_level=opposite,
            opposite_ok=opposite == 2 * mk.n - mj,
        ))
    return GeneratorLevelReport(n=mk.n, m=mk.m, per_generator=tuple(records),
                                ok=all(bool(r) for r in records))
