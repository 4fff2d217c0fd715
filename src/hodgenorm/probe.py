"""Floating-point probes for the limiting behavior of the extended norm.

The exact engine answers questions at rational points; this module drives
the same data along radial paths toward the divisor, where the interesting
claims are limits: the extended norm converges to its stratum value, the
weighted cross terms die, minus-log of the stratum value has a positive
semidefinite Levi form on the good fixtures, and exp(iyN).F approaches the
opposite limit filtration.  Everything here runs in double precision and is
deterministic: every probe runs one fixed sweep (the module constants
RADII, ANGLE_COUNT, FD_STEP and Y_VALUES), so a probe given the same
arguments evaluates the same points in the same order and returns an
identical report; only the pass tolerance `tol` is set per call.  The
frame and norm formulas are the orbit module's; this module holds their
float kit.  Every matrix those formulas exponentiate strictly lowers the
grade p of the spec's splitting frame, so the kit's series stop at the
number of p-levels less one: the later powers vanish exactly.
"""

import cmath
import math
import weakref
from dataclasses import dataclass
from functools import cache

import numpy as np

from .mhs import f_infinity
from . import orbit

TWO_PI_I = 2j * math.pi

# Low-discrepancy multipliers for the angle lattice (fractional parts of
# the golden ratio and of sqrt(2)); chosen once, never random.
_STRIDE_A = 0.6180339887498949
_STRIDE_B = 0.41421356237309515


# -- conversions ---------------------------------------------------------------


def _scalar(x):
    """An engine scalar (Gaussian rational, Fraction, int) or a number, as complex."""
    to = getattr(x, "to_complex", None)
    return complex(to()) if to is not None else complex(x)


def _vector(v):
    return np.array([_scalar(x) for x in v], dtype=complex)


def _matrix(m):
    """m as a complex array, filled from its int form: int true division
    rounds as `float(Fraction)` does."""
    out = np.zeros(m.shape, dtype=complex)
    for i, (row, d) in enumerate(m.int_form()):
        for j, a, b in row:
            out[i, j] = complex(a / d, b / d)
    return out


_IDENTITIES = {}


def _identity(d):
    """The d x d identity, built once per size and shared, so read-only."""
    eye = _IDENTITIES.get(d)
    if eye is None:
        eye = _IDENTITIES[d] = np.eye(d, dtype=complex)
        eye.setflags(write=False)
    return eye


def _expm(a, terms, inverse=False):
    """exp of a nilpotent matrix by its series through a**terms / terms!;
    with `inverse`, the pair (exp(a), exp(-a)) from the same terms.

    The caller vouches that a**(terms + 1) is exactly zero: the float kit
    passes its p-levels less one, f_infinity_probe the dimension less one.
    The sum stops there, where rounding can still leave entries near 1e-19
    in powers that vanish exactly, or at an exactly zero power before it.
    It starts at I + a, so with terms = 1 no product is formed.  The terms
    of -a are exactly (-1)**j times those of a, and x + (-y) is x - y, so
    the inverse is the series of -a bit for bit.  A zero argument returns
    the shared read-only identity, which is what the series yields.
    """
    eye = _identity(a.shape[0])
    if not np.count_nonzero(a):
        return (eye, eye) if inverse else eye
    out, term = eye + a, a
    inv = eye - a if inverse else None
    for j in range(2, terms + 1):
        term = term @ a
        term /= j
        out = out + term
        if inverse:
            inv = inv - term if j % 2 else inv + term
        if j < terms and not np.count_nonzero(term):
            break
    return (out, inv) if inverse else out


class _Floats:
    """The float number kit of a spec for the orbit module's formulas.

    `terms`, the number of distinct p in the spec's verified splitting
    frame less one, bounds every series: each matrix the formulas
    exponentiate strictly lowers p, so its later powers are exactly zero.
    """

    one = 1.0 + 0.0j
    scalar = staticmethod(lambda x, what: _scalar(x))
    real = staticmethod(lambda z: float(z.real))
    is_zero = staticmethod(lambda a: not np.count_nonzero(a))

    def __init__(self, spec):
        self.dim, self.k, self.n_coords = spec.dim, spec.k, spec.n_coords
        self.terms = len({p for p, _ in spec.structure.split().frame[2]}) - 1
        self.q = _matrix(spec.structure.q)
        self.gens = tuple(_matrix(g) for g in spec.cone.generators)
        self.coeffs = {idx: {expo: _matrix(c) for expo, c in poly.items()}
                       for idx, poly in spec.zeta_coeffs.items()}
        self.e0, self.einf = _vector(spec.markers.e0), _vector(spec.markers.einf)
        self.lam_bar = np.conj(_scalar(spec.markers.lam))
        self.zeros = np.zeros((self.dim, self.dim), dtype=complex)
        self.zeros.setflags(write=False)  # shared by every call
        self.identity = _identity(self.dim)

    def exp(self, a):
        return _expm(a, self.terms)

    def exp_pair(self, a):
        return _expm(a, self.terms, inverse=True)

    def pair(self, u, v):
        return u @ self.q @ np.conj(v)


# Keyed weakly, so a spec's kit goes when the spec does; OrbitSpec compares
# and hashes by identity.  A _Floats holds no reference back to its spec.
_KITS = weakref.WeakKeyDictionary()


def _kit(spec: orbit.OrbitSpec) -> _Floats:
    return _KITS.get(spec) or _KITS.setdefault(spec, _Floats(spec))


# -- float evaluation ----------------------------------------------------------


def _principal_ell(x):
    return cmath.log(x) / TWO_PI_I


def norm_value(spec: orbit.OrbitSpec, t, ell=None) -> float:
    """Double-precision norm value at an interior point.

    `ell` defaults to log(t_j)/(2 pi i) on the principal branch; explicit
    values reproduce the exact engine's formal-ell evaluation in float.
    """
    kit = _kit(spec)
    t = orbit.check_point(kit, t)
    orbit.check_interior(kit, t, "; use stratum_norm instead")
    ell = (tuple(_principal_ell(t[j]) for j in range(kit.k)) if ell is None
           else orbit.check_ell(kit, ell, kit.k))
    eta = orbit.interior_frame(kit, t, orbit.cone_exp(kit, zip(ell, kit.gens)))[2]
    return orbit.extended_norm(kit, orbit.marker_pairing(kit, eta))


def stratum_norm(spec: orbit.OrbitSpec, stratum, t) -> float:
    """Double-precision stratum value of the norm.

    The coordinates named by `stratum` must be zero in `t`; the surviving
    divisor coordinates must be nonzero and use principal-branch ell-values
    (the value does not depend on the branch).
    """
    kit = _kit(spec)
    stratum = orbit.check_stratum(kit, stratum)
    t = orbit.check_point(kit, t)
    orbit.check_vanishing(kit, stratum, t)
    ell = {j: _principal_ell(t[j]) for j in range(kit.k) if j not in stratum}
    g = orbit.stratum_frame(kit, stratum, t, ell)
    return orbit.extended_norm(kit, orbit.marker_pairing(kit, g))


def term_value(spec: orbit.OrbitSpec, powers, t) -> complex:
    """One ell-weighted cross term of the norm at an interior point.

    Multiplies Q(zeta_hat N^powers e0, conj(zeta_hat einf)) by the monomial
    prod_j ell_j^powers_j, with principal-branch ell-values.
    """
    kit = _kit(spec)
    powers = orbit.check_powers(kit, powers)
    t = orbit.check_point(kit, t)
    orbit.check_interior(kit, t)
    ell = [_principal_ell(t[j]) for j in range(kit.k)]
    theta, theta_inv = orbit.cone_exp_pair(kit, zip(ell, kit.gens))
    zeta_hat = orbit.interior_frame(kit, t, theta)[2] @ theta_inv
    return complex(orbit.monomial(kit, powers, ell) * orbit.cross_term(kit, zeta_hat, powers))


# -- the sweep and its reports -------------------------------------------------

# The one sweep every probe runs.  Radial probes step through RADII, which
# decrease strictly toward zero, at each of ANGLE_COUNT angle vectors; the
# Levi probe differentiates with step FD_STEP; the f_infinity probe samples
# exp(iyN).F at Y_VALUES.  Only the pass tolerance is set per call.
RADII = (1e-2, 1e-3, 1e-4, 1e-5, 1e-6, 1e-7, 1e-8)
ANGLE_COUNT = 8
FD_STEP = 1e-4
Y_VALUES = (1e1, 1e2, 1e3, 1e4)


def angle_vectors(m):
    """The angle vectors driving an m-coordinate radial sweep."""
    tau = 2.0 * math.pi
    return tuple(
        tuple(tau * math.modf((i + 1) * _STRIDE_A + (i + 1) * (j + 1) * _STRIDE_B)[0]
              for j in range(m))
        for i in range(ANGLE_COUNT))


def _require_tol(tol):
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError("tol must be finite and positive")


@dataclass(frozen=True)
class LimitReport:
    """Outcome of a radial sweep against a fixed target value."""

    target: float
    radii: tuple
    angles: tuple
    observed: tuple
    deviations: tuple
    limit: float
    clipped: tuple
    tol: float
    passed: bool

    def __bool__(self):
        return self.passed


def _non_increasing(values):
    """Whether each value is at most the one before it, within 1e-15."""
    return all(b <= a + 1e-15 for a, b in zip(values, values[1:]))


def _limit_verdict(deviations, tol):
    """Final deviation within tol, non-increasing over the last three radii."""
    return deviations[-1] <= tol and _non_increasing(deviations[-3:])


def _base_point(kit, pinned, base=None):
    if base is None:
        return tuple(0.0 if j in pinned else (0.5 if j < kit.k else 1.0 / 3.0)
                     for j in range(kit.n_coords))
    base = orbit.check_point(kit, base)
    for j in sorted(pinned):
        if base[j]:
            raise ValueError(f"coordinate {j} belongs to the stratum; give it base value 0")
    return base


def _radial_point(base, coords, r, vec):
    """`base` with t_i = r exp(i theta_i) at each coordinate i of `coords`,
    theta_i the matching entry of the angle vector `vec`."""
    t = list(base)
    for i, theta in zip(coords, vec):
        t[i] = r * cmath.exp(1j * theta)
    return t


def _sweep(values_at, angles, target, tol):
    radii_used, observed, deviations, clipped = [], [], [], []
    for r in RADII:
        row = tuple(values_at(r, vec) for vec in angles)
        if all(math.isfinite(v) for v in row):
            radii_used.append(r)
            observed.append(row)
            deviations.append(max(abs(v - target) for v in row))
        else:
            clipped.append(r)
    limit = (sum(observed[-1]) / len(observed[-1])) if observed else math.nan
    return LimitReport(
        target=target, radii=tuple(radii_used), angles=angles,
        observed=tuple(observed), deviations=tuple(deviations), limit=limit,
        clipped=tuple(clipped), tol=tol,
        passed=bool(observed) and _limit_verdict(deviations, tol))


# -- the probes ----------------------------------------------------------------


def radial_limit(spec: orbit.OrbitSpec, stratum, tol=1e-6) -> LimitReport:
    """Drive the named divisor coordinates to zero along radial rays.

    Evaluates the norm at t_i = r exp(i theta_i) for i in `stratum`, at every
    radius of RADII and every angle vector of the lattice, with the other
    coordinates at the default base point (0.5 on the divisor, 1/3 off it),
    and compares against the stratum value there.  Passes when the final
    deviation is within `tol` and the deviations are non-increasing over the
    last three radii.  Radii at which the evaluation leaves double range are
    dropped and reported in `clipped`.
    """
    _require_tol(tol)
    kit = _kit(spec)
    stratum = tuple(sorted(orbit.check_stratum(kit, stratum)))
    base = _base_point(kit, set(stratum))
    target = stratum_norm(spec, stratum, base)

    def value(r, vec):
        return norm_value(spec, _radial_point(base, stratum, r, vec))

    return _sweep(value, angle_vectors(len(stratum)), target, tol)


def term_vanishing(spec: orbit.OrbitSpec, powers, tol=1e-6) -> LimitReport:
    """Radial decay of one ell-weighted cross term of the norm.

    All divisor coordinates go to zero together over the radial sweep of
    `radial_limit`, from the same base point; the observed values are
    magnitudes.  For a nonzero exponent vector the target is 0 — the term
    must die despite its divergent ell-weight.  The zero exponent vector is
    the control: its target is the magnitude of the limiting raw pairing,
    which stays away from zero.
    """
    _require_tol(tol)
    kit = _kit(spec)
    if kit.k == 0:
        raise ValueError("an empty cone has no divisor stratum")
    powers = orbit.check_powers(kit, powers)
    base = _base_point(kit, set(range(kit.k)))
    target = (0.0 if any(powers)
              else float(abs(orbit.marker_pairing(kit, orbit.deep_twist(kit, base)))))

    def value(r, vec):
        return abs(term_value(spec, powers, _radial_point(base, range(kit.k), r, vec)))

    return _sweep(value, angle_vectors(kit.k), target, tol)


@dataclass(frozen=True)
class LeviReport:
    """Finite-difference Levi spectrum of -log of the stratum value."""

    base: tuple
    matrix: tuple
    eigenvalues: tuple
    tol: float
    psh: bool

    def __bool__(self):
        return self.psh


def levi_probe(spec: orbit.OrbitSpec, stratum, base=None, tol=1e-6) -> LeviReport:
    """Central-difference complex Hessian of -log(stratum value).

    Differentiates with step FD_STEP around `base` (by default the base point
    of `radial_limit`), along the coordinate directions of every coordinate
    the stratum leaves free, in increasing order; the function only exists
    on the stratum.  Each distinct stencil point is evaluated once per call:
    on a diagonal entry the base point recurs, and the four points of the
    (1, i) difference recur in the (i, 1) one, so s free directions cost
    1 + 8 s^2 stratum values.  The psh verdict asks the smallest eigenvalue
    of the hermitized Levi matrix to clear -tol.
    """
    _require_tol(tol)
    kit = _kit(spec)
    pinned = orbit.check_stratum(kit, stratum)
    base = _base_point(kit, pinned, base)
    directions = [tuple(1.0 + 0.0j if j == f else 0.0j for j in range(kit.n_coords))
                  for f in range(kit.n_coords) if f not in pinned]
    if not directions:
        raise ValueError("no directions tangent to the stratum were given")

    @cache  # each stencil point is evaluated once per call
    def phi(point):
        value = stratum_norm(spec, pinned, point)
        if not value > 0:
            raise ValueError("stratum value is not positive at or near the base point")
        return math.log(value)

    phi(base)  # surface a non-positive base value before differentiating

    h = FD_STEP

    def shifted(coeff_a, va, coeff_b, vb):
        point = tuple(x + h * (coeff_a * a + coeff_b * b)
                      for x, a, b in zip(base, va, vb))
        return phi(point)

    def mixed(alpha, beta, va, vb):
        pp = shifted(alpha, va, beta, vb)
        pm = shifted(alpha, va, -beta, vb)
        mp = shifted(-alpha, va, beta, vb)
        mm = shifted(-alpha, va, -beta, vb)
        return (pp - pm - mp + mm) / (4.0 * h * h)

    s = len(directions)
    levi = np.zeros((s, s), dtype=complex)
    for a in range(s):
        for b in range(a, s):
            va, vb = directions[a], directions[b]
            entry = -0.25 * (mixed(1.0, 1.0, va, vb) + mixed(1.0j, 1.0j, va, vb)
                             + 1.0j * (mixed(1.0, 1.0j, va, vb)
                                       - mixed(1.0j, 1.0, va, vb)))
            levi[a, b] = entry
            levi[b, a] = np.conj(entry)
    levi = (levi + levi.conj().T) / 2.0
    eigenvalues = tuple(float(x) for x in np.linalg.eigvalsh(levi))
    return LeviReport(
        base=base, matrix=tuple(tuple(complex(x) for x in row) for row in levi),
        eigenvalues=eigenvalues, tol=tol,
        psh=min(eigenvalues) >= -tol)


@dataclass(frozen=True)
class DistanceReport:
    """Gap between the rotated filtration and the computed limit filtration."""

    y_values: tuple
    distances: tuple
    extrapolated: float
    tol: float
    passed: bool

    def __bool__(self):
        return self.passed


def f_infinity_probe(structure, n_op, tol=1e-6) -> DistanceReport:
    """Numeric convergence of exp(iyN).F to the opposite limit filtration.

    The distance at each y of Y_VALUES is the sine of the largest principal
    angle between exp(iyN).F^p and the exact limit level, maximized over the
    jump levels p.  The generic gap decays like 1/y, so the verdict
    extrapolates the last two samples linearly in 1/y and asks the
    extrapolated limit to sit below `tol` with non-increasing raw distances.
    """
    _require_tol(tol)
    limit = f_infinity(structure.split(), structure.n)
    nf = _matrix(n_op)
    dim = structure.ambient
    columns = {}
    complements = {}
    for p in structure.f.jump_levels:
        basis = structure.f.at(p).basis
        if not 0 < len(basis) < dim:
            continue
        columns[p] = np.array([_vector(v) for v in basis]).T
        target = np.array([_vector(v) for v in limit.at(p).basis]).T
        full = np.linalg.svd(target)[0]
        complements[p] = full[:, target.shape[1]:]

    def gap(y):
        u = _expm(1j * y * nf, dim - 1)
        worst = 0.0
        for p, cols in columns.items():
            a = np.linalg.qr(u @ cols)[0]
            worst = max(worst, float(np.linalg.norm(complements[p].conj().T @ a, 2)))
        return worst

    distances = tuple(gap(y) for y in Y_VALUES)
    y1, y2 = Y_VALUES[-2:]
    d1, d2 = distances[-2:]
    extrapolated = (y2 * d2 - y1 * d1) / (y2 - y1)
    return DistanceReport(y_values=Y_VALUES, distances=distances,
                          extrapolated=extrapolated, tol=tol,
                          passed=extrapolated <= tol and _non_increasing(distances))
