"""Floating-point probes for the limiting behavior of the extended norm.

The exact engine answers questions at rational points; this module drives
the same data along radial paths toward the divisor, where the interesting
claims are limits: the extended norm converges to its stratum value, the
weighted cross terms die, minus-log of the stratum value has a positive
semidefinite Levi form on the good fixtures, and exp(iyN).F approaches the
opposite limit filtration.  Everything here runs in double precision and is
deterministic: a probe given the same configuration evaluates the same
points in the same order and returns an identical report.  The frame and
norm formulas are the orbit module's; this module holds their float kit.
"""

import cmath
import math
import weakref
from dataclasses import dataclass

import numpy as np

from .mhs import f_infinity
from . import orbit

TWO_PI_I = 2j * math.pi

# Low-discrepancy multipliers for the default angle lattice (fractional
# parts of the golden ratio and of sqrt(2)); chosen once, never random.
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
    return np.array(m.to_complex_rows(), dtype=complex)


def _expm(a):
    """exp of a structurally nilpotent matrix by its terminating series."""
    d = a.shape[0]
    out = np.eye(d, dtype=complex)
    term = np.eye(d, dtype=complex)
    for j in range(1, d):
        term = term @ a / j
        out = out + term
        if not term.any():
            break
    return out


class _Floats:
    """The float number kit of a spec for the orbit module's formulas."""

    one = 1.0 + 0.0j
    exp = staticmethod(_expm)
    scalar = staticmethod(lambda x, what: _scalar(x))
    real = staticmethod(lambda z: float(z.real))
    is_zero = staticmethod(lambda a: not a.any())

    def __init__(self, spec):
        self.dim, self.k, self.n_coords = spec.dim, spec.k, spec.n_coords
        self.q = _matrix(spec.structure.q)
        self.gens = tuple(_matrix(g) for g in spec.cone.generators)
        self.coeffs = {idx: {expo: _matrix(c) for expo, c in poly.items()}
                       for idx, poly in spec.zeta_coeffs.items()}
        self.e0, self.einf = _vector(spec.markers.e0), _vector(spec.markers.einf)
        self.lam_bar = np.conj(_scalar(spec.markers.lam))
        self.zeros = np.zeros((self.dim, self.dim), dtype=complex)
        self.identity = np.eye(self.dim, dtype=complex)
        for shared in (self.zeros, self.identity):  # shared by every call, so read-only
            shared.setflags(write=False)

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
           else orbit.check_ell(kit, ell))
    eta = orbit.interior_frame(kit, t, ell)[2]
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
    zeta_hat = orbit.conjugated_twist(kit, orbit.interior_frame(kit, t, ell)[2], ell)
    return complex(orbit.monomial(kit, powers, ell) * orbit.cross_term(kit, zeta_hat, powers))


# -- sweep configuration and reports -------------------------------------------


@dataclass(frozen=True)
class ProbeConfig:
    """Deterministic sweep parameters shared by all probes.

    `radii` must decrease strictly toward zero; `angles`, when given, lists
    explicit angle vectors (otherwise a fixed low-discrepancy lattice of
    `n_angles` vectors is used); `fd_step` is the finite-difference step of
    the Levi probe and `tol` the pass tolerance recorded in every report.
    """

    radii: tuple = (1e-2, 1e-3, 1e-4, 1e-5, 1e-6, 1e-7, 1e-8)
    angles: tuple | None = None
    n_angles: int = 8
    fd_step: float = 1e-4
    tol: float = 1e-6

    def __post_init__(self):
        radii = tuple(float(r) for r in self.radii)
        object.__setattr__(self, "radii", radii)
        if not radii:
            raise ValueError("at least one radius is required")
        if not all(math.isfinite(r) and r > 0 for r in radii):
            raise ValueError("radii must be finite and positive")
        if any(b >= a for a, b in zip(radii, radii[1:])):
            raise ValueError("radii must be strictly decreasing")
        if self.angles is not None:
            object.__setattr__(
                self, "angles",
                tuple(tuple(float(a) for a in vec) for vec in self.angles))
            if not self.angles:
                raise ValueError("the explicit angle list must not be empty")
            if not all(math.isfinite(a) for vec in self.angles for a in vec):
                raise ValueError("angles must be finite")
        if int(self.n_angles) < 1:
            raise ValueError("n_angles must be at least 1")
        if not (math.isfinite(float(self.fd_step)) and float(self.fd_step) > 0):
            raise ValueError("fd_step must be finite and positive")
        if not (math.isfinite(float(self.tol)) and float(self.tol) > 0):
            raise ValueError("tol must be finite and positive")

    def angle_vectors(self, m):
        """The angle vectors driving an m-coordinate radial sweep."""
        if self.angles is not None:
            for vec in self.angles:
                if len(vec) != m:
                    raise ValueError(f"angle vectors must have {m} entries")
            return self.angles
        tau = 2.0 * math.pi
        return tuple(
            tuple(tau * math.modf((i + 1) * _STRIDE_A + (i + 1) * (j + 1) * _STRIDE_B)[0]
                  for j in range(m))
            for i in range(self.n_angles))


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


def _limit_verdict(deviations, tol):
    """Final deviation within tol, non-increasing over the last three radii."""
    if not deviations:
        return False
    ok = deviations[-1] <= tol
    tail = deviations[-3:]
    for a, b in zip(tail, tail[1:]):
        ok = ok and b <= a + 1e-15
    return ok


def _base_point(kit, pinned, base):
    if base is None:
        return tuple(0.0 if j in pinned else (0.5 if j < kit.k else 1.0 / 3.0)
                     for j in range(kit.n_coords))
    base = orbit.check_point(kit, base)
    for j in sorted(pinned):
        if base[j]:
            raise ValueError(f"coordinate {j} belongs to the stratum; give it base value 0")
    return base


def _sweep(values_at, radii, angles, target, tol):
    radii_used, observed, deviations, clipped = [], [], [], []
    for r in radii:
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


def radial_limit(spec: orbit.OrbitSpec, stratum, cfg: ProbeConfig | None = None,
                 base=None) -> LimitReport:
    """Drive the named divisor coordinates to zero along radial rays.

    Evaluates the norm at t_i = r exp(i theta_i) for i in `stratum` (the
    other coordinates stay at `base`) and compares against the stratum
    value at `base`.  Passes when the final deviation is within cfg.tol and
    the deviations are non-increasing over the last three radii.  Radii at
    which the evaluation leaves double range are dropped and reported in
    `clipped`.
    """
    cfg = cfg if cfg is not None else ProbeConfig()
    kit = _kit(spec)
    stratum = tuple(sorted(orbit.check_stratum(kit, stratum)))
    base = _base_point(kit, set(stratum), base)
    target = stratum_norm(spec, stratum, base)
    angles = cfg.angle_vectors(len(stratum))

    def value(r, vec):
        t = list(base)
        for pos, i in enumerate(stratum):
            t[i] = r * cmath.exp(1j * vec[pos])
        return norm_value(spec, t)

    return _sweep(value, cfg.radii, angles, target, cfg.tol)


def term_vanishing(spec: orbit.OrbitSpec, powers, cfg: ProbeConfig | None = None,
                   base=None) -> LimitReport:
    """Radial decay of one ell-weighted cross term of the norm.

    All divisor coordinates go to zero together; the observed values are
    magnitudes.  For a nonzero exponent vector the target is 0 — the term
    must die despite its divergent ell-weight.  The zero exponent vector is
    the control: its target is the magnitude of the limiting raw pairing,
    which stays away from zero.
    """
    cfg = cfg if cfg is not None else ProbeConfig()
    kit = _kit(spec)
    if kit.k == 0:
        raise ValueError("an empty cone has no divisor stratum")
    powers = orbit.check_powers(kit, powers)
    base = _base_point(kit, set(range(kit.k)), base)
    target = (0.0 if any(powers)
              else float(abs(orbit.marker_pairing(kit, orbit.deep_twist(kit, base)))))
    angles = cfg.angle_vectors(kit.k)

    def value(r, vec):
        t = list(base)
        for j in range(kit.k):
            t[j] = r * cmath.exp(1j * vec[j])
        return abs(term_value(spec, powers, t))

    return _sweep(value, cfg.radii, angles, target, cfg.tol)


@dataclass(frozen=True)
class LeviReport:
    """Finite-difference Levi spectrum of -log of the stratum value."""

    base: tuple
    directions: tuple
    clipped: tuple
    matrix: tuple
    eigenvalues: tuple
    tol: float
    psh: bool

    def __bool__(self):
        return self.psh


def levi_probe(spec: orbit.OrbitSpec, stratum, base=None, dirs=None,
               cfg: ProbeConfig | None = None) -> LeviReport:
    """Central-difference complex Hessian of -log(stratum value).

    Differentiates in the surviving coordinates around `base`.  Direction
    vectors live on the full coordinate tuple; any component along a pinned
    coordinate is zeroed and the direction's index recorded in `clipped`
    (the function only exists on the stratum), and directions that point
    purely off the stratum are dropped.  The psh verdict asks the smallest
    eigenvalue of the hermitized Levi matrix to clear -cfg.tol.
    """
    cfg = cfg if cfg is not None else ProbeConfig()
    kit = _kit(spec)
    pinned = orbit.check_stratum(kit, stratum)
    base = _base_point(kit, pinned, base)

    if dirs is None:
        free = [j for j in range(kit.n_coords) if j not in pinned]
        dirs = [tuple(1.0 + 0.0j if j == f else 0.0j for j in range(kit.n_coords))
                for f in free]
    clipped = []
    directions = []
    for idx, vec in enumerate(dirs):
        vec = [_scalar(x) for x in vec]
        if len(vec) != kit.n_coords:
            raise ValueError(f"direction vectors must have {kit.n_coords} entries")
        if any(vec[j] for j in pinned):
            clipped.append(idx)
            for j in pinned:
                vec[j] = 0.0j
        if any(vec):
            directions.append(tuple(vec))
    if not directions:
        raise ValueError("no directions tangent to the stratum were given")

    def phi(point):
        value = stratum_norm(spec, pinned, point)
        if not value > 0:
            raise ValueError("stratum value is not positive at or near the base point")
        return math.log(value)

    phi(base)  # surface a non-positive base value before differentiating

    h = cfg.fd_step

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
        base=base, directions=tuple(directions), clipped=tuple(clipped),
        matrix=tuple(tuple(complex(x) for x in row) for row in levi),
        eigenvalues=eigenvalues, tol=cfg.tol,
        psh=min(eigenvalues) >= -cfg.tol)


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


def f_infinity_probe(structure, n_op, y_values=(1e1, 1e2, 1e3, 1e4),
                     cfg: ProbeConfig | None = None) -> DistanceReport:
    """Numeric convergence of exp(iyN).F to the opposite limit filtration.

    The distance at each y is the sine of the largest principal angle
    between exp(iyN).F^p and the exact limit level, maximized over the jump
    levels p.  The generic gap decays like 1/y, so the verdict extrapolates
    the last two samples linearly in 1/y and asks the extrapolated limit to
    sit below cfg.tol with non-increasing raw distances.
    """
    cfg = cfg if cfg is not None else ProbeConfig()
    y_values = tuple(float(y) for y in y_values)
    if not y_values or y_values[0] <= 0:
        raise ValueError("y-values must be positive")
    if any(b <= a for a, b in zip(y_values, y_values[1:])):
        raise ValueError("y-values must be strictly increasing")

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
        u = _expm(1j * y * nf)
        worst = 0.0
        for p, cols in columns.items():
            a = np.linalg.qr(u @ cols)[0]
            worst = max(worst, float(np.linalg.norm(complements[p].conj().T @ a, 2)))
        return worst

    distances = tuple(gap(y) for y in y_values)
    if len(distances) >= 2:
        y1, y2 = y_values[-2:]
        d1, d2 = distances[-2:]
        extrapolated = (y2 * d2 - y1 * d1) / (y2 - y1)
    else:
        extrapolated = distances[0]
    ok = extrapolated <= cfg.tol
    for a, b in zip(distances, distances[1:]):
        ok = ok and b <= a + 1e-15
    return DistanceReport(y_values=y_values, distances=distances,
                          extrapolated=extrapolated, tol=cfg.tol, passed=ok)
