"""Increasing and decreasing filtrations, and weight filtrations of nilpotents.

A filtration is stored by its jump levels only, so two filtrations agreeing at
every integer compare equal regardless of which levels the caller recorded.
"""

from __future__ import annotations

from .exactlin import Mat, Subspace, dot, kernel, extend_basis


class _Filtration:
    __slots__ = ("ambient", "steps")

    def __init__(self, ambient, steps):
        self.ambient = int(ambient)
        items = sorted(steps.items())
        for _, sub in items:
            if not isinstance(sub, Subspace) or sub.ambient != self.ambient:
                raise ValueError("each step must be a subspace of the ambient space")
        self._validate_nesting(items)
        self.steps = tuple(self._canonicalize(items))

    @property
    def jump_levels(self):
        return tuple(l for l, _ in self.steps)

    def __eq__(self, other):
        return (type(other) is type(self)
                and self.ambient == other.ambient
                and self.steps == other.steps)

    def __hash__(self):
        return hash((type(self).__name__, self.ambient, self.steps))

    def apply(self, mat: Mat):
        return type(self)(mat.nrows, {l: s.apply(mat) for l, s in self.steps})

    def conj(self):
        return type(self)(self.ambient, {l: s.conj() for l, s in self.steps})

    def __repr__(self):
        body = ", ".join(f"{l}:{s.dim}" for l, s in self.steps)
        return f"{type(self).__name__}({body})"


class IncreasingFiltration(_Filtration):
    """W_l with W_l ⊆ W_{l+1}; zero below the first jump, constant after the last."""

    def _validate_nesting(self, items):
        for (_, lo), (_, hi) in zip(items, items[1:]):
            if not hi.contains(lo):
                raise ValueError("increasing filtration steps must be nested upward")

    def _canonicalize(self, items):
        kept = []
        prev = Subspace.zero(self.ambient)
        for l, sub in items:
            if sub != prev:
                kept.append((l, sub))
                prev = sub
        return kept

    def at(self, l) -> Subspace:
        out = Subspace.zero(self.ambient)
        for jump, sub in self.steps:
            if jump > l:
                break
            out = sub
        return out

    def gr_dim(self, l):
        return self.at(l).dim - self.at(l - 1).dim

    def shift(self, s):
        """The filtration l ↦ W_{l+s}."""
        return IncreasingFiltration(self.ambient, {l - s: sub for l, sub in self.steps})

    def is_exhaustive(self):
        return bool(self.steps) and self.steps[-1][1] == Subspace.full(self.ambient)

    @classmethod
    def from_generators(cls, ambient, gens):
        """W_l spanned by every generator listed at level l or below."""
        levels = sorted(gens)
        acc = []
        steps = {}
        for l in levels:
            acc.extend(gens[l])
            steps[l] = Subspace(ambient, acc)
        return cls(ambient, steps)


class DecreasingFiltration(_Filtration):
    """F^k with F^k ⊇ F^{k+1}; constant before the first jump, zero after the last."""

    def _validate_nesting(self, items):
        for (_, hi), (_, lo) in zip(items, items[1:]):
            if not hi.contains(lo):
                raise ValueError("decreasing filtration steps must be nested downward")

    def _canonicalize(self, items):
        kept = []
        prev = Subspace.zero(self.ambient)
        for l, sub in reversed(items):
            if sub != prev:
                kept.append((l, sub))
                prev = sub
        kept.reverse()
        return kept

    def at(self, k) -> Subspace:
        out = Subspace.zero(self.ambient)
        for jump, sub in reversed(self.steps):
            if jump < k:
                break
            out = sub
        return out

    def gr_dim(self, k):
        return self.at(k).dim - self.at(k + 1).dim

    def shift(self, s):
        """The filtration k ↦ F^{k+s}."""
        return DecreasingFiltration(self.ambient, {k - s: sub for k, sub in self.steps})

    def is_exhaustive(self):
        return bool(self.steps) and self.steps[0][1] == Subspace.full(self.ambient)

    @classmethod
    def from_generators(cls, ambient, gens):
        """F^k spanned by every generator listed at level k or above."""
        levels = sorted(gens, reverse=True)
        acc = []
        steps = {}
        for k in levels:
            acc.extend(gens[k])
            steps[k] = Subspace(ambient, acc)
        return cls(ambient, steps)


def level(v, filt: IncreasingFiltration):
    """Smallest l with v ∈ W_l.  The zero vector has no level."""
    if not any(v):
        raise ValueError("the zero vector lies in every step")
    for l, sub in filt.steps:
        if sub.contains_vector(v):
            return l
    raise ValueError("vector lies outside the filtration")


def colevel(v, filt: DecreasingFiltration):
    """Largest k with v ∈ F^k.  The zero vector has no colevel."""
    if not any(v):
        raise ValueError("the zero vector lies in every step")
    for k, sub in reversed(filt.steps):
        if sub.contains_vector(v):
            return k
    raise ValueError("vector lies outside the filtration")


# -- weight filtration of a nilpotent operator -------------------------------


def weight_filtration(n_op: Mat, center: int = 0, check: bool = False) -> IncreasingFiltration:
    """The unique increasing filtration W centered at `center` with
    n_op · W_l ⊆ W_{l-2} and n_op^l inducing Gr_{center+l} ≅ Gr_{center-l}.

    Built from Jordan chains: a block of size s contributes weights
    center-s+1, center-s+3, ..., center+s-1 down its chain.
    """
    dim = n_op.nrows
    if n_op.ncols != dim:
        raise ValueError("operator must be square")
    kers = [Subspace.zero(dim)]
    power = Mat.identity(dim)
    while kers[-1].dim < dim:
        power = power * n_op
        kers.append(kernel(power))
        if len(kers) > dim + 1:
            raise ValueError("operator is not nilpotent")
    nu = len(kers) - 1

    tops = {}
    descended = []  # images N^(t-s) v of longer-chain tops, at the current height
    for s in range(nu, 0, -1):
        lower = kers[s - 1] + Subspace(dim, descended)
        tops[s] = extend_basis(lower, kers[s])
        descended = [n_op.apply(x) for x in descended + list(tops[s])]

    by_weight = {}
    for s, vs in tops.items():
        for v in vs:
            x = v
            for j in range(s):
                by_weight.setdefault(center + s - 1 - 2 * j, []).append(x)
                x = n_op.apply(x)
    wf = IncreasingFiltration.from_generators(dim, by_weight) if by_weight \
        else IncreasingFiltration(dim, {center: Subspace.zero(dim)})
    if check:
        ok, why = weight_axioms_hold(wf, n_op, center)
        if not ok:
            raise ArithmeticError(f"weight filtration axioms failed: {why}")
    return wf


def weight_axioms_hold(wf: IncreasingFiltration, n_op: Mat, center: int):
    """Independently verify the two defining axioms of the weight filtration.

    Together with uniqueness, passing this check certifies a candidate
    filtration, so it doubles as a test oracle for the construction above.
    """
    if not wf.is_exhaustive():
        return False, "filtration is not exhaustive"
    levels = wf.jump_levels
    lo, hi = min(levels), max(levels)
    for l in range(lo, hi + 1):
        moved = wf.at(l).apply(n_op)
        if not wf.at(l - 2).contains(moved):
            return False, f"operator does not shift level {l} down by two"
    spread = max(hi - center, center - lo, 0)
    for l in range(1, spread + 1):
        d_hi = wf.gr_dim(center + l)
        d_lo = wf.gr_dim(center - l)
        if d_hi != d_lo:
            return False, f"graded dimensions at center±{l} differ ({d_hi} vs {d_lo})"
        below = wf.at(center - l - 1)
        pushed = wf.at(center + l).apply(n_op ** l) + below
        if pushed.dim - below.dim != d_hi:
            return False, f"power {l} is not an isomorphism on the graded pieces"
    return True, None


def isotropy_check(wf: IncreasingFiltration, q: Mat, n: int):
    """Check Q(W_l, W_m) = 0 whenever l + m < 2n.

    Returns (True, None) or (False, (l, m, u, v)) with a witness pair.
    """
    jumps = wf.jump_levels
    for l in jumps:
        # largest admissible partner suffices, since W_m grows with m
        best = None
        for m in jumps:
            if l + m < 2 * n and (best is None or m > best):
                best = m
        if best is None:
            continue
        right = wf.at(best).basis
        q_right = [q.apply(v) for v in right]
        for u in wf.at(l).basis:
            for v, qv in zip(right, q_right):
                if dot(u, qv):
                    return False, (l, best, u, v)
    return True, None
