"""Increasing and decreasing filtrations, and weight filtrations of nilpotents.

One class body serves both directions.  A filtration carries a sign, +1
for an increasing W and -1 for a decreasing F, and read in the order of
sign·level its steps grow: zero before the first jump, constant after the
last.  Every operation (lookup, graded dimensions, shifts, the level of a
vector, the isotropy test for a pairing and the shift test for an
operator) is written once against that order.

A filtration is stored by its jump levels only, so two filtrations agreeing at
every integer compare equal regardless of which levels the caller recorded.
"""

from __future__ import annotations

from .exactlin import Mat, Subspace, _dense_rows, _eliminate, _nonzero_ints, _rows, image, kernel


class _Filtration:
    """Steps X_l of Q(i)^ambient that grow in the order of _sign * l.

    Each subclass sets _sign and its _nesting_error.  `steps` holds the
    jumps as ascending (level, Subspace) pairs, whichever the direction.
    X_l is the step of the last jump at or before l in growing order, and
    zero before the first; that zero is built once per filtration.
    """

    __slots__ = ("ambient", "steps", "_zero")

    def __init__(self, ambient, steps):
        self.ambient = int(ambient)
        self._zero = Subspace.zero(self.ambient)
        kept = []
        prev = self._zero
        for l, sub in sorted(steps.items(), key=lambda item: self._sign * item[0]):
            if not isinstance(sub, Subspace) or sub.ambient != self.ambient:
                raise ValueError("each step must be a subspace of the ambient space")
            if not sub.contains(prev):
                raise ValueError(self._nesting_error)
            if sub != prev:
                kept.append((l, sub))
                prev = sub
        self.steps = tuple(kept[::self._sign])

    @property
    def jump_levels(self):
        return tuple(l for l, _ in self.steps)

    @property
    def _growing(self):
        """The steps in the order in which they grow."""
        return self.steps[::self._sign]

    def __eq__(self, other):
        return (type(other) is type(self)
                and self.ambient == other.ambient
                and self.steps == other.steps)

    def __hash__(self):
        return hash((type(self).__name__, self.ambient, self.steps))

    def apply(self, mat: Mat):
        return type(self)(mat.nrows, {l: s.apply(mat) for l, s in self.steps})

    def __repr__(self):
        body = ", ".join(f"{l}:{s.dim}" for l, s in self.steps)
        return f"{type(self).__name__}({body})"

    def at(self, l) -> Subspace:
        out = self._zero
        for jump, sub in self._growing:
            if self._sign * jump > self._sign * l:
                break
            out = sub
        return out

    def shift(self, s):
        """The filtration l ↦ X_{l+s}."""
        return type(self)(self.ambient, {l - s: sub for l, sub in self.steps})

    def is_exhaustive(self):
        return bool(self.steps) and self._growing[-1][1].dim == self.ambient

    @classmethod
    def from_generators(cls, ambient, gens):
        """X_l spanned by every generator vector listed at l or before it in
        growing order; each vector is read into int form once, here."""
        if any(len(v) != ambient for vs in gens.values() for v in vs):
            raise ValueError("vector length differs from ambient dimension")
        return cls.from_int_rows(ambient, {l: [_nonzero_ints(v) for v in vs]
                                           for l, vs in gens.items()})

    @classmethod
    def from_int_rows(cls, ambient, gens):
        """X_l spanned by every row listed at l or before it in growing order,
        the rows in `Mat.int_form`'s (triples, scale) form.  Each level
        eliminates only its own rows, together with the previous step's
        stored echelon rows, which already span everything listed before."""
        ambient = int(ambient)
        step, steps = Subspace.zero(ambient), {}
        for l in sorted(gens, key=lambda l: cls._sign * l):
            res, ims = _dense_rows(gens[l], ambient)
            for _, re, im in step.int_rows:
                res.append(list(re))
                ims.append(list(im))
            step = steps[l] = Subspace._echelon(ambient, res, ims, _eliminate(res, ims))
        return cls(ambient, steps)

    def isotropy(self, q: Mat, bound: int):
        """Check Q(X_a, X_b) = 0 whenever sign·(a+b) < sign·bound.

        W passes bound 2n, for Q(W_a, W_b) = 0 when a+b < 2n, and F passes n,
        for Q(F^a, F^b) = 0 when a+b > n.  Returns (True, None) or (False,
        (a, b, u, v)) with Q(u, v) != 0: a runs over the jump levels in
        ascending order, and b is a's admissible partner with the largest
        step, which contains the steps of all the others.  The pairing of
        the two echelon bases is one Gram product of their stored int rows,
        positive multiples of the basis rows, so it has the same zero cells;
        (u, v) are the basis rows of its first nonzero cell in row-major order.
        """
        s = self._sign
        jumps = self.jump_levels
        for a in jumps:
            partners = [b for b in jumps if s * (a + b) < s * bound]
            if not partners:
                continue
            b = max(partners, key=lambda m: s * m)
            left, right = self.at(a), self.at(b)
            gram = _rows((left,), self.ambient) * q * _rows((right,), self.ambient).transpose()
            for i, (row, _) in enumerate(gram.int_form()):
                if row:
                    return False, (a, b, left.basis[i], right.basis[row[0][0]])
        return True, None

    def first_escape(self, x: Mat, shift: int):
        """The first jump l, ascending, with x·X_l ⊄ X_{l+shift}, or None.

        The jumps suffice: from one jump to the next X_l stays put while
        X_{l+shift} can only grow.
        """
        for l, sub in self.steps:
            if not self.at(l + shift).contains(sub.apply(x)):
                return l
        return None


class IncreasingFiltration(_Filtration):
    """W_l with W_l ⊆ W_{l+1}; zero below the first jump, constant after the last."""

    _sign = 1
    _nesting_error = "increasing filtration steps must be nested upward"


class DecreasingFiltration(_Filtration):
    """F^k with F^k ⊇ F^{k+1}; constant before the first jump, zero after the last."""

    _sign = -1
    _nesting_error = "decreasing filtration steps must be nested downward"


def level(v, filt: _Filtration):
    """The first jump, in growing order, whose step holds v: the smallest l
    with v ∈ W_l, or the largest k with v ∈ F^k.  The zero vector has none."""
    if not any(v):
        raise ValueError("the zero vector lies in every step")
    for l, sub in filt._growing:
        if sub.contains_vector(v):
            return l
    raise ValueError("vector lies outside the filtration")


# -- weight filtration of a nilpotent operator -------------------------------


def weight_filtration(n_op: Mat, center: int = 0) -> IncreasingFiltration:
    """The unique increasing filtration W centered at `center` with
    n_op · W_l ⊆ W_{l-2} and n_op^l inducing Gr_{center+l} ≅ Gr_{center-l}.

    With N = n_op and N^ν = 0, for -ν ≤ l < ν

        W_{center+l} = Σ_{j ≥ max(0, -l-1)} ker N^{l+j+1} ∩ im N^j.

    In a Jordan basis both sides are spans of basis vectors, so the formula
    is checked one block at a time.  For a chain v, Nv, ..., N^{s-1}v, whose
    vector N^k v has weight center+s-1-2k, the term j spans the N^k v with
    k ≥ max(j, s-l-j-1); the least such bound over the allowed j is
    ⌈(s-1-l)/2⌉, so the sum spans the chain's vectors of weight at most
    center+l.  The sum stops at j = min(ν, ν-l) - 1: from j = ν-l-1 on the
    kernel is everything, and that term's im N^j holds all later ones.
    """
    dim = n_op.nrows
    if n_op.ncols != dim:
        raise ValueError("operator must be square")
    kers, ims = [Subspace.zero(dim)], []
    power = Mat.identity(dim)
    while kers[-1].dim < dim:
        if len(kers) > dim:
            raise ValueError("operator is not nilpotent")
        ims.append(image(power))
        power = power * n_op
        kers.append(kernel(power))
    nu = len(kers) - 1
    return IncreasingFiltration(dim, {
        center + l: Subspace.sum(dim, (kers[l + j + 1].intersect(ims[j])
                                       for j in range(max(0, -l - 1), min(nu, nu - l))))
        for l in range(-nu, nu)})

