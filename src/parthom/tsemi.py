"""Transformations and the semigroups they generate together with a group.

All maps act on the right, matching the permutation convention: x*(a b)
means apply a, then b.  Semigroup elements are canonicalized by their image
tuple, and every generation routine is a breadth-first walk over generator
words, so the resulting element set is independent of insertion order.
`closure` and `generate_arc_set` run that walk on `perm.walk`, the one
breadth-first kernel behind every orbit and closure in the package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product

from .partitions import canon_set_partition, coarsening_feasible, partition_shape
from .perm import (EnumerationCapExceeded, Permutation, compose_steps,
                   enumerate_elements, walk)

DEFAULT_SEMIGROUP_CAP = 10**6


class Transformation:
    """A map on n points stored as a 0-based image tuple, bijective or not."""

    __slots__ = ("images", "_kernel", "_image")

    def __init__(self, images):
        images = tuple(images)
        n = len(images)
        if not images:
            raise ValueError("empty transformation")
        if any(not 0 <= v < n for v in images):
            raise ValueError("image values must lie in 0..%d" % (n - 1))
        self.images = images
        self._kernel = None
        self._image = None

    @staticmethod
    def identity(n):
        return Transformation(range(n))

    @staticmethod
    def constant(n, value):
        return Transformation([value] * n)

    @staticmethod
    def from_permutation(perm):
        return Transformation(perm.images)

    @property
    def degree(self):
        return len(self.images)

    @property
    def image_set(self):
        if self._image is None:
            self._image = tuple(sorted(set(self.images)))
        return self._image

    @property
    def rank(self):
        return len(self.image_set)

    @property
    def kernel(self):
        """Fibers as a canonical set partition."""
        if self._kernel is None:
            fibers = {}
            for x, v in enumerate(self.images):
                fibers.setdefault(v, []).append(x)
            self._kernel = canon_set_partition(fibers.values())
        return self._kernel

    @property
    def kernel_type(self):
        return partition_shape(self.kernel)

    def is_permutation(self):
        return self.rank == self.degree

    def to_permutation(self):
        if not self.is_permutation():
            raise ValueError("not bijective: %s" % self.text())
        return Permutation(self.images)

    def __mul__(self, other):
        """self then other."""
        q = other.images
        if len(q) != len(self.images):
            raise ValueError("degrees differ: %d and %d"
                             % (len(self.images), len(q)))
        return Transformation(q[i] for i in self.images)

    def text(self):
        """1-based comma-separated image row."""
        return ",".join(str(v + 1) for v in self.images)

    def __eq__(self, other):
        return isinstance(other, Transformation) and self.images == other.images

    def __hash__(self):
        return hash(self.images)

    def __repr__(self):
        return "Transformation(%s)" % self.text()


def parse_transformation(text, n=None):
    """Parse a 1-based image row like '1,1,3,4,5'."""
    values = [int(tok) for tok in text.replace(",", " ").split()]
    if not values:
        raise ValueError("empty transformation text")
    if n is not None and len(values) != n:
        raise ValueError("expected %d images, got %d" % (n, len(values)))
    return Transformation(v - 1 for v in values)


def omega_power(a):
    """The unique idempotent among the positive powers of a.

    Successive powers a, a^2, a^3, ... enter a cycle after a tail of length
    at most n-1, and exactly one power in the cycle is idempotent, so at
    most 2n multiplications suffice.  (Repeated squaring would skip the
    idempotent whenever the cycle length has an odd prime factor.)
    """
    x = a
    for _ in range(2 * a.degree + 2):
        if x * x == x:
            return x
        x = x * a
    raise ArithmeticError("no idempotent power found for %s" % a.text())


@dataclass(frozen=True)
class TransSemigroup:
    degree: int
    elements: frozenset
    description: str = ""

    def __len__(self):
        return len(self.elements)

    def __contains__(self, item):
        return item in self.elements

    def __iter__(self):
        return iter(self.elements)

    def sorted_texts(self):
        return sorted(t.text() for t in self.elements)

    def is_closed(self, limit=10**4):
        """Full pairwise verification when small, first-k pairs otherwise."""
        els = sorted(self.elements, key=lambda t: t.images)
        pairs = 0
        for x in els:
            for y in els:
                if (x * y) not in self.elements:
                    return False
                pairs += 1
                if len(els) ** 2 > limit and pairs >= limit:
                    return True
        return True


def closure(gens, cap=DEFAULT_SEMIGROUP_CAP, description=""):
    """Least composition-closed set containing gens (no identity adjoined)."""
    gens = list(gens)
    if not gens:
        raise ValueError("closure needs at least one generator")
    degree = gens[0].degree
    if any(g.degree != degree for g in gens):
        raise ValueError("generators must share a degree")
    raw_gens = [g.images for g in gens]
    seen = walk(raw_gens, compose_steps(raw_gens), cap, EnumerationCapExceeded)
    return TransSemigroup(degree, frozenset(Transformation(t) for t in seen),
                          description or "closure of %d generators" % len(gens))


def generate_arc_set(maps, group, cap=DEFAULT_SEMIGROUP_CAP):
    """All non-bijective elements of the monoid the maps and group generate.

    Walks the monoid from the identity by right-multiplying with the maps and
    the group generators; every word containing a non-bijective map drops
    rank, so the non-permutation part is exactly what the maps add.
    """
    maps = list(maps)
    if not maps:
        raise ValueError("need at least one transformation")
    for a in maps:
        if a.is_permutation():
            raise ValueError("permutation given; maps must be non-bijective")
        if a.degree != group.degree:
            raise ValueError("degree mismatch: map on %d, group on %d"
                             % (a.degree, group.degree))
    n = group.degree
    raw_gens = [a.images for a in maps] + group.raw_gens()
    seen = walk((tuple(range(n)),), compose_steps(raw_gens), cap,
                EnumerationCapExceeded)
    full = list(range(n))
    non_units = frozenset(Transformation(t) for t in seen
                          if sorted(t) != full)
    return TransSemigroup(n, non_units,
                          "non-units of <%d maps, %s>"
                          % (len(maps), group.name))


def generate_arc(a, group, cap=DEFAULT_SEMIGROUP_CAP):
    """All non-bijective elements of the monoid generated by a and the group."""
    s = generate_arc_set([a], group, cap=cap)
    return TransSemigroup(s.degree, s.elements,
                          "non-units of <%s, %s>" % (a.text(), group.name))


def generate_conjugates(a, group, cap=DEFAULT_SEMIGROUP_CAP):
    """Closure of all conjugates g^-1 a g over the group."""
    if a.is_permutation():
        raise ValueError("permutation given; a must be non-bijective")
    if a.degree != group.degree:
        raise ValueError("degree mismatch: map on %d, group on %d"
                         % (a.degree, group.degree))
    conj = set()
    for g in enumerate_elements(group):
        ginv = g.inverse().images
        gi = g.images
        conj.add(tuple(gi[a.images[ginv[i]]] for i in range(a.degree)))
    gens = [Transformation(t) for t in sorted(conj)]
    return closure(gens, cap=cap,
                   description="conjugate closure of %s over %s"
                               % (a.text(), group.name))


def sn_normal_membership(b, a):
    """Does b lie in the semigroup the full symmetric group generates with a?

    Decided purely on kernel types: some symmetric-group translate of the
    kernel of a must refine the kernel of b, which is a bin-packing question
    on the two type partitions.
    """
    if a.degree != b.degree:
        raise ValueError("degree mismatch")
    if a.is_permutation() or b.is_permutation():
        raise ValueError("both maps must be non-bijective")
    return coarsening_feasible(a.kernel_type, b.kernel_type)


# ---------------------------------------------------------------------------
# structural predicates


def idempotents(semigroup):
    return {x for x in semigroup if x * x == x}


def is_regular(semigroup):
    """Every x has some y in the semigroup with x y x = x.

    x y x = x says exactly that y sends each image point z of x into the
    fiber of x over z, so regularity of x means: some section of the fibers
    of x over its image occurs as the restriction to im(x) of an element.
    Restrictions are bucketed per distinct image set once, then each x only
    probes its own fiber sections against the bucket.
    """
    images = {x.image_set for x in semigroup}
    restrictions = {image: set() for image in images}
    for y in semigroup:
        yim = y.images
        for image, bucket in restrictions.items():
            bucket.add(tuple(yim[z] for z in image))
    for x in semigroup:
        fibers = {}
        for point, value in enumerate(x.images):
            fibers.setdefault(value, []).append(point)
        sections = product(*(fibers[z] for z in x.image_set))
        bucket = restrictions[x.image_set]
        if not any(section in bucket for section in sections):
            return False
    return True


def is_idempotent_generated(semigroup, cap=DEFAULT_SEMIGROUP_CAP):
    ids = idempotents(semigroup)
    if not ids:
        return len(semigroup) == 0
    return closure(sorted(ids, key=lambda t: t.images), cap=cap).elements \
        == semigroup.elements


def contains_all_constants(semigroup):
    n = semigroup.degree
    return all(Transformation.constant(n, v) in semigroup for v in range(n))


# ---------------------------------------------------------------------------
# Green's relations, two ways


@dataclass
class GreenVerdict:
    relation: str          # "R", "L", or "J"
    by_ideals: bool
    by_invariants: bool

    @property
    def agree(self):
        return self.by_ideals == self.by_invariants


@dataclass
class GreenReport:
    verdicts: list

    @property
    def all_agree(self):
        return all(v.agree for v in self.verdicts)

    def as_dict(self):
        return {v.relation: {"ideals": v.by_ideals,
                             "invariants": v.by_invariants}
                for v in self.verdicts}


def _right_ideal(raw, x):
    xi = x.images
    out = {xi}
    for s in raw:
        out.add(tuple(s[v] for v in xi))
    return out


def _left_ideal(raw, x):
    xi = x.images
    out = {xi}
    for s in raw:
        out.add(tuple(xi[v] for v in s))
    return out


def _two_sided_ideal(raw, x):
    out = set(_left_ideal(raw, x))
    for y in list(out):
        for s in raw:
            out.add(tuple(s[v] for v in y))
    return out


def green_checks(semigroup, a, b):
    """Compare ideal equality with the kernel/image/rank shortcuts."""
    if a not in semigroup or b not in semigroup:
        raise ValueError("both elements must belong to the semigroup")
    raw = [t.images for t in semigroup]
    r = GreenVerdict("R",
                     _right_ideal(raw, a) == _right_ideal(raw, b),
                     a.kernel == b.kernel)
    l = GreenVerdict("L",
                     _left_ideal(raw, a) == _left_ideal(raw, b),
                     a.image_set == b.image_set)
    j = GreenVerdict("J",
                     _two_sided_ideal(raw, a) == _two_sided_ideal(raw, b),
                     a.rank == b.rank)
    return GreenReport([r, l, j])


@dataclass
class LocalGroupReport:
    size: int
    rank: int
    closed: bool
    has_identity: bool

    @property
    def factorial_match(self):
        return self.size == math.factorial(self.rank)

    @property
    def is_group_like(self):
        return self.closed and self.has_identity and self.factorial_match


def local_group_at(semigroup, e):
    """The maximal subgroup candidate at an idempotent: same kernel and image."""
    if e not in semigroup:
        raise ValueError("idempotent must belong to the semigroup")
    if e * e != e:
        raise ValueError("element is not idempotent")
    members = {x for x in semigroup
               if x.kernel == e.kernel and x.image_set == e.image_set}
    closed = all((x * y) in members for x in members for y in members)
    has_identity = all(x * e == x and e * x == x for x in members)
    return members, LocalGroupReport(len(members), e.rank, closed, has_identity)
