"""Permutations, permutation groups, orbits, and stabilizer chains.

Conventions used throughout the package:

- points are 0-based internally; every parser/formatter speaks 1-based
- composition is left-to-right: (p * q) means "apply p, then q", so that
  x.(p*q) = (x.p).q and the group acts on the right
- every breadth-first walk in the package (orbits, Schreier trees, element
  enumeration, semigroup closures) runs through `walk`, which keeps a
  visited-set on canonical forms and refuses to return a truncated result:
  exceeding the cap raises
- the decision layer walks compact states (see CompactAction): a k-set is an
  int bitmask with bit p set for point p, and a tuple of points is a bytes
  object up to degree 256
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field

DEFAULT_ORBIT_CAP = 10**7
DEFAULT_ENUM_CAP = 10**6


class OrbitCapExceeded(RuntimeError):
    """Raised when an orbit walk visits more objects than its cap allows."""


class EnumerationCapExceeded(RuntimeError):
    """Raised when element enumeration exceeds its cap."""


class GroupFileError(ValueError):
    """Malformed group file; message carries the offending line number."""


class InternalCheckError(RuntimeError):
    """An exact-arithmetic consistency check failed (never a user error)."""


class Permutation:
    """An element of S_n stored as a 0-based image tuple."""

    __slots__ = ("images",)

    def __init__(self, images):
        images = tuple(images)
        if sorted(images) != list(range(len(images))):
            raise ValueError("not a permutation: %r" % (images,))
        self.images = images

    @staticmethod
    def identity(degree):
        return _unchecked(tuple(range(degree)))

    @staticmethod
    def from_one_line(values):
        """Build from a 1-based image row like [2, 3, 1]."""
        return Permutation(v - 1 for v in values)

    @staticmethod
    def from_cycles(degree, cycles):
        """Build from 1-based cycles, e.g. [(1, 2, 3), (4, 5)]."""
        images = list(range(degree))
        for cycle in cycles:
            pts = [c - 1 for c in cycle]
            if any(p < 0 or p >= degree for p in pts):
                raise ValueError("cycle point out of range 1..%d" % degree)
            if len(set(pts)) != len(pts):
                raise ValueError("repeated point in cycle %r" % (cycle,))
            for a, b in zip(pts, pts[1:]):
                images[a] = b
            if pts:
                images[pts[-1]] = pts[0]
        return Permutation(images)

    @property
    def degree(self):
        return len(self.images)

    def __mul__(self, other):
        """self then other."""
        q = other.images
        if len(q) != len(self.images):
            raise ValueError("degrees differ: %d and %d"
                             % (len(self.images), len(q)))
        return _unchecked(tuple(map(q.__getitem__, self.images)))

    def inverse(self):
        inv = [0] * len(self.images)
        for i, j in enumerate(self.images):
            inv[j] = i
        return _unchecked(tuple(inv))

    def is_identity(self):
        return all(i == j for i, j in enumerate(self.images))

    def one_line(self):
        """1-based image row."""
        return tuple(i + 1 for i in self.images)

    def cycle_string(self):
        """1-based disjoint-cycle form, '()' for the identity."""
        seen = set()
        out = []
        for i in range(len(self.images)):
            if i in seen or self.images[i] == i:
                continue
            cycle = [i]
            j = self.images[i]
            while j != i:
                seen.add(j)
                cycle.append(j)
                j = self.images[j]
            out.append("(" + " ".join(str(c + 1) for c in cycle) + ")")
        return "".join(out) or "()"

    def __eq__(self, other):
        return isinstance(other, Permutation) and self.images == other.images

    def __hash__(self):
        return hash(self.images)

    def __repr__(self):
        return "Permutation(%s)" % (self.cycle_string(),)


def _unchecked(images):
    """A Permutation from an image tuple already known to be a permutation,
    without the sort that the public constructor validates with."""
    perm = object.__new__(Permutation)
    perm.images = images
    return perm


def parse_cycles(text, degree):
    """Parse 1-based cycle notation like '(1 2 3)(4 5)' or '(1,2,3)'."""
    text = text.strip()
    if text in ("()", ""):
        return Permutation.identity(degree)
    if not text.startswith("("):
        raise ValueError("cycle notation must start with '('")
    cycles = []
    pos = 0
    while pos < len(text):
        if text[pos].isspace():
            pos += 1
            continue
        if text[pos] != "(":
            raise ValueError("unexpected %r in cycle notation" % text[pos])
        end = text.find(")", pos)
        if end < 0:
            raise ValueError("unbalanced '(' in cycle notation")
        body = text[pos + 1:end].replace(",", " ").split()
        if body:
            try:
                cycles.append(tuple(int(tok) for tok in body))
            except ValueError:
                raise ValueError("non-integer point in cycle %r" % text[pos:end + 1])
        pos = end + 1
    return Permutation.from_cycles(degree, cycles)


# ---------------------------------------------------------------------------
# actions


def act_point(x, images):
    return images[x]


def act_tuple(xs, images):
    return tuple(images[x] for x in xs)


def act_set(xs, images):
    """Action on a k-subset held as a sorted tuple."""
    return tuple(sorted(images[x] for x in xs))


# ---------------------------------------------------------------------------
# compact actions


@dataclass(frozen=True)
class CompactAction:
    """An action on compact states, for long orbit walks.

    `steps(group)` returns one map state -> image state per generator, in
    generator order, and the walks apply those.  `encode(obj, degree)` and
    `decode(state, degree)` convert from and to the canonical tuple form
    that the matching public action (`act_set`, ...) works on.
    """

    encode: Callable
    decode: Callable
    steps: Callable


def mask_of(points):
    """Bitmask of a set of points: bit p is set for each point p."""
    mask = 0
    for p in points:
        mask |= 1 << p
    return mask


def points_of(mask):
    """The points of a bitmask, as a sorted tuple."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


def mask_map(images):
    """The map on bitmasks that the permutation `images` induces.

    One 256-entry table per 8 points holds the image mask of every subset
    of those points, so a mask maps by one lookup per byte.
    """
    n = len(images)
    tables = []
    for base in range(0, n, 8):
        table = [0] * 256
        for v in range(1, 256):
            p = base + (v & -v).bit_length() - 1
            table[v] = table[v & (v - 1)] | (1 << images[p] if p < n else 0)
        tables.append(table)
    # unrolled up to degree 24, where the lookups run twice as fast as the
    # loop below
    if len(tables) == 1:
        return tables[0].__getitem__
    if len(tables) == 2:
        t0, t1 = tables
        return lambda m: t0[m & 255] | t1[m >> 8]
    if len(tables) == 3:
        t0, t1, t2 = tables
        return lambda m: t0[m & 255] | t1[m >> 8 & 255] | t2[m >> 16]

    def step(m):
        out = 0
        for table in tables:
            out |= table[m & 255]
            m >>= 8
        return out
    return step


def encode_points(points, degree):
    """A sequence of points as bytes, or as a tuple above degree 256."""
    return bytes(points) if degree <= 256 else tuple(points)


def point_map(images):
    """The map on `encode_points` sequences that the permutation induces."""
    if len(images) <= 256:
        table = bytes(images) + bytes(256 - len(images))
        return lambda xs: xs.translate(table)
    get = images.__getitem__
    return lambda xs: tuple(map(get, xs))


compact_set = CompactAction(
    encode=lambda points, degree: mask_of(points),
    decode=lambda mask, degree: points_of(mask),
    steps=lambda group: group.mask_maps())

compact_tuple = CompactAction(
    encode=encode_points,
    decode=lambda xs, degree: tuple(xs),
    steps=lambda group: [point_map(images) for images in group.raw_gens()])


# ---------------------------------------------------------------------------
# stabilizer chains


@dataclass
class ChainLevel:
    point: int
    gens: list = field(default_factory=list)
    transversal: dict = field(default_factory=dict)


@dataclass
class StabilizerChain:
    """Base-and-strong-generators data; levels[i] stabilizes base[:i]."""

    degree: int
    levels: list

    @property
    def base(self):
        return tuple(level.point for level in self.levels)

    def order(self):
        n = 1
        for level in self.levels:
            n *= len(level.transversal)
        return n

    def sift(self, perm):
        """Factor perm through the transversals; identity residue = member."""
        return _strip(self.levels, perm, 0)[0]

    def contains(self, perm):
        return self.sift(perm).is_identity()


def _strip(levels, g, start):
    """Sift g through levels[start:]: (residue, index of the level it
    stopped at, or len(levels))."""
    for j in range(start, len(levels)):
        u = levels[j].transversal.get(g.images[levels[j].point])
        if u is None:
            return g, j
        g = g * u.inverse()
        if g.is_identity():
            break
    return g, len(levels)


def schreier_sims(degree, generators):
    """Deterministic base/strong-generating-set construction.

    Base points are taken as the smallest point moved at each level, so for a
    fixed generator list the chain (and all transversals) is reproducible.
    Level k sees every strong generator fixing the first k base points, which
    keeps the level groups nested the way the order product requires.
    """
    base = []
    strong = []
    levels = []

    def rebuild(k):
        level = levels[k]
        level.gens = [g for g in strong
                      if all(g.images[base[m]] == base[m] for m in range(k))]
        level.transversal = orbit_transversal(PermGroup(degree, level.gens),
                                              level.point, act_point)

    def add_generator(g, start):
        """Sift g in; returns True if a new strong generator was absorbed."""
        residue, j = _strip(levels, g, start)
        if residue.is_identity():
            return False
        strong.append(residue)
        if j == len(levels):
            moved = min(i for i in range(degree) if residue.images[i] != i)
            base.append(moved)
            levels.append(ChainLevel(moved))
        for k in range(j + 1):
            rebuild(k)
        return True

    for g in generators:
        if not g.is_identity():
            add_generator(g, 0)

    # Close under Schreier generators: repeat full passes until no level
    # absorbs a new strong generator.  Each absorption strictly grows the
    # product of transversal sizes, so the loop terminates.
    changed = True
    while changed:
        changed = False
        for i in range(len(levels)):
            level = levels[i]
            for x in list(level.transversal):
                ux = level.transversal[x]
                for s in level.gens:
                    y = s.images[x]
                    uy = level.transversal[y]
                    schreier = ux * s * uy.inverse()
                    if schreier.is_identity():
                        continue
                    if add_generator(schreier, i + 1):
                        changed = True
            if changed:
                break

    return StabilizerChain(degree, levels)


# ---------------------------------------------------------------------------
# groups


class PermGroup:
    """A permutation group given by generators on 1..degree (0-based inside)."""

    def __init__(self, degree, generators, name=None):
        generators = tuple(generators)
        if not generators:
            generators = (Permutation.identity(degree),)
        for g in generators:
            if g.degree != degree:
                raise ValueError("generator degree %d != group degree %d"
                                 % (g.degree, degree))
        self.degree = degree
        self.generators = generators
        self.name = name or ("group of degree %d" % degree)
        self._chain = None
        self._mask_maps = None

    def raw_gens(self):
        """Image tuples of the generators, for tight orbit loops."""
        return [g.images for g in self.generators]

    def mask_maps(self):
        """One `mask_map` per generator, built on first use."""
        if self._mask_maps is None:
            self._mask_maps = [mask_map(g.images) for g in self.generators]
        return self._mask_maps

    def chain(self):
        if self._chain is None:
            self._chain = schreier_sims(self.degree, self.generators)
        return self._chain

    def order(self):
        return self.chain().order()

    def contains(self, perm):
        if perm.degree != self.degree:
            return False
        return self.chain().contains(perm)

    def __repr__(self):
        return "PermGroup(%s)" % self.name


def walk(seeds, steps, cap, error):
    """The one breadth-first walk: the set of states reached from `seeds` by
    the `steps` (maps state -> state), applied in frontier order and step
    order.  Reaching more than `cap` states raises `error`."""
    seen = set(seeds)
    frontier = list(seen)
    while frontier:
        nxt = []
        for x in frontier:
            for step in steps:
                y = step(x)
                if y not in seen:
                    if len(seen) >= cap:
                        raise error(
                            "walk stopped at the cap of %d states (%d states "
                            "visited, %d in the frontier being expanded)"
                            % (cap, len(seen), len(frontier)))
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return seen


def compose_steps(raw):
    """Steps that right-multiply an image tuple by each of `raw`."""
    return [lambda p, get=q.__getitem__: tuple(map(get, p)) for q in raw]


def _action_steps(group, act):
    """A CompactAction's steps, or `act(obj, images)` for each generator
    (for `act_point`, the image tuple's own lookup)."""
    if isinstance(act, CompactAction):
        return act.steps(group)
    if act is act_point:
        return [images.__getitem__ for images in group.raw_gens()]
    return [lambda x, images=images: act(x, images)
            for images in group.raw_gens()]


def enumerate_elements(group, cap=DEFAULT_ENUM_CAP):
    """All elements by word BFS over the generators; cap is a hard limit."""
    found = walk((tuple(range(group.degree)),), compose_steps(group.raw_gens()),
                 cap, EnumerationCapExceeded)
    return [_unchecked(images) for images in found]


def orbit(group, seed, act, cap=DEFAULT_ORBIT_CAP):
    """Breadth-first orbit of seed under the group, as a set of canonical objects.

    `act` is either a CompactAction, whose steps map the states, or a
    function where `act(obj, images)` returns the canonical form of obj moved
    by the permutation with the given image tuple.  Exceeding `cap` raises
    OrbitCapExceeded rather than returning a truncated orbit.
    """
    return walk((seed,), _action_steps(group, act), cap, OrbitCapExceeded)


def orbit_transversal(group, seed, act, cap=DEFAULT_ORBIT_CAP):
    """Schreier tree of the orbit of seed, for either kind of `act` that
    `orbit` takes: each state maps to the product of generators along the
    first walked path to it, and the dict lists the states in walk order."""
    tree = {seed: Permutation.identity(group.degree)}

    def edge(step, g):
        def tree_step(x):
            y = step(x)
            if y not in tree:
                tree[y] = tree[x] * g
            return y
        return tree_step

    walk((seed,), list(map(edge, _action_steps(group, act), group.generators)),
         cap, OrbitCapExceeded)
    return tree


def stabilizer_generators(group, seed, act, cap=DEFAULT_ORBIT_CAP):
    """Setwise/pointwise stabilizer of seed via Schreier generators.

    Works for either kind of action `orbit` takes; the result is a group on
    the same points as `group` whose elements all fix `seed` under `act`.
    """
    trans = orbit_transversal(group, seed, act, cap=cap)
    steps = _action_steps(group, act)
    gens = []
    seen = set()
    for x, ux in trans.items():
        for step, g in zip(steps, group.generators):
            schreier = ux * g * trans[step(x)].inverse()
            if schreier.is_identity() or schreier.images in seen:
                continue
            seen.add(schreier.images)
            gens.append(schreier)
    if not gens:
        gens = [Permutation.identity(group.degree)]
    return PermGroup(group.degree, gens,
                     name="stabilizer in %s" % group.name)


def induced_action(group, domain):
    """Restrict the group to an invariant list of points (0-based).

    The returned group acts on 0..len(domain)-1 by position.  A generator
    moving any domain point outside the domain is an error.
    """
    index = {p: i for i, p in enumerate(domain)}
    gens = []
    seen = set()
    for g in group.generators:
        images = []
        for p in domain:
            q = g.images[p]
            if q not in index:
                raise ValueError(
                    "domain not invariant: generator moves point %d out" % (p + 1))
            images.append(index[q])
        t = tuple(images)
        if t not in seen:
            seen.add(t)
            gens.append(Permutation(t))
    return PermGroup(len(domain), gens, name="induced from %s" % group.name)


def burnside_orbit_count(group, domain, act, cap=DEFAULT_ENUM_CAP):
    """Number of orbits on `domain` by averaging fixed points, exactly.

    Enumerates the whole group (within cap), so only suitable for small
    groups; a non-integer average means the inputs were inconsistent and is
    an internal error, never rounded away.
    """
    elements = enumerate_elements(group, cap=cap)
    total = 0
    for g in elements:
        images = g.images
        total += sum(1 for x in domain if act(x, images) == x)
    if total % len(elements) != 0:
        raise InternalCheckError(
            "fixed-point total %d not divisible by group order %d"
            % (total, len(elements)))
    return total // len(elements)


def orbit_count(group, domain, act):
    """Number of orbits on an explicit finite domain, which must be a union
    of orbits: walking out of it raises ValueError."""
    domain = set(domain)
    steps = _action_steps(group, act)
    remaining = set(domain)
    count = 0
    while remaining:
        # an orbit with more states than the domain trips the cap, which
        # raises ValueError too
        reached = walk((remaining.pop(),), steps, len(domain), ValueError)
        if not reached <= domain:
            raise ValueError("domain must be a union of orbits")
        remaining -= reached
        count += 1
    return count


# ---------------------------------------------------------------------------
# group files


def parse_group_file(text, name=None):
    """Parse the plain-text group format.

    First effective line: `degree <n>`.  Each following effective line is one
    generator, either `img: i1 i2 ... in` (1-based image row) or disjoint
    cycles like `(1 2 3)(4 5)`.  `#` starts a comment.  Malformed input raises
    GroupFileError naming the line.
    """
    degree = None
    gens = []
    for lineno, rawline in enumerate(text.splitlines(), start=1):
        line = rawline.split("#", 1)[0].strip()
        if not line:
            continue
        if degree is None:
            parts = line.split()
            if len(parts) != 2 or parts[0] != "degree":
                raise GroupFileError(
                    "line %d: expected 'degree <n>', got %r" % (lineno, line))
            try:
                degree = int(parts[1])
            except ValueError:
                raise GroupFileError(
                    "line %d: degree is not an integer: %r" % (lineno, parts[1]))
            if degree < 1:
                raise GroupFileError("line %d: degree must be >= 1" % lineno)
            continue
        try:
            if line.startswith("img:"):
                values = [int(tok) for tok in line[4:].replace(",", " ").split()]
                if len(values) != degree:
                    raise ValueError(
                        "image row has %d entries, degree is %d"
                        % (len(values), degree))
                gens.append(Permutation.from_one_line(values))
            elif line.startswith("("):
                gens.append(parse_cycles(line, degree))
            else:
                raise ValueError("expected 'img:' row or cycle notation")
        except ValueError as exc:
            raise GroupFileError("line %d: %s" % (lineno, exc))
    if degree is None:
        raise GroupFileError("no 'degree <n>' line found")
    if not gens:
        gens = [Permutation.identity(degree)]
    return PermGroup(degree, gens, name=name)


def render_group_file(group, comment=None):
    """Serialize a group in the format parse_group_file reads back."""
    lines = []
    if comment:
        for c in comment.splitlines():
            lines.append("# " + c)
    lines.append("degree %d" % group.degree)
    for g in group.generators:
        lines.append(g.cycle_string())
    return "\n".join(lines) + "\n"
