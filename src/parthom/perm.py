"""Permutations, permutation groups, orbits, and stabilizer chains.

Conventions used throughout the package:

- points are 0-based internally; every parser/formatter speaks 1-based
- composition is left-to-right: (p * q) means "apply p, then q", so that
  x.(p*q) = (x.p).q and the group acts on the right
- every breadth-first walk keeps a visited-set on canonical forms and
  refuses to return a truncated result: exceeding the cap raises, with one
  message.  Orbits and Schreier trees run through `walk`, one state and
  one step at a time, so a tree's first edges follow walk order; image
  rows (element enumeration, semigroup closures) run through `walk_rows`,
  which translates a whole frontier through each generator's table at once
- the decisions walk nothing: they read orbit sizes off stabilizer chains
  (`StabilizerChain.prefix_orbit_size`, `block_orbit_size`)
- the image rows of transformations and of enumerated group elements are
  walked as bytes objects up to degree 256 (a `WideRow` above), mapped by
  `translate`
- `orbit`, `orbit_transversal`, `stabilizer_generators` and `orbit_count`
  take a public action (`act_point`, `act_set`, `act_tuple`, the partition
  actions): a function `act(obj, images)` on canonical tuple forms
"""

from __future__ import annotations

import itertools
import math
import operator

from .partitions import parse_number, parse_numbers

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
        images = as_points(images)
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
        return self.images == tuple(range(len(self.images)))

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


def as_points(values):
    """The values as a tuple of ints; ValueError if one is not an integer
    (a float or a string, say)."""
    values = tuple(values)
    try:
        return tuple(map(operator.index, values))
    except TypeError:
        raise ValueError("image values must be integers: %r" % (values,)) \
            from None


def _unchecked(images):
    """A Permutation from an image tuple already known to be a permutation,
    without the sort that the public constructor validates with."""
    perm = object.__new__(Permutation)
    perm.images = images
    return perm


def parse_cycles(text, degree):
    """Parse 1-based cycle notation like '(1 2 3)(4 5)' or '(1,2,3)'; an
    empty text or '()' is the identity."""
    *cycles, rest = text.split(")")
    cycles = [c.lstrip() for c in cycles]
    if rest.strip() or not all(c.startswith("(") for c in cycles):
        raise ValueError("not cycle notation: %r" % text)
    return Permutation.from_cycles(
        degree, [tuple(parse_numbers(c[1:])) for c in cycles])


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
# rows of points


class WideRow(tuple):
    """A sequence of points above degree 256, where bytes cannot hold them:
    a tuple whose `translate(table)` maps every point through the table, as
    `bytes.translate` does."""

    __slots__ = ()

    def translate(self, table):
        return WideRow(map(table.__getitem__, self))


def encode_points(points, degree):
    """A sequence of points as bytes, or as a WideRow above degree 256."""
    return bytes(points) if degree <= 256 else WideRow(points)


def point_table(images):
    """The table `translate` maps encoded points through for the image row
    `images`: the row padded to the 256 bytes `bytes.translate` takes, or a
    tuple above degree 256."""
    if len(images) <= 256:
        return bytes(images).ljust(256, b"\0")
    return tuple(images)


def point_tables(rows):
    """The `point_table` of each row in `rows`."""
    return list(map(point_table, rows))


# ---------------------------------------------------------------------------
# stabilizer chains
#
# Every chain has the base 0, 1, 2, ...: level k belongs to the pointwise
# stabilizer of points 0..k-1 and holds the orbit of point k, trivial levels
# included.  So the orbit of the tuple (0, ..., t-1) can be read off the
# first t levels, and sifting looks up g[k] at level k.


class ChainLevel:
    """One level: generators of the level's group, all fixing points
    0..point-1, the Schreier tree of `point` under them, the image tuples
    of the tree elements' inverses, which sifting applies, and for each
    tree point how many of the generators Schreier-Sims has checked there
    for Schreier generators.

    The tree only grows: a new generator extends it in place, every entry
    it held stays as it was, and only the new points get a tree element and
    an inverse.  Generators are only appended, so the checked ones at a
    point are a prefix of `gens`."""

    def __init__(self, point, degree):
        identity = Permutation.identity(degree)
        self.point = point
        self.gens = []
        self.transversal = {point: identity}
        self.inverses = {point: identity.images}
        self.checked = {}

    def add_generator(self, h):
        """Append the strong generator h and extend the tree to its orbit."""
        self.gens.append(h)
        known = len(self.transversal)
        extend_transversal(self.transversal,
                           [s.images.__getitem__ for s in self.gens],
                           self.gens)
        for x, u in itertools.islice(self.transversal.items(), known, None):
            self.inverses[x] = u.inverse().images


class StabilizerChain:
    """Base-and-strong-generators data; levels[k] stabilizes points 0..k-1."""

    def __init__(self, degree, levels):
        self.degree = degree
        self.levels = levels

    @property
    def base(self):
        return tuple(level.point for level in self.levels)

    def order(self):
        return self.prefix_orbit_size(len(self.levels))

    def prefix_orbit_size(self, t):
        """Size of the orbit of the tuple (0, ..., t-1), |G| / |G_(0..t-1)|:
        the product of the first t basic orbit lengths, which is |G| once t
        passes the base."""
        return math.prod(len(level.transversal) for level in self.levels[:t])

    def block_orbit_size(self, sizes, ordered=False):
        """Size of the orbit of the blocks 0..s1-1, s1..s1+s2-1, ... (run
        sizes `sizes` from point 0) as a set of sets, or as a tuple of sets
        when `ordered`.

        Let T be the tuple (0, ..., m-1) of the blocks' points and W the
        reorderings of T that keep the blocks: points permuted inside each
        block and, unless `ordered`, equal-size blocks swapped.  The blocks'
        stabilizer maps onto S, the w in W that some group element agrees
        with on T, with kernel G_(0..m-1), so the orbit has |T^G| / |S|
        elements.  S is a group, so |S| is the product of its basic orbit
        lengths on the base 0, ..., m-1: the number of images y of point j
        for which the w that fixes 0..j-1 and sends j to y extends to an
        element of S.  A depth-first backtrack over W looks for one such
        extension, point by point in base order, and keeps a partial map
        only while its images sift: a map of 0..j is realized exactly when
        w(j), moved by the inverses of the transversal elements already
        chosen, lies in the orbit of level j, and beyond the last level
        every point must map to itself.  A repeated image fails the sift,
        so the backtrack need not keep its maps injective.  The searches
        for different y cover disjoint parts of W.
        """
        blocks = []
        start = 0
        for s in sizes:
            blocks.append(range(start, start + s))
            start += s
        m = start
        home = [b for b in blocks for _ in b]
        # the images a block's first point may take: its own block, or every
        # block of its size; later points go to the block the first one hit
        starts = {b.start: tuple(b) if ordered else
                  tuple(x for c in blocks if len(c) == len(b) for x in c)
                  for b in blocks}
        levels = self.levels

        def options(j, previous_image):
            return starts.get(j) or home[previous_image]

        def extends(j, residues, images):
            """Whether a map realized on 0..j-1 extends to an element of
            S.  A node is (j, residues, images): residues[y] is point y
            moved by the inverses chosen at levels 0..j-1, and images are
            the values w(j) may take."""
            stack = [(j, residues, images)]
            while stack:
                j, residues, images = stack.pop()
                if j == m:
                    return True
                inverses = levels[j].inverses if j < len(levels) else {j: None}
                for y in images:
                    r = residues[y]
                    if r in inverses:
                        if r != j:
                            residues_y = tuple(map(inverses[r].__getitem__,
                                                   residues))
                        else:   # the transversal element of j is 1
                            residues_y = residues
                        stack.append((j + 1, residues_y, options(j + 1, y)))
            return False

        reorderings = 1
        for j in range(m):
            inverses = levels[j].inverses if j < len(levels) else {}
            # y = j is the identity's image; the residues of the other
            # candidates start from the inverse of their transversal element
            reorderings *= 1 + sum(
                extends(j + 1, inverses[y][:m], options(j + 1, y))
                for y in options(j, j) if y != j and y in inverses)
        tuples = self.prefix_orbit_size(m)
        if tuples % reorderings:
            raise InternalCheckError(
                "%d realized block reorderings do not divide the orbit of "
                "%d tuples" % (reorderings, tuples))
        return tuples // reorderings

    def sift(self, perm):
        """Factor perm through the transversals; identity residue = member."""
        return _unchecked(_sift(self.levels, perm.images, 0)[0])

    def contains(self, perm):
        return self.sift(perm).is_identity()


def _sift(levels, g, start):
    """Sift the image tuple g through levels[start:]: (residue, index of the
    level it stopped at, len(levels) when it passed every level, or None
    when the residue is the identity)."""
    identity = tuple(range(len(g)))
    for j in range(start, len(levels)):
        if g == identity:
            return g, None
        inverse = levels[j].inverses.get(g[j])
        if inverse is None:
            return g, j
        g = tuple(map(inverse.__getitem__, g))
    return g, None if g == identity else len(levels)


def _absorb(levels, g, start):
    """Sift the image tuple g from level `start`; unless it sifts to the
    identity, add its residue as a strong generator to the levels from
    `start` down to the one it stopped at, appending levels up to the first
    point it moves, and extend those levels' trees.  Returns the deepest of
    them, or None when g sifted through.

    The levels above `start` need not gain the residue: sifting from
    `start` only multiplies g by elements of the level groups there, so
    when g lies in the group of level start-1, so does the residue.
    """
    residue, j = _sift(levels, g, start)
    if j is None:
        return None
    if j == len(levels):
        j = next(p for p in range(j, len(residue)) if residue[p] != p)
        levels.extend(ChainLevel(p, len(residue))
                      for p in range(len(levels), j + 1))
    h = _unchecked(residue)
    for level in levels[start:j + 1]:
        level.add_generator(h)
    return j


def _schreier_generators(tree, steps, gens, inverse_of, checked):
    """The Schreier generators u_x s u_{xs}^-1 of a Schreier tree, as image
    tuples, for the pairs (x, s) in tree order, then generator order,
    skipping at each x the first checked[x] generators (0 when x is not a
    key).  checked[x] counts a pair once its generator is yielded, and the
    tree edges, where the generator is the identity, once the scan of x is
    through.  `inverse_of(y)` is the image tuple of tree[y]'s inverse."""
    for x, ux in tree.items():
        k = checked.get(x, 0)
        for step, s in zip(steps[k:], gens[k:]):
            k += 1
            y = step(x)
            uxs = tuple(map(s.__getitem__, ux.images))
            if uxs != tree[y].images:
                checked[x] = k
                yield tuple(map(inverse_of(y).__getitem__, uxs))
        checked[x] = k


def _absorb_schreier_generator(levels, i):
    """Sift the Schreier generators of level i into the levels below it
    until one is absorbed: the level `_absorb` returns for it, or None when
    all sift through.  The scan skips the pairs checked before: their tree
    entries never change and the levels below only grow, so their Schreier
    generators still sift through."""
    level = levels[i]
    gens = [s.images for s in level.gens]
    for h in _schreier_generators(level.transversal,
                                  [s.__getitem__ for s in gens], gens,
                                  level.inverses.__getitem__, level.checked):
        j = _absorb(levels, h, i + 1)
        if j is not None:
            return j
    return None


def _close(levels):
    """Complete a partial chain, deepest level first (Holt, Eick & O'Brien,
    *Handbook of Computational Group Theory*, 2005, 4.4.2): once the levels
    below i form a chain of their group, sift the Schreier generators of
    level i into them; when one is absorbed at level j, resume at j."""
    i = len(levels) - 1
    while i >= 0:
        j = _absorb_schreier_generator(levels, i)
        i = i - 1 if j is None else j


def schreier_sims(degree, generators):
    """Deterministic base/strong-generating-set construction with base
    0, 1, 2, ....

    The generators are sifted in one by one, then Schreier-Sims completes
    the chain deepest level first.  A new strong generator extends a
    level's Schreier tree in place, so every tree entry, once made, stays.
    A level's scan of its Schreier generators resumes, at each tree point,
    after the generators it checked there before: their Schreier generators
    are unchanged, and the levels below only grow, so those still sift
    through.  The scan meets the pairs in the order of a scan restarted from
    the first tree point, so it builds the same chain.  For a fixed
    generator list the chain, its transversals included, is reproducible.
    A residue joins the levels from the one its sift started at to the one
    it stopped at; the group of each level above already holds it, so the
    level groups stay nested the way the order product requires.
    """
    levels = []
    for g in generators:
        _absorb(levels, g.images, 0)
    _close(levels)
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
        self._reversed_chain = None

    def raw_gens(self):
        """Image tuples of the generators, for tight orbit loops."""
        return [g.images for g in self.generators]

    def chain(self):
        if self._chain is None:
            self._chain = schreier_sims(self.degree, self.generators)
        return self._chain

    def reversed_chain(self):
        """The chain with base n-1, n-2, ..., built on first use: the chain
        of the group conjugated by i -> n-1-i, so its level k stabilizes
        points 0..k-1 in those labels, which are n-1, ..., n-k here."""
        if self._reversed_chain is None:
            last = self.degree - 1
            self._reversed_chain = schreier_sims(self.degree, [
                _unchecked(tuple(last - g.images[last - i]
                                 for i in range(self.degree)))
                for g in self.generators])
        return self._reversed_chain

    def order(self):
        return self.chain().order()

    def is_symmetric_or_alternating(self):
        """Whether the group is S_n or A_n on its points, read off its
        order: A_n is the only subgroup of index 2 in S_n."""
        full = math.factorial(self.degree)
        return self.order() in (full, full // 2)

    def contains(self, perm):
        if perm.degree != self.degree:
            return False
        return self.chain().contains(perm)

    def __repr__(self):
        return "PermGroup(%s)" % self.name


def walk(seeds, steps, cap, error):
    """The breadth-first walk of orbits and Schreier trees: the set of
    states reached from `seeds` by the `steps` (maps state -> state), applied
    one state at a time, in frontier order and step order.  Reaching more
    than `cap` states raises `error`, and so do more distinct seeds than
    `cap`; a cap below 1 is a ValueError."""
    seen = _seeds(seeds, cap, error)
    frontier = list(seen)
    while frontier:
        nxt = []
        for x in frontier:
            for step in steps:
                y = step(x)
                if y not in seen:
                    if len(seen) >= cap:
                        raise cap_exceeded(error, cap, len(frontier))
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return seen


def _seeds(seeds, cap, error):
    """The set of the seeds of a walk with this cap, which must be at least
    1 and hold them all."""
    if cap < 1:
        raise ValueError("a walk's cap must be at least 1, got %d" % cap)
    seen = set(seeds)
    if len(seen) > cap:
        raise error("walk stopped at the cap of %d states (%d distinct seeds)"
                    % (cap, len(seen)))
    return seen


def cap_exceeded(error, cap, frontier):
    """The one message of a walk that would pass its cap: `error` saying
    that the states reached fill the cap while `frontier` states were being
    expanded."""
    return error("walk stopped at the cap of %d states (%d states visited, "
                 "%d in the frontier being expanded)" % (cap, cap, frontier))


def walk_rows(seeds, tables, cap, error, known=(), stop=math.inf):
    """The set of `encode_points` rows reached from `seeds` by translating
    through the `tables` (`point_table`s), a frontier at a time: each table
    translates the whole frontier in one `map`, and the rows not seen before
    form the next frontier.  On a map's image row a translation is right
    multiplication by the table's row.  The result does not depend on the
    order of the seeds or the tables, and neither does the frontier
    being expanded when the cap trips.  The cap is `walk`'s: more than `cap`
    rows in the result raise `error`, with `walk`'s messages.  The count is
    checked after each table, so the rows held never pass the cap by more
    than one frontier.  A closure resumes through `known`, a set closed
    under some of the tables, whose rows count as reached and are not
    translated again; and it returns after the first level at which it
    holds `stop` rows."""
    seen = _seeds(itertools.chain(known, seeds), cap, error)
    frontier = seen.difference(known)
    while frontier and len(seen) < stop:
        translate = type(next(iter(frontier))).translate
        new = set()
        for table in tables:
            new.update(itertools.filterfalse(seen.__contains__, map(
                translate, frontier, itertools.repeat(table))))
            if len(seen) + len(new) > cap:
                raise cap_exceeded(error, cap, len(frontier))
        seen |= new
        frontier = new
    return seen


def _action_steps(group, act):
    """`act(obj, images)` for each generator (for `act_point`, the image
    tuple's own lookup)."""
    if act is act_point:
        return [images.__getitem__ for images in group.raw_gens()]
    return [lambda x, images=images: act(x, images)
            for images in group.raw_gens()]


def element_rows(group, cap=DEFAULT_ENUM_CAP):
    """The image rows (`encode_points`) of all elements, by word BFS over
    the generators; cap is a hard limit."""
    n = group.degree
    return walk_rows((encode_points(range(n), n),),
                     point_tables(group.raw_gens()), cap,
                     EnumerationCapExceeded)


def enumerate_elements(group, cap=DEFAULT_ENUM_CAP):
    """All elements by word BFS over the generators; cap is a hard limit."""
    return [_unchecked(tuple(row)) for row in element_rows(group, cap)]


def orbit(group, seed, act, cap=DEFAULT_ORBIT_CAP):
    """Breadth-first orbit of seed under the group, as a set of canonical objects.

    `act(obj, images)` returns the canonical form of obj moved by the
    permutation with the given image tuple.  Exceeding `cap` raises
    OrbitCapExceeded rather than returning a truncated orbit.
    """
    return walk((seed,), _action_steps(group, act), cap, OrbitCapExceeded)


def extend_transversal(tree, steps, gens, cap=DEFAULT_ORBIT_CAP):
    """Extend the Schreier tree `tree` (state -> Permutation) in place to
    the whole orbit under the `steps` (one per generator in `gens`): one
    walk from the states it holds, in which each new state maps to
    tree[x] * g for the first walked edge (x, g) that reaches it.  The
    entries already there stay as they were, the new states follow them in
    walk order, and reaching more than `cap` states raises
    OrbitCapExceeded."""
    def edge(step, g):
        def tree_step(x):
            y = step(x)
            if y not in tree:
                tree[y] = tree[x] * g
            return y
        return tree_step

    walk(tuple(tree), list(map(edge, steps, gens)), cap, OrbitCapExceeded)
    return tree


def orbit_transversal(group, seed, act, cap=DEFAULT_ORBIT_CAP):
    """Schreier tree of the orbit of seed under the action `act`, as in
    `orbit`: each state maps to the product of generators along the first
    walked path to it, and the dict lists the states in walk order.  It is
    the extension of the one-state tree {seed: 1}."""
    return extend_transversal({seed: Permutation.identity(group.degree)},
                              _action_steps(group, act), group.generators,
                              cap)


def stabilizer_generators(group, seed, act, cap=DEFAULT_ORBIT_CAP):
    """Setwise/pointwise stabilizer of seed, built to its known order.

    `act` is a public action, as in `orbit`.  The Schreier tree of seed
    gives the stabilizer's order |G| / |orbit|.  The Schreier
    generators u_x s u_{xs}^-1, in tree order, are sifted into a chain with
    base 0, 1, ... until the product of its basic orbit lengths reaches that
    order; a partial chain whose product equals the group's order is
    complete, so the result is exact.  Should the generators run out first,
    Schreier-Sims completes the chain.  The result is a group on the same
    points as `group`, generated by the chain's strong generators, which all
    fix `seed` under `act`, and it carries that chain.
    """
    n = group.degree
    tree = orbit_transversal(group, seed, act, cap=cap)
    target = group.order() // len(tree)
    chain = StabilizerChain(n, [])
    for h in _schreier_generators(tree, _action_steps(group, act),
                                  group.raw_gens(),
                                  lambda y: tree[y].inverse().images, {}):
        if chain.order() == target:
            break
        _absorb(chain.levels, h, 0)
    if chain.order() != target:
        _close(chain.levels)
    if chain.order() != target:
        raise InternalCheckError(
            "stabilizer chain has order %d, the orbit gives %d"
            % (chain.order(), target))
    stab = PermGroup(n, chain.levels[0].gens if chain.levels else (),
                     name="stabilizer in %s" % group.name)
    stab._chain = chain
    return stab


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
    """Parse the plain-text group format: a first effective line `degree <n>`,
    then one generator a line, an `img: i1 i2 ... in` image row (1-based) or
    disjoint cycles like `(1 2 3)(4 5)`.  `#` starts a comment.  Malformed
    input raises GroupFileError naming the line."""
    degree = None
    gens = []
    for lineno, rawline in enumerate(text.splitlines(), start=1):
        line = rawline.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            if degree is None:
                parts = line.split()
                if len(parts) != 2 or parts[0] != "degree":
                    raise ValueError("expected 'degree <n>', got %r" % line)
                degree = parse_number(parts[1])
                if degree < 1:
                    raise ValueError("degree must be >= 1")
            elif line.startswith("img:"):
                values = parse_numbers(line[4:])
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
            raise GroupFileError("line %d: %s" % (lineno, exc)) from None
    if degree is None:
        raise GroupFileError("no 'degree <n>' line found")
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
