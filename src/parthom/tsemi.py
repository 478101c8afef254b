"""Transformations and the semigroups they generate together with a group.

All maps act on the right, matching the permutation convention: x*(a b)
means apply a, then b.  A transformation is stored, hashed and compared as
its 0-based image row: `bytes` up to degree 256, a `perm.WideRow` above.
Right multiplication by b is `row.translate(perm.point_table(b.row))`, so
products compose in C.  Closures and conjugate closures are breadth-first
walks over generator words on rows (`perm.walk_rows`, which translates a
whole frontier through each generator's table in one `map`);
`generate_arc_set` enumerates the group's rows the same way and builds the
non-units one G x G double class at a time.  Either way the element set
does not depend on the order in which elements are found.

x s depends only on the restriction of s to the image of x, so where many
x share an image set they are translated only through one table per
distinct restriction to it (`_restrictions`): the right classes of an
arc and the two-sided ideals of `green_checks`.  A semigroup also keeps
`gens`, the rows of a generating set of a monoid in which it is an ideal
(an arc's maps and group generators, a closure's generators, or else its
own elements); `is_regular` reads regularity off the strongly connected
components of the right Cayley graph over them.  `is_idempotent_generated`
resumes each rank's closure from the rows already closed, and stops it
once it holds as many rows as the semigroup.

A semigroup holds the set of its elements' rows as the generation routine
built it, and never changes it afterwards; the closures, arcs and
structure checks work on those rows.  A `Transformation` is made only at
the edge: when a semigroup is iterated, when its elements are listed as
text, and in the sets that `idempotents` and `local_group_at` return.
`TransSemigroup.elements` is a read-only set view of the rows that yields
`Transformation`s and compares with plain sets of them.
"""

from __future__ import annotations

import math
from collections.abc import Set
from itertools import groupby, repeat
from typing import NamedTuple

from .partitions import (canon_set_partition, coarsening_feasible,
                         parse_numbers, partition_shape)
from .perm import (EnumerationCapExceeded, Permutation, as_points,
                   cap_exceeded, element_rows, encode_points,
                   enumerate_elements, point_table, point_tables, walk_rows)

DEFAULT_SEMIGROUP_CAP = 10**6


class Transformation:
    """A map on n points, bijective or not, stored as its image row."""

    __slots__ = ("row",)

    def __init__(self, images):
        images = as_points(images)
        n = len(images)
        if not images:
            raise ValueError("empty transformation")
        if any(not 0 <= v < n for v in images):
            raise ValueError("image values must lie in 0..%d" % (n - 1))
        self.row = encode_points(images, n)

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
    def images(self):
        """The 0-based image tuple."""
        return tuple(self.row)

    @property
    def degree(self):
        return len(self.row)

    @property
    def image_set(self):
        return _image_set(self.row)

    @property
    def rank(self):
        return len(self.image_set)

    @property
    def kernel(self):
        """Fibers as a canonical set partition."""
        return _kernel(self.row)

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
        p, q = self.row, other.row
        if len(q) != len(p):
            raise ValueError("degrees differ: %d and %d" % (len(p), len(q)))
        return _from_row(p.translate(point_table(q)))

    def text(self):
        """1-based comma-separated image row."""
        return ",".join(str(v + 1) for v in self.row)

    def __eq__(self, other):
        return isinstance(other, Transformation) and self.row == other.row

    def __hash__(self):
        return hash(self.row)

    def __repr__(self):
        return "Transformation(%s)" % self.text()


def _from_row(row, new=object.__new__):
    """A Transformation holding a row already known to be valid (a product
    or a walked state), without the checks of the public constructor."""
    t = new(Transformation)
    t.row = row
    return t


def _image_set(row):
    return tuple(sorted(set(row)))


def _fibers(row):
    """The fibers of the map with this row: each image point mapped to the
    list of the points sent to it, in increasing order."""
    fibers = {}
    for x, v in enumerate(row):
        fibers.setdefault(v, []).append(x)
    return fibers


def _kernel(row):
    """The fibers of the map with this row, as a canonical set partition."""
    return canon_set_partition(_fibers(row).values())


def _is_idempotent(row):
    return row.translate(point_table(row)) == row


def _restrictions(tables, image):
    """Each distinct restriction to the points of `image` (an encoded row of
    them) among the elements with these tables, mapped to the table of one
    element that has it.  y s depends only on the restriction of s to
    im(y), so translating y through these tables gives y s for every s."""
    return dict(zip(map(image.translate, tables), tables))


def parse_transformation(text, n=None):
    """Parse a 1-based image row like '1,1,3,4,5'."""
    values = parse_numbers(text)
    if not values:
        raise ValueError("empty transformation text")
    if n is not None and len(values) != n:
        raise ValueError("expected %d images, got %d" % (n, len(values)))
    if any(not 1 <= v <= len(values) for v in values):
        raise ValueError("image values must lie in 1..%d" % len(values))
    return Transformation(v - 1 for v in values)


class RowSet(Set):
    """A read-only set of Transformations held as the set `rows` of their
    image rows.  Iteration yields Transformations; membership and
    comparisons with another RowSet read the rows alone, and comparisons
    with a plain set of Transformations work from either side."""

    __slots__ = ("rows",)

    def __init__(self, rows):
        self.rows = rows

    def __len__(self):
        return len(self.rows)

    def __iter__(self):
        return map(_from_row, self.rows)

    def __contains__(self, item):
        return isinstance(item, Transformation) and item.row in self.rows

    # Set derives ==, < and > from these two
    def __le__(self, other):
        if isinstance(other, RowSet):
            return self.rows <= other.rows
        return Set.__le__(self, other)

    def __ge__(self, other):
        if isinstance(other, RowSet):
            return self.rows >= other.rows
        return Set.__ge__(self, other)

    @classmethod
    def _from_iterable(cls, it):
        return frozenset(it)


class TransSemigroup:
    """A semigroup of maps on `degree` points, held as the set `rows` of
    their image rows, with `gens`, the rows of a generating set of a monoid
    in which it is an ideal.  The constructor takes the Transformations,
    which are their own `gens`; `from_rows` keeps the set of rows of that
    degree it is handed, without a copy, so the caller must not change that
    set afterwards, and the generation routines hand it their generators."""

    def __init__(self, degree, elements, description=""):
        self.degree = degree
        self.rows = self.gens = frozenset(t.row for t in elements)
        self.description = description

    @classmethod
    def from_rows(cls, degree, rows, description="", gens=None):
        s = object.__new__(cls)
        s.degree, s.rows, s.description = degree, rows, description
        s.gens = rows if gens is None else gens
        return s

    @property
    def elements(self):
        return RowSet(self.rows)

    def __len__(self):
        return len(self.rows)

    def __contains__(self, item):
        return item in self.elements

    def __iter__(self):
        return iter(self.elements)

    def sorted_texts(self):
        return sorted(t.text() for t in self)

    def is_closed(self):
        """Whether the product of every ordered pair of elements is one."""
        rows = self.rows
        return all(x.translate(table) in rows
                   for table in point_tables(rows) for x in rows)


def _close(rows, cap):
    """The rows of the semigroup the rows generate."""
    return walk_rows(rows, point_tables(rows), cap,
                     EnumerationCapExceeded)


def closure(gens, cap=DEFAULT_SEMIGROUP_CAP, description=""):
    """Least composition-closed set containing gens (no identity adjoined)."""
    gens = list(gens)
    if not gens:
        raise ValueError("closure needs at least one generator")
    degree = gens[0].degree
    if any(g.degree != degree for g in gens):
        raise ValueError("generators must share a degree")
    rows = [g.row for g in gens]
    return TransSemigroup.from_rows(
        degree, _close(rows, cap),
        description or "closure of %d generators" % len(gens), rows)


def _check_map(a, group):
    """A map that arcs and conjugate closures take: singular, and of the
    group's degree."""
    if a.is_permutation():
        raise ValueError("permutation given; maps must be non-bijective")
    if a.degree != group.degree:
        raise ValueError("degree mismatch: map on %d, group on %d"
                         % (a.degree, group.degree))


def generate_arc_set(maps, group, cap=DEFAULT_SEMIGROUP_CAP):
    """All non-bijective elements of the monoid the maps and group generate.

    Every word with a map in it drops rank, so the non-units are the
    products g0 a1 g1 ... ak gk with k >= 1 maps ai and group elements gi,
    and the units are the group.  The non-units are therefore a union of
    double classes G y G, and they are built one class at a time from a
    queue of representatives that starts with the maps.  After the class of
    y, the products w a for each map a and each w in y G are queued.  That
    reaches every class: a non-unit g y h of the class of y stays in it
    when multiplied by a group element, and multiplied by a map a it is
    g (y h a), in the class of y h a, which was queued since y h lies in
    y G.

    A class is the union of the right classes z G over z in G y.  Each such
    z has the image of y, and z g depends only on the restriction of g to
    that image, so z G is z translated through one of G's own tables per
    distinct restriction, and the same tables serve the whole class.  G's
    rows are enumerated once, and every product is a `translate` in C.

    Raises EnumerationCapExceeded if and only if |G| plus the number of
    non-units exceeds `cap`.  The count is checked each time a right class
    joins, so the rows held never pass the cap by more than |G|.
    """
    maps = list(maps)
    if not maps:
        raise ValueError("need at least one transformation")
    for a in maps:
        _check_map(a, group)
    n = group.degree
    g_rows = list(element_rows(group, cap))
    translate = type(g_rows[0]).translate
    g_tables = point_tables(g_rows)
    map_tables = [point_table(a.row) for a in maps]
    room = cap - len(g_rows)
    arc = set()
    queue = [a.row for a in maps]
    while queue:
        y = queue.pop()
        if y in arc:
            continue
        image = encode_points(_image_set(y), n)
        tables = _restrictions(g_tables, image).values()
        right = list(map(y.translate, tables))
        for z in set(map(translate, g_rows, repeat(point_table(y)))):
            if z not in arc:
                arc.update(map(z.translate, tables))
                if len(arc) > room:
                    raise cap_exceeded(EnumerationCapExceeded, cap,
                                       len(queue) + 1)
        for table in map_tables:
            queue += set(map(translate, right, repeat(table))) - arc
    return TransSemigroup.from_rows(
        n, arc, "non-units of <%d maps, %s>" % (len(maps), group.name),
        [a.row for a in maps] + [encode_points(g, n)
                                 for g in group.raw_gens()])


def generate_arc(a, group, cap=DEFAULT_SEMIGROUP_CAP):
    """All non-bijective elements of the monoid generated by a and the group."""
    s = generate_arc_set([a], group, cap=cap)
    s.description = "non-units of <%s, %s>" % (a.text(), group.name)
    return s


def generate_conjugates(a, group, cap=DEFAULT_SEMIGROUP_CAP):
    """Closure of all conjugates g^-1 a g over the group."""
    _check_map(a, group)
    # the row of g^-1 a g sends x to (x g^-1) a g
    n = a.degree
    table = point_table(a.row)
    conj = {encode_points(g.inverse().images, n).translate(table)
            .translate(point_table(g.images))
            for g in enumerate_elements(group)}
    return TransSemigroup.from_rows(n, _close(conj, cap),
                                    "conjugate closure of %s over %s"
                                    % (a.text(), group.name), conj)


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
    return {_from_row(x) for x in semigroup.rows if _is_idempotent(x)}


def _components(succ):
    """The strongly connected components, as lists, of the graph on
    0..len(succ)-1 in which v has the successors succ[v]: Tarjan's walk,
    kept on an explicit path.  A vertex is numbered by its place on the
    stack, its `low` is the least number it reaches there, and the vertices
    of a finished component get a number past every place."""
    done = len(succ) + 1
    number, low, stack = [0] * len(succ), [0] * len(succ), []
    for root in range(len(succ)):
        path = [] if number[root] else [(root, iter(succ[root]))]
        while path:
            v, edges = path[-1]
            if not number[v]:
                stack.append(v)
                number[v] = low[v] = len(stack)
            for w in edges:
                if not number[w]:
                    path.append((w, iter(succ[w])))
                    break
                if number[w] < low[v]:
                    low[v] = number[w]
            else:
                path.pop()
                if path and low[v] < low[path[-1][0]]:
                    low[path[-1][0]] = low[v]
                if low[v] == number[v]:
                    component = stack[low[v] - 1:]
                    del stack[low[v] - 1:]
                    for w in component:
                        number[w] = done
                    yield component


def _not_closed(*_):  # a walk's `error` too, which passes it a message
    return ValueError("the rows are not closed under their generators")


def _rank(row):
    return len(set(row))


def _close_greedily(candidates, rows, cap, error, batch=None):
    """The candidates that the closure so far misses, taken by rank from the
    highest, a batch of equal `batch(x)` at a time (single rows when `batch`
    is None), and their closure.  Each closure resumes from the closed rows
    and from them times the new rows, so no word in the earlier rows alone
    is walked again.  A closure that holds as many rows as `rows` is that
    set or has left it, never to return, so the walk stops there."""
    kept, tables, closed = [], [], frozenset()
    ranked = sorted(candidates, key=lambda x: (-_rank(x), x))
    for _, same in groupby(ranked, key=batch):
        missed = [x for x in same if x not in closed]
        if missed and len(closed) < len(rows):
            kept += missed
            new = point_tables(missed)
            tables += new
            closed = walk_rows(
                missed + [x.translate(t) for t in new for x in closed],
                tables, cap, error, closed, len(rows))
    return kept, closed


def is_regular(semigroup):
    """Every x has some y in the semigroup with x y x = x.

    The semigroup S is an ideal of the monoid M that its `gens` generate,
    and regularity is read off M's right Cayley graph over them, with an
    edge from x to x g for each generator g, in three steps:
    - x is regular in S iff it is regular in M: from x = x y x with y in
      M follows x = x (y x y) x, and y x y lies in S;
    - x is regular in M iff its R-class in M holds an idempotent;
    - the R-classes of M are the strongly connected components of the
      graph, and the edges from S stay in S.
    So S is regular iff every component of the graph on S holds an
    idempotent.  Each generator's table translates all the rows in one
    `map`, so a semigroup that is its own generating set, which would cost
    |S|^2 translations, is read over a smaller one (`_close_greedily`).  An
    edge or a closure that leaves the rows is a ValueError.
    """
    rows, gens = list(semigroup.rows), semigroup.gens
    if gens is semigroup.rows:
        gens = _close_greedily(rows, rows, len(rows), _not_closed)[0]
    index = dict(zip(rows, range(len(rows))))
    try:
        succ = list(zip(*(map(index.__getitem__, map(
            type(g).translate, rows, repeat(point_table(g))))
            for g in gens)))
    except KeyError:
        raise _not_closed() from None
    return all(any(_is_idempotent(rows[v]) for v in component)
               for component in _components(succ))


def is_idempotent_generated(semigroup, cap=DEFAULT_SEMIGROUP_CAP):
    """Whether the idempotents generate the semigroup.  Rank by rank, from
    the highest, the idempotents that the closure so far misses join the
    generators (`_close_greedily`).  (Closing after each idempotent instead
    takes fewer generators but more closures: 2.8 times the time on an arc
    of 105 maps with 25 idempotents.)"""
    rows = semigroup.rows
    return _close_greedily(filter(_is_idempotent, rows), rows, cap,
                           EnumerationCapExceeded, _rank)[1] == rows


def contains_all_constants(semigroup):
    n = semigroup.degree
    return all(encode_points([v] * n, n) in semigroup.rows for v in range(n))


# ---------------------------------------------------------------------------
# Green's relations, two ways


class GreenVerdict(NamedTuple):
    relation: str          # "R", "L", or "J"
    by_ideals: bool
    by_invariants: bool

    @property
    def agree(self):
        return self.by_ideals == self.by_invariants


class GreenReport(NamedTuple):
    verdicts: list

    @property
    def all_agree(self):
        return all(v.agree for v in self.verdicts)

    def as_dict(self):
        return {v.relation: {"ideals": v.by_ideals,
                             "invariants": v.by_invariants}
                for v in self.verdicts}


def _right_ideal(tables, row):
    """The rows of x S^1 for the x with this row."""
    out = set(map(row.translate, tables))
    out.add(row)
    return out


def _left_ideal(rows, row):
    """The rows of S^1 x for the x with this row."""
    out = set(map(type(row).translate, rows, repeat(point_table(row))))
    out.add(row)
    return out


def _two_sided_ideal(rows, tables, row):
    """The rows of S^1 x S^1 for the x with this row: the union of y S^1
    over the y in S^1 x.  The y with one image set share that set's
    restriction tables, so each y is translated through one table per
    distinct restriction rather than through every element's."""
    left = _left_ideal(rows, row)
    by_image = {}
    for y in left:
        by_image.setdefault(_image_set(y), []).append(y)
    n = len(row)
    out = set(left)
    for image, ys in by_image.items():
        reps = _restrictions(tables, encode_points(image, n)).values()
        for y in ys:
            out.update(map(y.translate, reps))
    return out


def green_checks(semigroup, a, b):
    """Compare ideal equality with the kernel/image/rank shortcuts.

    The ideals are sets of rows: x s is x's row translated through the
    table of s, and s x is s's row translated through the table of x.
    """
    if a not in semigroup or b not in semigroup:
        raise ValueError("both elements must belong to the semigroup")
    rows = semigroup.rows
    tables = point_tables(rows)
    r = GreenVerdict("R",
                     _right_ideal(tables, a.row) == _right_ideal(tables, b.row),
                     a.kernel == b.kernel)
    l = GreenVerdict("L",
                     _left_ideal(rows, a.row) == _left_ideal(rows, b.row),
                     a.image_set == b.image_set)
    j = GreenVerdict("J",
                     _two_sided_ideal(rows, tables, a.row)
                     == _two_sided_ideal(rows, tables, b.row),
                     a.rank == b.rank)
    return GreenReport([r, l, j])


class LocalGroupReport(NamedTuple):
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
    if not _is_idempotent(e.row):
        raise ValueError("element is not idempotent")
    image, kernel = e.image_set, e.kernel
    e_table = point_table(e.row)
    # x e = x holds where im(x) lies in im(e): a cheap first sieve
    members = {x for x in semigroup.rows if x.translate(e_table) == x
               and _image_set(x) == image and _kernel(x) == kernel}
    closed = TransSemigroup.from_rows(semigroup.degree, members).is_closed()
    has_identity = all(x.translate(e_table) == x
                       and e.row.translate(point_table(x)) == x
                       for x in members)
    return ({_from_row(x) for x in members},
            LocalGroupReport(len(members), e.rank, closed, has_identity))
