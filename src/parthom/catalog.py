"""Constructions of the named group families, plus the bundled-data loader.

Families: symmetric, alternating, cyclic, dihedral, the one-dimensional affine
groups AGL(1,q) and AGammaL(1,q), the projective groups PSL(2,q), PGL(2,q),
PGammaL(2,q), and the four Mathieu groups loaded from committed data files.

Projective-line labeling is fixed once: index 0 is the field zero, indices
1..q-1 are the powers alpha^0, alpha^1, ..., alpha^(q-2) of the primitive
element, and index q is the point at infinity.  Affine groups act on the field
elements in their integer encoding order.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import NamedTuple

from .fields import GF, factor_prime_power
from .perm import PermGroup, Permutation, parse_group_file


class CatalogError(ValueError):
    """Bad group spec, missing data file, or failed data validation."""


def data_dir():
    override = os.environ.get("PARTHOM_DATA")
    if override:
        return Path(override)
    return Path(__file__).parent / "data"


# ---------------------------------------------------------------------------
# elementary families

def symmetric(n):
    if n < 1:
        raise CatalogError("symmetric group needs n >= 1")
    if n == 1:
        return PermGroup(1, [Permutation.identity(1)], name="S_1")
    gens = [Permutation.from_cycles(n, [(1, 2)]),
            Permutation.from_cycles(n, [tuple(range(1, n + 1))])]
    return PermGroup(n, gens, name="S_%d" % n)


def alternating(n):
    if n < 1:
        raise CatalogError("alternating group needs n >= 1")
    if n <= 2:
        return PermGroup(n, [Permutation.identity(n)], name="A_%d" % n)
    if n == 3:
        gens = [Permutation.from_cycles(3, [(1, 2, 3)])]
    elif n % 2 == 1:
        gens = [Permutation.from_cycles(n, [(1, 2, 3)]),
                Permutation.from_cycles(n, [tuple(range(1, n + 1))])]
    else:
        gens = [Permutation.from_cycles(n, [(1, 2, 3)]),
                Permutation.from_cycles(n, [tuple(range(2, n + 1))])]
    return PermGroup(n, gens, name="A_%d" % n)


def cyclic(n):
    if n < 1:
        raise CatalogError("cyclic group needs n >= 1")
    if n == 1:
        return PermGroup(1, [Permutation.identity(1)], name="C_1")
    gens = [Permutation.from_cycles(n, [tuple(range(1, n + 1))])]
    return PermGroup(n, gens, name="C_%d" % n)


def dihedral(n):
    if n < 3:
        raise CatalogError("dihedral group here means n >= 3 polygon vertices")
    rotation = Permutation.from_cycles(n, [tuple(range(1, n + 1))])
    # reflection fixing vertex 1: j -> n + 2 - j
    reflection = Permutation.from_one_line(
        [1] + [n + 2 - j for j in range(2, n + 1)])
    return PermGroup(n, [rotation, reflection], name="D_%d" % n)


# ---------------------------------------------------------------------------
# affine and projective families over GF(q)

def agl1(q):
    f = GF(q)
    translate = Permutation(f.add(x, f.one) for x in range(q))
    scale = Permutation(f.mul(x, f.alpha) for x in range(q))
    return PermGroup(q, [translate, scale], name="AGL(1,%d)" % q)


def agammal1(q):
    frob = Permutation(map(GF(q).frobenius, range(q)))
    return PermGroup(q, agl1(q).generators + (frob,),
                     name="AGammaL(1,%d)" % q)


def _line_indexing(f):
    """Projective line order: 0, alpha^0, ..., alpha^(q-2), infinity last."""
    element_at = [0] + sorted(f.log, key=f.log.get)
    return element_at, {e: i for i, e in enumerate(element_at)}


def _line_perm(f, finite_map, zero_to, inf_to, index_of, element_at):
    """Assemble a line permutation from its finite / 0 / infinity behavior.

    finite_map acts on nonzero field elements; zero_to and inf_to are line
    indices (q stands for infinity).
    """
    q = f.q
    images = [0] * (q + 1)
    images[0] = zero_to
    images[q] = inf_to
    for i in range(1, q):
        images[i] = index_of[finite_map(element_at[i])]
    return Permutation(images)


def pgl2(q):
    return PermGroup(q + 1, _pgl2_generators(GF(q)), name="PGL(2,%d)" % q)


def _pgl2_generators(f, factor=None, invert=None):
    """x -> x+1, x -> factor*x and x -> invert(x), which swaps 0 and
    infinity, on the projective line of f; without factor and invert, x ->
    alpha*x and x -> 1/x."""
    if factor is None:
        factor, invert = f.alpha, f.inv
    element_at, index_of = _line_indexing(f)
    inf = f.q
    translate = _line_perm(f, lambda e: f.add(e, f.one),
                           index_of[f.one], inf, index_of, element_at)
    scale = _line_perm(f, lambda e: f.mul(e, factor),
                       0, inf, index_of, element_at)
    return [translate, scale,
            _line_perm(f, invert, inf, 0, index_of, element_at)]


def psl2(q):
    f = GF(q)
    if f.p == 2:
        # the two groups coincide in characteristic 2
        gens = _pgl2_generators(f)
    else:
        gens = _pgl2_generators(f, f.mul(f.alpha, f.alpha),
                                lambda e: f.neg(f.inv(e)))
    return PermGroup(q + 1, gens, name="PSL(2,%d)" % q)


def pgammal2(q):
    f = GF(q)
    element_at, index_of = _line_indexing(f)
    frob = _line_perm(f, lambda e: f.frobenius(e), 0, q, index_of, element_at)
    return PermGroup(q + 1, _pgl2_generators(f) + [frob],
                     name="PGammaL(2,%d)" % q)


# ---------------------------------------------------------------------------
# bundled data

def read_manifest():
    path = data_dir() / "manifest.txt"
    if not path.exists():
        raise CatalogError("manifest not found: %s" % path)
    entries = {}
    current = {}
    for rawline in path.read_text().splitlines():
        line = rawline.split("#", 1)[0].strip()
        if not line:
            if current:
                entries[current["name"]] = current
                current = {}
            continue
        if ":" not in line:
            raise CatalogError("manifest line without ':': %r" % line)
        key, value = line.split(":", 1)
        current[key.strip()] = value.strip()
    if current:
        entries[current["name"]] = current
    return entries


def mathieu(n):
    if n not in (11, 12, 23, 24):
        raise CatalogError("no bundled group on %d points" % n)
    name = "m%d" % n
    manifest = read_manifest()
    if name not in manifest:
        raise CatalogError("manifest has no entry for %s" % name)
    entry = manifest[name]
    path = data_dir() / entry["file"]
    if not path.exists():
        raise CatalogError("group file missing: %s" % path)
    group = parse_group_file(path.read_text(), name="M_%d" % n)
    if group.degree != int(entry["degree"]):
        raise CatalogError("%s: degree %d, manifest says %s"
                           % (name, group.degree, entry["degree"]))
    if group.order() != int(entry["expected_order"]):
        raise CatalogError("%s: order %d, manifest says %s"
                           % (name, group.order(), entry["expected_order"]))
    return group


def from_file(path):
    path = Path(path)
    if not path.exists():
        raise CatalogError("group file missing: %s" % path)
    return parse_group_file(path.read_text(), name=path.name)


def fix_point_extension(group):
    """Same group acting on one more point, the new last point held fixed."""
    n = group.degree
    gens = [Permutation(tuple(g.images) + (n,)) for g in group.generators]
    return PermGroup(n + 1, gens, name=group.name + " fixing %d" % (n + 1))


# ---------------------------------------------------------------------------
# group specs

FAMILY_BUILDERS = {
    "s": symmetric,
    "a": alternating,
    "c": cyclic,
    "d": dihedral,
    "agl1": agl1,
    "agammal1": agammal1,
    "psl2": psl2,
    "pgl2": pgl2,
    "pgammal2": pgammal2,
    "m": mathieu,
}


def build_group(spec):
    """Build a group from a spec string like 'pgl2:8', 'm:12', 'fix+agl1:5'."""
    spec = spec.strip()
    if spec.startswith("fix+"):
        return fix_point_extension(build_group(spec[4:]))
    if ":" not in spec:
        raise CatalogError("group spec needs 'family:parameter', got %r" % spec)
    family, _, param = spec.partition(":")
    family = family.strip().lower()
    if family == "file":
        return from_file(param.strip())
    if family not in FAMILY_BUILDERS:
        raise CatalogError("unknown family %r (have: %s)"
                           % (family, ", ".join(sorted(FAMILY_BUILDERS))))
    try:
        n = int(param)
    except ValueError:
        raise CatalogError("parameter must be an integer, got %r" % param)
    try:
        return FAMILY_BUILDERS[family](n)
    except (ValueError, ArithmeticError) as exc:
        raise CatalogError("cannot build %s: %s" % (spec, exc))


# ---------------------------------------------------------------------------
# the degree-bounded catalog

class CatalogEntry(NamedTuple):
    spec: str
    group: object

    @property
    def name(self):
        return self.group.name

    @property
    def degree(self):
        return self.group.degree


def _prime_powers_up_to(limit):
    out = []
    for q in range(2, limit + 1):
        try:
            factor_prime_power(q)
        except ValueError:
            continue
        out.append(q)
    return out


def catalog_entries(max_degree=12, include_sym_alt=True):
    """Every catalog group of degree <= max_degree, one spec per group.

    Alias constructions are skipped so no group appears twice under two
    names: AGammaL(1,q) and PGammaL(2,q) for prime q equal their Gamma-less
    versions, and PSL(2,q) equals PGL(2,q) in characteristic 2.  A family
    group whose order is n! or n!/2 IS the symmetric or alternating group on
    its points (an index-2 subgroup of S_n is unique), so those coincidences
    are dropped rather than listed twice.
    """
    entries = []

    def add(spec):
        group = build_group(spec)
        if not spec.startswith(("s:", "a:")) and \
                group.is_symmetric_or_alternating():
            return
        entries.append(CatalogEntry(spec, group))

    for n in range(2, max_degree + 1):
        if include_sym_alt:
            add("s:%d" % n)
            if n >= 3:
                add("a:%d" % n)
        if n >= 3:
            add("c:%d" % n)
        if n >= 4:
            add("d:%d" % n)
    for q in _prime_powers_up_to(max_degree):
        p, d = factor_prime_power(q)
        add("agl1:%d" % q)
        if d > 1:
            add("agammal1:%d" % q)
    for q in _prime_powers_up_to(max_degree - 1):
        p, d = factor_prime_power(q)
        if p != 2:
            add("psl2:%d" % q)
        add("pgl2:%d" % q)
        if d > 1:
            add("pgammal2:%d" % q)
    if max_degree >= 11:
        add("m:11")
    if max_degree >= 12:
        add("m:12")
    entries.sort(key=lambda e: (e.degree, e.spec))
    return entries


# ---------------------------------------------------------------------------
# validation

def validate_catalog(progress=None):
    """Recompute everything the manifest and the spot-fact list promise.

    Returns a report dict with one entry per check; raises nothing, callers
    look at report["failures"].
    """
    from .homogeneity import (
        is_set_transitive,
        is_t_homogeneous,
        is_t_transitive,
    )

    checks = []

    def note(name, ok, detail):
        checks.append({"check": name, "ok": bool(ok), "detail": detail})
        if progress:
            progress("%-4s %s (%s)" % ("ok" if ok else "FAIL", name, detail))

    manifest = read_manifest()
    for name, entry in sorted(manifest.items()):
        try:
            group = from_file(data_dir() / entry["file"])
        except CatalogError as exc:
            note("%s loadable" % name, False, str(exc))
            continue
        note("%s degree" % name, group.degree == int(entry["degree"]),
             "degree %d" % group.degree)
        order = group.order()
        note("%s order" % name, order == int(entry["expected_order"]),
             "order %d vs %s" % (order, entry["expected_order"]))
        for token in entry.get("checks", "").split():
            if token == "transitive":
                ok = is_t_homogeneous(group, 1)
            elif token.endswith("-transitive"):
                ok = is_t_transitive(group, int(token.split("-")[0]))
            elif token.endswith("-homogeneous"):
                ok = is_t_homogeneous(group, int(token.split("-")[0]))
            else:
                ok = False
            note("%s %s" % (name, token), ok, "recomputed")

    # spot facts about the classical families
    g = agl1(5)
    note("agl1:5 sharply 2-transitive",
         g.order() == 20 and is_t_transitive(g, 2), "order %d" % g.order())
    note("agl1:5 3-homogeneous not 3-transitive",
         is_t_homogeneous(g, 3) and not is_t_transitive(g, 3), "degree 5")
    note("agl1:5 set-transitive", is_set_transitive(g), "degree 5")
    note("pgl2:8 set-transitive", is_set_transitive(pgl2(8)), "degree 9")
    note("pgammal2:8 set-transitive", is_set_transitive(pgammal2(8)),
         "degree 9")
    big = pgammal2(32)
    note("pgammal2:32 order", big.order() == 163680, "degree 33")
    note("pgammal2:32 4-homogeneous not 4-transitive",
         is_t_homogeneous(big, 4) and not is_t_transitive(big, 4),
         "degree 33")

    failures = [c for c in checks if not c["ok"]]
    return {"checks": checks, "failures": failures}
