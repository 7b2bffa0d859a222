"""Finite posets, order ideals and ``IdealLattice``, the lattice of order ideals of a poset.

Every structure fixes a canonical element order (height first, then id) and
stores comparability as integer bitmasks over that order, so enumerations and
serialized output are identical across runs and platforms.
``IdealLattice.mask``/``element`` is every lattice's one conversion between an
element and the bitmask of its ideal of join-irreducibles.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import isfinite

IDEAL_CAPACITY = 62


class CapacityError(Exception):
    """An enumeration would exceed the supported bitset capacity."""


class InvariantError(Exception):
    """A mathematical invariant of a computed object does not hold.

    Raised in place of ``assert``, so the check stays live under ``python -O``.
    """


def check(ok, message):
    """Raise ``InvariantError(message)`` unless ``ok``."""
    if not ok:
        raise InvariantError(message)


class PosetError(ValueError):
    pass


def json_object(text, what):
    """The JSON object in ``text``; ``PosetError`` if it holds any other value or nests too deeply."""
    try:
        data = json.loads(text)
    except RecursionError:  # nesting past the parser's depth, which is no ValueError
        raise PosetError(f"{what} JSON nests too deeply") from None
    return _checked_object(data, what)


def _checked_object(data, what):
    if not isinstance(data, dict):
        raise PosetError(f"{what} JSON must be an object, got {type(data).__name__}")
    return data


def _is_id(value):
    return type(value) in (str, int)  # a JSON true or false is no element id


def json_ids(data, field, default=None):
    """``data[field]``, checked to be a list of element ids: strings or integers.

    A missing field gives ``default``, or a ``PosetError`` when there is none.
    """
    if field not in data and default is not None:
        return default
    ids = data.get(field)
    if not isinstance(ids, list) or not all(map(_is_id, ids)):
        raise PosetError(f"{field!r} must be a list of strings or integers")
    return ids


def json_rationals(data, names, what):
    """``{key: Fraction}`` of the values the JSON object ``data`` holds under the names of ``names``.

    ``names`` maps a name to its key.  A value is an integer, a finite number
    or a string ``Fraction`` reads, such as ``"p/q"``; any other value, a
    missing name or a ``data`` that is no object is a ``PosetError``.
    """
    _checked_object(data, what)
    out = {}
    for name, key in names.items():
        if name not in data:
            raise PosetError(f"{what} JSON is missing {name!r}")
        value = data[name]
        kind = type(value)  # a JSON true or false is no number
        try:
            if kind is int or kind is str or kind is float and isfinite(value):
                out[key] = Fraction(value)
                continue
        except (ValueError, ZeroDivisionError):  # a string Fraction does not read
            pass
        raise PosetError(f"{what} value {name!r} must be an integer, a finite number "
                         f"or a 'p/q' string, got {value!r}")
    return out


def key_name(key):
    """The name of an element or a key in output: a tuple's entries joined by commas, else ``str``."""
    return ",".join(map(str, key)) if isinstance(key, tuple) else str(key)


def _bits(mask):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask &= mask - 1


def _transpose(masks):
    """The transposed relation: entry j of the result holds i when entry i of ``masks`` holds j."""
    out = [0] * len(masks)
    for i, mask in enumerate(masks):
        bit = 1 << i
        while mask:
            low = mask & -mask
            out[low.bit_length() - 1] |= bit
            mask ^= low
    return out


class Poset:
    """Finite poset over hashable element ids.

    ``elements`` is the canonical order; ``up[i]`` / ``down[i]`` are reflexive
    reachability bitmasks over element positions.  Immutable after build.
    """

    def __init__(self, elements, up_masks, heights):
        self.elements = tuple(elements)
        self._index = {e: i for i, e in enumerate(self.elements)}
        if len(self._index) != len(self.elements):
            raise PosetError("duplicate element ids")
        self.up = tuple(up_masks)
        self.heights = tuple(heights)
        self.down = tuple(_transpose(self.up))

    # -- construction --------------------------------------------------

    @classmethod
    def from_covers(cls, elements, covers):
        """Build from cover edges (lo, hi); edges are validated acyclic.

        Points and inequalities name an element by its ``str``, so two
        elements with the same ``str`` are rejected.
        """
        elements = list(elements)
        pos = {e: i for i, e in enumerate(elements)}
        if len(pos) != len(elements):
            raise PosetError("duplicate element ids")
        by_name = {}
        for e in elements:
            if str(e) in by_name:
                raise PosetError(
                    f"elements {by_name[str(e)]!r} and {e!r} have the same name {str(e)!r}")
            by_name[str(e)] = e
        n = len(elements)
        adj = [0] * n
        for lo, hi in covers:
            if lo not in pos or hi not in pos:
                raise PosetError(f"cover edge ({lo!r}, {hi!r}) references unknown element")
            if lo == hi:
                raise PosetError(f"self-loop at {lo!r}")
            adj[pos[lo]] |= 1 << pos[hi]
        up = cls._closure(adj)
        for i in range(n):
            if up[i] >> i & 1:
                raise PosetError(f"cover edges contain a cycle through {elements[i]!r}")
        for i in range(n):
            up[i] |= 1 << i
        return cls._canonicalize(elements, up)

    @classmethod
    def from_leq(cls, elements, leq):
        """Build from a comparability predicate ``leq(a, b)``."""
        elements = list(elements)
        n = len(elements)
        up = [0] * n
        for i, a in enumerate(elements):
            for j, b in enumerate(elements):
                if i == j or leq(a, b):
                    up[i] |= 1 << j
        for i in range(n):
            for j in range(n):
                if i != j and up[i] >> j & 1 and up[j] >> i & 1:
                    raise PosetError(f"{elements[i]!r} and {elements[j]!r} violate antisymmetry")
                if up[i] >> j & 1 and up[j] & ~up[i]:
                    raise PosetError("relation is not transitive")
        return cls._canonicalize(elements, up)

    @classmethod
    def from_json(cls, text):
        """Build from ``{"elements": [id, ...], "covers": [[lo, hi], ...]}``.

        An id is a string or an integer; any other shape is a ``PosetError``
        that names the field.
        """
        data = json_object(text, "poset")
        elements = json_ids(data, "elements")
        covers = data.get("covers")
        if not isinstance(covers, list) or not all(
                isinstance(c, list) and len(c) == 2 and all(map(_is_id, c)) for c in covers):
            raise PosetError("'covers' must be a list of [lower, upper] pairs of element ids")
        return cls.from_covers(elements, [tuple(e) for e in covers])

    @staticmethod
    def _closure(adj):
        n = len(adj)
        reach = list(adj)
        for k in range(n):
            bit = 1 << k
            rk = reach[k]
            for i in range(n):
                if reach[i] & bit:
                    reach[i] |= rk
        return reach

    @classmethod
    def _canonicalize(cls, elements, up):
        n = len(elements)
        below = _transpose(up)
        height = [0] * n
        # longest-chain height, processed bottom-up by number of elements below
        for i in sorted(range(n), key=lambda i: below[i].bit_count()):
            h, rest = 0, below[i] & ~(1 << i)
            while rest:
                low = rest & -rest
                h = max(h, height[low.bit_length() - 1] + 1)
                rest ^= low
            height[i] = h
        try:
            perm = sorted(range(n), key=lambda i: (height[i], elements[i]))
        except TypeError:
            perm = sorted(range(n), key=lambda i: (height[i], repr(elements[i])))
        new_pos = [0] * n
        for new, old in enumerate(perm):
            new_pos[old] = new
        new_up = []
        for old in perm:
            m, rest = 0, up[old]
            while rest:
                low = rest & -rest
                m |= 1 << new_pos[low.bit_length() - 1]
                rest ^= low
            new_up.append(m)
        return cls([elements[i] for i in perm], new_up, [height[i] for i in perm])

    # -- queries --------------------------------------------------------

    def __len__(self):
        return len(self.elements)

    def __repr__(self):
        return f"Poset({len(self)} elements)"

    def index(self, el):
        try:
            return self._index[el]
        except KeyError:
            raise PosetError(f"unknown element {el!r}") from None

    def __contains__(self, el):
        return el in self._index

    def leq(self, a, b):
        return bool(self.up[self.index(a)] >> self.index(b) & 1)

    def lt(self, a, b):
        return a != b and self.leq(a, b)

    def comparable(self, a, b):
        return self.leq(a, b) or self.leq(b, a)

    @cached_property
    def cover_up_masks(self):
        """cover_up[i]: bitmask of elements covering element i."""
        n = len(self)
        out = []
        for i in range(n):
            strict_up = self.up[i] & ~(1 << i)
            m = 0
            for j in _bits(strict_up):
                between = strict_up & (self.down[j] & ~(1 << j))
                if between == 0:
                    m |= 1 << j
            out.append(m)
        return tuple(out)

    def cover_pairs(self):
        out = []
        for i in range(len(self)):
            for j in _bits(self.cover_up_masks[i]):
                out.append((self.elements[i], self.elements[j]))
        return out

    def mask_of(self, ids):
        m = 0
        for e in ids:
            m |= 1 << self.index(e)
        return m

    def ids_of(self, mask):
        return tuple(self.elements[i] for i in _bits(mask))

    # the three mask scans below walk the set bits inline, lowest first: they
    # run once per ideal in the ideal product and the lattice conversions

    def is_down_closed(self, mask):
        down, rest = self.down, mask
        while rest:
            low = rest & -rest
            if down[low.bit_length() - 1] & ~mask:
                return False
            rest ^= low
        return True

    def down_closure(self, mask):
        down, out, rest = self.down, 0, mask
        while rest:
            low = rest & -rest
            out |= down[low.bit_length() - 1]
            rest = (rest ^ low) & ~out  # what is already below needs no scan of its own
        return out

    def maximal_of(self, mask, among=None):
        """Bitmask of elements of ``mask`` with no strictly larger element in ``mask``.

        ``among``, when given, limits the scan to the elements of ``mask & among``.
        """
        up, out = self.up, 0
        rest = mask if among is None else mask & among
        while rest:
            low = rest & -rest
            if up[low.bit_length() - 1] & mask & ~low == 0:
                out |= low
            rest ^= low
        return out

    def to_json(self):
        return json.dumps(
            {"elements": list(self.elements), "covers": [list(p) for p in self.cover_pairs()]},
            sort_keys=True,
        )


@dataclass(frozen=True)
class OrderIdeal:
    """Downward-closed subset of a poset, stored as a bitset in canonical order."""

    poset: Poset
    bits: int

    def __post_init__(self):
        if self.bits >> len(self.poset):
            raise PosetError(f"bits {self.bits:#x} are not a subset of the poset's "
                             f"{len(self.poset)} elements")

    @classmethod
    def from_members(cls, poset, members):
        mask = poset.mask_of(members)
        if not poset.is_down_closed(mask):
            raise PosetError("subset is not downward closed")
        return cls(poset, mask)

    def members(self):
        return self.poset.ids_of(self.bits)

    def __contains__(self, el):
        return bool(self.bits >> self.poset.index(el) & 1)

    def __len__(self):
        return self.bits.bit_count()

    def _same_poset(self, other):
        if self.poset is not other.poset:
            raise PosetError("the two ideals live on different posets")

    def __or__(self, other):
        self._same_poset(other)
        return OrderIdeal(self.poset, self.bits | other.bits)

    def __and__(self, other):
        self._same_poset(other)
        return OrderIdeal(self.poset, self.bits & other.bits)

    def __le__(self, other):
        self._same_poset(other)
        return self.bits & ~other.bits == 0

    def __lt__(self, other):
        # canonical enumeration order, not inclusion
        return (len(self), self.bits) < (len(other), other.bits)

    def __repr__(self):
        return f"OrderIdeal{self.members()!r}"


def ideal_masks(poset, most=None):
    """The bitmasks of all order ideals by cardinality, then bit pattern; ``CapacityError`` past ``most``."""
    if len(poset) > IDEAL_CAPACITY:
        raise CapacityError(f"poset has {len(poset)} > {IDEAL_CAPACITY} elements")
    ideals = [0]
    for i in range(len(poset)):
        # canonical order is a linear extension, so everything below i is already placed
        need = poset.down[i] & ~(1 << i)
        if most is not None and len(ideals) + sum(m & need == need for m in ideals) > most:
            raise CapacityError(f"poset has more than {most} order ideals")
        ideals += [m | (1 << i) for m in ideals if m & need == need]
    ideals.sort(key=lambda m: (m.bit_count(), m))
    return ideals


def enumerate_order_ideals(poset):
    """All order ideals, sorted by cardinality then bit pattern."""
    return [OrderIdeal(poset, m) for m in ideal_masks(poset)]


class IdealLattice:
    """The distributive lattice J(P) of order ideals of a finite poset P (Birkhoff).

    P is ``ji_poset``, the poset of join-irreducibles.  Every operation works
    on one representation of an element, the bitmask of its ideal over
    ``ji_poset``: the order is mask inclusion, meet and join are intersection
    and union, and the grade is the number of bits.  ``mask`` and ``element``
    convert between an element and its mask, and ``iota``/``from_ideal`` are
    the same pair on ``OrderIdeal`` values; here an element is its mask, and
    a subclass that names its elements otherwise (such as
    ``PluckerLattice``) overrides the two.  Pair-local operations work on a
    poset of any size; ``elements`` and the whole-lattice operations built on
    it enumerate every ideal on first use and raise ``CapacityError`` past
    ``IDEAL_CAPACITY`` join-irreducibles.
    """

    def __init__(self, poset):
        self.ji_poset = poset

    @cached_property
    def elements(self):
        """All ideal masks by size, then as integers."""
        return tuple(ideal_masks(self.ji_poset))

    def mask(self, el):
        return el

    def element(self, bits):
        return bits

    def weight_key(self, a):
        """The key of ``a`` in a weight vector."""
        return a

    def grade(self, a):
        return self.mask(a).bit_count()

    def leq(self, a, b):
        return self.mask(a) & ~self.mask(b) == 0

    def comparable(self, a, b):
        ma, mb = self.mask(a), self.mask(b)
        return ma & ~mb == 0 or mb & ~ma == 0

    def meet(self, a, b):
        return self.element(self.mask(a) & self.mask(b))

    def join(self, a, b):
        return self.element(self.mask(a) | self.mask(b))

    @property
    def minimum(self):
        return self.element(0)

    @property
    def maximum(self):
        return self.element((1 << len(self.ji_poset)) - 1)

    def iota(self, a):
        """The Birkhoff map: the order ideal of join-irreducibles below ``a``."""
        return OrderIdeal(self.ji_poset, self.mask(a))

    def from_ideal(self, ideal):
        """The inverse Birkhoff map: the element whose ideal of join-irreducibles is ``ideal``."""
        if ideal.poset is not self.ji_poset:
            raise PosetError("ideal does not live on this lattice's join-irreducible poset")
        return self.element(ideal.bits)

    def covers(self, a, b):
        return self.grade(b) == self.grade(a) + 1 and self.leq(a, b)

    @cached_property
    def _levels(self):
        levels = {}
        for e in self.elements:
            levels.setdefault(self.mask(e).bit_count(), []).append(e)
        return levels

    def cover_pairs(self):
        out = []
        for g, level in sorted(self._levels.items()):
            for a in level:
                for b in self._levels.get(g + 1, ()):
                    if self.leq(a, b):
                        out.append((a, b))
        return out

    def incomparable_pairs(self):
        """Unordered incomparable pairs (a, b), a before b in ``elements``."""
        elements = self.elements
        masks = [self.mask(e) for e in elements]
        out = []
        for i, (a, ma) in enumerate(zip(elements, masks)):
            for b, mb in zip(elements[i + 1:], masks[i + 1:]):
                if ma & ~mb and mb & ~ma:  # neither ideal contains the other
                    out.append((a, b))
        return out

    def diamond_pairs(self):
        """Incomparable pairs whose join covers both and which cover their meet."""
        # a diamond pair sits inside one grade level, and two ideals of one
        # size form a diamond exactly when each has one element the other lacks
        out = []
        for _, level in sorted(self._levels.items()):
            masks = [self.mask(a) for a in level]
            for i, a in enumerate(level):
                mask = masks[i]
                for j in range(i + 1, len(level)):
                    if (mask ^ masks[j]).bit_count() == 2:
                        out.append((a, level[j]))
        return out
