"""Partitions, bipartitions and walled tableaux.

A walled tableau of shape (r, s) is a path in the branching graph of the tower
of walled Brauer algebras: the first r steps each add a box to the left
diagram, the remaining s steps each add a box to the right diagram or remove a
box from the left one.  Paths are stored as move sequences; bipartition
sequences, contents and exponents are derived.  Cells are 1-based (row,
column).

Sign conventions: contents use column - row (plus d for right additions,
negated for removals); the exponent rule theta indexes diagonals by
row - column.  Both conventions are kept explicit in the API names to avoid
sign bugs.
"""

from __future__ import annotations

import re
from functools import lru_cache
from operator import index
from typing import NamedTuple

from .diagrams import Shape
from .errors import IllegalMove, IndexOutOfRange, ParseError
from .scalars import DeltaScalar, _immutable, _rational, _setattr, affine, scalar_str

# Partitions and bipartitions are interned like shapes, in tables that are
# never emptied: equal values are one object, hashed and compared by
# identity.  Walled tableaux, which are far too many to keep, are equal and
# hashed by value.
_PARTITIONS: dict = {}
_BIPARTITIONS: dict = {}


class Partition:
    """A partition as its weakly decreasing positive parts; interned."""

    __slots__ = ("parts",)

    def __new__(cls, parts: tuple = ()):
        parts = tuple([index(p) for p in parts])
        obj = _PARTITIONS.get(parts)
        if obj is None:
            if any(p <= 0 for p in parts):
                raise IndexOutOfRange(f"partition parts must be positive: {parts}")
            if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
                raise IndexOutOfRange(f"partition parts must be weakly decreasing: {parts}")
            obj = object.__new__(cls)
            _setattr(obj, "parts", parts)
            _PARTITIONS[parts] = obj
        return obj

    __setattr__ = __delattr__ = _immutable

    def __reduce__(self):
        return Partition, (self.parts,)

    def addable_cells(self) -> tuple:
        out = []
        for i in range(1, len(self.parts) + 2):
            j = self.parts[i - 1] + 1 if i <= len(self.parts) else 1
            if i == 1 or self.parts[i - 2] >= j:
                out.append((i, j))
        return tuple(out)

    def removable_cells(self) -> tuple:
        out = []
        for i, row in enumerate(self.parts, 1):
            if i == len(self.parts) or self.parts[i] < row:
                out.append((i, row))
        return tuple(out)

    def with_cell(self, cell) -> "Partition":
        if cell not in self.addable_cells():
            raise IndexOutOfRange(f"cell {cell} is not addable to {self.parts}")
        i, _ = cell
        rows = list(self.parts)
        if i > len(rows):
            rows.append(1)
        else:
            rows[i - 1] += 1
        return Partition(tuple(rows))

    def without_cell(self, cell) -> "Partition":
        if cell not in self.removable_cells():
            raise IndexOutOfRange(f"cell {cell} is not removable from {self.parts}")
        i, _ = cell
        rows = list(self.parts)
        rows[i - 1] -= 1
        if rows[i - 1] == 0:
            rows.pop()
        return Partition(tuple(rows))

    def __repr__(self):
        return f"Partition({list(self.parts)})"


EMPTY = Partition(())


class Bipartition:
    """The left and right partitions of a branching-graph vertex; interned."""

    __slots__ = ("left", "right")

    def __new__(cls, left: Partition = EMPTY, right: Partition = EMPTY):
        b = _BIPARTITIONS.get((left, right))
        if b is None:
            if left.__class__ is not Partition or right.__class__ is not Partition:
                raise TypeError(f"a bipartition joins two partitions: {left!r}, {right!r}")
            b = object.__new__(cls)
            _setattr(b, "left", left)
            _setattr(b, "right", right)
            _BIPARTITIONS[left, right] = b
        return b

    __setattr__ = __delattr__ = _immutable

    def __reduce__(self):
        return Bipartition, (self.left, self.right)

    def __repr__(self):
        return f"Bipartition({list(self.left.parts)}|{list(self.right.parts)})"


class Move(NamedTuple):
    kind: str  # 'L+', 'L-' or 'R+'
    row: int
    col: int

    def content(self) -> DeltaScalar:
        i, j = self.row, self.col
        if self.kind == "L+":
            return affine(j - i)
        if self.kind == "L-":
            return affine(i - j)
        return affine(j - i, 1)

    def __str__(self):
        return f"{self.kind}{self.row},{self.col}"


_MOVE_RE = re.compile(r"^([LR])([+-])(\d+),(\d+)$")


def parse_move(text: str) -> Move:
    m = _MOVE_RE.match(text.strip())
    if m is None:
        raise ParseError(f"cannot parse move {text!r}")
    kind = m.group(1) + m.group(2)
    if kind == "R-":
        raise ParseError(f"boxes are never removed from the right diagram: {text!r}")
    try:
        return Move(kind, int(m.group(3)), int(m.group(4)))
    except ValueError as exc:  # a decimal string too long for int()
        raise ParseError(f"cannot parse move {text!r}") from exc


@lru_cache(maxsize=None)
def _advance(state: Bipartition, move: Move) -> Bipartition:
    """The bipartition after a move known to be legal from state."""
    cell = (move.row, move.col)
    if move.kind == "L+":
        return Bipartition(state.left.with_cell(cell), state.right)
    if move.kind == "R+":
        return Bipartition(state.left, state.right.with_cell(cell))
    return Bipartition(state.left.without_cell(cell), state.right)


class WalledTableau:
    """A path of moves in the branching graph, validated on construction;
    steps holds the bipartition after each move, starting from the empty one.
    Immutable, equal and hashed by shape and moves."""

    __slots__ = ("shape", "moves", "steps", "_hash")

    def __init__(self, shape: Shape, moves: tuple):
        moves = tuple(moves)
        r, n = shape.r, shape.n
        state = Bipartition()
        steps = [state]
        for t, move in enumerate(moves[:n], 1):
            legal = _legal_moves(state, t, r)
            if move not in legal:
                allowed = ", ".join(str(m) for m in legal)
                raise IllegalMove(t, f"{move} is not a legal move here (legal: {allowed})")
            state = _advance(state, move)
            steps.append(state)
        if len(moves) != n:
            raise IllegalMove(min(len(moves), n) + 1, f"path length must be {n}")
        _setattr(self, "shape", shape)
        _setattr(self, "moves", moves)
        _setattr(self, "steps", tuple(steps))
        _setattr(self, "_hash", hash((shape, moves)))

    __setattr__ = __delattr__ = _immutable

    def __eq__(self, other):
        if self is other:
            return True
        if other.__class__ is WalledTableau:
            return self.shape is other.shape and self.moves == other.moves
        return NotImplemented

    def __hash__(self):
        return self._hash

    def __reduce__(self):
        return WalledTableau, (self.shape, self.moves)

    @property
    def final(self) -> Bipartition:
        return self.steps[-1]

    @property
    def left_shape(self) -> Partition:
        """The left diagram after the wall is reached (step r)."""
        return self.steps[self.shape.r].left

    def contents(self) -> tuple:
        return tuple(m.content() for m in self.moves)

    def moves_str(self) -> str:
        return ";".join(str(m) for m in self.moves)

    def __repr__(self):
        return f"WalledTableau({self.shape.r},{self.shape.s},{self.moves_str()!r})"


def parse_tableau(text: str, shape: Shape) -> WalledTableau:
    pieces = [p for p in text.split(";") if p.strip()]
    return WalledTableau(shape, tuple(parse_move(p) for p in pieces))


@lru_cache(maxsize=None)
def _partitions_of(n: int) -> tuple:
    if n == 0:
        return (EMPTY,)
    out = []
    def build(remaining, maxpart, acc):
        if remaining == 0:
            out.append(Partition(tuple(acc)))
            return
        for p in range(min(remaining, maxpart), 0, -1):
            build(remaining - p, p, acc + [p])
    build(n, n, [])
    return tuple(out)


def enumerate_bipartitions(shape: Shape) -> list:
    """All (f, bipartition) with |left| = r - f, |right| = s - f."""
    out = []
    for f in range(min(shape.r, shape.s) + 1):
        for left in _partitions_of(shape.r - f):
            for right in _partitions_of(shape.s - f):
                out.append((f, Bipartition(left, right)))
    return out


@lru_cache(maxsize=None)
def _legal_moves(state: Bipartition, t: int, r: int) -> tuple:
    """The moves a path may take at step t from state: the branching rule.
    Cached, so that enumeration and validation share one tuple per state."""
    if t <= r:
        return tuple(Move("L+", i, j) for (i, j) in state.left.addable_cells())
    moves = [Move("R+", i, j) for (i, j) in state.right.addable_cells()]
    moves += [Move("L-", i, j) for (i, j) in state.left.removable_cells()]
    return tuple(moves)


def enumerate_tableaux(shape: Shape) -> list:
    """All walled tableaux of the shape."""
    r, n = shape.r, shape.n
    out = []

    def extend(state, t, acc):
        if t > n:
            out.append(WalledTableau(shape, tuple(acc)))
            return
        for move in _legal_moves(state, t, r):
            acc.append(move)
            extend(_advance(state, move), t + 1, acc)
            acc.pop()

    extend(Bipartition(), 1, [])
    return out


def theta(gamma: Partition, k: int) -> int:
    """-1 if diagonal k of gamma has an addable cell, +1 if it has a
    removable one, else 0.  Never both: an addable (a + 1, b + 1) needs
    (a, b + 1) in gamma, which a removable (a, b) rules out."""
    if any(i - j == k for i, j in gamma.addable_cells()):
        return -1
    if any(i - j == k for i, j in gamma.removable_cells()):
        return 1
    return 0


def exponents(t: WalledTableau) -> tuple:
    """Pole/zero exponent per step: theta of the removed diagonal, 0 otherwise."""
    lam = t.left_shape
    out = []
    for move in t.moves:
        if move.kind == "L-":
            out.append(theta(lam, move.row - move.col))
        else:
            out.append(0)
    return tuple(out)


def is_semisimple(r: int, s: int, delta) -> bool:
    """Whether the algebra of shape (r, s) is semisimple at the rational
    d = delta, an int or a Fraction."""
    delta = _rational(delta)
    if r == 0 or s == 0:
        return True
    if delta.denominator != 1:
        return True
    dz = delta.numerator
    if abs(dz) > r + s - 2:
        return True
    return dz == 0 and (r, s) in {(1, 2), (1, 3), (2, 1), (3, 1)}


class BratteliGraph:
    """The branching graph of a shape: levels[t] lists the bipartitions at
    level t, edges[t] the (from index, to index, Move) from level t."""

    __slots__ = ("shape", "levels", "edges")

    def __init__(self, shape: Shape, levels: list, edges: list):
        self.shape = shape
        self.levels = levels
        self.edges = edges

    def path_count(self) -> int:
        counts = [1] * len(self.levels[0])
        for t in range(len(self.edges)):
            nxt = [0] * len(self.levels[t + 1])
            for i, j, _ in self.edges[t]:
                nxt[j] += counts[i]
            counts = nxt
        return sum(counts)

    def to_json(self) -> dict:
        return {
            "r": self.shape.r,
            "s": self.shape.s,
            "levels": [
                [
                    {"left": list(b.left.parts), "right": list(b.right.parts)}
                    for b in level
                ]
                for level in self.levels
            ],
            "edges": [
                {
                    "level": t,
                    "from": i,
                    "to": j,
                    "content": scalar_str(move.content()),
                    "move": str(move),
                }
                for t, level_edges in enumerate(self.edges)
                for i, j, move in level_edges
            ],
        }

    def to_dot(self) -> str:
        def label(b: Bipartition) -> str:
            return f"{_pstr(b.left)}|{_pstr(b.right)}"

        lines = ["digraph bratteli {", "  rankdir=LR;"]
        for t, level in enumerate(self.levels):
            for i, b in enumerate(level):
                lines.append(f'  n{t}_{i} [label="{label(b)}"];')
        for t, level_edges in enumerate(self.edges):
            for i, j, move in level_edges:
                content = scalar_str(move.content())
                lines.append(f'  n{t}_{i} -> n{t + 1}_{j} [label="{content}"];')
        lines.append("}")
        return "\n".join(lines)


def _pstr(p: Partition) -> str:
    return "[" + ",".join(str(x) for x in p.parts) + "]"


def bratteli(shape: Shape) -> BratteliGraph:
    levels = [[Bipartition()]]
    edges = []
    for t in range(1, shape.n + 1):
        nxt: list = []
        index: dict = {}
        level_edges = []
        for i, state in enumerate(levels[-1]):
            for move in _legal_moves(state, t, shape.r):
                child = _advance(state, move)
                j = index.get(child)
                if j is None:
                    j = len(nxt)
                    index[child] = j
                    nxt.append(child)
                level_edges.append((i, j, move))
        levels.append(nxt)
        edges.append(level_edges)
    return BratteliGraph(shape, levels, edges)
