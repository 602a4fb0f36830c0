"""Tableau combinatorics that only the tests use, each the oracle for an
engine rule it restates in the paper's own notation.

- `tableau_from_contents` rebuilds a path from its content sequence, so a
  test can show that the contents the fusion procedures evaluate on name one
  path each.
- `TripleTableau`, `triple_tableau` and `tableau_from_triple` write a path as
  the paper's triple diagram with its standard fillings; their bijection
  checks `enumerate_tableaux` and the validation of `WalledTableau`.
- `cells`, `diag_len` and `laplacian` give the diagonal lengths g of a
  partition or a skew cell set and the negative Laplacian 2g(k) - g(k+1) -
  g(k-1); `theta(gamma, k)`, the exponent rule, is `laplacian(gamma, k)`
  less 1 on the main diagonal.

Diagonals are indexed by row - column, as `theta` indexes them.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple

from wba.diagrams import Shape
from wba.errors import IllegalMove
from wba.scalars import DeltaScalar, scalar_str
from wba.tableaux import (
    Bipartition,
    Move,
    Partition,
    WalledTableau,
    _advance,
    _legal_moves,
)


def cells(gamma: Partition) -> tuple:
    """The 1-based (row, column) cells of a partition, row by row."""
    return tuple((i, j) for i, row in enumerate(gamma.parts, 1) for j in range(1, row + 1))


def tableau_from_contents(shape: Shape, contents: Iterable[DeltaScalar]) -> WalledTableau:
    """Rebuild the unique path with the given content sequence."""
    r = shape.r
    state = Bipartition()
    moves = []
    for t, c in enumerate(contents, 1):
        matches = [m for m in _legal_moves(state, t, r) if m.content() == c]
        if len(matches) != 1:
            raise IllegalMove(t, f"{len(matches)} moves match content {scalar_str(c)}")
        state = _advance(state, matches[0])
        moves.append(matches[0])
    return WalledTableau(shape, tuple(moves))


class TripleTableau(NamedTuple):
    """The triple diagram of a path with its standard fillings.

    lambda_prime is the left diagram when the wall is reached, nu the final
    left diagram, lambda_second the final right diagram.  fill_prime numbers
    the cells of lambda_prime by addition order (1..r); removed_fill and
    right_fill number the cells of lambda_prime \\ nu and lambda_second by the
    order of the after-wall steps (r+1..n).
    """

    lambda_prime: Partition
    nu: Partition
    lambda_second: Partition
    fill_prime: tuple
    removed_fill: tuple
    right_fill: tuple


def triple_tableau(t: WalledTableau) -> TripleTableau:
    r = t.shape.r
    fill_prime = {}
    removed_fill = {}
    right_fill = {}
    for k, move in enumerate(t.moves, 1):
        cell = (move.row, move.col)
        if k <= r:
            fill_prime[cell] = k
        elif move.kind == "L-":
            removed_fill[cell] = k
        else:
            right_fill[cell] = k
    return TripleTableau(
        lambda_prime=t.left_shape,
        nu=t.final.left,
        lambda_second=t.final.right,
        fill_prime=tuple(sorted(fill_prime.items())),
        removed_fill=tuple(sorted(removed_fill.items())),
        right_fill=tuple(sorted(right_fill.items())),
    )


def tableau_from_triple(tt: TripleTableau, shape: Shape) -> WalledTableau:
    """Inverse of triple_tableau; validates standardness on reconstruction."""
    by_step = {}
    for cell, k in tt.fill_prime:
        by_step[k] = Move("L+", *cell)
    for cell, k in tt.removed_fill:
        by_step[k] = Move("L-", *cell)
    for cell, k in tt.right_fill:
        by_step[k] = Move("R+", *cell)
    if sorted(by_step) != list(range(1, shape.n + 1)):
        raise IllegalMove(len(by_step) + 1, "fillings do not cover steps 1..n")
    return WalledTableau(shape, tuple(by_step[k] for k in range(1, shape.n + 1)))


def _cellset(x) -> frozenset:
    if isinstance(x, Partition):
        return frozenset(cells(x))
    return frozenset((int(i), int(j)) for i, j in x)


def diag_len(x, k: int) -> int:
    """Number of cells (i, j) with i - j = k in a partition or cell set."""
    return sum(1 for i, j in _cellset(x) if i - j == k)


def laplacian(x, k: int) -> int:
    """The negative Laplacian 2g(k) - g(k+1) - g(k-1) of the diagonal lengths."""
    cs = _cellset(x)
    return 2 * diag_len(cs, k) - diag_len(cs, k + 1) - diag_len(cs, k - 1)
