"""Hasse diagrams of bounded ideal families under inclusion.

Output is deterministic: nodes in canonical order, edges sorted, covering
relations oriented from the smaller ideal to the larger one.
"""

from __future__ import annotations

import json
from typing import Iterable, Sequence

from .cls_codes import bit_indices, cover_walk
from .ideals import Ideal, enumerate_ideals, family_size, inclusion_rows, inclusion_rows_checks


def covering_relations(ideals: Iterable[Ideal]) -> list[tuple[Ideal, Ideal]]:
    """Covering pairs (inner, outer) of the inclusion order restricted to the family, sorted.

    Precondition: inclusion restricted to the family is a partial order, as
    the ``ideal-order`` suite checks.  The covers of each ideal are then
    picks & ~union of cover_walk on its row: a few ORs per row, one per
    pick, not one per ideal above it.
    """
    family = sorted(set(ideals), key=Ideal.sort_key)
    rows = inclusion_rows(family)
    covers = []
    for i, a in enumerate(family):
        picks, union = cover_walk(rows, i)
        covers.extend((a, family[b]) for b in bit_indices(picks & ~union))
    return covers


def _hasse_checks(max_x: int, max_y: int, max_cols: int, max_len: int, cap: int) -> int:
    """The work of family_hasse on the bounded family, counted without enumerating, in 64-bit words.

    That is inclusion_rows_checks, and cover_walk's read of the n rows, n / 64
    words each.  On families that drew in 0.07 to 11 s (Python 3.11, one
    core), a unit took 42 to 280 ns, so the ceiling of 10**7 lets through
    draws of about half a second to three seconds.  Exact up to cap, some
    number past cap beyond it, like family_size.
    """
    n = family_size(max_x, max_y, max_cols, max_len, cap)
    rows = inclusion_rows_checks(max_x, max_y, max_cols, max_len, cap)
    return rows if n > cap else rows + n * -(-n // 64)


def _graph(ideals: Iterable[Ideal]) -> tuple[list[Ideal], list[tuple[int, int]]]:
    """Nodes in canonical order and covering edges as (inner, outer) node indices, sorted."""
    family = sorted(set(ideals), key=Ideal.sort_key)
    index = {node: i for i, node in enumerate(family)}
    return family, [(index[a], index[b]) for a, b in covering_relations(family)]


def hasse_dot(ideals: Sequence[Ideal]) -> str:
    """DOT digraph of the covering relations, edges from smaller to larger ideal."""
    family, edges = _graph(ideals)
    labels = [f'"{node}"' for node in family]  # each node's label is rendered once, not once per edge
    lines = ["digraph ideal_inclusions {"]
    lines.extend(f"  {label};" for label in labels)
    lines.extend(f"  {labels[a]} -> {labels[b]};" for a, b in edges)
    lines.append("}")
    return "\n".join(lines) + "\n"


def hasse_adjacency(ideals: Sequence[Ideal]) -> dict:
    """The same graph as adjacency lists: nodes in canonical order, edge targets by index."""
    family, edges = _graph(ideals)
    adjacency: list[list[int]] = [[] for _ in family]
    for a, b in edges:
        adjacency[a].append(b)
    return {"nodes": [node.to_json() for node in family], "adjacency": adjacency}


def family_hasse(max_x: int, max_y: int, max_cols: int, max_len: int, fmt: str = "dot") -> str:
    """Hasse diagram of the bounded family, rendered as DOT or JSON text."""
    if min(max_x, max_y, max_cols, max_len) < 0:
        raise ValueError("family bounds must be >= 0 (empty families are not drawable)")
    family = enumerate_ideals(max_x, max_y, max_cols, max_len)
    if fmt == "dot":
        return hasse_dot(family)
    if fmt == "json":
        return json.dumps(hasse_adjacency(family), sort_keys=True) + "\n"
    raise ValueError(f"unknown format {fmt!r}; expected 'dot' or 'json'")
