"""Hasse diagrams of bounded ideal families under inclusion.

Output is deterministic: nodes in canonical order, edges sorted, covering
relations oriented from the smaller ideal to the larger one.
"""

from __future__ import annotations

import json
from typing import Iterable, Sequence

from .cls_codes import bit_indices, or_of_rows
from .ideals import Ideal, enumerate_ideals, inclusion_rows


def covering_relations(ideals: Iterable[Ideal]) -> list[tuple[Ideal, Ideal]]:
    """Covering pairs (inner, outer) of the inclusion order restricted to the family, sorted.

    A bitset transitive reduction (Aho, Garey and Ullman 1972): with strict(a)
    the ideals strictly above a, covers(a) = strict(a) minus the union of
    strict(c) over c in strict(a).  That union is one C-level OR
    (or_of_rows), not a Python step per c.
    """
    family = sorted(set(ideals), key=Ideal.sort_key)
    strict = [row & ~(1 << i) for i, row in enumerate(inclusion_rows(family))]
    covers = []
    for a, row in zip(family, strict):
        covers.extend((a, family[b]) for b in bit_indices(row & ~or_of_rows(strict, row)))
    return covers


def _graph(ideals: Iterable[Ideal]) -> tuple[list[Ideal], list[tuple[int, int]]]:
    """Nodes in canonical order and covering edges as (inner, outer) node indices, sorted."""
    family = sorted(set(ideals), key=Ideal.sort_key)
    index = {node: i for i, node in enumerate(family)}
    return family, [(index[a], index[b]) for a, b in covering_relations(family)]


def hasse_dot(ideals: Sequence[Ideal]) -> str:
    """DOT digraph of the covering relations, edges from smaller to larger ideal."""
    family, edges = _graph(ideals)
    lines = ["digraph ideal_inclusions {"]
    lines.extend(f'  "{node}";' for node in family)
    lines.extend(f'  "{family[a]}" -> "{family[b]}";' for a, b in edges)
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
