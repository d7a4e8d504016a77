"""Frozen reference: the STP parser as it stood before it read the edge
lines by column.

Each E line was stripped, lower-cased and checked in turn, and every
edge was scaled and range-checked in a second pass over
(u, v, numerator, denominator, line) records.  ``parse_stp`` must
return the same graph, or raise the same exception with the same
message and line, on every text (``tests/test_graph.py``).  Do not
optimise or refactor this copy; it is the specification.
"""

from __future__ import annotations

import math
from fractions import Fraction

from steinerenum.graph import Graph, ParseError

_MAGIC = "33D32945"


def reference_parse_stp(text: str) -> Graph:
    """Parse the SteinLib STP subset into a Graph.

    Recognized structure: an optional magic first line, ``SECTION Graph``
    with ``Nodes``/``Edges`` declarations and ``E u v w`` lines,
    ``SECTION Terminals`` with ``Terminals``/``T v`` lines, arbitrary
    other sections (skipped), and a closing ``EOF``.  Keywords are
    case-insensitive.  Decimal weights are scaled to integers by the
    least common denominator; the factor lands in ``Graph.cost_scale``.
    Each distinct weight token is read as a ``Fraction`` once.
    """
    lines = text.splitlines()
    n_vertices: int | None = None
    n_edges_decl: int | None = None
    n_terms_decl: int | None = None
    raw_edges: list[tuple[int, int, int, int, int]] = []  # u, v, num, den, line
    weights: dict[str, tuple[int, int]] = {}  # token -> reduced (num, den)
    terminals: list[int] = []
    section: str | None = None
    saw_graph = False

    def bad(msg: str, ln: int):
        raise ParseError(msg, ln)

    for ln, raw in enumerate(lines, 1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith(_MAGIC):
            continue
        tokens = line.split()
        head = tokens[0].lower()

        if section is None:
            if head == "section":
                if len(tokens) < 2:
                    bad("SECTION needs a name", ln)
                section = tokens[1].lower()
                if section == "graph":
                    saw_graph = True
            elif head == "eof":
                break
            else:
                bad(f"unexpected token {tokens[0]!r} outside any section", ln)
            continue

        if head == "end":
            section = None
            continue

        if section == "graph":
            if head == "nodes":
                try:
                    n_vertices = int(tokens[1])
                except (IndexError, ValueError):
                    bad("Nodes needs an integer count", ln)
            elif head == "edges":
                try:
                    n_edges_decl = int(tokens[1])
                except (IndexError, ValueError):
                    bad("Edges needs an integer count", ln)
            elif head == "e":
                if len(tokens) != 4:
                    bad("E line needs: E <u> <v> <weight>", ln)
                w = weights.get(tokens[3])
                try:
                    u, v = int(tokens[1]), int(tokens[2])
                    if w is None:
                        f = Fraction(tokens[3])
                except ValueError:
                    bad("E line has a non-numeric field", ln)
                except ZeroDivisionError:
                    bad(f"weight {tokens[3]} has a zero denominator", ln)
                if w is None:
                    if f < 0:
                        bad(f"negative weight {tokens[3]}", ln)
                    w = weights[tokens[3]] = (f.numerator, f.denominator)
                raw_edges.append((u, v, w[0], w[1], ln))
            else:
                bad(f"unknown keyword {tokens[0]!r} in Graph section", ln)
        elif section == "terminals":
            if head == "terminals":
                try:
                    n_terms_decl = int(tokens[1])
                except (IndexError, ValueError):
                    bad("Terminals needs an integer count", ln)
            elif head == "t":
                try:
                    terminals.append(int(tokens[1]))
                except (IndexError, ValueError):
                    bad("T line needs a vertex id", ln)
            else:
                # tolerate auxiliary keywords some instances carry
                # (RootP and friends) without interpreting them
                continue
        # other sections: skipped until END

    if not saw_graph:
        raise ParseError("no Graph section found")
    if n_vertices is None:
        raise ParseError("Graph section lacks a Nodes declaration")
    if n_edges_decl is not None and n_edges_decl != len(raw_edges):
        raise ParseError(
            f"Edges declares {n_edges_decl} but {len(raw_edges)} E lines found"
        )
    if n_terms_decl is not None and n_terms_decl != len(terminals):
        raise ParseError(
            f"Terminals declares {n_terms_decl} but {len(terminals)} T lines found"
        )

    scale = math.lcm(1, *(den for _, den in weights.values()))
    edges = []
    for u, v, num, den, ln in raw_edges:
        if not (1 <= u <= n_vertices and 1 <= v <= n_vertices):
            bad(f"edge endpoint out of range 1..{n_vertices}", ln)
        edges.append((u, v, num * scale // den))
    for t in terminals:
        if not 1 <= t <= n_vertices:
            raise ParseError(f"terminal {t} out of range 1..{n_vertices}")

    return Graph(
        vertex_count=n_vertices,
        edges=tuple(edges),
        terminals=frozenset(terminals),
        cost_scale=scale,
    )
