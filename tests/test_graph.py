"""Instance model, STP parsing, edge ordering, lossless simplification."""

import math
import random
import time
from dataclasses import dataclass
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from steinerenum import (
    EdgeOrder,
    Graph,
    GraphError,
    ParseError,
    SeedConfig,
    SimplificationMap,
    SteinerTree,
    construct_bdd,
    count_trees,
    expand_tree,
    order_edges,
    parse_stp,
    reduce_bdd,
    select_seeds,
    simplify,
    union_subgraph,
    write_stp,
)
from perfbench.instances import WORKLOADS
from steinerenum.graph import _greedy_edges, default_root
from .stp_reference import reference_parse_stp
from .conftest import (
    TRIANGLE_STP,
    add_parallel_edge_and_loop,
    bfs_order,
    frontiers,
    grid_graph,
    random_connected_graph,
    subdivide_edge,
)


def graphs(max_vertices=8, max_edges=12):
    return st.builds(
        lambda seed: random_connected_graph(
            random.Random(seed), max_vertices, max_edges
        ),
        st.integers(0, 2**32 - 1),
    )


def messy_graph(rng: random.Random) -> Graph:
    """A random connected graph with up to two subdivided edges, a
    parallel edge and a loop half the time, and its vertex v renumbered
    2v, so the odd ids are isolated."""
    g = random_connected_graph(rng, max_vertices=8, max_edges=12)
    for _ in range(rng.randint(0, 2)):
        g = subdivide_edge(g, rng.randrange(len(g.edges)), rng)
    if rng.random() < 0.5:
        g = add_parallel_edge_and_loop(g, rng, rng.random() < 0.5)
    return Graph(
        2 * g.vertex_count + 1,
        tuple((2 * u, 2 * v, w) for u, v, w in g.edges),
        frozenset(2 * t for t in g.terminals),
    )


def multigraphs():
    return st.builds(
        lambda seed: messy_graph(random.Random(seed)), st.integers(0, 2**32 - 1)
    )


class TestGraph:
    def test_adjacency_and_degree(self, triangle):
        assert triangle.adjacency[1] == (0, 2)
        assert triangle.adjacency[2] == (0, 1)
        assert triangle.degree(2) == 2
        assert triangle.other_end(0, 1) == 2
        assert triangle.other_end(0, 2) == 1

    def test_loop_counts_twice(self):
        g = Graph(2, ((1, 2, 1), (2, 2, 5)), frozenset({1, 2}))
        assert g.adjacency[2] == (0, 1, 1)
        assert g.degree(2) == 3

    def test_parallel_edges_stay_distinct(self):
        g = Graph(2, ((1, 2, 1), (1, 2, 4)), frozenset({1, 2}))
        assert len(g.edges) == 2
        assert g.adjacency[1] == (0, 1)

    def test_tree_cost(self, triangle):
        assert triangle.tree_cost([0, 1]) == 2

    def test_endpoint_out_of_range(self):
        with pytest.raises(GraphError):
            Graph(2, ((1, 3, 1),), frozenset({1}))

    def test_negative_weight(self):
        with pytest.raises(GraphError):
            Graph(2, ((1, 2, -1),), frozenset({1}))

    def test_terminal_out_of_range(self):
        with pytest.raises(GraphError):
            Graph(2, ((1, 2, 1),), frozenset({5}))

    def test_disconnected_terminals_rejected(self):
        with pytest.raises(GraphError, match="disconnected"):
            Graph(4, ((1, 2, 1), (3, 4, 1)), frozenset({1, 3}))

    @pytest.mark.parametrize(
        "n, edges, terminals, vertex",
        [
            # the search starts at 1 and misses the 3-4-5 path
            (5, ((1, 2, 1), (3, 4, 1), (4, 5, 1)), {1, 5}, 3),
            # an isolated terminal is an active vertex the search misses
            (3, ((1, 2, 1),), {1, 3}, 3),
        ],
        ids=["smallest_missed_endpoint", "isolated_terminal"],
    )
    def test_disconnected_names_smallest_missed_vertex(
        self, n, edges, terminals, vertex
    ):
        msg = f"graph is disconnected: vertex {vertex} unreachable"
        with pytest.raises(GraphError, match=f"^{msg}$"):
            Graph(n, edges, frozenset(terminals))

    def test_isolated_vertex_tolerated(self):
        g = Graph(3, ((1, 2, 1),), frozenset({1, 2}))
        assert g.degree(3) == 0

    @pytest.mark.parametrize(
        "edges, message",
        [
            (((1, 2, 1), (1, 5, -1), (9, 2, -2)), "edge 1: endpoint 5 out of range"),
            (((1, 2, 1), (2, 3, -1), (0, 2, 1)), "edge 1: negative weight -1"),
            (((7, 2, -1),), "edge 0: endpoint 7 out of range"),
            (((1, 0, -1),), "edge 0: endpoint 0 out of range"),
            (((4, 0, 1),), "edge 0: endpoint 4 out of range"),
        ],
    )
    def test_names_first_bad_edge_endpoint_before_weight(self, edges, message):
        with pytest.raises(GraphError, match=f"^{message}$"):
            Graph(3, edges, frozenset({1, 2}))


class TestRecords:
    """The frozen record base that Graph, SteinerTree and the rest share."""

    @pytest.mark.parametrize("make", [
        lambda: Graph(2, ((1, 2, 1),), frozenset({1, 2})),
        lambda: SteinerTree(frozenset({0}), 1),  # a slotted record
        lambda: SeedConfig(),
    ], ids=["graph", "tree", "seed_config"])
    def test_fields_cannot_change(self, make):
        rec = make()
        name = rec._fields[0]
        with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
            setattr(rec, name, None)
        with pytest.raises(AttributeError):
            delattr(rec, name)
        with pytest.raises(AttributeError):
            rec.extra = 1
        assert rec == make() and hash(rec) == hash(make())

    def test_graph_compares_without_adjacency(self, triangle):
        other = Graph(3, triangle.edges, triangle.terminals)
        object.__setattr__(other, "adjacency", ())
        assert other == triangle and hash(other) == hash(triangle)
        assert "adjacency" not in repr(triangle)
        assert repr(triangle) == (
            "Graph(vertex_count=3, edges=((1, 2, 1), (2, 3, 1), (1, 3, 3)), "
            "terminals=frozenset({1, 3}), cost_scale=1)"
        )
        assert triangle != Graph(3, triangle.edges, triangle.terminals, 2)
        assert triangle != SteinerTree(frozenset(), 0)

    def test_fields_by_position_or_name(self, triangle):
        assert Graph(vertex_count=3, edges=triangle.edges, terminals=triangle.terminals,
                     cost_scale=1) == triangle
        assert Graph(3, triangle.edges, terminals=triangle.terminals) == triangle
        with pytest.raises(TypeError, match="needs field 'terminals'"):
            Graph(3, triangle.edges)
        with pytest.raises(TypeError, match="unknown or repeated"):
            Graph(3, triangle.edges, triangle.terminals, vertex_count=3)
        with pytest.raises(TypeError, match="unknown or repeated"):
            Graph(3, triangle.edges, triangle.terminals, scale=1)
        with pytest.raises(TypeError, match="at most 4"):
            Graph(3, triangle.edges, triangle.terminals, 1, ())

    def test_replace_runs_the_checks(self, triangle):
        assert triangle._replace(cost_scale=5).cost_scale == 5
        with pytest.raises(GraphError, match="endpoint 3 out of range"):
            triangle._replace(vertex_count=2)


class TestParse:
    def test_triangle(self):
        g = parse_stp(TRIANGLE_STP)
        assert g.vertex_count == 3
        assert g.edges == ((1, 2, 1), (2, 3, 1), (1, 3, 3))
        assert g.terminals == frozenset({1, 3})
        assert g.cost_scale == 1

    def test_case_insensitive_and_extra_sections(self):
        text = (
            "section graph\nnodes 2\nedges 1\ne 1 2 7\nend\n"
            "SECTION Comment\nName \"x\"\nEND\n"
            "section terminals\nterminals 2\nt 1\nt 2\nRootP 1\nend\neof\n"
        )
        g = parse_stp(text)
        assert g.edges == ((1, 2, 7),)
        assert g.terminals == frozenset({1, 2})

    def test_decimal_weights_scaled(self):
        text = (
            "SECTION Graph\nNodes 2\nEdges 2\nE 1 2 0.5\nE 1 2 0.25\nEND\n"
            "SECTION Terminals\nTerminals 2\nT 1\nT 2\nEND\nEOF\n"
        )
        g = parse_stp(text)
        assert g.cost_scale == 4
        assert g.edges == ((1, 2, 2), (1, 2, 1))

    def test_edge_count_mismatch(self):
        text = (
            "SECTION Graph\nNodes 2\nEdges 2\nE 1 2 1\nEND\n"
            "SECTION Terminals\nTerminals 1\nT 1\nEND\nEOF\n"
        )
        with pytest.raises(ParseError, match="declares 2"):
            parse_stp(text)

    def test_bad_edge_line_reports_line_number(self):
        text = "SECTION Graph\nNodes 2\nE 1 2\nEND\nEOF\n"
        with pytest.raises(ParseError) as exc:
            parse_stp(text)
        assert exc.value.line == 3

    def test_zero_denominator_weight(self):
        text = TRIANGLE_STP.replace("E 1 3 3", "E 1 3 1/0")
        with pytest.raises(ParseError, match="zero denominator") as exc:
            parse_stp(text)
        assert exc.value.line == TRIANGLE_STP.splitlines().index("E 1 3 3") + 1

    def test_missing_graph_section(self):
        with pytest.raises(ParseError, match="Graph section"):
            parse_stp("SECTION Terminals\nT 1\nEND\nEOF\n")

    def test_stray_token(self):
        with pytest.raises(ParseError):
            parse_stp("Nodes 3\nEOF\n")

    @settings(max_examples=40, deadline=None)
    @given(graphs())
    def test_write_parse_roundtrip(self, g):
        h = parse_stp(write_stp(g))
        assert h.vertex_count == g.vertex_count
        assert h.edges == g.edges
        assert h.terminals == g.terminals
        assert h.cost_scale == g.cost_scale

    def test_roundtrip_with_scale(self):
        g = Graph(2, ((1, 2, 3),), frozenset({1, 2}), cost_scale=2)
        assert "E 1 2 1.5" in write_stp(g)
        assert parse_stp(write_stp(g)).edges == ((1, 2, 3),)
        # a weight with no exact decimal keeps its fraction
        g = Graph(2, ((1, 2, 4),), frozenset({1, 2}), cost_scale=3)
        assert "E 1 2 4/3" in write_stp(g)


    def test_repeated_weight_tokens_match_per_edge_fractions(self):
        tokens = ["2.50", ".5", "4.", "1/3", "1e1", "0", "0.125"]
        lines = [f"E 1 2 {tok}" for tok in tokens * 3]
        text = (
            f"SECTION Graph\nNodes 2\nEdges {len(lines)}\n"
            + "\n".join(lines)
            + "\nEND\nSECTION Terminals\nT 1\nT 2\nEND\nEOF\n"
        )
        g = parse_stp(text)
        fractions = [Fraction(tok) for tok in tokens * 3]
        scale = 1
        for f in fractions:
            scale = scale * f.denominator // math.gcd(scale, f.denominator)
        assert g.cost_scale == scale == 24
        assert g.edges == tuple((1, 2, int(f * scale)) for f in fractions)
        assert [w for _, _, w in g.edges[:7]] == [60, 12, 96, 8, 240, 0, 3]

    @pytest.mark.parametrize(
        "token, message",
        [
            ("-1", "negative weight -1"),
            ("1.2.3", "non-numeric"),
            ("x", "non-numeric"),
            ("\u00b2", "non-numeric"),  # superscript two: a digit, not a decimal
        ],
    )
    def test_bad_weight_reports_its_line(self, token, message):
        text = (
            "SECTION Graph\nNodes 2\nE 1 2 3\nE 1 2 3\n"
            f"E 1 2 {token}\nEND\nEOF\n"
        )
        with pytest.raises(ParseError, match=message) as exc:
            parse_stp(text)
        assert exc.value.line == 5

    @pytest.mark.parametrize(
        "bad_line, message",
        [
            ("E 1 y 0.5", "non-numeric"),
            ("E 1 9 0.5", "out of range"),
            ("E 1 2 0.5 7", "E line needs"),
        ],
    )
    def test_bad_line_with_cached_token_reports_the_bad_line(
        self, bad_line, message
    ):
        text = (
            "SECTION Graph\nNodes 2\nE 1 2 0.5\nE 2 1 0.5\n"
            f"{bad_line}\nE 1 2 0.5\nEND\nEOF\n"
        )
        with pytest.raises(ParseError, match=message) as exc:
            parse_stp(text)
        assert exc.value.line == 5


@dataclass
class StpDoc:
    """A random valid STP text, held in parts for editing: ``parts`` in
    file order (the magic line, the sections, the EOF line), with the
    Graph and Terminals sections also at hand, and the declared vertex
    count ``n``."""

    parts: list[list[str]]
    graph: list[str]
    terminals: list[str]
    n: int

    def e_lines(self) -> list[int]:
        return [i for i, t in enumerate(self.graph) if t.split()[0] in ("E", "e")]

    def nodes_line(self) -> int | None:
        return next((i for i, t in enumerate(self.graph)
                     if t.split()[0].lower() == "nodes"), None)

    def render(self, rng: random.Random) -> str:
        """The text, with blank or whitespace-only lines strewn in."""
        lines = []
        for part in self.parts:
            for text in part:
                if rng.random() < 0.1:
                    lines.append(rng.choice(("", "   ", "\t")))
                lines.append(text)
        return "\n".join(lines) + rng.choice(("\n", "", "\r\n"))


def random_stp(rng: random.Random) -> StpDoc:
    """Keywords come in mixed case, lines carry stray blanks, and the
    magic line, Comment and Coordinates sections, a RootP line and text
    after EOF may appear.  Weight tokens repeat, in several spellings of
    one value, and Nodes may follow the E lines.  The graph is a path
    with extra edges, so it is connected; a vertex may stay isolated,
    but never a terminal."""
    n = rng.randint(2, 7)
    pairs = [(v, rng.randint(1, v - 1)) for v in range(2, n + 1)]
    pairs += [(rng.randint(1, n), rng.randint(1, n)) for _ in range(rng.randint(0, 4))]
    rng.shuffle(pairs)
    tokens = ("1", "2.50", "2.5", ".5", "1/3", "2/6", "1e1", "0", "07", "0.125")

    def case(word):
        return rng.choice((word, word.lower(), word.upper()))

    def line(*words):
        pad = rng.choice(("", "", " ", "\t"))
        return pad + rng.choice((" ", " ", "  ", "\t")).join(words) + pad

    declared = n + rng.choice((0, 0, 1))
    decls = [line(case("Nodes"), str(declared))]
    if rng.random() < 0.8:
        decls.append(line(case("Edges"), str(len(pairs))))
    edges = [line(case("E"), str(u), str(v), rng.choice(tokens)) for u, v in pairs]
    body = edges + decls if rng.random() < 0.2 else decls + edges
    graph = [line(case("SECTION"), case("Graph")), *body, line(case("END"))]
    terms = rng.sample(range(1, n + 1), rng.randint(0, min(4, n)))
    terminals = [line(case("SECTION"), case("Terminals"))]
    if rng.random() < 0.7:
        terminals.append(line(case("Terminals"), str(len(terms))))
    terminals += [line(case("T"), str(t)) for t in terms]
    if rng.random() < 0.3:
        terminals.insert(rng.randint(1, len(terminals)), line("RootP", "1"))
    terminals.append(line(case("END")))
    parts = [graph, terminals]
    if rng.random() < 0.4:
        parts.append([line(case("SECTION"), "Comment"), 'Name "x"', case("END")])
    if rng.random() < 0.3:
        parts.append([line(case("SECTION"), "Coordinates"), "DD 1 10 20", "END"])
    rng.shuffle(parts)
    if rng.random() < 0.5:
        parts.insert(0, ["33D32945 STP File, STP Format Version 1.0"])
    parts.append([case("EOF")] + (["anything after EOF"] if rng.random() < 0.2 else []))
    return StpDoc(parts, graph, terminals, declared)


def _retoken(text: str, pos: int, token: str | None) -> str:
    """text with token pos replaced, or dropped when token is None."""
    words = text.split()
    words[pos:pos + 1] = [] if token is None else [token]
    return " ".join(words)


# faults of one E line: name -> edit of the line, given the vertex count
EDGE_FAULTS = {
    "u above range": lambda text, n: _retoken(text, 1, str(n + 1)),
    "u zero": lambda text, n: _retoken(text, 1, "0"),
    "v above range": lambda text, n: _retoken(text, 2, str(n + 1)),
    "v negative": lambda text, n: _retoken(text, 2, "-1"),
    "u non-numeric": lambda text, n: _retoken(text, 1, "1.5"),
    "v non-numeric": lambda text, n: _retoken(text, 2, "x"),
    "weight non-numeric": lambda text, n: _retoken(text, 3, "1..2"),
    "zero denominator": lambda text, n: _retoken(text, 3, "3/0"),
    "negative weight": lambda text, n: _retoken(text, 3, "-2.5"),
    "three tokens": lambda text, n: _retoken(text, 3, None),
    "five tokens": lambda text, n: text + " 1",
}


def _into(section: list[str], rng: random.Random, text: str):
    """Insert text between a section's SECTION and END lines."""
    section.insert(rng.randint(1, len(section) - 1), text)


def _set_nodes(doc: StpDoc, text: str | None):
    """Replace the Nodes line with text, or drop it when text is None."""
    i = doc.nodes_line()
    if i is not None:
        doc.graph[i:i + 1] = [] if text is None else [text]


# other faults: name -> in-place edit of the document
OTHER_FAULTS = {
    "unknown keyword": lambda doc, rng: _into(doc.graph, rng, "Arc 1 2 3"),
    "stray token": lambda doc, rng: doc.parts.insert(
        rng.randrange(len(doc.parts)), ["Nodes 3"]),
    "nameless section": lambda doc, rng: doc.parts.insert(
        rng.randrange(len(doc.parts)), ["SECTION"]),
    "bad Nodes": lambda doc, rng: _set_nodes(doc, "Nodes x"),
    "bad Edges": lambda doc, rng: _into(doc.graph, rng, "Edges"),
    "bad Terminals": lambda doc, rng: _into(doc.terminals, rng, "Terminals 1.5"),
    "bad T": lambda doc, rng: _into(doc.terminals, rng, "T one"),
    # the last declaration counts, so these go just before END
    "edge count": lambda doc, rng: doc.graph.insert(-1, "Edges 99"),
    "terminal count": lambda doc, rng: doc.terminals.insert(-1, "Terminals 99"),
    "no Nodes": lambda doc, rng: _set_nodes(doc, None),
    "no Graph": lambda doc, rng: doc.graph.__setitem__(0, "SECTION Other"),
    "terminal out of range": lambda doc, rng: _into(doc.terminals, rng, f"T {doc.n + 3}"),
    "isolated terminal": lambda doc, rng: (
        _set_nodes(doc, f"Nodes {doc.n + 1}"), _into(doc.terminals, rng, f"T {doc.n + 1}")),
}


def parse_outcome(parser, text: str):
    """What parser makes of text: the graph, or the error's type, message
    and line."""
    try:
        return parser(text)
    except GraphError as exc:
        return type(exc), str(exc), getattr(exc, "line", None)


class TestParseMatchesReference:
    """``parse_stp`` against the frozen parser in ``stp_reference``: the
    same graph, or the same error with the same message and line."""

    def test_valid_texts(self):
        rng = random.Random(61)
        for _ in range(600):
            text = random_stp(rng).render(rng)
            got = parse_outcome(parse_stp, text)
            assert isinstance(got, Graph), (text, got)
            assert got == reference_parse_stp(text), text

    @pytest.mark.parametrize("name", EDGE_FAULTS)
    def test_edge_line_fault_at_first_middle_last(self, name):
        rng = random.Random(name)
        for _ in range(40):
            doc = random_stp(rng)
            e_lines = doc.e_lines()
            for at in (e_lines[0], e_lines[len(e_lines) // 2], e_lines[-1]):
                kept = doc.graph[at]
                doc.graph[at] = EDGE_FAULTS[name](kept, doc.n)
                text = doc.render(rng)
                doc.graph[at] = kept
                want = parse_outcome(reference_parse_stp, text)
                assert want[0] is ParseError and want[2] is not None, text
                assert parse_outcome(parse_stp, text) == want, text

    @pytest.mark.parametrize("name", OTHER_FAULTS)
    def test_other_fault(self, name):
        rng = random.Random(name)
        for _ in range(40):
            doc = random_stp(rng)
            OTHER_FAULTS[name](doc, rng)
            text = doc.render(rng)
            want = parse_outcome(reference_parse_stp, text)
            assert not isinstance(want, Graph), text
            assert parse_outcome(parse_stp, text) == want, text

    def test_two_faults_in_one_text(self):
        rng = random.Random(67)
        for _ in range(600):
            doc = random_stp(rng)
            for _ in range(2):
                if rng.random() < 0.5:
                    at = rng.choice(doc.e_lines())
                    fault = EDGE_FAULTS[rng.choice(list(EDGE_FAULTS))]
                    doc.graph[at] = fault(doc.graph[at], doc.n)
                else:
                    OTHER_FAULTS[rng.choice(list(OTHER_FAULTS))](doc, rng)
            text = doc.render(rng)
            want = parse_outcome(reference_parse_stp, text)
            assert parse_outcome(parse_stp, text) == want, text


class TestOrderEdges:
    def test_permutation_and_empty_boundary_frontiers(self, triangle):
        order = order_edges(triangle)
        assert sorted(order.permutation) == [0, 1, 2]
        sets = [frozenset(live) for live in frontiers(triangle, order.permutation)]
        assert len(sets) == 3
        assert sets[-1] == frozenset()

    def test_default_start_is_min_degree_terminal(self):
        # terminal 4 has degree 1, terminal 1 degree 2
        g = Graph(
            4, ((1, 2, 1), (1, 3, 1), (2, 3, 1), (3, 4, 1)), frozenset({1, 4})
        )
        order = bfs_order(g)
        u, v, _ = g.edges[order.permutation[0]]
        assert 4 in (u, v)

    def test_explicit_start(self, triangle):
        order = bfs_order(triangle, start=2)
        u, v, _ = triangle.edges[order.permutation[0]]
        assert 2 in (u, v)

    def test_start_out_of_range(self, triangle):
        with pytest.raises(GraphError):
            bfs_order(triangle, start=9)
        # vertex 4 is in range, and the graph is connected, but 4 has no edge
        g = Graph(4, ((1, 2, 1), (2, 3, 1)), frozenset({1, 3}))
        with pytest.raises(GraphError, match="start vertex 4 has no edges"):
            bfs_order(g, 4)

    def test_6x8_corner_grid_narrows_to_width_6(self):
        # the best breadth-first order, bfs_order(g, 48), scores 19,301
        # and builds 87,624 nodes at width 6; a sweep runs the 6-high
        # columns along the long side
        g = grid_graph(6, 8, [1, 8, 41, 48])
        assert bfs_order(g).frontier_width == 7
        order = order_edges(g)
        assert order.frontier_width == 6
        assert score(g, order) == 7_224
        assert construct_bdd(g, order).node_count == 47_238

    def test_4x8_corner_grid(self):
        # bfs_order(g, 32) scores 1,994 and builds 4,012 nodes
        g = grid_graph(4, 8, [1, 8, 25, 32])
        order = order_edges(g)
        assert order.frontier_width == 4
        assert score(g, order) == 1_226
        assert construct_bdd(g, order).node_count == 2_789

    def test_seed_union_at_default_perturbation(self):
        """Instance 0 of sparse-seeded seed 3 through the CLI's default
        seed selection and simplify.  S ranks two breadth-first orders as
        their diagrams do: the root's (159,959 nodes) below vertex 700's
        (182,667), though it is the wider."""
        g = parse_stp(WORKLOADS["sparse-seeded"].instance(3, 0).stp())
        union, _ = union_subgraph(g, select_seeds(g, SeedConfig()).edge_map)
        s, _ = simplify(union)
        plain, far = bfs_order(s, default_root(s)), bfs_order(s, 700)
        assert (plain.frontier_width, score(s, plain)) == (11, 50_474)
        assert (far.frontier_width, score(s, far)) == (10, 140_405)
        order = order_edges(s)
        assert score(s, order) == 1_943
        assert construct_bdd(s, order).node_count == 2_753

    def test_one_sweep_past_the_budget(self):
        """Instance 0 of sparse-seeded seed 0: 58,688 edges, past 2^14, so
        only the root's sweep runs."""
        g = parse_stp(WORKLOADS["sparse-seeded"].instance(0, 0).stp())
        assert len(g.edges) == 58_688
        order = order_edges(g)
        assert sorted(order.permutation) == list(range(len(g.edges)))
        assert order.frontier_width == 153

    @settings(max_examples=60, deadline=None)
    @given(multigraphs())
    def test_on_multigraphs_with_chains_and_isolated_ids(self, g):
        order = order_edges(g)
        perm = order.permutation
        assert sorted(perm) == list(range(len(g.edges)))
        assert order.frontier_width == max(map(len, frontiers(g, perm)))
        assert reference_order(g)[0] == order
        plain = bfs_order(g)
        want = count_trees(reduce_bdd(construct_bdd(g, plain)))
        assert count_trees(reduce_bdd(construct_bdd(g, order))) == want

    @pytest.mark.parametrize("seed", range(5))
    def test_budget_bound_seed_unions(self, seed):
        """Instance 0 of sparse-seeded seeds 0-4 through the CLI's default
        seed selection and simplify: the budget stops the sweeps before
        every vertex has started one."""
        g = parse_stp(WORKLOADS["sparse-seeded"].instance(seed, 0).stp())
        union, _ = union_subgraph(g, select_seeds(g, SeedConfig()).edge_map)
        s, _ = simplify(union)
        assert reference_order(s) == (order_edges(s), True)

    def test_permutation_on_a_seed_union_with_isolated_ids(self):
        g = grid_graph(6, 8, [1, 8, 41, 48])
        sel = select_seeds(g, SeedConfig(num_seeds=4, perturb_fraction=0.3))
        union, _ = union_subgraph(g, sel.edge_map)
        s, _ = simplify(union)
        active = {z for u, v, _ in s.edges for z in (u, v)}
        assert active != set(range(1, s.vertex_count + 1))
        order = order_edges(s)
        assert sorted(order.permutation) == list(range(len(s.edges)))

    @settings(max_examples=40, deadline=None)
    @given(graphs())
    def test_frontier_sets_match_definition(self, g):
        order = order_edges(g)
        m = len(order.permutation)
        first, last = {}, {}
        for i, idx in enumerate(order.permutation, 1):
            u, v, _ = g.edges[idx]
            for z in (u, v):
                first.setdefault(z, i)
                last[z] = i
        sets = [frozenset()] + [
            frozenset(live) for live in frontiers(g, order.permutation)
        ]
        for i in range(m + 1):
            expect = frozenset(
                z for z in first if first[z] <= i < last[z]
            )
            assert sets[i] == expect
        assert order.frontier_width == max(len(s) for s in sets)

    def test_stable_across_calls(self, square):
        assert order_edges(square) == order_edges(square)


def reference_order(g):
    """``order_edges``' selection from full sweeps: the same candidates
    and budget, each sweep scored by ``score`` once it is complete, on
    the graph's own vertex ids.  Also whether the budget stopped the
    sweeps before every candidate ran."""
    root = default_root(g)
    adj, ends = g.adjacency, [(u, v) for u, v, _ in g.edges]
    nbrs = [{} for _ in adj]
    for u, v in ends:
        if u != v:
            nbrs[u][v] = nbrs[u].get(v, 0) + 1
            nbrs[v][u] = nbrs[v].get(u, 0) + 1

    def sweep(start):
        perm, last, s, width = _greedy_edges(start, adj, ends, nbrs, math.inf)
        order = EdgeOrder(tuple(perm), width)
        assert s == score(g, order)
        assert width == max(map(len, frontiers(g, perm)), default=0)
        return s, order, last

    best, order, last = sweep(root)
    spent, swept = len(g.edges), {root}
    for start in [last] + [z for z, a in enumerate(adj) if a]:
        if start in swept:
            continue
        spent += len(g.edges)
        if spent > min(best, 1 << 14):
            return order, True
        swept.add(start)
        s, candidate, _ = sweep(start)
        if s < best:
            best, order = s, candidate
    return order, False


def score(g, order):
    """S by its definition: over the steps, the product over the frontier
    of 1 + min(decided edge-ends, 2)."""
    decided = [0] * (g.vertex_count + 1)
    total = 0
    for idx, live in zip(order.permutation, frontiers(g, order.permutation)):
        u, v, _ = g.edges[idx]
        decided[u] += 1
        decided[v] += 1
        total += math.prod(1 + min(decided[z], 2) for z in live)
    return total


class TestSimplify:
    def test_path_contracts_to_single_edge(self):
        g = Graph(3, ((1, 2, 2), (2, 3, 5)), frozenset({1, 3}))
        s, smap = simplify(g)
        assert s.edges == ((1, 3, 7),)
        assert smap.replacements == ((0, 1),)

    def test_longer_chain_keeps_order(self):
        g = Graph(4, ((1, 2, 1), (2, 3, 1), (3, 4, 1)), frozenset({1, 4}))
        s, smap = simplify(g)
        assert s.edges == ((1, 4, 3),)
        assert set(smap.replacements[0]) == {0, 1, 2}

    def test_terminal_not_contracted(self):
        g = Graph(3, ((1, 2, 2), (2, 3, 5)), frozenset({1, 2, 3}))
        s, smap = simplify(g)
        assert s.edges == g.edges
        assert smap.replacements == ((0,), (1,))

    def test_loop_removed(self):
        g = Graph(2, ((1, 2, 1), (2, 2, 9)), frozenset({1, 2}))
        s, smap = simplify(g)
        assert s.edges == ((1, 2, 1),)
        assert smap.removed_loops == (1,)

    def test_contraction_creating_loop_removes_it(self):
        # 1-2-1 two-edge cycle through non-terminal 2
        g = Graph(2, ((1, 2, 1), (1, 2, 2)), frozenset({1}))
        s, smap = simplify(g)
        assert s.edges == ()
        assert set(smap.removed_loops) == {0, 1}

    def test_parallel_results_kept_distinct(self, square):
        # both corners 2 and 4 contract; the two paths become parallel edges
        s, smap = simplify(square)
        assert len(s.edges) == 2
        assert sorted((min(u, v), max(u, v)) for u, v, _ in s.edges) == [
            (1, 3),
            (1, 3),
        ]
        assert sorted(s.edges[i][2] for i in range(2)) == [3, 4]

    def test_fixpoint_no_degree2_nonterminal_left(self):
        rng = random.Random(5)
        for _ in range(50):
            g = random_connected_graph(rng)
            s, _ = simplify(g)
            deg = {}
            for u, v, _ in s.edges:
                deg[u] = deg.get(u, 0) + 1
                deg[v] = deg.get(v, 0) + 1
            for v, d in deg.items():
                assert d != 2 or v in s.terminals
            for u, v, _ in s.edges:
                assert u != v

    @settings(max_examples=60, deadline=None)
    @given(graphs())
    def test_replacements_partition_edges(self, g):
        s, smap = simplify(g)
        seen = []
        for j, chain in enumerate(smap.replacements):
            seen.extend(chain)
            assert s.edges[j][2] == sum(g.edges[i][2] for i in chain)
        seen.extend(smap.removed_loops)
        assert sorted(seen) == list(range(len(g.edges)))

    def test_expand_tree(self):
        g = Graph(3, ((1, 2, 2), (2, 3, 5)), frozenset({1, 3}))
        _, smap = simplify(g)
        expanded = expand_tree(SteinerTree(frozenset({0}), 7), smap)
        assert expanded.edges == frozenset({0, 1})
        assert expanded.cost == 7

    def test_expand_tree_bad_index(self):
        g = Graph(2, ((1, 2, 1),), frozenset({1, 2}))
        _, smap = simplify(g)
        with pytest.raises(GraphError):
            expand_tree(SteinerTree(frozenset({5}), 1), smap)

    @pytest.mark.parametrize(
        "edges", [{-1}, {2}, {0, -1}, {1, 2}, {-1, 2, 0}, {-3, 7}],
        ids=["minus_one", "len", "minus_one_with_good", "len_with_good",
             "both_ends", "two_bad"],
    )
    def test_expand_tree_names_first_bad_index(self, edges):
        # a negative index would read from the end of the map; the error
        # names the first bad index in the tree's iteration order
        g = Graph(4, ((1, 2, 1), (2, 3, 2), (3, 4, 1), (4, 1, 9)), frozenset({1, 3}))
        _, smap = simplify(g)  # two paths from 1 to 3
        assert len(smap.replacements) == 2
        tree = SteinerTree(frozenset(edges), 1)
        first = next(i for i in tree.edges if not 0 <= i < 2)
        with pytest.raises(GraphError, match=f"^edge index {first} not covered by the map$"):
            expand_tree(tree, smap)


def fixpoint_simplify(g: Graph) -> tuple[Graph, SimplificationMap]:
    """Reference: the rescan-to-fixpoint simplification that the worklist
    in ``simplify`` replaced, kept verbatim for differential testing.
    Quadratic in the edge count; use it on small graphs only."""
    # records: [u, v, cost, chain oriented u -> v]
    recs: list[list] = [[u, v, w, [i]] for i, (u, v, w) in enumerate(g.edges)]
    alive = [True] * len(recs)
    removed_loops: list[int] = []

    changed = True
    while changed:
        changed = False
        for ri, rec in enumerate(recs):
            if alive[ri] and rec[0] == rec[1]:
                alive[ri] = False
                removed_loops.extend(rec[3])
                changed = True
        incidence: dict[int, list[int]] = {}
        for ri, rec in enumerate(recs):
            if alive[ri]:
                incidence.setdefault(rec[0], []).append(ri)
                incidence.setdefault(rec[1], []).append(ri)
        for v in sorted(incidence):
            if v in g.terminals:
                continue
            inc = incidence[v]
            if len(inc) != 2 or inc[0] == inc[1]:
                continue
            ra, rb = recs[inc[0]], recs[inc[1]]
            # orient ra as (a -> v), rb as (v -> b)
            a_chain = ra[3] if ra[1] == v else list(reversed(ra[3]))
            a_end = ra[0] if ra[1] == v else ra[1]
            b_chain = rb[3] if rb[0] == v else list(reversed(rb[3]))
            b_end = rb[1] if rb[0] == v else rb[0]
            alive[inc[0]] = alive[inc[1]] = False
            recs.append([a_end, b_end, ra[2] + rb[2], a_chain + b_chain])
            alive.append(True)
            changed = True
            break  # incidence is stale now; rescan

    final = [recs[ri] for ri in range(len(recs)) if alive[ri]]
    for rec in final:
        if rec[0] > rec[1]:  # canonical orientation: small endpoint first
            rec[0], rec[1] = rec[1], rec[0]
            rec[3] = list(reversed(rec[3]))
    final.sort(key=lambda rec: min(rec[3]))
    new_edges = tuple((rec[0], rec[1], rec[2]) for rec in final)
    replacements = tuple(tuple(rec[3]) for rec in final)
    simplified = Graph(
        vertex_count=g.vertex_count,
        edges=new_edges,
        terminals=g.terminals,
        cost_scale=g.cost_scale,
    )
    return simplified, SimplificationMap(replacements, tuple(sorted(removed_loops)))


def chain_graph(n: int, rng: random.Random | None = None) -> Graph:
    """Path 1-2-...-n with terminals at both ends.  With rng the edges
    are listed in shuffled order, so path order differs from index order."""
    edges = [(i, i + 1, i % 7 + 1) for i in range(1, n)]
    if rng is not None:
        rng.shuffle(edges)
    return Graph(n, tuple(edges), frozenset({1, n}))


def messy_multigraph(rng: random.Random) -> Graph:
    """A random connected graph with subdivided edges, then parallel
    edges, self-loops and pendant cycles injected, edges shuffled."""
    g = random_connected_graph(rng, rng.randint(2, 12), rng.randint(1, 20))
    for _ in range(rng.randint(0, 4)):
        g = subdivide_edge(g, rng.randrange(len(g.edges)), rng)
    edges, n = list(g.edges), g.vertex_count
    for _ in range(rng.randint(0, 4)):
        kind = rng.randrange(3)
        if kind == 0:  # parallel edge
            u, v, _ = rng.choice(edges)
            edges.append((u, v, rng.randint(0, 9)))
        elif kind == 1:  # self-loop
            z = rng.randint(1, n)
            edges.append((z, z, rng.randint(0, 9)))
        else:  # pendant cycle through fresh vertices
            z = prev = rng.randint(1, n)
            for _ in range(rng.randint(1, 4)):
                n += 1
                edges.append((prev, n, rng.randint(0, 9)))
                prev = n
            edges.append((prev, z, rng.randint(0, 9)))
    rng.shuffle(edges)
    return Graph(n, tuple(edges), g.terminals)


class TestSimplifyWorklist:
    def test_matches_fixpoint_reference(self):
        rng = random.Random(2024)
        contracted = looped = 0
        for _ in range(1500):
            g = messy_multigraph(rng)
            s, smap = simplify(g)
            ref, ref_map = fixpoint_simplify(g)
            assert s.edges == ref.edges
            assert smap.replacements == ref_map.replacements
            assert smap.removed_loops == ref_map.removed_loops
            contracted += any(len(c) > 1 for c in smap.replacements)
            looped += bool(smap.removed_loops)
        # the generator must exercise both chain joins and loop removal
        assert contracted > 1000 and looped > 500

    def test_loop_removal_cascades_into_contraction(self):
        # path 1-2-3, terminals 1 and 3, pendant cycle 2-4-5-2: the cycle
        # becomes a loop at 2 and is removed, then 2 has degree 2
        g = Graph(
            5,
            ((1, 2, 1), (2, 3, 2), (2, 4, 3), (4, 5, 4), (5, 2, 5)),
            frozenset({1, 3}),
        )
        s, smap = simplify(g)
        assert s.edges == ((1, 3, 3),)
        assert smap.replacements == ((0, 1),)
        assert smap.removed_loops == (2, 3, 4)
        ref, ref_map = fixpoint_simplify(g)
        assert (s.edges, smap) == (ref.edges, ref_map)

    def test_linear_time_on_chains(self):
        timings = {}
        for n in (1000, 8000):
            g = chain_graph(n)
            best = math.inf
            for _ in range(3):
                t0 = time.perf_counter()
                simplify(g)
                best = min(best, time.perf_counter() - t0)
            timings[n] = max(best, 1e-5)
        ratio = timings[8000] / timings[1000]
        assert ratio < 30, (
            f"8k/1k chain simplify time ratio {ratio:.1f} (linear reads about 8)"
        )

    def test_long_chain_contracts_in_path_order(self):
        n = 64000
        g = chain_graph(n, random.Random(64))
        s, smap = simplify(g)
        assert s.edges == ((1, n, g.tree_cost(range(n - 1))),)
        chain = smap.replacements[0]
        assert sorted(chain) == list(range(n - 1))
        # consecutive chain edges share a vertex, walking from 1 to n
        at = 1
        for idx in chain:
            u, v, _ = g.edges[idx]
            assert at in (u, v)
            at = v if u == at else u
        assert at == n
        assert smap.removed_loops == ()
