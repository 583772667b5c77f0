"""Property-based tests for the contract grammar and RPR011 unification.

Two families of properties:

* the parse/format round trip — for random array and port contracts
  (random dims, dtypes, whitespace, pyramid brackets), formatting is
  canonical and idempotent, and re-parsing the canonical spelling is
  semantically equal to the original;
* random symbolic-dim chain graphs — endpoints declare concrete integer
  shapes, intermediate nodes thread per-node symbols through, and the
  whole-graph unifier (RPR011) accepts every consistent labeling while
  rejecting a flipped endpoint dim with a finding that names the edges
  forcing the conflict.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.dataflow import GraphUnderCheck, unify_graph
from repro.contracts import (
    DTYPE_KINDS,
    contracts_equal,
    format_contract,
    format_port_contract,
    parse_contract,
    parse_port_contract,
)
from repro.graph import Edge, GraphSpec, Port, StageSpec

_IDENT = st.from_regex(r"[A-Za-z_][A-Za-z0-9_]{0,5}", fullmatch=True)
_DIM = st.one_of(st.integers(min_value=1, max_value=9),
                 st.sampled_from(["H", "W", "r", "n", "level"]))
_SPACE = st.sampled_from(["", " ", "  "])


@st.composite
def array_contract_texts(draw):
    """A random contract string with random (legal) whitespace."""
    dims = draw(st.lists(_DIM, min_size=1, max_size=4))
    if draw(st.booleans()):
        dims = ["..."] + dims
    dtype = draw(st.none() | st.sampled_from(sorted(DTYPE_KINDS)))
    sp = lambda: draw(_SPACE)  # noqa: E731
    text = ",".join(f"{sp()}{tok}{sp()}" for tok in dims)
    if dtype is not None:
        text += f":{sp()}{dtype}{sp()}"
    return text


@st.composite
def port_contract_texts(draw):
    """A random port contract: tag, optional (possibly pyramid) spec."""
    tag = ".".join(draw(st.lists(_IDENT, min_size=1, max_size=3)))
    inner = draw(st.none() | array_contract_texts())
    if inner is None:
        return tag
    if draw(st.booleans()):
        return f"{tag}([{inner}])"
    return f"{tag}({inner})"


class TestRoundTrip:
    @settings(max_examples=200, deadline=None)
    @given(array_contract_texts())
    def test_array_contract_parse_format_round_trip(self, text):
        spec = parse_contract(text)
        canonical = format_contract(spec)
        reparsed = parse_contract(canonical)
        assert contracts_equal(spec, reparsed)
        assert format_contract(reparsed) == canonical
        # whitespace never survives canonicalization
        assert " " not in canonical

    @settings(max_examples=200, deadline=None)
    @given(port_contract_texts())
    def test_port_contract_parse_format_round_trip(self, text):
        pc = parse_port_contract(text)
        canonical = format_port_contract(pc)
        reparsed = parse_port_contract(canonical)
        assert reparsed.tag == pc.tag
        assert reparsed.pyramid == pc.pyramid
        assert (reparsed.spec is None) == (pc.spec is None)
        if pc.spec is not None:
            assert contracts_equal(reparsed.spec, pc.spec)
        assert format_port_contract(reparsed) == canonical


def _chain_graph(shape, length, flip_dim=None):
    """A linear a->b->...->z graph threading ``shape`` through symbols.

    The first node's output and the last node's input declare ``shape``
    concretely; every intermediate node uses per-node symbols (``d0``,
    ``d1``, ...) on both its ports, so only whole-graph unification can
    relate the two ends.  ``flip_dim`` bumps one dim of the last node's
    contract to a conflicting integer.
    """
    def contract_of(dims):
        return "m(" + ",".join(str(d) for d in dims) + ":f32)"

    sym = [f"d{j}" for j in range(len(shape))]
    last = list(shape)
    if flip_dim is not None:
        last[flip_dim] = shape[flip_dim] % 9 + 1  # != shape[flip_dim]
    stages = {}
    nodes = []
    for i in range(length):
        node = f"n{i}"
        if i == 0:
            inputs, outputs = (), (Port("out", contract_of(shape)),)
        elif i == length - 1:
            inputs, outputs = (Port("in", contract_of(last)),), ()
        else:
            inputs = (Port("in", contract_of(sym)),)
            outputs = (Port("out", contract_of(sym)),)
        stages[node] = StageSpec(name=f"prop.{node}",
                                 run=lambda c, i: {},
                                 inputs=inputs, outputs=outputs)
        nodes.append((node, f"prop.{node}"))
    edges = tuple(Edge(f"n{i}", "out", f"n{i + 1}", "in")
                  for i in range(length - 1))
    spec = GraphSpec(name="prop", nodes=tuple(nodes), edges=edges)
    return GraphUnderCheck(spec=spec, stages=stages,
                           origin="tests/prop_chain.py")


@st.composite
def chain_cases(draw):
    rank = draw(st.integers(min_value=1, max_value=3))
    shape = tuple(draw(st.integers(min_value=1, max_value=9))
                  for _ in range(rank))
    length = draw(st.integers(min_value=3, max_value=6))
    flip_dim = draw(st.integers(min_value=0, max_value=rank - 1))
    return shape, length, flip_dim


class TestChainUnification:
    @settings(max_examples=100, deadline=None)
    @given(chain_cases())
    def test_consistent_labeling_unifies(self, case):
        shape, length, _ = case
        assert unify_graph(_chain_graph(shape, length)) == []

    @settings(max_examples=100, deadline=None)
    @given(chain_cases())
    def test_flipped_endpoint_dim_names_the_edge_chain(self, case):
        shape, length, flip_dim = case
        findings = unify_graph(_chain_graph(shape, length,
                                            flip_dim=flip_dim))
        assert findings, "a flipped endpoint dim must be unsatisfiable"
        msg = findings[0].message
        assert findings[0].rule_id == "RPR011"
        assert "unsatisfiable" in msg
        # the chain runs end to end, so both terminal edges are named
        assert "n0.out -> n1.in (dim" in msg
        assert f"n{length - 2}.out -> n{length - 1}.in (dim" in msg
