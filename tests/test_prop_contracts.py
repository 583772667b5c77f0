"""Property-based tests for the contract grammar.

For random array and port contracts (random dims, dtypes, whitespace,
pyramid brackets), whitespace is insignificant: the spelling with every
space removed parses to the same dims, dtype and kind, and the two
spellings share one edge (:func:`~repro.contracts.port_contract_mismatch`
finds nothing between them).
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.contracts import (
    DTYPE_KINDS,
    parse_contract,
    parse_port_contract,
    port_contract_mismatch,
)

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


def _fields(spec):
    return (spec.dims, spec.ellipsis_leading, spec.dtype, spec.kind)


class TestWhitespace:
    @settings(max_examples=200, deadline=None)
    @given(array_contract_texts())
    def test_array_contract_whitespace_is_insignificant(self, text):
        spec = parse_contract(text)
        assert _fields(parse_contract(text.replace(" ", ""))) == \
            _fields(spec)
        # dtype aliases collapse onto one canonical token
        assert spec.dtype != "b"

    @settings(max_examples=200, deadline=None)
    @given(port_contract_texts())
    def test_port_contract_whitespace_is_insignificant(self, text):
        pc = parse_port_contract(text)
        squeezed = parse_port_contract(text.replace(" ", ""))
        assert (squeezed.tag, squeezed.pyramid) == (pc.tag, pc.pyramid)
        assert (squeezed.spec is None) == (pc.spec is None)
        if pc.spec is not None:
            assert _fields(squeezed.spec) == _fields(pc.spec)
        assert port_contract_mismatch(pc, squeezed) is None
