"""The runtime contract language: array contracts, port contracts, effects.

Kernels, the stage graph and the static analyzer all speak this one
vocabulary; it lives outside :mod:`repro.analysis` so the runtime never
imports the linter.

**Array contracts.**  A contract string declares an ndarray parameter's
shape and element kind, ``"<dims>:<dtype>"``::

    @contract(depth="H,W:f64", pose="4,4:f64")
    def integrate(volume, depth, camera, pose, mu): ...

Grammar:

* dims — comma-separated tokens: an integer literal (exact size), an
  identifier (a symbolic size, bound on first use and required to match
  on every later use *within one call*), or a leading ``...`` (any
  number of leading dimensions, e.g. ``"...,3:f64"`` for ``(..., 3)``
  point arrays).
* dtype — ``f32``/``f64``/``f`` (floating), ``i32``/``i64``/``i``
  (integer), ``u8``/``u`` (unsigned), ``b``/``bool``.  At runtime only
  the *kind* is enforced (a float32 array satisfies ``f64``) and safe
  widening is allowed (ints satisfy a float contract — every decorated
  function coerces with ``np.asarray(..., dtype=float)`` anyway); the
  declared width documents intent (f32 vs f64 is what tells the fast
  and reference backends apart).

The decorator checks only arguments that arrive as ``np.ndarray`` —
lists and ``None`` pass through untouched, since coercion is the
callee's business.  Violations raise :class:`ContractError`
(a :class:`~repro.errors.ReproError`).  The per-call cost is a few dict
operations and shape comparisons, negligible next to any kernel math.

:func:`contract` rejects a malformed string, a parameter that does not
exist in the decorated function's signature, and contradictory
declarations of the same parameter across stacked decorators, all at
decoration time, so a bad contract fails the import.  The RPR005 static
pass (:mod:`repro.analysis.checkers`) only keeps declarations literal,
so ``repro graph check`` (RPR012) can read them from the source.

**Port contracts** extend the array grammar with a tag, for stage-graph
ports (:mod:`repro.graph`)::

    tag                     an opaque value (``"track.converged"``)
    tag(H,W:f32)            an array of that shape/dtype
    tag([H,W,3:f32])        a pyramid (list of arrays); the spec
                            describes the finest level

**Effects** (:data:`EFFECTS`) are the vocabulary of layer budgets in
``ARCHITECTURE.toml``.
"""

from __future__ import annotations

import functools
import inspect
import re
from dataclasses import dataclass

import numpy as np

from .errors import ReproError


class ContractError(ReproError):
    """An array argument violated its declared shape/dtype contract,
    or a contract declaration itself is malformed."""


#: declared dtype token -> numpy dtype *kind* it requires.
DTYPE_KINDS = {
    "f32": "f", "f64": "f", "f": "f",
    "i32": "i", "i64": "i", "i": "i",
    "u8": "u", "u": "u",
    "b": "b", "bool": "b",
}

#: declared kind -> actual array kinds accepted (safe widening only).
_COMPATIBLE = {
    "f": ("f", "i", "u", "b"),
    "i": ("i", "u", "b"),
    "u": ("u", "b"),
    "b": ("b",),
}

_IDENT_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")

_TAG_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*(?:\.[A-Za-z_][A-Za-z0-9_]*)*$")

#: Effect vocabulary (the analyzer adds open-ended ``raises(T)``).
EFFECTS = ("time", "rng", "io", "process", "global-write")

#: alias dtype token -> its canonical token (``ArraySpec.dtype``).
_CANONICAL_DTYPE = {"b": "bool"}


@dataclass(frozen=True)
class ArraySpec:
    """A parsed contract string.

    Attributes:
        dims: shape tokens — ints (exact), strings (symbolic).
        kind: required numpy dtype kind, or ``None`` when unconstrained.
        text: the original contract string (for messages and RPR012).
        ellipsis_leading: the contract began with ``...`` — ``dims``
            constrain only the trailing dimensions.
        dtype: the canonical declared dtype token (``"f32"``, ``"bool"``,
            ...), or ``None`` when the contract declares no dtype.  Two
            alias spellings of the same token (``b``/``bool``) share one
            canonical form.
    """

    dims: tuple
    kind: str | None
    text: str
    ellipsis_leading: bool = False
    dtype: str | None = None


def parse_contract(text: str) -> ArraySpec:
    """Parse ``"H,W:f64"`` into an :class:`ArraySpec`; raise on bad syntax."""
    if not isinstance(text, str) or not text.strip():
        raise ContractError(f"contract must be a non-empty string, got {text!r}")
    dims_part, sep, dtype_part = text.partition(":")
    kind = dtype = None
    if sep:
        dtype_part = dtype_part.strip()
        if dtype_part not in DTYPE_KINDS:
            raise ContractError(
                f"contract {text!r}: unknown dtype {dtype_part!r} "
                f"(expected one of {sorted(DTYPE_KINDS)})"
            )
        kind = DTYPE_KINDS[dtype_part]
        dtype = _CANONICAL_DTYPE.get(dtype_part, dtype_part)
    tokens = [t.strip() for t in dims_part.split(",")]
    if any(not t for t in tokens):
        raise ContractError(f"contract {text!r}: empty dimension token")
    dims: list = []
    ellipsis_leading = False
    for i, tok in enumerate(tokens):
        if tok == "...":
            if i != 0:
                raise ContractError(
                    f"contract {text!r}: '...' is only allowed as the "
                    f"leading dimension"
                )
            ellipsis_leading = True
        elif tok.isdigit():
            size = int(tok)
            if size <= 0:
                raise ContractError(
                    f"contract {text!r}: dimension sizes must be positive"
                )
            dims.append(size)
        elif _IDENT_RE.match(tok):
            dims.append(tok)
        else:
            raise ContractError(
                f"contract {text!r}: bad dimension token {tok!r} "
                f"(expected int, identifier, or leading '...')"
            )
    if ellipsis_leading and not dims:
        raise ContractError(f"contract {text!r}: '...' alone is not a shape")
    return ArraySpec(dims=tuple(dims), kind=kind, text=text,
                     ellipsis_leading=ellipsis_leading, dtype=dtype)


def _check_array(func_name: str, arg_name: str, spec: ArraySpec,
                 value: np.ndarray, bindings: dict) -> None:
    shape = value.shape
    if spec.ellipsis_leading:
        if len(shape) < len(spec.dims):
            raise ContractError(
                f"{func_name}({arg_name}): expected shape (..., "
                f"{', '.join(map(str, spec.dims))}), got {shape}"
            )
        tail = shape[len(shape) - len(spec.dims):]
    else:
        if len(shape) != len(spec.dims):
            raise ContractError(
                f"{func_name}({arg_name}): expected {len(spec.dims)} "
                f"dimensions per contract {spec.text!r}, got shape {shape}"
            )
        tail = shape
    for declared, actual in zip(spec.dims, tail):
        if isinstance(declared, int):
            if actual != declared:
                raise ContractError(
                    f"{func_name}({arg_name}): dimension {declared} "
                    f"declared by contract {spec.text!r}, got shape {shape}"
                )
        else:
            bound = bindings.setdefault(declared, actual)
            if bound != actual:
                raise ContractError(
                    f"{func_name}({arg_name}): symbol {declared!r} already "
                    f"bound to {bound} but got {actual} (shape {shape})"
                )
    if spec.kind is not None and value.dtype.kind not in _COMPATIBLE[spec.kind]:
        raise ContractError(
            f"{func_name}({arg_name}): dtype kind {value.dtype.kind!r} "
            f"({value.dtype}) incompatible with contract {spec.text!r}"
        )


def contract(**specs: str):
    """Declare array contracts on a function's parameters (by keyword).

    Parses every contract string at decoration time (malformed contracts
    fail the import, not the millionth call), verifies the named
    parameters exist, and attaches the merged declarations as
    ``__repro_contracts__`` for introspection (RPR012 reads them).
    """
    parsed = {name: parse_contract(text) for name, text in specs.items()}

    def decorate(func):
        sig = inspect.signature(func)
        positions: dict[str, int] = {}
        for i, (pname, param) in enumerate(sig.parameters.items()):
            if param.kind in (param.POSITIONAL_ONLY,
                              param.POSITIONAL_OR_KEYWORD):
                positions[pname] = i
        for name in parsed:
            if name not in sig.parameters:
                raise ContractError(
                    f"@contract on {func.__qualname__}: no parameter "
                    f"{name!r} in signature {sig}"
                )
        merged = dict(getattr(func, "__repro_contracts__", {}))
        for name, spec in parsed.items():
            prior = merged.get(name)
            if prior is not None and prior.text != spec.text:
                raise ContractError(
                    f"@contract on {func.__qualname__}: parameter {name!r} "
                    f"declared both {prior.text!r} and {spec.text!r}"
                )
            merged[name] = spec

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            bindings: dict[str, int] = {}
            for name, spec in parsed.items():
                idx = positions.get(name)
                if idx is not None and idx < len(args):
                    value = args[idx]
                elif name in kwargs:
                    value = kwargs[name]
                else:
                    continue
                if isinstance(value, np.ndarray):
                    _check_array(func.__qualname__, name, spec, value,
                                 bindings)
            return func(*args, **kwargs)

        wrapper.__repro_contracts__ = merged
        return wrapper

    return decorate


# -- port contracts ----------------------------------------------------------
@dataclass(frozen=True)
class PortContract:
    """A parsed port contract: a tag, optionally carrying an array spec.

    Attributes:
        tag: the dotted value tag (``"depth.map"``).
        spec: the array shape/dtype, or ``None`` for an opaque tag.
        pyramid: the port carries a *list* of arrays (``tag([...])``);
            ``spec`` then describes the finest level.
        text: the original contract string.
    """

    tag: str
    spec: ArraySpec | None
    pyramid: bool
    text: str


def parse_port_contract(text: str) -> PortContract:
    """Parse ``"tag"`` / ``"tag(H,W:f32)"`` / ``"tag([H,W,3:f32])"``."""
    if not isinstance(text, str) or not text.strip():
        raise ContractError(
            f"port contract must be a non-empty string, got {text!r}"
        )
    s = text.strip()
    spec = None
    pyramid = False
    if s.endswith(")"):
        open_paren = s.find("(")
        if open_paren < 0:
            raise ContractError(
                f"port contract {text!r}: ')' without a matching '('"
            )
        inner = s[open_paren + 1:-1].strip()
        s = s[:open_paren].strip()
        if inner.startswith("[") and inner.endswith("]"):
            pyramid = True
            inner = inner[1:-1].strip()
        if not inner:
            raise ContractError(
                f"port contract {text!r}: empty array spec"
            )
        spec = parse_contract(inner)
    if not _TAG_RE.match(s):
        raise ContractError(
            f"port contract {text!r}: bad tag {s!r} (expected dotted "
            f"identifiers, e.g. 'depth.map')"
        )
    return PortContract(tag=s, spec=spec, pyramid=pyramid, text=text)


def port_contract_mismatch(src: PortContract,
                           dst: PortContract) -> str | None:
    """Why two contracts cannot share an edge, or ``None`` if they can.

    Semantic comparison, not spelling: whitespace and dtype-alias
    variants are equal, and a symbolic dim is compatible with anything
    in its position.  Everything declared concretely must agree: tag,
    pyramid-ness, rank, dtype, and integer dims.
    """
    if src.tag != dst.tag:
        return f"tag {src.tag!r} != {dst.tag!r}"
    if (src.spec is None) != (dst.spec is None):
        return ("one end declares an array spec, the other is an "
                "opaque tag")
    if src.spec is None or dst.spec is None:
        return None
    if src.pyramid != dst.pyramid:
        return "one end is a pyramid ([...]), the other a single array"
    a, b = src.spec, dst.spec
    if a.ellipsis_leading != b.ellipsis_leading:
        return "leading '...' differs"
    if len(a.dims) != len(b.dims):
        return f"rank {len(a.dims)} != {len(b.dims)}"
    if a.dtype != b.dtype:
        return f"dtype {a.dtype or 'any'} != {b.dtype or 'any'}"
    for i, (x, y) in enumerate(zip(a.dims, b.dims)):
        if isinstance(x, int) and isinstance(y, int) and x != y:
            return f"dim {i}: {x} != {y}"
    return None
