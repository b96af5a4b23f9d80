"""Kernel dispatch: compiled bit kernels when available, pure Python otherwise.

The compiled module handles universes of at most 62 elements (masks live in
64-bit words); calls outside that range, or any call when the extension is
missing or ``CXTCAT_PURE`` is set, run on the pure twin.  Both twins share
one contract, covered by the equivalence tests.
"""

import os

from . import _bitcore_py as _pure

if os.environ.get("CXTCAT_PURE"):
    _fast = None
else:
    try:
        from . import _bitcore as _fast  # type: ignore[attr-defined]
    except ImportError:
        _fast = None

_MAX_COMPILED_BITS = 62


def backend_name() -> str:
    return "compiled" if _fast is not None else "pure"


def _pick(n_bits: int):
    if _fast is not None and n_bits <= _MAX_COMPILED_BITS:
        return _fast
    return _pure


def closure_mask(rows: list[int], full: int, y: int, n_attrs: int) -> int:
    return _pick(n_attrs).closure_mask(rows, full, y)


def directed_masks(up: list[int]) -> list[int]:
    return _pick(len(up)).directed_masks(up)


def ideal_masks(down: list[int], up: list[int]) -> list[int]:
    return _pick(len(down)).ideal_masks(down, up)


def compact_mask(up: list[int], down: list[int], join: list[int]) -> int:
    return _pick(len(up)).compact_mask(up, down, join)


def scott_open_masks(up: list[int], down: list[int], join: list[int]) -> list[int]:
    return _pick(len(up)).scott_open_masks(up, down, join)


def monotone_maps(n_src: int, preds: list[list[int]], tgt_up: list[int]) -> list[tuple[int, ...]]:
    return _pick(len(tgt_up)).monotone_maps(n_src, preds, tgt_up)
