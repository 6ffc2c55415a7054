"""Access to the data corpus shipped with the package.

Three groups of files live under ``mcwc/data``:

* ``codes/small_<n1>_<n2>.mcwc``   explicit optimal codes, 3 <= n1 <= 9;
* ``develop/t<n1>_n<n2>.dev``      cyclic base-codeword tables, n1 in 13..37;
* ``squares/sfs<f>_a<a>.sq`` and ``squares/hsas_v<v>_t<t>_s<s>.sq``
  frame and holey-square ingredients.

Everything here is data: the regression suite re-verifies every file, and the
loaders run no verification themselves.  The shape lists come from the file
names; ``mcwc table`` reads its rows from them, so a cell is covered exactly
when a file for it is shipped.
"""

from __future__ import annotations

import re
from importlib import resources
from pathlib import Path
from typing import Iterator

from .constructions import BaseCodewordTable, parse_base_table
from .core import PartitionedCode, _read_text, parse_code
from .designs import SkewSquare, parse_square


def data_root() -> Path:
    return Path(resources.files("mcwc") / "data")


def _shapes(sub: str, pattern: str) -> list[tuple[int, ...]]:
    """The integer fields of each file name under ``data/<sub>`` that matches
    ``pattern``, in numeric order."""
    names = (re.fullmatch(pattern, path.name) for path in (data_root() / sub).iterdir())
    return sorted(tuple(map(int, m.groups())) for m in names if m)


SMALL_PAIRS = _shapes("codes", r"small_(\d+)_(\d+)\.mcwc")

# (n1, n2) of each base-codeword table
_DEVELOP_PAIRS = _shapes("develop", r"t(\d+)_n(\d+)\.dev")

# point side n1 -> g = (n1 - 1)/4, the group order of its base-codeword tables
DEVELOP_FAMILIES = {n1: (n1 - 1) // 4 for n1, _ in _DEVELOP_PAIRS}

SFS_SHAPES = _shapes("squares", r"sfs(\d+)_a(\d+)\.sq")

HSAS_SHAPES = _shapes("squares", r"hsas_v(\d+)_t(\d+)_s(\d+)\.sq")


def _read(relative: str) -> str:
    return _read_text(data_root() / relative)


def small_code(n1: int, n2: int) -> PartitionedCode:
    if (n1, n2) not in SMALL_PAIRS:
        raise KeyError(f"no shipped explicit code for (n1, n2) = ({n1}, {n2})")
    return parse_code(_read(f"codes/small_{n1}_{n2}.mcwc"))


def develop_pairs() -> Iterator[tuple[int, int]]:
    return iter(_DEVELOP_PAIRS)


def develop_table(n1: int, n2: int) -> BaseCodewordTable:
    if n1 not in DEVELOP_FAMILIES:
        raise KeyError(f"no shipped base-codeword family for n1 = {n1}")
    if (n1, n2) not in _DEVELOP_PAIRS:
        raise KeyError(f"no shipped table for (n1, n2) = ({n1}, {n2})")
    return parse_base_table(_read(f"develop/t{n1}_n{n2}.dev"))


def sfs_square(f: int, a: int) -> SkewSquare:
    if (f, a) not in SFS_SHAPES:
        raise KeyError(f"no shipped SFS with {f} holes and a = {a}")
    return parse_square(_read(f"squares/sfs{f}_a{a}.sq"))


def hsas_square(v: int, t: int, s: int) -> SkewSquare:
    if (v, t, s) not in HSAS_SHAPES:
        raise KeyError(f"no shipped HSAS(s={s}, v={v}; t={t}, 3)")
    return parse_square(_read(f"squares/hsas_v{v}_t{t}_s{s}.sq"))


def all_files() -> Iterator[tuple[str, Path]]:
    """Every shipped data file as ('codes'|'develop'|'squares', path)."""
    root = data_root()
    for sub in ("codes", "develop", "squares"):
        for path in sorted((root / sub).iterdir()):
            if path.suffix in (".mcwc", ".dev", ".sq"):
                yield sub, path
