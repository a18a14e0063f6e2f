"""The pair-dataset format: clone types, labelled pairs, and the readers of a
directory of ``.java`` methods and of a pairs CSV.

Every stage reads these records, so this module imports only the lexer and
the error types; training takes a ``PairDataset`` directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import NamedTuple, Sequence

from .errors import BadRow, DataError, LexError, MissingFunction
from .lexcat import CategorizedMethod, TokenCategory, categorize_source

__all__ = [
    "CloneType",
    "Pair",
    "PairDataset",
    "PairRow",
    "band_for_similarity",
    "load_methods",
    "read_pairs",
]


class CloneType(Enum):
    T1 = "T1"
    T2 = "T2"
    VST3 = "VST3"
    ST3 = "ST3"
    MT3 = "MT3"
    WT3T4 = "WT3T4"
    NONCLONE = "NONCLONE"


# half-open similarity bands for the T3/T4 continuum, upper bound first
_BANDS = (
    (0.9, CloneType.VST3),
    (0.7, CloneType.ST3),
    (0.5, CloneType.MT3),
    (0.0, CloneType.WT3T4),
)


def band_for_similarity(s: float) -> CloneType:
    """Clone-type band for an overlap similarity in [0, 1]."""
    for lower, ctype in _BANDS:
        if s >= lower:
            return ctype
    return CloneType.WT3T4


@dataclass
class Pair:
    id1: str
    id2: str
    label: int
    clone_type: CloneType = CloneType.NONCLONE

    def __post_init__(self):
        if self.label not in (0, 1):
            raise ValueError(f"label must be 0 or 1, got {self.label}")
        if (self.label == 0) != (self.clone_type is CloneType.NONCLONE):
            raise ValueError("label 0 <=> clone_type NONCLONE")


@dataclass
class PairDataset:
    methods: dict[str, CategorizedMethod]
    pairs: list[Pair]

    def validate(self) -> None:
        for pair in self.pairs:
            for mid in (pair.id1, pair.id2):
                if mid not in self.methods:
                    raise MissingFunction(f"pair references unknown method id {mid!r}")


class PairRow(NamedTuple):
    """One parsed row of a pairs file; label and clone_type are optional."""

    line: int
    id1: str
    id2: str
    label: int | None
    clone_type: CloneType | None


def load_methods(functions_dir=None, files: Sequence = ()) -> dict[str, CategorizedMethod]:
    """Methods from a directory of .java files and from single files.

    A method's id is its file stem. The call's files share one lexeme memo,
    so each distinct lexeme is lexed once per call. Raises DataError for a
    directory that does not exist or holds no .java file, a file that is not
    valid UTF-8, and an id given twice, and LexError, naming the file, for
    source that does not lex.
    """
    if functions_dir is None and not files:
        raise ValueError("no input methods; pass --functions DIR and/or --in FILE")
    paths: list[Path] = []
    if functions_dir is not None:
        functions_dir = Path(functions_dir)
        if not functions_dir.is_dir():
            raise DataError(f"functions directory {functions_dir} is not a directory")
        paths += sorted(functions_dir.glob("*.java"))
    paths += [Path(f) for f in files]
    methods: dict[str, CategorizedMethod] = {}
    memo: dict[str, TokenCategory] = {}  # shared by this call's files only
    for path in paths:
        if path.stem in methods:
            raise DataError(f"method id {path.stem!r} given twice, again by {path}")
        try:
            text = path.read_text(encoding="utf-8")
        except UnicodeDecodeError as exc:
            raise DataError(f"{path} is not valid UTF-8: {exc.reason}") from exc
        try:
            methods[path.stem] = categorize_source(text, path.stem, memo)
        except LexError as exc:
            raise LexError(exc.line, exc.column, exc.reason, path) from None
    if not methods:
        raise DataError(f"no .java files in {functions_dir}")
    return methods


def read_pairs(path) -> list[PairRow]:
    """Rows of ``id1,id2[,label[,clone_type]]``; a first row naming id1,id2 is a header.

    Blank lines, ``#`` comments and a leading UTF-8 byte-order mark are
    skipped. Raises BadRow, with the line number, for a wrong field count,
    a label other than 0 or 1, an unknown clone type, or a clone type that
    disagrees with the label.
    """
    type_by_name = {t.value.upper(): t for t in CloneType}
    try:
        lines = Path(path).read_text(encoding="utf-8-sig").splitlines()
    except UnicodeDecodeError as exc:
        raise DataError(f"pairs file {path} is not valid UTF-8: {exc.reason}") from exc
    rows: list[PairRow] = []
    first_row = True
    for line_no, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = [f.strip() for f in line.split(",")]
        if first_row:
            first_row = False
            if fields[:2] == ["id1", "id2"]:
                continue
        if not 2 <= len(fields) <= 4:
            raise BadRow(line_no, f"expected 2 to 4 fields, got {len(fields)}")
        label = ctype = None
        if len(fields) >= 3:
            if fields[2] not in ("0", "1"):
                raise BadRow(line_no, f"label must be 0 or 1, got {fields[2]!r}")
            label = int(fields[2])
        if len(fields) == 4 and fields[3]:
            ctype = type_by_name.get(fields[3].upper())
            if ctype is None:
                raise BadRow(line_no, f"unknown clone type {fields[3]!r}")
            if (label == 0) != (ctype is CloneType.NONCLONE):
                raise BadRow(line_no, "label and clone_type disagree")
        rows.append(PairRow(line_no, fields[0], fields[1], label, ctype))
    return rows
