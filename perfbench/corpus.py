"""Seeded Java corpora for the benchmark, built from the files in ``bases/``.

The program under test only ever sees the ``.java`` files and pair CSVs
written here. Labels are known by construction:

* short corpus: one clone class per base body (the body, whitespace/comment
  copies, renamed copies, statement-swapped copies) plus cross-class
  negatives, the shape of the acceptance-07 synthetic set;
* long corpus: each method composes several base bodies, each renamed with
  its own suffix, so one method carries tens of distinct identifiers; a
  class is one composed method plus whitespace/comment copies (identical
  token streams), and every cross-class pair is a negative.

Every seed yields the same token counts: renaming and comment edits keep
counts, statement swaps move lines, and the long corpus uses every base body
equally often. Only which lexemes, which pairs and which orders appear
depend on the seed.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

BASES_DIR = Path(__file__).resolve().parent / "bases"

# Words the Java lexer treats as something other than an identifier.
RESERVED = frozenset(
    "abstract assert boolean break byte case catch char class const continue "
    "default do double else enum extends final finally float for goto if "
    "implements import instanceof int interface long native new package "
    "private protected public return short static strictfp super switch "
    "synchronized this throw throws transient try void volatile while "
    "true false null".split()
)

# string/char literals first, so words inside them are never renamed
_LEX = re.compile(
    r'"(?:\\.|[^"\\])*"'
    r"|'(?:\\.|[^'\\])*'"
    r"|//[^\n]*"
    r"|/\*.*?\*/"
    r"|(?P<num>\d[0-9A-Za-z_.]*)"
    r"|(?P<word>[A-Za-z_$][A-Za-z0-9_$]*)",
    re.S,
)


def load_bases() -> dict[str, str]:
    """The twenty base bodies, by file stem."""
    bases = {p.stem: p.read_text() for p in sorted(BASES_DIR.glob("*.java"))}
    if len(bases) != 20:
        raise RuntimeError(f"expected 20 base bodies in {BASES_DIR}, found {len(bases)}")
    return bases


def rename(source: str, suffix: str, bump: int | None = None) -> str:
    """Append ``suffix`` to every identifier; optionally add ``bump`` to
    plain decimal literals. Token counts and categories are unchanged."""

    def sub(m: re.Match) -> str:
        if m.group("word") is not None:
            word = m.group("word")
            return word if word in RESERVED else word + suffix
        num = m.group("num")
        if num is not None and bump is not None and num.isdigit():
            return str(int(num) + bump)
        return m.group(0)

    return _LEX.sub(sub, source)


def whitespace_copy(source: str, j: int) -> str:
    """Layout and comment edits only: the token stream is untouched."""
    lines = source.splitlines()
    style = j % 3
    if style == 0:
        lines = [f"// copy {j}"] + lines + [""]
    elif style == 1:
        lines = ["/* duplicated", f"   revision {j} */"] + ["  " + ln for ln in lines]
    else:
        lines = [lines[0], "", f"    // pass {j}"] + [ln + "  " for ln in lines[1:]]
    return "\n".join(lines) + "\n"


def statement_swap(source: str, j: int, rng: np.random.Generator) -> str:
    """Swap two adjacent statement lines and insert one declaration."""
    lines = source.splitlines()
    rows = [
        i
        for i in range(1, len(lines) - 1)
        if lines[i].rstrip().endswith(";") and lines[i + 1].rstrip().endswith(";")
    ]
    if rows:
        at = int(rng.choice(rows))
        lines[at], lines[at + 1] = lines[at + 1], lines[at]
    braces = [i for i, ln in enumerate(lines) if ln.rstrip().endswith("{")]
    lines.insert(braces[0] + 1 if braces else len(lines), f"    int extra{j} = {j};")
    return "\n".join(lines) + "\n"


@dataclass
class Corpus:
    """Sources by method id, labeled pairs in file order, and clone classes."""

    sources: dict[str, str]
    pairs: list[tuple[str, str, int]]
    classes: list[list[str]]

    def write(self, directory: Path) -> tuple[Path, Path]:
        """Write ``<id>.java`` files under ``directory/methods`` and
        ``directory/pairs.csv``; returns both paths."""
        methods = directory / "methods"
        methods.mkdir(parents=True, exist_ok=True)
        for mid, text in self.sources.items():
            (methods / f"{mid}.java").write_text(text)
        pairs_csv = directory / "pairs.csv"
        write_pairs(pairs_csv, self.pairs)
        return methods, pairs_csv


def write_pairs(path: Path, pairs: list[tuple[str, str, int]]) -> None:
    lines = ["id1,id2,label"] + [f"{a},{b},{label}" for a, b, label in pairs]
    path.write_text("\n".join(lines) + "\n")


def _negatives(classes: list[list[str]], count: int, rng: np.random.Generator):
    seen: set[tuple[str, str]] = set()
    out = []
    while len(out) < count:
        ci, cj = rng.choice(len(classes), size=2, replace=False)
        a = classes[ci][int(rng.integers(len(classes[ci])))]
        b = classes[cj][int(rng.integers(len(classes[cj])))]
        key = (min(a, b), max(a, b))
        if key not in seen:
            seen.add(key)
            out.append((key[0], key[1], 0))
    return out


def short_corpus(seed: int, base_names: list[str] | None = None) -> Corpus:
    """Clone classes of short methods: per base, the body plus one
    whitespace, one renamed and one statement-swapped variant; every
    within-class pair is positive, as many cross-class pairs negative."""
    rng = np.random.default_rng(seed)
    bases = load_bases()
    names = base_names if base_names is not None else sorted(bases)
    letters = "pqrstuvwxyz"
    sources: dict[str, str] = {}
    classes: list[list[str]] = []
    for name in names:
        body = bases[name]
        members = {
            name: body,
            f"{name}__t1_0": whitespace_copy(body, int(rng.integers(3))),
            f"{name}__t2_0": rename(body, "_" + letters[int(rng.integers(len(letters)))] + "0", bump=1),
            f"{name}__t3_0": statement_swap(body, 0, rng),
        }
        sources.update(members)
        classes.append(list(members))
    positives = [
        (c[i], c[k], 1) for c in classes for i in range(len(c)) for k in range(i + 1, len(c))
    ]
    pairs = positives + _negatives(classes, len(positives), rng)
    order = rng.permutation(len(pairs))
    return Corpus(sources, [pairs[i] for i in order], classes)


LONG_CLASSES, LONG_BODIES, LONG_COPIES = 20, 12, 2


def long_corpus(seed: int) -> Corpus:
    """``LONG_CLASSES`` composed methods of ``LONG_BODIES`` renamed base
    bodies each, every base body used equally often, each method with
    ``LONG_COPIES`` whitespace/comment copies; all pairs listed, shuffled."""
    n_classes, bodies, copies = LONG_CLASSES, LONG_BODIES, LONG_COPIES
    rng = np.random.default_rng(seed)
    bases = load_bases()
    names = sorted(bases)
    deck = rng.permutation(np.repeat(np.arange(len(names)), n_classes * bodies // len(names)))
    sources: dict[str, str] = {}
    classes: list[list[str]] = []
    for c in range(n_classes):
        params, blocks = [], []
        tag = "".join(rng.choice(list("abcdefghjkmnpqrstuvwxyz"), size=2))
        for b, base_idx in enumerate(deck[c * bodies : (c + 1) * bodies]):
            text = rename(bases[names[base_idx]], f"_{tag}{b}")
            head, _, rest = text.partition("{")
            inner = rest[: rest.rstrip().rfind("}")]
            params.append(head[head.index("(") + 1 : head.rindex(")")])
            blocks.append("    {" + inner.rstrip() + "\n    }")
        signature = f"static void composed{tag.upper()}{c}({', '.join(p for p in params if p)})"
        method = signature + " {\n" + "\n".join(blocks) + "\n}\n"
        mid = f"long{c:02d}"
        members = {mid: method}
        for j in range(copies):
            members[f"{mid}__t1_{j}"] = whitespace_copy(method, j)
        sources.update(members)
        classes.append(list(members))
    ids = list(sources)
    cls = {mid: ci for ci, members in enumerate(classes) for mid in members}
    pairs = []
    for i in range(len(ids)):
        for k in range(i + 1, len(ids)):
            a, b = ids[i], ids[k]
            if rng.random() < 0.5:
                a, b = b, a
            pairs.append((a, b, int(cls[a] == cls[b])))
    order = rng.permutation(len(pairs))
    return Corpus(sources, [pairs[i] for i in order], classes)
