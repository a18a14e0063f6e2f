"""The synthetic clone corpus: seeded T1/T2/T3 clone classes grown from
small Java base methods, and the twenty built-in bases.

It stands in for a labelled benchmark at desk scale; the harness in
``bench`` reads its ``PairDataset`` as it reads one loaded from files.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Mapping

import numpy as np

from .data import CloneType, Pair, PairDataset
from .detect import default_clone_types
from .errors import LexError
from .lexcat import CategorizedMethod, TokenCategory, categorize_source, tokenize

__all__ = ["SynthSpec", "synth_clones", "builtin_base_methods"]


@dataclass
class SynthSpec:
    n_t1: int = 3
    n_t2: int = 3
    n_t3: int = 3
    substitute_literals: bool = True
    seed: int = 0


_T2_SUFFIXES = "pqrstuvw"


def _t1_variant(source: str, j: int) -> str:
    """Whitespace/comment edits only: token stream is untouched."""
    lines = source.splitlines()
    style = j % 3
    if style == 0:
        lines = ["// synthetic copy"] + lines + [""]
    elif style == 1:
        lines = ["/* duplicated", f"   revision {j} */"] + ["  " + ln for ln in lines]
    else:
        lines = [lines[0]] + ["", f"    // pass {j}"] + [ln + "  " for ln in lines[1:]]
    return "\n".join(lines)


def _t2_variant(source: str, j: int, substitute_literals: bool) -> str:
    """Consistent identifier renaming, optionally new literal values."""
    suffix = "_" + _T2_SUFFIXES[j % len(_T2_SUFFIXES)] + (str(j) if j >= len(_T2_SUFFIXES) else "")
    out = []
    for token in tokenize(source):
        lex = token.lexeme
        if token.category is TokenCategory.IDENTIFIER:
            lex = lex + suffix
        elif (
            substitute_literals
            and token.category is TokenCategory.DECIMAL_INTEGER
            and lex.isdigit()
        ):
            lex = str(int(lex) + j + 1)
        out.append(lex)
    return " ".join(out)


def _t3_variant(source: str, j: int, rng: np.random.Generator) -> str:
    """Swap adjacent statement lines and insert a harmless declaration."""
    lines = source.splitlines()
    stmt_rows = [
        i
        for i in range(1, len(lines) - 1)
        if lines[i].rstrip().endswith(";") and lines[i + 1].rstrip().endswith(";")
    ]
    if stmt_rows:
        at = int(rng.choice(stmt_rows))
        lines[at], lines[at + 1] = lines[at + 1], lines[at]
    brace_rows = [i for i, ln in enumerate(lines) if ln.rstrip().endswith("{")]
    insert_at = (brace_rows[0] + 1) if brace_rows else len(lines)
    lines.insert(insert_at, f"    int extra{j} = {j};")
    return "\n".join(lines)


def synth_clones(base_methods: Mapping[str, str], spec: SynthSpec | None = None) -> PairDataset:
    """Grow each base method into a clone class and label all pairs.

    Per base: the original, ``n_t1`` whitespace/comment variants, ``n_t2``
    renamed variants, and ``n_t3`` statement-shuffled variants (a textual
    heuristic, not a semantics-preserving transform). Positive pairs are
    all within-class pairs; as many negatives are sampled across classes,
    or fewer once the distinct cross-class pairs run out, and none from
    fewer than two bases. A base that does not lex raises LexError with
    the base id as its path.
    """
    spec = spec or SynthSpec()
    rng = np.random.default_rng(spec.seed)

    methods: dict[str, CategorizedMethod] = {}
    classes: list[list[str]] = []
    positives: list[tuple[str, str, CloneType | None]] = []

    for base_id in sorted(base_methods):
        source = base_methods[base_id]
        try:
            members = [(base_id, "t1", source)]
            members += [(f"{base_id}__t1_{j}", "t1", _t1_variant(source, j))
                        for j in range(spec.n_t1)]
            members += [(f"{base_id}__t2_{j}", "t2",
                         _t2_variant(source, j, spec.substitute_literals)) for j in range(spec.n_t2)]
            members += [(f"{base_id}__t3_{j}", "t3", _t3_variant(source, j, rng))
                        for j in range(spec.n_t3)]
            for mid, _, text in members:
                methods[mid] = categorize_source(text, mid)
        except LexError as exc:  # the base, or its tokenize in _t2_variant, fails first
            raise LexError(exc.line, exc.column, exc.reason, base_id) from None
        for (a, ka, _), (b, kb, _) in combinations(members, 2):
            ctype = (CloneType.T1 if ka == kb == "t1"
                     else CloneType.T2 if "t3" not in (ka, kb) else None)
            positives.append((a, b, ctype))
        classes.append([mid for mid, _, _ in members])
    # a pair with a T3 member gets the type that load_dataset gives an untyped positive pair
    untyped = [(a, b) for a, b, ctype in positives if ctype is None]
    defaults = iter(default_clone_types(methods, untyped))
    pairs = [Pair(a, b, 1, ctype or next(defaults)) for a, b, ctype in positives]

    n_negatives = len(pairs) if len(classes) > 1 else 0
    seen: set[tuple[str, str]] = set()
    attempts = 0
    while len(seen) < n_negatives and attempts < 50 * max(1, n_negatives):
        attempts += 1
        ci, cj = rng.choice(len(classes), size=2, replace=False)
        a = classes[ci][int(rng.integers(len(classes[ci])))]
        b = classes[cj][int(rng.integers(len(classes[cj])))]
        key = (min(a, b), max(a, b))
        if key in seen:
            continue
        seen.add(key)
        pairs.append(Pair(key[0], key[1], 0, CloneType.NONCLONE))

    return PairDataset(methods=methods, pairs=pairs)


# --- built-in base corpus -------------------------------------------------


def builtin_base_methods() -> dict[str, str]:
    """Twenty small Java methods sharing one identifier vocabulary."""
    return dict(_BASE_METHODS)


_BASE_METHODS = {
    "sum_array": """static int sumArray(int[] arr, int n) {
    int result = 0;
    for (int i = 0; i < n; i = i + 1) {
        result = result + arr[i];
    }
    return result;
}""",
    "max_array": """static int maxArray(int[] arr, int n) {
    int result = arr[0];
    for (int i = 1; i < n; i = i + 1) {
        if (arr[i] > result) {
            result = arr[i];
        }
    }
    return result;
}""",
    "min_index": """static int minIndex(int[] arr, int n) {
    int t = 0;
    for (int i = 1; i < n; i = i + 1) {
        if (arr[i] < arr[t]) {
            t = i;
        }
    }
    return t;
}""",
    "reverse_array": """static void reverseArray(int[] arr, int n) {
    int i = 0;
    int j = n - 1;
    while (i < j) {
        int t = arr[i];
        arr[i] = arr[j];
        arr[j] = t;
        i = i + 1;
        j = j - 1;
    }
}""",
    "count_even": """static int countEven(int[] arr, int n) {
    int result = 0;
    for (int i = 0; i < n; i = i + 1) {
        if (arr[i] % 2 == 0) {
            result = result + 1;
        }
    }
    return result;
}""",
    "factorial": """static long factorial(int n) {
    long result = 1;
    for (int i = 2; i <= n; i = i + 1) {
        result = result * i;
    }
    return result;
}""",
    "fibonacci": """static int fibonacci(int n) {
    int a = 0;
    int b = 1;
    for (int i = 0; i < n; i = i + 1) {
        int t = a + b;
        a = b;
        b = t;
    }
    return a;
}""",
    "gcd_loop": """public long gcd(long a, long b) {
    while (b != 0) {
        long t = b;
        b = a % b;
        a = t;
    }
    return a;
}""",
    "power_loop": """static long power(int a, int n) {
    long result = 1;
    for (int i = 0; i < n; i = i + 1) {
        result = result * a;
    }
    return result;
}""",
    "average_array": """static double averageArray(int[] arr, int n) {
    double result = 0.0;
    for (int i = 0; i < n; i = i + 1) {
        result = result + arr[i];
    }
    return result / n;
}""",
    "contains_value": """static boolean containsValue(int[] arr, int n, int value) {
    for (int i = 0; i < n; i = i + 1) {
        if (arr[i] == value) {
            return true;
        }
    }
    return false;
}""",
    "index_of_value": """static int indexOfValue(int[] arr, int n, int value) {
    for (int i = 0; i < n; i = i + 1) {
        if (arr[i] == value) {
            return i;
        }
    }
    return -1;
}""",
    "bubble_sort": """@Deprecated
static void bubbleSort(int[] arr, int n) {
    for (int i = 0; i < n - 1; i = i + 1) {
        for (int j = 0; j < n - i - 1; j = j + 1) {
            if (arr[j] > arr[j + 1]) {
                int t = arr[j];
                arr[j] = arr[j + 1];
                arr[j + 1] = t;
            }
        }
    }
}""",
    "is_prime": """static boolean isPrime(int n) {
    if (n < 2) {
        return false;
    }
    for (int i = 2; i * i <= n; i = i + 1) {
        if (n % i == 0) {
            return false;
        }
    }
    return true;
}""",
    "sum_digits": """static int sumDigits(int n) {
    int result = 0;
    while (n > 0) {
        result = result + n % 10;
        n = n / 10;
    }
    return result;
}""",
    "count_matches": """static int countMatches(char[] text, int n, char value) {
    int result = 0;
    int mask = 0xFF;
    for (int i = 0; i < n; i = i + 1) {
        if ((text[i] & mask) == value) {
            result = result + 1;
        }
    }
    return result;
}""",
    "clamp_values": """static void clampValues(int[] arr, int n, int lo, int hi) {
    for (int i = 0; i < n; i = i + 1) {
        if (arr[i] < lo) {
            arr[i] = lo;
        } else if (arr[i] > hi) {
            arr[i] = hi;
        }
    }
}""",
    "binary_search": """static int binarySearch(int[] arr, int n, int value) {
    int lo = 0;
    int hi = n - 1;
    while (lo <= hi) {
        int mid = lo + (hi - lo) / 2;
        if (arr[mid] == value) {
            return mid;
        } else if (arr[mid] < value) {
            lo = mid + 1;
        } else {
            hi = mid - 1;
        }
    }
    return -1;
}""",
    "dot_product": """static long dotProduct(int[] a, int[] b, int n) {
    long result = 0;
    for (int i = 0; i < n; i = i + 1) {
        result = result + a[i] * b[i];
    }
    return result;
}""",
    "rotate_once": """static void rotateOnce(int[] arr, int n) {
    String label = "rotate";
    int t = arr[n - 1];
    for (int i = n - 1; i > 0; i = i - 1) {
        arr[i] = arr[i - 1];
    }
    arr[0] = t;
}""",
}
