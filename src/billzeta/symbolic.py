"""Symbolic dynamics on r symbols with distinct consecutive labels.

Itineraries live in the subshift whose transition matrix has zeros on
the diagonal and ones elsewhere: symbol ``i`` may be followed by any
``j != i``.  Periodic itineraries are handled as cyclic words; each
class is represented by its lexicographically smallest rotation.
Symbols are 1-based everywhere in the public API; the cycles come as
one int array, a word per row padded with zeros after its last label.
"""

import numpy as np


def transition_matrix(r: int) -> np.ndarray:
    """0/1 transition matrix: ones off the diagonal."""
    A = np.ones((r, r), dtype=np.int64)
    np.fill_diagonal(A, 0)
    return A


def count_periodic_points(r: int, n: int) -> int:
    """Number of period-``n`` points, i.e. trace of the n-th matrix power.

    Closed form ``(r-1)^n + (r-1)(-1)^n`` from the eigenvalues ``r-1``
    (once) and ``-1`` (``r-1`` times).
    """
    if n < 1:
        raise ValueError("period must be >= 1")
    return (r - 1) ** n + (r - 1) * (-1) ** n


def _mobius(m: int) -> int:
    if m == 1:
        return 1
    result = 1
    d = 2
    while d * d <= m:
        if m % d == 0:
            m //= d
            if m % d == 0:
                return 0
            result = -result
        d += 1
    if m > 1:
        result = -result
    return result


def primitive_class_count(r: int, n: int) -> int:
    """Number of primitive cyclic classes of length ``n`` (Moebius inversion)."""
    total = 0
    for d in range(1, n + 1):
        if n % d == 0:
            total += _mobius(n // d) * count_periodic_points(r, d)
    assert total % n == 0
    return total // n


def rotate(word, s):
    n = len(word)
    return tuple(word[(i + s) % n] for i in range(n))


def canonical_rotation(word):
    """Return (canonical word, shift) with canonical = rotate(word, shift)."""
    word = tuple(word)
    return min((word[s:] + word[:s], s) for s in range(len(word)))


def primitive_root(word):
    """Smallest block whose repetition gives ``word``; returns (root, reps)."""
    word = tuple(word)
    n = len(word)
    for d in range(1, n + 1):
        if n % d == 0 and word == word[:d] * (n // d):
            return word[:d], n // d
    raise AssertionError("unreachable")


def is_cyclically_admissible(word) -> bool:
    word = tuple(word)
    n = len(word)
    if n < 2:
        return False
    return all(word[i] != word[(i + 1) % n] for i in range(n))


def _admissible_codes(r: int, n: int, first: int):
    """Every cyclically admissible word of length ``n`` that starts with
    the symbol ``first`` and uses none below it, as a base-``r`` integer
    (0-based symbols, first symbol most significant)."""
    q = r - first
    step = np.arange(1, q, dtype=np.int64)
    # symbols are counted from ``first``
    code, last = np.array([first], dtype=np.int64), np.zeros(1, dtype=np.int64)
    for _ in range(n - 1):
        nxt = (last[:, None] + step) % q
        code = (code[:, None] * r + first + nxt).ravel()
        last = nxt.ravel()
    return code[last != 0]


def enumerate_cycles(r: int, n_max: int, n_min: int = 2) -> np.ndarray:
    """All primitive cyclic classes of length n_min..n_max, canonical words.

    A canonical rotation starts with its least symbol, so only the
    cyclically admissible words whose first symbol is their least are
    built, one first symbol at a time; none starts with the last symbol,
    which only a lesser one can follow.  Each is coded as a base-r
    integer, so that integer order is lexicographic order, and kept
    exactly when its code is strictly below the codes of all its
    nontrivial rotations: that makes it the canonical rotation and rules
    out words that repeat a shorter block.  The count per length is
    cross-checked against the Moebius count, so enumeration and the
    closed-form trace can never drift apart silently.  Returns the
    1-based words sorted by (length, word) as the rows of one
    ``(M, n_max)`` int64 array, each padded with zeros after its last
    label, so ``len()`` of the result is the number of cycles.
    """
    if r < 3:
        raise ValueError("need at least 3 symbols")
    blocks = []
    for n in range(n_min, n_max + 1):
        code = np.concatenate([_admissible_codes(r, n, first) for first in range(r - 1)])
        for k in range(1, n):
            low = r ** (n - k)
            code = code[code < (code % low) * r**k + code // low]
        code = np.sort(code)
        cap = primitive_class_count(r, n)
        if code.size != cap:
            raise AssertionError(
                f"enumeration found {code.size} classes of length {n}, expected {cap}"
            )
        blocks.append(code[:, None] // r ** np.arange(n - 1, -1, -1, dtype=np.int64) % r + 1)
    words = np.zeros((sum(len(digits) for digits in blocks), n_max), dtype=np.int64)
    row = 0
    for digits in blocks:
        words[row : row + len(digits), : digits.shape[1]] = digits
        row += len(digits)
    return words


def enumerate_words(r: int, length: int):
    """Admissible non-cyclic words of the given length (1-based symbols)."""
    if length < 1:
        return []
    words = [(s,) for s in range(1, r + 1)]
    for _ in range(length - 1):
        words = [w + (s,) for w in words for s in range(1, r + 1) if s != w[-1]]
    return words
