"""Symbolic dynamics on r symbols with distinct consecutive labels.

Itineraries live in the subshift whose transition matrix has zeros on
the diagonal and ones elsewhere: symbol ``i`` may be followed by any
``j != i``.  Periodic itineraries are handled as cyclic words; each
class is represented by its lexicographically smallest rotation.
Symbols are 1-based everywhere in the public API.

A symmetry class of cycles gathers a canonical word with its images
under a group of label permutations and under reversal (time reversal),
each taken to its canonical rotation; its representative is the least
of them.
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


def _admissible_codes(r: int, n: int):
    """Every cyclically admissible word of length ``n`` as a base-``r``
    integer (0-based symbols, first symbol most significant)."""
    first = np.arange(r, dtype=np.int64)
    step = np.arange(1, r, dtype=np.int64)
    code, last = first, first
    for _ in range(n - 1):
        nxt = (last[:, None] + step) % r
        code = (code[:, None] * r + nxt).ravel()
        last = nxt.ravel()
        first = np.repeat(first, r - 1)
    return code[last != first]


def enumerate_cycles(r: int, n_max: int, n_min: int = 2):
    """All primitive cyclic classes of length n_min..n_max, canonical words.

    Every cyclically admissible word of a length is coded as a base-r
    integer, so that integer order is lexicographic order, and kept
    exactly when its code is strictly below the codes of all its
    nontrivial rotations: that makes it the canonical rotation and rules
    out words that repeat a shorter block.  The count per length is
    cross-checked against the Moebius count, so enumeration and the
    closed-form trace can never drift apart silently.  Returns a list of
    1-based tuples sorted by (length, word).
    """
    if r < 3:
        raise ValueError("need at least 3 symbols")
    cycles = []
    for n in range(n_min, n_max + 1):
        code = _admissible_codes(r, n)
        keep = np.ones(code.size, dtype=bool)
        for k in range(1, n):
            low = r ** (n - k)
            keep &= code < (code % low) * r**k + code // low
        code = np.sort(code[keep])
        cap = primitive_class_count(r, n)
        if code.size != cap:
            raise AssertionError(
                f"enumeration found {code.size} classes of length {n}, expected {cap}"
            )
        digits = code[:, None] // r ** np.arange(n - 1, -1, -1, dtype=np.int64) % r + 1
        cycles += [tuple(row) for row in digits.tolist()]
    return cycles


def class_representatives(words, r: int, symmetries) -> np.ndarray:
    """Row of each word's class representative in ``words``.

    ``words`` is an ``(M, n)`` block of canonical words of one length,
    1-based and sorted, that holds every representative; ``symmetries``
    are label permutations, each the tuple of the 0-based image of every
    label.  A word's representative is the least canonical rotation of
    its images under ``symmetries`` and under those followed by reversal.

    Words are base-r codes as in :func:`enumerate_cycles`.  The codes of
    all n rotations of an image and of its reversal are one float64
    product of a ``(2n, n)`` matrix of powers of r with its digits, exact
    because every code is below 2^53; images are taken one label
    permutation at a time, so the memory is a few ``(2n, M)`` arrays.
    """
    digits = np.ascontiguousarray(np.asarray(words, dtype=np.int64).T) - 1  # (n, M)
    n = digits.shape[0]
    if float(r) ** n > 2.0**53:
        raise ValueError(f"codes of {n} symbols out of {r} are not exact in float64")
    # row k: symbol i of a word has weight r^(n - 1 - (i - k) mod n) in its
    # rotation by k, and r^((i + k) mod n) in the rotation by k of its reversal
    i = np.arange(n)
    weights = float(r) ** np.vstack((n - 1 - (i - i[:, None]) % n, (i + i[:, None]) % n))
    codes = weights[0] @ digits
    least = None
    for perm in np.asarray(symmetries, dtype=float):
        image = weights @ perm[digits]
        least = image if least is None else np.minimum(least, image, out=least)
    least = least.min(axis=0)
    rows = np.searchsorted(codes, least)
    if not np.array_equal(codes[np.minimum(rows, len(codes) - 1)], least):
        raise ValueError("the block lacks the representative of a word")
    return rows


def enumerate_words(r: int, length: int):
    """Admissible non-cyclic words of the given length (1-based symbols)."""
    if length < 1:
        return []
    words = [(s,) for s in range(1, r + 1)]
    for _ in range(length - 1):
        words = [w + (s,) for w in words for s in range(1, r + 1) if s != w[-1]]
    return words
