import itertools

import numpy as np
import pytest

from billzeta.symbolic import (
    canonical_rotation,
    count_periodic_points,
    enumerate_cycles,
    enumerate_words,
    is_cyclically_admissible,
    primitive_class_count,
    primitive_root,
    rotate,
    transition_matrix,
)
from tests.conftest import cycles


def test_transition_matrix_shape():
    A = transition_matrix(4)
    assert A.shape == (4, 4)
    assert np.all(np.diag(A) == 0)
    assert np.all(A + np.eye(4, dtype=A.dtype) == 1)


@pytest.mark.parametrize("r", [3, 4, 5])
@pytest.mark.parametrize("n", [1, 2, 3, 6, 9])
def test_periodic_point_count_matches_trace(r, n):
    A = transition_matrix(r)
    tr = int(np.trace(np.linalg.matrix_power(A, n)))
    assert count_periodic_points(r, n) == tr
    assert count_periodic_points(r, n) == (r - 1) ** n + (r - 1) * (-1) ** n


def test_primitive_class_counts_for_three_symbols():
    # 0 fixed words, 3 two-cycles, 2 three-cycles, 9 six-cycles
    assert [primitive_class_count(3, n) for n in (1, 2, 3, 6)] == [0, 3, 2, 9]


def brute_force_cycles(r, n):
    """Strictly minimal rotations of all cyclically admissible words."""
    return [
        w
        for w in itertools.product(range(1, r + 1), repeat=n)
        if is_cyclically_admissible(w) and all(w < rotate(w, s) for s in range(1, n))
    ]


# r = 3 keeps the bare length as its id
@pytest.mark.parametrize(
    "r, n",
    [pytest.param(r, n, id=str(n) if r == 3 else f"{n}-r{r}")
     for r in (3, 4, 5) for n in range(2, 9)],
)
def test_enumeration_matches_moebius_count(r, n):
    words = [w for w in cycles(r, 8) if len(w) == n]
    assert len(words) == primitive_class_count(r, n)
    if n <= 7:
        assert words == brute_force_cycles(r, n)


@pytest.mark.parametrize("r", [3, 4])
def test_enumeration_from_a_minimum_length_is_the_tail(r):
    every = enumerate_cycles(r, 9)
    n = np.count_nonzero(every, axis=1)
    for k in range(2, 11):
        assert np.array_equal(enumerate_cycles(r, 9, n_min=k), every[n >= k])


@pytest.mark.parametrize("r", [3, 4])
def test_enumeration_as_an_array_pads_the_same_words_with_zeros(r):
    for n_min in (2, 5, 8):
        # the blocks of one length each, which need no padding
        words = [w for n in range(n_min, 9) for w in enumerate_cycles(r, n, n_min=n).tolist()]
        array = enumerate_cycles(r, 8, n_min=n_min)
        assert array.dtype == np.int64 and len(array) == len(words)
        assert array.tolist() == [w + [0] * (8 - len(w)) for w in words]


def test_enumerated_words_are_canonical_admissible_primitive():
    for w in cycles(3, 7):
        canon, shift = canonical_rotation(w)
        assert canon == w
        assert shift == 0
        assert is_cyclically_admissible(w)
        assert primitive_root(w)[1] == 1


def test_enumerate_words_counts_paths():
    # linear admissible words: r (r-1)^(n-1)
    for n in (1, 2, 3, 4, 5):
        assert len(enumerate_words(3, n)) == 3 * 2 ** (n - 1)
    for w in enumerate_words(3, 4):
        assert all(a != b for a, b in zip(w, w[1:]))


def test_canonical_rotation_shift_convention():
    word = (2, 3, 1, 3)
    canon, shift = canonical_rotation(word)
    n = len(word)
    assert canon == min(rotate(word, s) for s in range(n))
    for i in range(n):
        assert canon[i] == word[(i + shift) % n]


def rotation_loop(word):
    """The least rotation and its shift, found one rotation at a time."""
    best, shift = word, 0
    for s in range(1, len(word)):
        if rotate(word, s) < best:
            best, shift = rotate(word, s), s
    return best, shift


@pytest.mark.parametrize("r", [3, 4])
def test_canonical_rotation_matches_the_rotation_loop(r):
    for n in range(1, 9):
        for w in enumerate_words(r, n):
            assert canonical_rotation(w) == rotation_loop(w)
            # repeated blocks tie between rotations; the least shift wins
            assert canonical_rotation(w * 2) == rotation_loop(w * 2)


def test_primitive_root_of_repeated_word():
    assert primitive_root((1, 2, 1, 2, 1, 2)) == ((1, 2), 3)
    assert primitive_root((1, 2, 3)) == ((1, 2, 3), 1)
    assert primitive_root((1, 3, 1, 3))[1] != 1


def test_admissibility_checks_wraparound():
    assert not is_cyclically_admissible((1, 2, 2))
    assert not is_cyclically_admissible((1, 2, 3, 1))
    assert is_cyclically_admissible((1, 2, 3))
