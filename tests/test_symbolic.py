import itertools
import tracemalloc

import numpy as np
import pytest

from billzeta.symbolic import (
    canonical_rotation,
    class_representatives,
    count_periodic_points,
    enumerate_cycles,
    enumerate_words,
    is_cyclically_admissible,
    primitive_class_count,
    primitive_root,
    rotate,
    transition_matrix,
)
from tests.conftest import (
    brute_force_class,
    equilateral_config,
    isosceles_three_disks,
    moved_equilateral,
    nearly_equilateral,
    square_four_disks,
    unequal_four_disks,
)


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
    words = [w for w in enumerate_cycles(r, 8) if len(w) == n]
    assert len(words) == primitive_class_count(r, n)
    if n <= 7:
        assert words == brute_force_cycles(r, n)


@pytest.mark.parametrize("r", [3, 4])
def test_enumeration_from_a_minimum_length_is_the_tail(r):
    every = enumerate_cycles(r, 9)
    for k in range(2, 11):
        assert enumerate_cycles(r, 9, n_min=k) == [w for w in every if len(w) >= k]


def test_enumerated_words_are_canonical_admissible_primitive():
    for w in enumerate_cycles(3, 7):
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


@pytest.mark.parametrize(
    "make, n_max, classes",
    [
        # 226 cycles up to length 10 on three disks, 508 up to 7 on four
        (equilateral_config, 10, 38),
        (lambda: moved_equilateral(1), 10, 38),
        (lambda: moved_equilateral(2), 10, 38),
        (lambda: moved_equilateral(3), 10, 38),
        (nearly_equilateral, 10, 38),
        (isosceles_three_disks, 10, 88),
        (square_four_disks, 7, 50),
        (unequal_four_disks, 7, 287),
    ],
)
def test_class_representatives_equal_the_brute_force_map(make, n_max, classes):
    config = make()
    symmetries = config.label_symmetries
    total = 0
    for n in range(2, n_max + 1):
        words = enumerate_cycles(config.r, n, n_min=n)
        rows = class_representatives(np.array(words), config.r, symmetries)
        want = [brute_force_class(word, symmetries) for word in words]
        assert [words[i] for i in rows.tolist()] == want, n
        total += len(set(want))
    assert total == classes


def test_class_map_holds_a_few_rows_per_image():
    # every length of the fixture at nmax 14; the 12 rotated images of the
    # last block as one (12, M, n, n) array would take 21.8 MB
    symmetries = equilateral_config().label_symmetries
    blocks = [np.array(enumerate_cycles(3, n, n_min=n)) for n in range(2, 15)]
    M, n = blocks[-1].shape
    class_representatives(blocks[-1], 3, symmetries)
    tracemalloc.start()
    try:
        for words in blocks:
            class_representatives(words, 3, symmetries)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # five float rows of (2n, M), fewer than the six images stacked
    assert peak <= 5 * 2 * n * M * 8
