"""Height certificates and the sqrt(2k) reduction."""

from math import gcd, isqrt

import pytest

from torusk import lattice
from torusk.closedform import best_low_height_set, construct_extremal
from torusk.heights import (
    ROT,
    ceil_div,
    map_jobs,
    open_residues,
    reduction_range,
    reduce_height_sqrt2k,
    sweep,
    verify_height,
)
from torusk.lattice import apply_matrix, shear_power


def test_floor_ceil_div():
    assert ceil_div(7, 2) == 4
    assert ceil_div(-7, 2) == -3
    assert ceil_div(6, 3) == 2


def test_smallest_not_verified_pair():
    v = verify_height(3, 2)
    assert not v.verified
    assert v.witness == (1, 1, 2)
    assert v.to_json_dict() == {
        "h": 2,
        "k": 3,
        "verified": False,
        "witness": [1, 1, 2],
    }


def test_verified_example():
    v = verify_height(24, 6)
    assert v.verified
    assert v.witness is None
    assert v.to_json_dict() == {"h": 6, "k": 24, "verified": True}


def test_range_validation():
    with pytest.raises(ValueError):
        verify_height(5, 1)
    with pytest.raises(ValueError):
        verify_height(5, 6)


def test_reduction_range_examples():
    # k = 3: no integer strictly between sqrt(4) and sqrt(6)
    assert list(reduction_range(3)) == []
    assert list(reduction_range(2)) == [2]
    assert list(reduction_range(6)) == [3]
    assert list(reduction_range(24)) == [6]
    for k in range(2, 200):
        for h in reduction_range(k):
            assert h * h <= 2 * k
            assert 3 * h * h > 4 * k


def test_sweep_small_range_all_verified():
    verdicts = sweep(2, 120)
    assert verdicts, "range should be non-empty"
    assert all(v.verified for v in verdicts)


def test_sweep_threads_agree():
    a = sweep(10, 40, threads=1)
    b = sweep(10, 40, threads=2)
    assert a == b


def test_open_residues_agree_with_verdicts():
    # over the sweep to 400 and every height max_size meets to k = 200: no
    # open residue exactly when the height verifies, else the least one is
    # the verdict's witness x0, and every one is coprime to h, at most h/2
    searched = [verify_height(k, h) for k in range(3, 201) for h in range(2, isqrt(2 * k) + 1)]
    for v in set(sweep(2, 400) + searched):
        opened = open_residues(v.k, v.h)
        assert (opened == ()) == v.verified, v
        assert list(opened) == sorted(set(opened)), v
        assert all(gcd(x0, v.h) == 1 and 1 <= x0 <= v.h // 2 for x0 in opened), v
        if opened:
            assert opened[0] == v.witness[0], v


@pytest.mark.parametrize(
    ("k", "h", "opened"),
    [(136, 13, (4, 5, 6)), (1400, 43, (18, 19, 20, 21)), (1890, 50, (23,))],
)
def test_open_residues_examples(k, h, opened):
    assert open_residues(k, h) == opened


def test_map_jobs_runs_one_job_or_one_thread_in_process(monkeypatch):
    import concurrent.futures

    def no_pool(*args, **kwargs):
        raise AssertionError("map_jobs started a process pool")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    assert map_jobs(abs, [-3], threads=4, chunksize=1) == [3]
    assert map_jobs(abs, [], threads=4, chunksize=1) == []
    assert map_jobs(abs, [-1, 2, -5], threads=1, chunksize=1) == [1, 2, 5]


@pytest.mark.parametrize("k", [5, 10, 17, 24, 48])
def test_reduce_tall_rotation(k):
    base = best_low_height_set(k) if k not in (24, 48) else construct_extremal(k)
    tall = apply_matrix(base, ROT)  # width becomes height
    reduced = reduce_height_sqrt2k(tall)
    assert len(reduced.points) == len(base.points)
    assert lattice.check_k_nice(reduced.points, k) is None
    assert lattice.height(reduced) ** 2 <= 2 * k


@pytest.mark.parametrize("t", [-3, 2, 7])
def test_reduce_after_shear(t):
    k = 30
    base = best_low_height_set(k)
    twisted = apply_matrix(apply_matrix(base, ROT), shear_power(t))
    reduced = reduce_height_sqrt2k(twisted)
    assert len(reduced.points) == len(base.points)
    assert lattice.check_k_nice(reduced.points, k) is None
    assert lattice.height(reduced) ** 2 <= 2 * k


def test_reduce_short_set_is_stable():
    q = best_low_height_set(11)
    reduced = reduce_height_sqrt2k(q)
    assert lattice.height(reduced) == lattice.height(q)
    assert len(reduced.points) == len(q.points)


def test_reduce_empty_rejected():
    with pytest.raises(ValueError):
        reduce_height_sqrt2k(lattice.NiceSet(k=5, points=frozenset()))
