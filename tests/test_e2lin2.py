import math
import tracemalloc

import numpy as np
import pytest

from oracles import best_count_loop
from twospin import spins
from twospin.e2lin2 import (E2Lin2Instance, best_assignment, format_instance,
                            normalize, occurrence_counts, parse_instance,
                            random_instance, read_instance, satisfied_count,
                            write_instance)
from twospin.errors import ResourceLimitError, UsageError


def test_instance_validation():
    with pytest.raises(UsageError):
        E2Lin2Instance(2, ((0, 0, 1),))
    with pytest.raises(UsageError):
        E2Lin2Instance(2, ((0, 2, 1),))
    with pytest.raises(UsageError):
        E2Lin2Instance(2, ((0, 1, 2),))
    with pytest.raises(UsageError):
        E2Lin2Instance(2, ())


def test_satisfied_count_examples():
    inst = E2Lin2Instance(2, ((0, 1, 1),))
    assert satisfied_count(inst, (0, 1)) == 1
    assert satisfied_count(inst, (0, 0)) == 0
    pair = E2Lin2Instance(2, ((0, 1, 0), (0, 1, 1)))
    for bits in [(0, 0), (0, 1), (1, 0), (1, 1)]:
        assert satisfied_count(pair, bits) == 1


def test_global_flip_invariance():
    rng = np.random.default_rng(0)
    for _ in range(30):
        inst = random_instance(5, 8, int(rng.integers(1 << 30)))
        bits = tuple(int(b) for b in rng.integers(0, 2, inst.num_vars))
        flipped = tuple(1 - b for b in bits)
        assert satisfied_count(inst, bits) == satisfied_count(inst, flipped)


def test_best_assignment_examples():
    pair = E2Lin2Instance(2, ((0, 1, 0), (0, 1, 1)))
    best, bits = best_assignment(pair)
    assert best == 1
    assert bits == (0, 0)  # lowest encoding wins ties
    anti = E2Lin2Instance(3, ((0, 1, 1), (1, 2, 1), (2, 0, 1)))
    best, bits = best_assignment(anti)
    assert best == 2
    assert satisfied_count(anti, bits) == 2


def test_best_assignment_against_loop_oracle():
    rng = np.random.default_rng(4)
    for _ in range(100):
        n = int(rng.integers(2, 7))
        m = int(rng.integers((n + 1) // 2, 10))
        inst = random_instance(n, m, int(rng.integers(1 << 30)))
        best, bits = best_assignment(inst)
        o_best, o_bits = best_count_loop(inst.num_vars, inst.equations)
        assert best == o_best
        assert bits == o_bits  # both take the lowest encoding
        assert best >= math.ceil(m / 2)


# kernel splits (low bits, block bits): at (1, 2) and (3, 5) 2-7 variables
# span many blocks, so ties across blocks meet the lowest-encoding rule
@pytest.mark.parametrize("split", [(1, 2), (3, 5), (10, 16)], ids=["1-2", "3-5", "10-16"])
def test_best_assignment_on_repeated_pairs_against_loop_oracle(monkeypatch, split):
    # few variables and many equations, so pairs repeat with both right-hand
    # sides, and some pairs cancel to a zero weight
    monkeypatch.setattr(spins, "_LOW_BITS", split[0])
    monkeypatch.setattr(spins, "_BLOCK_BITS", split[1])
    rng = np.random.default_rng(11)
    for _ in range(60):
        n = int(rng.integers(2, 8))
        pairs = [tuple(int(v) for v in rng.choice(n, 2, replace=False))
                 for _ in range(int(rng.integers(1, 30)))]
        inst = E2Lin2Instance(n, tuple((i, j, int(rng.integers(2))) for i, j in pairs))
        assert best_assignment(inst) == best_count_loop(n, inst.equations)


def test_best_assignment_counts_past_uint16():
    inst = E2Lin2Instance(2, ((0, 1, 0),) * 65536 + ((0, 1, 1),))
    assert best_assignment(inst) == (65536, (0, 0))


def test_best_assignment_relabeling_invariance():
    rng = np.random.default_rng(6)
    for _ in range(20):
        inst = random_instance(5, 7, int(rng.integers(1 << 30)))
        perm = rng.permutation(inst.num_vars)
        relabeled = E2Lin2Instance(
            inst.num_vars,
            tuple((int(perm[i]), int(perm[j]), b) for i, j, b in inst.equations))
        assert best_assignment(inst)[0] == best_assignment(relabeled)[0]


def test_best_assignment_cap():
    inst = E2Lin2Instance(30, tuple((i, i + 1, 1) for i in range(29)))
    with pytest.raises(ResourceLimitError):
        best_assignment(inst)


def test_occurrence_counts():
    assert occurrence_counts(E2Lin2Instance(2, ((0, 1, 1),))) == (1, 1)
    inst = E2Lin2Instance(3, ((0, 1, 0), (0, 2, 1)))
    assert occurrence_counts(inst) == (2, 1, 1)
    rng = np.random.default_rng(1)
    for _ in range(20):
        inst = random_instance(6, 9, int(rng.integers(1 << 30)))
        assert sum(occurrence_counts(inst)) == 2 * inst.num_equations


def test_normalize_drops_unused():
    inst = E2Lin2Instance(4, ((0, 2, 1),))
    norm, kept = normalize(inst)
    assert norm.num_vars == 2
    assert kept == (0, 2)
    assert norm.equations == ((0, 1, 1),)
    assert norm.is_normalized()


def test_normalize_is_linear_in_equations_not_declared_variables():
    # the header may declare far more variables than 2m equations can use
    inst = parse_instance("p e2lin2 10000000 1\n3 9999999 1\n")
    tracemalloc.start()
    try:
        normalized = inst.is_normalized()
        norm, kept = normalize(inst)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not normalized and kept == (2, 9999998)
    assert norm == E2Lin2Instance(2, ((0, 1, 1),))
    assert peak < 1 << 20


def test_codec_roundtrip(tmp_path):
    text = "p e2lin2 2 1\n1 2 1\n"
    inst = parse_instance(text)
    assert inst == E2Lin2Instance(2, ((0, 1, 1),))
    assert format_instance(inst) == text
    rng = np.random.default_rng(7)
    for _ in range(50):
        inst = random_instance(int(rng.integers(2, 9)), int(rng.integers(5, 12)),
                               int(rng.integers(1 << 30)))
        assert parse_instance(format_instance(inst)) == inst
    path = tmp_path / "i.e2"
    write_instance(inst, path)
    assert read_instance(path) == inst


def test_codec_errors():
    with pytest.raises(UsageError, match="line 2"):
        parse_instance("p e2lin2 2 1\n1 2 2\n")
    with pytest.raises(UsageError, match="line 2"):
        parse_instance("p e2lin2 2 1\n1 1 0\n")
    with pytest.raises(UsageError, match="line 2"):
        parse_instance("p e2lin2 2 1\n1 3 0\n")
    with pytest.raises(UsageError, match="header"):
        parse_instance("1 2 1\n")
    with pytest.raises(UsageError, match="declares"):
        parse_instance("p e2lin2 2 3\n1 2 1\n")
    with pytest.raises(UsageError, match="line 3: non-integer field"):
        parse_instance("# x\np e2lin2 2 1\n1 2 b\n")


def test_random_instance_determinism():
    a = random_instance(4, 6, seed=7)
    b = random_instance(4, 6, seed=7)
    assert a == b
    assert a != random_instance(4, 6, seed=8)
    assert a.is_normalized()
    with pytest.raises(UsageError):
        random_instance(5, 2, seed=0)
    with pytest.raises(UsageError):
        random_instance(1, 5, seed=0)


def test_random_instance_refuses_a_negative_seed():
    with pytest.raises(UsageError, match="seed must be a non-negative integer"):
        random_instance(4, 6, seed=-1)
