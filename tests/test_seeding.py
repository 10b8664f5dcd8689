import numpy as np
import pytest

from twosample import derive_seed, substream


def test_deterministic_and_64_bit():
    for master in (0, 1, 2**63, -17):
        for path in ((), (0,), (1, 2), (999999, 0, 5)):
            a = derive_seed(master, *path)
            b = derive_seed(master, *path)
            assert a == b
            assert 0 <= a < 2**64


def test_distinct_across_indices():
    seen = {derive_seed(20250819, r, stream) for r in range(5000) for stream in (0, 1)}
    assert len(seen) == 10000


def test_distinct_across_masters():
    assert derive_seed(1, 0) != derive_seed(2, 0)
    assert derive_seed(1, 0) != derive_seed(1, 1)
    assert derive_seed(1, 0, 1) != derive_seed(1, 1, 0)


def test_numpy_and_negative_integers_are_integers():
    assert derive_seed(np.int64(12345), np.uint8(7), 1) == derive_seed(12345, 7, 1)
    assert derive_seed(-17, -1) == derive_seed(-17 % 2**64, 2**64 - 1)


@pytest.mark.parametrize(
    "value",
    [1.5, 1.0, "3", True, np.bool_(False), None, np.float64(2.0)],
    ids=["1.5", "1.0", "str", "True", "numpy-bool", "None", "numpy-float"],
)
def test_non_integers_are_refused_by_name(value):
    # int() would take 1.5 as 1, "3" as 3 and True as 1, and reuse their streams
    for call, name in (
        (lambda: derive_seed(value), "master"),
        (lambda: derive_seed(1, 0, value), "index"),
        (lambda: substream(value, 0), "master"),
        (lambda: substream(1, value), "index"),
    ):
        with pytest.raises(ValueError) as err:
            call()
        assert str(err.value) == f"{name} must be an integer, got {value!r}"


def test_substream_reproduces_generator():
    a = substream(7, 3).standard_normal(5)
    b = np.random.default_rng(derive_seed(7, 3)).standard_normal(5)
    assert np.array_equal(a, b)


def test_frozen_chain_values():
    # pinned outputs of the documented mixing chain; a change here breaks
    # reproducibility of every published run
    assert derive_seed(12345) == 2454886589211414944
    assert derive_seed(12345, 0) == 11606567437342005916
    assert derive_seed(12345, 0, 0) == 17968248413889775161
    assert derive_seed(12345, 0, 1) == 14701231724006046673
    assert derive_seed(12345, 7, 1) == 3948317283401949755
    assert derive_seed(0, 0) == 16294208416658607535
