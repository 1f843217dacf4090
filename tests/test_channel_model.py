import numpy as np
import pytest

from tddmimo import RngStream, SystemConfig, db_to_linear, draw_channel, linear_to_db


def test_draw_is_deterministic():
    rng = RngStream(seed=12345, stream_id=7)
    a = draw_channel(2, 3, rng)
    b = draw_channel(2, 3, rng)
    assert a.shape == (2, 3)
    assert np.array_equal(a, b)


def test_distinct_streams_differ():
    a = draw_channel(4, 4, RngStream(1, 0))
    b = draw_channel(4, 4, RngStream(1, 1))
    c = draw_channel(4, 4, RngStream(2, 0))
    assert not np.allclose(a, b)
    assert not np.allclose(a, c)


def test_block_draw_starts_with_the_single_draw():
    # draw 0 of a block is the single draw; a shorter block is a prefix
    rng = RngStream(seed=31, stream_id=4)
    block = draw_channel(3, 5, rng, 7)
    assert block.shape == (7, 3, 5)
    np.testing.assert_array_equal(block[0], draw_channel(3, 5, rng))
    np.testing.assert_array_equal(draw_channel(3, 5, rng, 4), block[:4])
    assert not np.allclose(block[1], block[0])


def test_substream_offsets():
    base = RngStream(9, 3)
    assert base.substream(2) == RngStream(9, 5)


def test_row_streams():
    # row 0 is the stream itself; other rows are distinct draws of the same key
    rows = [draw_channel(1, 6, RngStream(9, 3, r), 50) for r in range(3)]
    np.testing.assert_array_equal(rows[0], draw_channel(1, 6, RngStream(9, 3), 50))
    assert not np.allclose(rows[1], rows[0]) and not np.allclose(rows[2], rows[1])
    assert not np.allclose(rows[1], draw_channel(1, 6, RngStream(9, 4), 50))


@pytest.mark.parametrize("M", [1, 6, 16])
def test_continued_generator_draws_the_stream_in_slices(M):
    # the kernel draws a block's row in slices from one generator; the slices
    # must be the same bits as one call for the whole block
    stream, sizes = RngStream(9, 3, 2), (256, 16, 28)
    g = stream.generator()
    slices = [draw_channel(1, M, g, n) for n in sizes]
    np.testing.assert_array_equal(np.concatenate(slices), draw_channel(1, M, stream, sum(sizes)))


@pytest.fixture(scope="module")
def big_draw():
    return draw_channel(100, 1000, RngStream(2024, 0))  # 1e5 entries


def test_entries_zero_mean(big_draw):
    n = big_draw.size
    se = np.sqrt(0.5 / n)  # per real component
    assert abs(big_draw.real.mean()) < 3 * se
    assert abs(big_draw.imag.mean()) < 3 * se


def test_unit_power(big_draw):
    assert abs(np.mean(np.abs(big_draw) ** 2) - 1.0) < 0.01


def test_circular_symmetry(big_draw):
    re = big_draw.real.ravel()
    im = big_draw.imag.ravel()
    corr = np.mean(re * im) / (re.std() * im.std())
    assert abs(corr) < 3 / np.sqrt(re.size)


def test_draw_rejects_bad_dims():
    with pytest.raises(ValueError):
        draw_channel(0, 3, RngStream(0))


def test_db_to_linear():
    assert db_to_linear(0.0) == 1.0
    assert db_to_linear(-10.0) == pytest.approx(0.1, abs=1e-15)
    assert db_to_linear(3.0) == pytest.approx(1.9953, abs=1e-4)
    assert linear_to_db(db_to_linear(7.3)) == pytest.approx(7.3, abs=1e-12)


def test_config_validation():
    with pytest.raises(ValueError):
        SystemConfig.homogeneous(M=4, K=5, T=10, tau_rp=4, rho_f=1, rho_r=1)
    with pytest.raises(ValueError):
        SystemConfig.homogeneous(M=4, K=2, T=10, tau_rp=2, rho_f=-1, rho_r=1)
    with pytest.raises(ValueError):
        SystemConfig(M=4, K=2, T=10, tau_rp=2, rho_f=np.ones(2), rho_r=np.ones(2),
                     weights=np.zeros(2))
    cfg = SystemConfig.homogeneous(M=4, K=2, T=10, tau_rp=2, rho_f=1.0, rho_r=0.1)
    assert cfg.is_homogeneous
    assert np.allclose(cfg.e_r, np.sqrt(0.1) * np.eye(2))
    assert np.allclose(cfg.weights, 1.0)
