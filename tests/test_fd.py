import numpy as np

from rotshock import fd


def test_d2_of_a_row_is_a_row_of_d2():
    f = np.random.default_rng(3).standard_normal((5, 17))
    full = fd.d2(f, 0.1)
    for i in range(f.shape[0]):
        assert np.array_equal(fd.d2(f[i], 0.1), full[i])
