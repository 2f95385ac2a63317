"""Reference computations that only the tests use."""

import math

import numpy as np


def cosine_sum(aset, m: int) -> float:
    """Sum over actuators of cos(m * c_k), centers mapped onto (0, pi).

    For the mxe placement this vanishes for every 1 <= m <= 2M - 1; for uni
    it equals 0 for odd m and -1 for even m (and M at m = 0 for any set).
    """
    if int(m) != m or m < 0:
        raise ValueError(f"frequency must be a nonnegative integer, got {m}")
    return float(np.sum(np.cos(m * (aset.centers * (math.pi / aset.L)))))
