import numpy as np
import pytest

from nullplane.families import random_polys
from nullplane.tensor import MetricSpec


GENERAL_SPEC = """
; conformal rescale of the walker metric (u^2, v^2, u) by exp(y/4),
; written out as ten general components with the matching rescaled tetrad
[metric]
kind = general
g_uu = 0
g_uv = 0
g_ux = exp(y/2)
g_uy = 0
g_vv = 0
g_vx = 0
g_vy = exp(y/2)
g_xx = exp(y/2) * u^2
g_xy = exp(y/2) * u
g_yy = exp(y/2) * v^2

[tetrad]
l0 = exp(-y/4)
l1 = 0
l2 = 0
l3 = 0
n0 = -u^2/2 * exp(-y/4)
n1 = -u/2 * exp(-y/4)
n2 = exp(-y/4)
n3 = 0
m0 = u/2 * exp(-y/4)
m1 = v^2/2 * exp(-y/4)
m2 = 0
m3 = -exp(-y/4)
mt0 = 0
mt1 = exp(-y/4)
mt2 = 0
mt3 = 0
"""


def sample_box(seed, n=10):
    return np.random.default_rng(seed).uniform(0.5, 1.5, (n, 4))


def random_walker_specs(seed, count, degree=2):
    out = []
    for i in range(count):
        a, b, c = random_polys(seed + i, degree, ("u", "v", "x", "y"), 3)
        out.append(MetricSpec.walker(a, b, c))
    return out


@pytest.fixture(scope="session")
def walker_corpus():
    """Ten random walker metrics with a shared point batch."""
    return random_walker_specs(7000, 10), sample_box(7100)
