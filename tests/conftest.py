import numpy as np
import pytest

from stablecut import Cut, Instance


def _edges(n, pairs, w=1.0):
    W = np.zeros((n, n))
    for a, b in pairs:
        W[a, b] = W[b, a] = w
    return W


@pytest.fixture
def c4():
    """Unit 4-cycle 0-1-2-3-0; maximum cut {0,2}|{1,3} of weight 4."""
    return Instance(_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)]))


@pytest.fixture
def c4_maxcut():
    return Cut([True, False, True, False])


@pytest.fixture
def k3():
    return Instance(np.ones((3, 3)) - np.eye(3))


@pytest.fixture
def k22_heavy():
    """Complete graph on 4 vertices: the cut {0,2}|{1,3} has edges of weight 10,
    the two non-cut pairs have weight 1.  10-stable with a unique optimum."""
    W = _edges(4, [(0, 1), (0, 3), (1, 2), (2, 3)], 10.0)
    W += _edges(4, [(0, 2), (1, 3)], 1.0)
    return Instance(W)


@pytest.fixture
def pair_metric():
    """Four points: two pairs at distance 1, everything across at distance 2."""
    W = np.full((4, 4), 2.0)
    np.fill_diagonal(W, 0.0)
    W[0, 1] = W[1, 0] = 1.0
    W[2, 3] = W[3, 2] = 1.0
    return Instance(W)


def random_instance(rng, n, connected_retry=20):
    """Random dense symmetric instance with positive weights."""
    for _ in range(connected_retry):
        W = np.triu(rng.random((n, n)), 1)
        W += W.T
        if (W.sum(axis=1) > 0).all():
            return Instance(W)
    raise AssertionError("could not draw a connected instance")


def random_cut(rng, n):
    side = np.zeros(n, dtype=bool)
    k = rng.integers(1, n)
    side[rng.permutation(n)[:k]] = True
    return Cut(side)


def subset_stats(inst, cut, subset):
    """(xi, iota, tau, mu) of a vertex subset A against a cut.

    Of the weight leaving A, xi crosses the cut and iota does not; tau is
    all of it and mu the weighted degree of A (internal edges count twice).
    """
    in_a = np.zeros(inst.n, dtype=bool)
    in_a[np.atleast_1d(subset)] = True
    W = inst.weights
    leaving = W[np.ix_(in_a, ~in_a)]
    crossing = cut.side[in_a][:, None] != cut.side[~in_a][None, :]
    xi = float(leaving[crossing].sum())
    iota = float(leaving[~crossing].sum())
    tau = xi + iota  # so tau = xi + iota and mu = tau + internal hold exactly
    return xi, iota, tau, tau + float(W[np.ix_(in_a, in_a)].sum())


def glev_scaling(inst, v):
    """The entrywise perturbation W'_ij = |v_i| |v_j| W_ij."""
    a = np.abs(np.asarray(v, dtype=np.float64))
    return Instance(inst.weights * np.outer(a, a))


def coordinate_ratio(u):
    """max |u_i u_j| / min |u_i u_j| over vertex pairs i < j."""
    u = np.asarray(u, dtype=np.float64)
    products = np.abs(np.outer(u, u))[np.triu_indices(u.size, k=1)]
    return float(products.max() / products.min())
