import tempfile

import mpmath as mp
import numpy as np
import pytest
from hypothesis import configuration, settings

from gaussfid import GaussianState, make_symplectic_form, random_state
from gaussfid.core import xxpp_to_xpxp_indices
from gaussfid.states import random_symplectic

# The same examples on every run, and no example database on disk.
settings.register_profile("tier1", derandomize=True, database=None, deadline=None)
settings.load_profile("tier1")


_HYPOTHESIS_HOME = pytest.StashKey[tempfile.TemporaryDirectory]()


def pytest_configure(config):
    # hypothesis caches the constants it reads from local source files in its
    # home directory, ./.hypothesis by default; keep that out of the checkout
    home = tempfile.TemporaryDirectory(prefix="hypothesis-")
    config.stash[_HYPOTHESIS_HOME] = home
    configuration.set_hypothesis_home_dir(home.name)


def pytest_unconfigure(config):
    config.stash[_HYPOTHESIS_HOME].cleanup()


def record_calls(monkeypatch, owner, name):
    """The positional arguments of every call of ``owner.<name>`` from here on.

    ``owner`` is a module, whose binding the module's own callers look up, or
    a class, whose methods receive the instance as the first argument.
    """
    original = getattr(owner, name)
    calls = []

    def recording(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, recording)
    return calls


def record_constructions(monkeypatch):
    """The path of every state built from here on, one name per state: the
    public constructor's ``__post_init__`` or the builders' ``_adopt``."""
    built = []
    for name in ("__post_init__", "_adopt"):
        original = getattr(GaussianState, name)

        def recording(*args, _original=original, _name=name):
            built.append(_name)
            return _original(*args)

        monkeypatch.setattr(GaussianState, name, recording)
    return built


REAL, COMPLEX = np.dtype(float), np.dtype(complex)


def count_linalg_calls(monkeypatch, name):
    """The argument's (shape, dtype) of every ``numpy.linalg.<name>`` call from
    here on; :data:`REAL` and :data:`COMPLEX` are the dtypes the package uses."""
    original = getattr(np.linalg, name)
    calls = []

    def counting(*args, **kwargs):
        calls.append((args[0].shape, args[0].dtype))
        return original(*args, **kwargs)

    monkeypatch.setattr(np.linalg, name, counting)
    return calls


def count_every_linalg_call(monkeypatch):
    """:func:`count_linalg_calls` for every function of ``numpy.linalg``, by
    name: a factorisation of any kind that a route adds shows up in it."""
    return {name: count_linalg_calls(monkeypatch, name) for name in np.linalg.__all__
            if not isinstance(getattr(np.linalg, name), type)}


def via_xpxp(state):
    """``state`` rebuilt by GaussianState.from_xpxp from its interleaved arrays."""
    p = xxpp_to_xpxp_indices(state.n)
    return GaussianState.from_xpxp(state.u[p], state.V[np.ix_(p, p)])


def mixed_pair(n, seed, **kwargs):
    """Two independent random mixed states on n modes."""
    return random_state(n, seed, **kwargs), random_state(n, seed + 7919, **kwargs)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def random_symplectic_factory():
    def factory(n, seed, max_squeeze=1.0):
        return random_symplectic(n, np.random.default_rng(seed), max_squeeze)
    return factory


def symplectic_spectrum_mp(V):
    """The symplectic eigenvalues of V at 60 digits, ascending, one per pair:
    the square roots of the eigenvalues of K^T K, K = L^T Omega L with L the
    Cholesky factor of V, each counted twice."""
    n = V.shape[0] // 2
    with mp.workdps(60):
        om = mp.matrix(np.asarray(make_symplectic_form(n)).tolist())
        low = mp.cholesky(mp.matrix(V.tolist()))
        k = low.T * om * low
        return sorted(mp.sqrt(x) for x in mp.eigsy(k.T * k, eigvals_only=True))[::2]
