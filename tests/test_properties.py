"""Fidelity properties over generated state pairs, pure and mixed members alike.

States come from ``random_state`` in its default ranges (squeezing up to
r = 1), so both the root-overlap route (a pure member) and the W_aux
spectrum route (two mixed states) run; the mixed-pair spectrum, from the
parallel sum of the two states, is checked against the eigvals of
2 V_aux Omega as well.  The stiff regime is not covered here.
The derandomized examples do not reach pure loss with a transmissivity within
~1e-6 of 1 on a pure pair, where the pure-pair discard rule (the fixed
``DEFAULT_PURE_TOL``) lowers F by up to ~1e-6, below F(a, b) (ROADMAP item 2).
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from gaussfid import GaussianState, apply_symplectic, fidelity, random_state, tensor
from gaussfid.fidelity import _parallel_sum_spectrum
from gaussfid.states import random_symplectic

from reference_routes import aux_matrix, aux_spectrum

#: |F(a, b) - F(b, a)|.
SYMMETRY_ATOL = 1e-12
#: |F(S a S^T, S b S^T) - F(a, b)|.
COVARIANCE_ATOL = 1e-9
#: Relative distance of F(a x c, b x d) from F(a, b) F(c, d).
PRODUCT_RTOL = 1e-9
#: How far F(E(a), E(b)) may fall below F(a, b) under a pure-loss channel E.
MONOTONICITY_ATOL = 1e-9
#: Relative distance of the parallel-sum W_aux spectrum from the eigvals one.
SPECTRUM_RTOL = 1e-10

EXAMPLES = settings(max_examples=50)

seeds = st.integers(min_value=0, max_value=2**32 - 1)


@st.composite
def states(draw, n):
    return random_state(n, draw(seeds), pure=draw(st.booleans()))


@st.composite
def pairs(draw):
    n = draw(st.integers(min_value=1, max_value=3))
    return draw(states(n)), draw(states(n))


@st.composite
def mixed_pairs(draw):
    n = draw(st.integers(min_value=1, max_value=3))
    squeeze = draw(st.floats(min_value=0.0, max_value=1.0))
    return (random_state(n, draw(seeds), max_squeeze=squeeze),
            random_state(n, draw(seeds), max_squeeze=squeeze))


@EXAMPLES
@given(pairs())
def test_symmetric(pair):
    a, b = pair
    assert abs(fidelity(a, b).F - fidelity(b, a).F) <= SYMMETRY_ATOL


@EXAMPLES
@given(pairs())
def test_unit_interval(pair):
    f = fidelity(*pair).F
    assert 0.0 <= f <= 1.0


@EXAMPLES
@given(pairs(), seeds)
def test_symplectic_covariance(pair, seed):
    a, b = pair
    S = random_symplectic(a.n, np.random.default_rng(seed))
    moved = fidelity(apply_symplectic(a, S), apply_symplectic(b, S)).F
    assert abs(moved - fidelity(a, b).F) <= COVARIANCE_ATOL


@EXAMPLES
@given(pairs(), pairs())
def test_multiplicative_over_tensor_products(left, right):
    (a, b), (c, d) = left, right
    joint = fidelity(tensor(a, c), tensor(b, d)).F
    product = fidelity(a, b).F * fidelity(c, d).F
    assert abs(joint - product) <= PRODUCT_RTOL * product


def pure_loss(state, eta):
    """The state after a pure-loss channel of transmissivity eta on every mode:
    u -> sqrt(eta) u, V -> eta V + (1 - eta) I / 2."""
    V = eta * state.V + 0.5 * (1.0 - eta) * np.eye(2 * state.n)
    return GaussianState(state.n, np.sqrt(eta) * state.u, V)


@EXAMPLES
@given(pairs(), st.floats(min_value=0.0, max_value=1.0))
def test_monotone_under_pure_loss(pair, eta):
    a, b = pair
    lossy = fidelity(pure_loss(a, eta), pure_loss(b, eta)).F
    assert lossy >= fidelity(a, b).F - MONOTONICITY_ATOL


@EXAMPLES
@given(mixed_pairs())
def test_parallel_sum_spectrum_matches_eigvals(pair):
    a, b = pair
    retained = _parallel_sum_spectrum(a.V, b.V)
    ref = aux_spectrum(aux_matrix(a.V, b.V))
    assert a.n - retained.size == ref.discarded_pairs
    assert np.allclose(retained, ref.retained, rtol=SPECTRUM_RTOL, atol=0.0)
