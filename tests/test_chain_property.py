"""Property: the whole on-grid inequality chain on random small models.

    E_BO <= E_exact <= E_heff(A) <= ... <= E_heff(1) <= RQ(theta_0 psi_0)

The first step is the Brattsev-Epstein bound, the middle steps are
Rayleigh-Ritz on nested subspaces (the compressed spectrum comes from the
banded solve, the exact one from the oracle's shift-invert path), and the last
holds because the BO product state lies in the rank-1 range. The draws
also check the projector facts and sigma_x sigma_p >= 1/2 for every
product and slice state.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from bolab.bo import assemble_product_state, solve_nuclear
from bolab.clamped import scan_pes
from bolab.diagnostics import nuclear_uncertainty, slice_uncertainty_products, uncertainty_product
from bolab.exact import assemble_full_hamiltonian, rayleigh_quotient, solve_exact
from bolab.grid import build_grid
from bolab.model import HarmonicCoupling, ModelSpec, SeparableHarmonic, SoftCoulomb
from bolab.projection import build_projector, solve_effective

SLACK = 1e-10

# bundled families only; soft-Coulomb wells deep enough that |E| stays of order one
POTENTIALS = st.one_of(
    st.builds(HarmonicCoupling, k1=st.floats(0.25, 4.0), k2=st.floats(0.25, 4.0)),
    st.builds(SoftCoulomb, z=st.floats(1.0, 2.0), s=st.floats(0.5, 1.0), k1=st.floats(0.25, 4.0)),
    st.builds(SeparableHarmonic, k1=st.floats(0.25, 4.0), k2=st.floats(0.25, 4.0)),
)


@settings(derandomize=True, deadline=None, database=None, max_examples=40)
@given(potential=POTENTIALS, ratio=st.floats(10.0, 2000.0), A=st.sampled_from([2, 3]),
       n1=st.integers(12, 24), n2=st.integers(12, 24),
       half1=st.floats(0.3, 3.0), half2=st.floats(3.0, 8.0))
def test_on_grid_inequality_chain(potential, ratio, A, n1, n2, half1, half2):
    spec = ModelSpec(M=ratio, m=1.0, potential=potential)
    g1, g2 = build_grid(-half1, half1, n1), build_grid(-half2, half2, n2)
    field = scan_pes(spec, g1, g2, A)
    h = assemble_full_hamiltonian(spec, g1, g2)
    nuclear = solve_nuclear(field, spec, 0, 2)
    e_bo = nuclear.energies[0]
    e_exact = solve_exact(h, 1).energies[0]
    states = [assemble_product_state(nuclear, field, n) for n in range(2)]
    rq = rayleigh_quotient(h, states[0].amplitudes)
    heff = [solve_effective(build_projector(field, rank), h, 1).energies[0]
            for rank in range(A, 0, -1)]
    chain = [e_bo, e_exact, *heff, rq]
    tol = SLACK * abs(e_exact)
    for lower, upper in zip(chain, chain[1:]):
        assert lower <= upper + tol, chain

    rng = np.random.default_rng(n1 * 100 + n2)
    weight = g1.h * g2.h
    for rank in range(1, A + 1):
        p = build_projector(field, rank)
        f, g = rng.standard_normal((2, n1, n2))
        pf = p.apply(f)
        scale = np.linalg.norm(f)
        assert np.linalg.norm(p.apply(pf) - pf) <= 1e-10 * scale
        lhs, rhs = weight * np.sum(f * p.apply(g)), weight * np.sum(pf * g)
        assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), 1.0)
        assert np.linalg.norm(p.apply(f - pf)) <= 1e-10 * scale

    products = [uncertainty_product(nuclear.theta(n)).product for n in range(2)]
    products += [nuclear_uncertainty(state).product for state in states]
    products += list(slice_uncertainty_products(field).ravel())
    assert min(products) >= 0.5 - 1e-12
