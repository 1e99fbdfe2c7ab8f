"""Property tests of the broadcasting Airy kernel on random passive stacks."""

import math

import numpy as np
import pytest

from plasmonq.fresnel import _rsp, transfer_matrix_reflection

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

ANGLES_DEG = np.linspace(1.0, 89.0, 89)

# Reflectance may exceed one by rounding only.  At a lossless mirror (say a
# vanishing film under total internal reflection) the Airy form lands a few
# ulps either side of 1; the allowance, 1e-12, is about 4500 ulps of 1.0.
PASSIVITY_ULP_ALLOWANCE = 1e-12


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(
    n_prism=st.floats(1.2, 2.0),
    film_re=st.floats(-50.0, 20.0),
    film_im=st.floats(1e-3, 10.0),
    thickness_nm=st.floats(1.0, 100.0),
    analyte_re=st.floats(1.0, 4.0),
    analyte_im=st.floats(0.0, 1.0),
    wavelength_nm=st.floats(400.0, 1600.0),
)
def test_airy_kernel_matches_transfer_matrix_on_random_passive_stacks(
    n_prism, film_re, film_im, thickness_nm, analyte_re, analyte_im, wavelength_nm
):
    """Film permittivity in the upper half-plane, lossless prism, passive
    analyte: one array call over the angle grid must agree with the scalar
    transfer matrix element by element, and never reflect more than it gets."""
    eps1 = complex(n_prism * n_prism)
    eps2 = complex(film_re, film_im)
    eps3 = complex(analyte_re, analyte_im)
    k0 = 2.0 * math.pi / wavelength_nm
    k_x = k0 * n_prism * np.sin(np.radians(ANGLES_DEG))

    direct = _rsp(eps1, eps2, eps3, thickness_nm, k0, k_x)
    assert direct.shape == ANGLES_DEG.shape
    layered = np.array([
        transfer_matrix_reflection(
            [(eps1, 0.0), (eps2, thickness_nm), (eps3, 0.0)], kx, wavelength_nm)
        for kx in k_x.tolist()
    ])
    assert np.max(np.abs(direct - layered)) <= 1e-10
    assert np.max(np.abs(direct) ** 2) <= 1.0 + PASSIVITY_ULP_ALLOWANCE
