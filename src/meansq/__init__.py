"""Exact mean-square closed forms for Dirichlet L-values.

Symbolic route: reciprocal sine power sums and parity-restricted mean
squares of L(r, chi) as exact rational combinations of Jordan totients.
Numeric route: independent character enumeration plus finite Hurwitz-zeta
combinations.  The CLI (``meansq``) exposes both and their comparison.
"""

from .exact import bernoulli, binomial, deriv_coeff, factorial
from .mean_square import (
    exp_product_real,
    l_principal_closed_form,
    mean_square_even,
    mean_square_odd,
    power_sum_real,
    realjs_rhs_exact,
    sigma0,
    sigma0_prime,
    sigma1,
    sigma1_prime,
    sigma2,
    sigma2_prime,
)
from .multiplicative import Factorization, coprime_residues, euler_phi, factorize, jordan_totient
from .oracle import (
    CharacterGroup,
    DirichletCharacter,
    character_group,
    characters_with_parity,
    exp_sum_direct,
    l_value_numeric,
    mean_square_numeric,
    power_exp_identity_check,
)
from .sine_sums import UncancelledPowerError, recip_power_real_sum, sin_sum_exact, sin_sum_numeric
from .symbolic import (
    ClosedForm,
    JordanCombo,
    KLaurent,
    evaluate_closed_form,
    evaluate_jordan,
    evaluate_laurent,
    jc_add,
    jc_scale,
    kl_add,
    kl_shift,
    parse_closed_form,
    parse_jordan_combo,
    render,
)

__version__ = "0.1.0"
