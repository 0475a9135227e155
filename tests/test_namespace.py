"""The ``meansq`` namespace: what it exports, and what it no longer has."""

import importlib
import inspect
import types

import pytest

import meansq

MODULES = ("exact", "mean_square", "multiplicative", "oracle", "sine_sums", "symbolic")
REMOVED = (
    ("exact", "ChebyshevCoeffs"),
    ("exact", "chebyshev_coeffs"),
    ("multiplicative", "Factorization"),
    ("multiplicative", "factorize"),
    ("sine_sums", "UncancelledPowerError"),
    ("symbolic", "kl_scale"),
    ("symbolic", "jc_add"),
    ("symbolic", "jc_scale"),
    ("symbolic", "kl_add"),
)


def test_public_names_are_the_modules_all():
    exported = {
        name
        for name, value in vars(meansq).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    published = set()
    for name in MODULES:
        published |= set(importlib.import_module(f"meansq.{name}").__all__)
    assert exported == published


@pytest.mark.parametrize("module,name", REMOVED)
def test_removed_names_are_not_importable(module, name):
    assert not hasattr(meansq, name)
    assert not hasattr(importlib.import_module(f"meansq.{module}"), name)


def test_removed_members_are_gone():
    assert "conjugate_second" not in inspect.signature(meansq.exp_sum_direct).parameters
