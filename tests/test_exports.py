"""Every advertised public name must resolve.

``repro.serving`` serves part of ``__all__`` through a PEP 562 lazy
table, so a stale entry stays invisible until somebody touches it.
"""

import importlib

import pytest


@pytest.mark.parametrize(
    "package",
    [
        "repro.serving",
        "repro.resilience",
        "repro.backend",
        "repro.analysis",
        "repro.analysis.perfcheck",
    ],
)
def test_all_names_resolve(package):
    module = importlib.import_module(package)
    assert len(set(module.__all__)) == len(module.__all__)
    for name in module.__all__:
        assert getattr(module, name) is not None, name


def test_lazy_serving_exports_are_advertised():
    import repro.serving as serving

    assert set(serving._LAZY_EXPORTS) <= set(serving.__all__)
