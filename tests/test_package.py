"""The package surface: ``monotest.__all__`` is the library modules' ``__all__``."""

import monotest
from monotest import bootstrap, errors, models, scales, sigma, simlab, statistic


def test_package_exports_each_module_all():
    modules = (bootstrap, errors, models, scales, sigma, simlab, statistic)
    expected = [name for module in modules for name in module.__all__] + ["__version__"]
    assert sorted(monotest.__all__) == sorted(expected)
    assert len(set(monotest.__all__)) == len(monotest.__all__)
    for name in monotest.__all__:
        assert hasattr(monotest, name), name
    assert [name for name in monotest.__all__ if name.startswith("_")] == ["__version__"]
