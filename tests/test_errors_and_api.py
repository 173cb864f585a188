"""Exception hierarchy and the top-level public API."""

import pytest

import repro
from repro import errors


def test_all_errors_derive_from_repro_error():
    for name in (
        "SimulationError",
        "ConfigurationError",
        "ExecutorError",
        "CapacityError",
        "ProtocolError",
        "PlacementError",
        "PowerModelError",
    ):
        exc_type = getattr(errors, name)
        assert issubclass(exc_type, errors.ReproError)
        assert issubclass(exc_type, Exception)


def test_single_except_catches_everything():
    from repro.apps.kvs import LruStore

    with pytest.raises(errors.ReproError):
        LruStore(0)


def test_top_level_exports_resolve():
    for name in repro.__all__:
        assert getattr(repro, name) is not None


def test_top_level_quick_path():
    """The README's four-liner."""
    models = repro.kvs_models()
    crossover = repro.find_crossover(models["memcached"], models["lake"])
    assert 60_000 < crossover < 100_000


def test_version():
    assert repro.__version__ == "1.0.0"
