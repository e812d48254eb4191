"""Sanity of the exception hierarchy and the public exports."""

import pytest

import repro
from repro import errors


def test_all_errors_derive_from_repro_error():
    for name in dir(errors):
        obj = getattr(errors, name)
        if isinstance(obj, type) and issubclass(obj, Exception):
            if obj is not errors.ReproError:
                assert issubclass(obj, errors.ReproError), name


def test_subsystem_error_taxonomy():
    assert issubclass(errors.AddressInUseError, errors.NetworkError)
    assert issubclass(errors.SocketClosedError, errors.NetworkError)
    assert issubclass(errors.NotMemberError, errors.GroupError)
    assert issubclass(errors.UnknownMovieError, errors.MediaError)
    assert issubclass(errors.SessionError, errors.ServiceError)


def test_top_level_all_resolves():
    for name in repro.__all__:
        assert hasattr(repro, name), name


def test_version_string():
    assert repro.__version__.count(".") == 2


@pytest.mark.parametrize(
    "module_name",
    [
        "repro.sim", "repro.net", "repro.gcs", "repro.media",
        "repro.client", "repro.server", "repro.service",
        "repro.baselines", "repro.experiments", "repro.workloads",
        "repro.telemetry", "repro.faulting", "repro.placement",
    ],
)
def test_package_all_resolves(module_name):
    import importlib

    module = importlib.import_module(module_name)
    # Names resolve on first access (PEP 562), and dir() lists them
    # before that, as it listed the eager imports it replaced.
    listed = dir(module)
    for name in module.__all__:
        assert name in listed, f"{module_name}.{name} missing from dir()"
        assert hasattr(module, name), f"{module_name}.{name}"


def test_lazy_names_keep_their_cross_package_homes():
    import repro.service
    import repro.telemetry
    from repro.client.player import ClientStats
    from repro.service.deployment import Deployment

    assert repro.service.Deployment is Deployment
    assert repro.telemetry.ClientStats is ClientStats
    assert repro.Deployment is Deployment
    assert "Deployment" in dir(repro)
    with pytest.raises(AttributeError, match="no attribute 'Nope'"):
        repro.telemetry.Nope


def test_public_api_has_docstrings():
    """Every re-exported public symbol carries a docstring."""
    for name in repro.__all__:
        obj = getattr(repro, name)
        if isinstance(obj, type) or callable(obj):
            assert obj.__doc__, f"{name} lacks a docstring"
