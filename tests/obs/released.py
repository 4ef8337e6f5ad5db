"""The check that a CLI ``main`` left no observability state behind."""

from repro import obs
from repro.obs import bounds, capture, live
from repro.obs.memory import SPACE_SPECS


def assert_obs_released() -> None:
    """Switch off, no live bus, no capture, no space-bound companions."""
    assert not obs.is_enabled()
    assert live.active() is None
    assert capture.active() is None
    registered = {spec.name for spec in bounds.registered_specs()}
    for base, spec in SPACE_SPECS:
        assert spec.name not in registered
        assert spec.name not in bounds.companions_of(base)
