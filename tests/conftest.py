"""Shared fixtures: switching between the production walks and the reference."""

import pytest

import reference_walks
from repro.sim.session import _pool_clear


@pytest.fixture
def select_walk(monkeypatch):
    """``select_walk(reference)``: build what follows on the generator
    reference walks (``True``) or on the production chains (``False``).

    The patches are class-level, and ``Cluster`` binds ``nic.on_packet``
    when it is built, so the session pool is emptied on every switch and
    at teardown: a pooled session built on one walk never serves the
    other.
    """
    def select(reference: bool) -> None:
        _pool_clear()
        for cls, name, chain, ref in reference_walks.PATCHES:
            monkeypatch.setattr(cls, name, ref if reference else chain)

    yield select
    _pool_clear()

