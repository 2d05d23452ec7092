"""Shared fixtures: one regtest world carrying a verifiable claim.

Building the chain costs a few hundred milliseconds, so the world is
session-scoped and shared read-only: service tests construct their own
:class:`VerificationService` over the same chain but never mutate it.
"""

import pytest

from repro.service.chaos import _service_world


@pytest.fixture(scope="session")
def world():
    """(net, valid_bundle, invalid_bundle) over a depth-4 transfer chain."""
    return _service_world(4)


@pytest.fixture
def net(world):
    return world[0]


@pytest.fixture
def valid_bundle(world):
    return world[1]


@pytest.fixture
def invalid_bundle(world):
    """Same txout, wrong claimed type: the correct verdict is ``invalid``."""
    return world[2]
