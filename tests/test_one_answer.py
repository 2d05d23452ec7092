"""A request is answered or refused, never timed, read off the source.

The verification service has no per-request deadline: a request gets a
verdict (``ok`` / ``invalid``) or an infrastructure refusal
(``overloaded`` / ``draining`` / ``error``).  The cooperative
cancellation module, its checkpoints in the checkers and the ``timeout``
status are spelt nowhere under the service or the checkers, and the
client takes only the values a caller sets.
"""

import inspect

from repro.service.client import RETRYABLE_STATUSES, ServiceClient
from repro.service.server import INFRA_STATUSES
from tests.guards import SRC, sources, spelt

GUARDED = ("service", "lf", "logic")
RETIRED = (
    r"\bcancel\b", r"\bdeadline_scope\b", r"\bcheckpoint\(",
    r"\bDeadlineExceeded\b", r"\brequest_timeout\b", r'"timeout"',
)


def test_no_deadline_machinery_is_spelt():
    paths = sources(*(SRC / top for top in GUARDED))
    assert spelt("|".join(RETIRED), paths) == []
    assert not (SRC / "cancel.py").exists()


def test_statuses_are_verdicts_or_refusals():
    assert INFRA_STATUSES == ("overloaded", "draining", "error")
    assert RETRYABLE_STATUSES == {"overloaded", "error"}


def test_the_client_takes_only_what_callers_set():
    parameters = inspect.signature(ServiceClient.__init__).parameters
    assert list(parameters) == ["self", "service", "max_attempts", "seed", "sleep"]
