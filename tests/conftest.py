"""Fixtures shared across test packages."""

import pytest


@pytest.fixture(scope="session")
def working_set():
    """The benchmark's claim working set on one regtest chain: transfer
    ladders plus the rich claims (newcoin publish/issue/split/merge, the
    Figure 3 purchase, ``before``/``spent`` conditionals, escrow), each
    with its wrong-type twin.  Read-only: tests must not extend the chain.
    """
    from bench.workloads.claims import build_working_set

    return build_working_set(7, 1)


@pytest.fixture
def edge_walks(monkeypatch):
    """The transactions ``dependency_levels`` walks for their edges, in
    order — it is the one place a request's (or a replay's) edges come
    from, so the list's length is the request's edge-walk count."""
    from repro.core import verifier

    walks = []
    walk = verifier.referenced_txids

    def counting(txn):
        walks.append(txn)
        return walk(txn)

    monkeypatch.setattr(verifier, "referenced_txids", counting)
    return walks


@pytest.fixture
def controls_calls(monkeypatch):
    """The scripts ``Wallet._controls`` classifies, in order — coin
    selection asks it once per table entry it visits, so the list's
    length is the entries-visited count of whatever ran."""
    from repro.bitcoin.wallet import Wallet

    calls = []
    controls = Wallet._controls

    def counting(self, script_pubkey):
        calls.append(script_pubkey)
        return controls(self, script_pubkey)

    monkeypatch.setattr(Wallet, "_controls", counting)
    return calls


@pytest.fixture
def fresh_default_cache():
    """A new process-wide signature cache for this test (triples and txid
    verdicts both live in it); the previous one is restored afterwards."""
    from repro.bitcoin import sigcache

    cache = sigcache.SignatureCache()
    old = sigcache.set_default_cache(cache)
    yield cache
    sigcache.set_default_cache(old)
