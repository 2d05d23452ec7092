"""One way into a ``Ledger``, read off the source: ``Ledger.register``
has one caller under ``src/`` — ``core.verifier.admit``, the
chain-formation step — and the functions that used to assemble that step
by hand call none of its pieces themselves."""

import ast

from tests.guards import ROOT, SRC, called_names, functions, sources

PIECES = {
    "check_carrier_correspondence", "check_typecoin_transaction", "world_at",
}
# The callers that each had their own subset of the step.
FORMERLY_BY_HAND = {
    "core/verifier.py": {"_verify_claim"},
    "core/auditor.py": {"audit_chain"},
    "core/wallet.py": {"learn", "sync"},
}
RETIRED_OPTION = "check" + "_first"


def test_ledger_register_has_one_caller_and_the_step_is_not_rebuilt():
    register_callers = []
    for path in sources():
        name = str(path.relative_to(SRC))
        for function in functions(ast.parse(path.read_text())):
            calls = set(called_names(function))
            if "register" in calls:
                register_callers.append(f"{name}:{function.name}")
            if function.name in FORMERLY_BY_HAND.get(name, ()):
                assert not calls & PIECES, (name, function.name)
    assert register_callers == ["core/verifier.py:admit"]

    # The client's functions import nothing of their own (``claim_bundle``
    # used to), and the option nobody set is spelt nowhere.
    wallet = ast.parse((SRC / "core" / "wallet.py").read_text())
    assert not [
        node.lineno
        for function in functions(wallet)
        for node in ast.walk(function)
        if isinstance(node, (ast.Import, ast.ImportFrom))
    ]
    tops = ("src", "tests", "bench", "benchmarks", "examples", "scripts")
    spelt = [
        str(path.relative_to(ROOT))
        for path in sources(*(ROOT / top for top in tops))
        if RETIRED_OPTION in path.read_text()
    ]
    assert spelt == []
