"""One way into a ``Ledger``, read off the source: ``Ledger.register``
has one caller under ``src/`` — ``core.verifier.admit``, the
chain-formation step — and the functions that used to assemble that step
by hand call none of its pieces themselves."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "repro"
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


def functions(tree):
    return [
        node for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    ]


def called_names(node):
    """What ``node`` calls, by bare or attribute name."""
    for child in ast.walk(node):
        if isinstance(child, ast.Call):
            func = child.func
            yield func.attr if isinstance(func, ast.Attribute) else getattr(
                func, "id", None
            )


def test_ledger_register_has_one_caller_and_the_step_is_not_rebuilt():
    register_callers = []
    for path in sorted(SRC.rglob("*.py")):
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
    spelt = [
        str(path.relative_to(ROOT))
        for top in ("src", "tests", "bench", "benchmarks", "examples", "scripts")
        for path in sorted((ROOT / top).rglob("*.py"))
        if RETIRED_OPTION in path.read_text()
    ]
    assert spelt == []
