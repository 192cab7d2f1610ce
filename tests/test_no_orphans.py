"""No dead code: every function, class and method that fraylab defines is
referenced somewhere else in the package.

A definition counts as used when its name appears, as a Name or as an
Attribute, anywhere in fraylab's modules outside its own body.  The match is
by name alone, so a dead method that shares its name with a live one goes
unseen, but a live definition is never flagged.  Dunder methods are exempt,
since the language calls them, and so is ALLOWED.
"""

import ast
from pathlib import Path

import fraylab

PACKAGE = Path(fraylab.__file__).parent

# Definitions kept without a caller in the package, each for its reason.
ALLOWED = {
    # reference oracles that tests compare product code against
    "evaluate",  # Poly.evaluate: the Fraction route of eval_at_point
    "basis",  # GradedRing.basis: the Macaulay oracle's monomial basis
    "mono_degree",  # the degree of one monomial, for the Groebner tests
    "e_in_p",  # the inverse of p_in_e, for their round trip
    "bar",  # Laurent.bar: bar invariance of quantum integers and binomials
    "quantum_binomial",  # the digon rank, against blamgon_rank on two blocks
    # public API
    "deg",  # grading.deg, the degree constructor
    "kernel_basis",  # linalg.kernel_basis: property-tested, traced by perfbench
}


def _unreferenced() -> set[str]:
    defs, refs = [], []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defs.append((path.name, node.name, node.lineno, node.end_lineno))
            elif isinstance(node, ast.Name):
                refs.append((path.name, node.id, node.lineno))
            elif isinstance(node, ast.Attribute):
                refs.append((path.name, node.attr, node.lineno))
    used: dict[str, list] = {}
    for where, name, line in refs:
        used.setdefault(name, []).append((where, line))
    return {
        name
        for where, name, lo, hi in defs
        if not (name.startswith("__") and name.endswith("__"))
        and all(w == where and lo <= line <= hi for w, line in used.get(name, ()))
    }


def test_every_definition_is_referenced():
    assert _unreferenced() - ALLOWED == set()


def test_every_allowed_name_is_still_unreferenced():
    # an allowed name that gains a caller leaves the list
    assert ALLOWED - _unreferenced() == set()
