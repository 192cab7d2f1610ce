"""No dead code: every function, class and method that fraylab defines is
referenced somewhere else in the package.

A definition counts as used when its name appears anywhere in fraylab's
modules outside its own body: a method's only as an Attribute (x.name), any
other function or class as a Name or an Attribute.  So a local variable
cannot hide a dead method that shares its name, but the match is still by
name alone: a dead method whose name some live attribute carries goes
unseen.  A live definition is never flagged.  Dunder methods are exempt,
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
    "quantum_binomial",  # the digon rank, against f_factor on two blocks
    # public API
    "kernel_basis",  # linalg.kernel_basis: property-tested, traced by perfbench
}


def _unreferenced() -> set[str]:
    defs = []
    by_attr: dict[str, list] = {}  # name -> (module, line) of each x.name
    by_name: dict[str, list] = {}  # name -> (module, line) of each bare name
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        methods = {id(f) for c in ast.walk(tree) if isinstance(c, ast.ClassDef) for f in c.body}
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defs.append((path.name, node.name, node.lineno, node.end_lineno,
                             id(node) in methods))
            elif isinstance(node, ast.Name):
                by_name.setdefault(node.id, []).append((path.name, node.lineno))
            elif isinstance(node, ast.Attribute):
                by_attr.setdefault(node.attr, []).append((path.name, node.lineno))
    out = set()
    for where, name, lo, hi, is_method in defs:
        refs = by_attr.get(name, []) + ([] if is_method else by_name.get(name, []))
        if not (name.startswith("__") and name.endswith("__")) and all(
                w == where and lo <= line <= hi for w, line in refs):
            out.add(name)
    return out


def test_every_definition_is_referenced():
    assert _unreferenced() - ALLOWED == set()


def test_every_allowed_name_is_still_unreferenced():
    # an allowed name that gains a caller leaves the list
    assert ALLOWED - _unreferenced() == set()
