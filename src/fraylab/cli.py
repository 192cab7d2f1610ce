"""Batch verification driver and JSON report emitter.

Subcommands:

    fraylab verify <suite> [params]   run a named check suite
    fraylab unknot --variant V --k K  computed vs expected unknot series
    fraylab dump <object> [params]    serialize an object

Each suite runs one function of fraylab.criteria (see SUITES), the one
definition of the paper's acceptance criteria: tables checks criteria 1-4,
factors 2-4, a-ijk and thin-recursion 5, psi-rho 6, g-congruence 7, mc 8a,
gauss 8b, ladder 9 and trace 10.

Each command takes the flags named like the parameters of the function it
calls (--k, --cap, --max-n, --n, --variant, the dump flags, and the window
flags for `window`); any other flag is an error.  All output is
deterministic given --seed; exit code is 0 iff every check passed.
"""

from __future__ import annotations

import argparse
import inspect
import json
import sys

from . import __version__, criteria
from .hochschild import default_window, unknot_invariant
from .qseries import Window
from .ssbim import cn_family, projector
from .symfun import Composition, a_family, a_thin_recursive, g_polys

SCHEMA = "fraylab/1"
WINDOW_FLAGS = ("qmin", "qmax", "tmax", "amax")


def _window_from_args(args, k: int = 1) -> Window:
    """hochschild.default_window(variant, k) with the q/t/a flags' bounds."""
    base = default_window(args.variant or "intrinsic", k)
    qmin = base.q[0] if args.qmin is None else args.qmin
    qmax = base.q[1] if args.qmax is None else args.qmax
    tmax = base.t[1] if args.tmax is None else args.tmax
    amax = base.a[1] if args.amax is None else args.amax
    if qmin > qmax or tmax < 0 or amax < 0:
        raise ValueError(
            f"empty window: q {qmin}..{qmax}, t 0..{tmax}, a 0..{amax}"
        )
    return Window((0, amax), (qmin, qmax), (0, tmax))


SUITES = {
    "tables": criteria.unknot_row,
    "factors": criteria.factor_relations,
    "a-ijk": criteria.a_identities,
    "thin-recursion": criteria.thin_recursion,
    "psi-rho": criteria.psi_rho,
    "g-congruence": criteria.g_congruences,
    "mc": criteria.maurer_cartan,
    "gauss": criteria.gauss,
    "ladder": criteria.ladder,
    "trace": criteria.trace,
}

# the flags a command's function takes as the parameter of the same name
PARAM_FLAGS = ("k", "cap", "max_n", "n", "variant", "lam", "family", "b", "cn")


def _kwargs(fn, args, what: str) -> dict:
    """The flags that were given, the window and the seed, as keyword
    arguments of `fn`; a given flag it does not take is an error."""
    takes = inspect.signature(fn).parameters
    kwargs = {name: getattr(args, name) for name in PARAM_FLAGS
              if getattr(args, name, None) is not None}
    unknown = ["--" + ("lambda" if name == "lam" else name.replace("_", "-"))
               for name in kwargs if name not in takes]
    window_given = any(getattr(args, name) is not None for name in WINDOW_FLAGS)
    if window_given and "window" not in takes:
        unknown.append("--qmin/--qmax/--tmax/--amax")
    if unknown:
        raise ValueError(f"{what} takes no {', '.join(unknown)}")
    if window_given:
        kwargs["window"] = _window_from_args(args, args.k or 1)
    if "seed" in takes:
        kwargs["seed"] = args.seed
    return kwargs


def _composition(text: str) -> Composition:
    return Composition(tuple(int(x) for x in text.split(",")))


def _dump_projector(lam: str = "1", variant: str = "finite", cap: int = 2):
    return projector(_composition(lam), variant, cap=cap).to_json()


def _dump_complex(cn: int | None = None, variant: str = "plain", cap: int = 2):
    if cn is None:
        raise ValueError("complex requires --cn N")
    return cn_family(cn, variant, cap=cap).to_json()


def _dump_poly(family: str | None = None, b: str | None = None, n: int | None = None):
    if family == "g":
        if b is not None:
            raise ValueError("poly family g takes no --b")
        return {f"g_{i + 1}": g.to_json() for i, g in enumerate(g_polys(2 if n is None else n))}
    if family != "a-ijk":
        raise ValueError(f"unknown poly family {family!r}")
    if n is not None:
        raise ValueError("poly family a-ijk takes no --n")
    b = _composition("1,1" if b is None else b)
    if all(p == 1 for p in b.parts):
        fam = a_thin_recursive(b.total)
        return {f"a_{i}{j}1": fam[(i, j)].to_json() for (i, j) in sorted(fam)}
    fam = a_family(b)
    return {f"a_{i}{j}{k}": fam[(i, j, k)].to_json() for (i, j, k) in sorted(fam)}


DUMPS = {"projector": _dump_projector, "complex": _dump_complex, "poly": _dump_poly}


# ---------------------------------------------------------------------------
# commands


def cmd_verify(args) -> int:
    if args.suite not in SUITES:
        raise ValueError(f"unknown suite {args.suite!r}; available: {', '.join(sorted(SUITES))}")
    criterion = SUITES[args.suite]
    checks = criterion(**_kwargs(criterion, args, f"suite {args.suite}"))
    _emit(args, suite=args.suite, checks=checks)
    return 0 if all(c["status"] == "pass" for c in checks) else 1


def cmd_unknot(args) -> int:
    kwargs = {"variant": "intrinsic", "k": 1, "cap": 3, **_kwargs(unknot_invariant, args, "unknot")}
    rep, computed, expected = unknot_invariant(**kwargs)
    _emit(args, **rep, computed=computed.to_json(), expected=expected.to_json())
    return 0 if rep["match"] else 1


def cmd_dump(args) -> int:
    build = DUMPS[args.object]
    payload = build(**_kwargs(build, args, args.object))
    _emit(args, object=args.object, payload=payload)
    return 0


def _emit(args, **fields) -> None:
    report = {"schema": SCHEMA, "tool_version": __version__, "seed": args.seed, **fields}
    if args.format == "text":
        lines = [f"# {report.get('suite', report.get('object', 'report'))}"]
        for c in report.get("checks", []):
            lines.append(f"{c['status'].upper():5s} {c['name']}")
        if "match" in report:
            lines.append(f"match: {report['match']}")
        text = "\n".join(lines) + "\n"
    else:
        text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="fraylab")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", type=str, default=None)
        p.add_argument("--format", choices=("json", "text"), default="json")
        p.add_argument("--qmin", type=int, default=None)
        p.add_argument("--qmax", type=int, default=None)
        p.add_argument("--tmax", type=int, default=None)
        p.add_argument("--amax", type=int, default=None)
        p.add_argument("--cap", type=int, default=None)
        p.add_argument("--max-n", dest="max_n", type=int, default=None)
        p.add_argument("--n", type=int, default=None)
        p.add_argument("--k", type=int, default=None)
        p.add_argument("--variant", type=str, default=None)

    pv = sub.add_parser("verify", help="run a named check suite")
    pv.add_argument("suite", type=str)
    common(pv)
    pv.set_defaults(func=cmd_verify)

    pu = sub.add_parser("unknot", help="computed vs expected unknot series")
    common(pu)
    pu.set_defaults(func=cmd_unknot)

    pd = sub.add_parser("dump", help="serialize an object")
    pd.add_argument("object", type=str, choices=tuple(DUMPS))
    pd.add_argument("--lambda", dest="lam", type=str, default=None)
    pd.add_argument("--family", type=str, default=None)
    pd.add_argument("--b", type=str, default=None)
    pd.add_argument("--cn", type=int, default=None)
    common(pd)
    pd.set_defaults(func=cmd_dump)
    return ap


# counts and sizes: 0 or less is an error, not a request for the default
POSITIVE_OPTIONS = ("k", "cap", "max_n", "n")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        for name in POSITIVE_OPTIONS:
            value = getattr(args, name)
            if value is not None and value < 1:
                raise ValueError(f"--{name.replace('_', '-')} must be at least 1, got {value}")
        return args.func(args)
    except (ValueError, OSError) as exc:  # bad or unused flags, an unwritable --out
        print(f"fraylab {args.command}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
