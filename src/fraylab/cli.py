"""Batch verification driver and JSON report emitter.

Subcommands:

    fraylab verify <suite> [params]   run a named check suite
    fraylab unknot --variant V --k K  computed vs expected unknot series
    fraylab dump <object> [params]    serialize an object

Suites: a-ijk, thin-recursion, psi-rho, g-congruence, mc, gauss, ladder,
tables, factors, trace.  All output is deterministic given --seed; exit
code is 0 iff every check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys

from .grading import MultiDegree
from . import __version__
from .homalg import (
    CurvedComplex,
    Entry,
    GradedRing,
    PM_ONE,
    ParamSpec,
    RC_Object,
    RingSpec,
    gaussian_eliminate,
    homology_truncated,
)
from .hochschild import trace_check, unknot_invariant
from .qseries import Window, theorem1_check
from .ssbim import (
    basis_change_check,
    build_W,
    cn_family,
    graded_rank_check,
    ladder_collapse,
    projector,
)
from .symfun import (
    Composition,
    compositions,
    Poly,
    a_family,
    a_identity_defect,
    a_thin_recursive,
    eval_at_point,
    expand_to_x,
    psi_rho_roundtrip,
    rho_psi_roundtrip,
    curvature_transport_defect,
    vanishing_locus_sampler,
    g_polys,
    esp_sym,
    e_gen,
    BOTTOM,
)

SCHEMA = "fraylab/1"


def _window_from_args(args, k: int = 1) -> Window | None:
    """The window the q/t/a flags ask for, or None if no window flag is given."""
    if args.qmin is None and args.qmax is None and args.tmax is None and args.amax is None:
        return None
    qmin = args.qmin if args.qmin is not None else -2 * k
    qmax = args.qmax if args.qmax is not None else 2 * k + 12
    tmax = args.tmax if args.tmax is not None else 4
    amax = args.amax if args.amax is not None else k
    if qmin > qmax or tmax < 0 or amax < 0:
        raise ValueError(
            f"empty window: q {qmin}..{qmax}, t 0..{tmax}, a 0..{amax}"
        )
    return Window((0, amax), (qmin, qmax), (0, tmax))


# ---------------------------------------------------------------------------
# suites


def suite_a_ijk(args, seed) -> list[dict]:
    checks = []
    max_n = args.max_n or 5
    for N in range(1, max_n + 1):
        for parts in compositions(N):
            b = Composition(parts)
            fam = a_family(b)
            ok = all(
                a_identity_defect(fam, b, i).is_zero() for i in range(1, N + 1)
            )
            checks.append(
                {"name": f"a_family identity b={parts}", "params": {"N": N},
                 "status": "pass" if ok else "fail"}
            )
    return checks


def suite_thin_recursion(args, seed) -> list[dict]:
    checks = []
    max_n = args.max_n or 6
    for n in range(1, max_n + 1):
        fam = a_thin_recursive(n)
        ok = all(
            a_identity_defect(fam, Composition.thin(n), i, thin=True).is_zero()
            for i in range(1, n + 1)
        )
        checks.append({"name": f"thin recursion n={n}", "params": {"n": n},
                       "status": "pass" if ok else "fail"})
    return checks


def suite_psi_rho(args, seed) -> list[dict]:
    checks = []
    max_a = args.max_n or 4
    for a in range(1, max_a + 1):
        comp = Composition.of(a)
        inv_ok = all(
            expand_to_x(d, comp).is_zero() for d in psi_rho_roundtrip(a)
        ) and all(expand_to_x(d, comp).is_zero() for d in rho_psi_roundtrip(a))
        transport_ok = curvature_transport_defect(a).is_zero()
        checks.append({"name": f"psi/rho mutual inversion a={a}",
                       "params": {"a": a},
                       "status": "pass" if inv_ok else "fail"})
        checks.append({"name": f"curvature transport a={a}",
                       "params": {"a": a},
                       "status": "pass" if transport_ok else "fail"})
    return checks


def suite_g_congruence(args, seed) -> list[dict]:
    checks = []
    max_n = args.max_n or 4
    count = 100
    for n in range(1, max_n + 1):
        b = Composition.of(n, 1)
        gs = g_polys(n)
        pts = vanishing_locus_sampler(b, count, seed)
        xdiff = Poly.gen(e_gen(2, 1)) - Poly.gen(e_gen(2, 1, BOTTOM))
        ok = True
        for i in range(1, n + 2):
            expr = xdiff * gs[i - 1] + (esp_sym(i, n) - esp_sym(i, n, 1, BOTTOM))
            expanded = expand_to_x(expr, b)
            for pt in pts:
                if eval_at_point(expanded, pt, b) != 0:
                    ok = False
        checks.append({"name": f"g congruence n={n} ({count} samples, i<=n+1)",
                       "params": {"n": n, "samples": count},
                       "status": "pass" if ok else "fail"})
    return checks


def suite_mc(args, seed) -> list[dict]:
    checks = []
    total = args.max_n or 3
    cap = args.cap or 2
    lams = [Composition(p) for N in range(1, total + 1) for p in compositions(N)]
    for lam in lams:
        for variant in ("finite", "def_finite", "infinite", "def_infinite"):
            try:
                projector(lam, variant, cap=cap, check=True)
                status = "pass"
            except ValueError:
                status = "fail"
            checks.append({
                "name": f"mc {variant} lambda={lam.parts}",
                "params": {"lambda": list(lam.parts), "cap": cap},
                "status": status,
            })
    for n in (1, 2):
        for variant in ("plain", "y", "u", "yu"):
            try:
                cn_family(n, variant, cap=cap, check=True)
                status = "pass"
            except ValueError:
                status = "fail"
            checks.append({"name": f"mc C_{n}^{variant}",
                           "params": {"n": n}, "status": status})
    return checks


def random_zero_curvature_complex(rng: random.Random):
    """A small random complex over Q[x] with d^2 = 0 and at least one unit
    entry, built as a twist of a direct sum of two-term pieces."""
    from .symfun import x_gen

    ring = GradedRing(RingSpec("Qx", [(x_gen(1), 2)], []))
    objects = []
    d0: dict = {}
    # two independent two-term pieces, entries in {0, 1, x}
    for piece in range(2):
        t0 = rng.choice([0, 1])
        q0 = rng.choice([-2, 0, 2])
        entry = rng.choice(["one", "x", "zero"])
        qq = q0 - (2 if entry == "x" else 0)
        objects.append(RC_Object(MultiDegree(0, q0, t0), ring))
        objects.append(RC_Object(MultiDegree(0, qq, t0 + 1), ring))
        if entry != "zero":
            p = Poly.one() if entry == "one" else Poly.gen(x_gen(1))
            d0[(2 * piece + 1, 2 * piece)] = Entry.plain(p)
    cx = CurvedComplex(objects, ParamSpec.make([]), {PM_ONE: d0} if d0 else {})
    cx.check_homogeneous()
    return cx


def suite_gauss(args, seed) -> list[dict]:
    rng = random.Random(seed)
    checks = []
    count = args.max_n or 50
    window = Window((0, 0), (-8, 8), (-2, 4))
    done = 0
    attempts = 0
    while done < count and attempts < count * 10:
        attempts += 1
        cx = random_zero_curvature_complex(rng)
        unit_entries = [
            ij for ij, e in cx.terms.get(PM_ONE, {}).items()
            if e.is_plain() and e.plain_part().constant_value() not in (None, 0)
        ]
        if not unit_entries:
            continue
        before = homology_truncated(cx, window)
        red, sdr = gaussian_eliminate(cx, unit_entries[0])
        after = homology_truncated(red, window)
        ok = before.equal_on(after, window) and bool(sdr.verify())
        checks.append({"name": f"gauss homology preserved #{done + 1}",
                       "params": {}, "status": "pass" if ok else "fail"})
        done += 1
    return checks


def suite_ladder(args, seed) -> list[dict]:
    checks = []
    max_n = args.n or 3
    for n in range(1, max_n + 1):
        rep = basis_change_check(n, cap=args.cap or 2)
        checks.append({"name": f"ladder basis change n={n}", "params": {"n": n},
                       "status": "pass" if rep.ok else "fail"})
    for n in range(1, min(max_n, 3) + 1):
        try:
            ladder_collapse(n, cap=args.cap or 2)
            status = "pass"
        except (ValueError, AssertionError):
            status = "fail"
        checks.append({"name": f"ladder collapse n={n}", "params": {"n": n},
                       "status": status})
    return checks


def suite_tables(args, seed) -> list[dict]:
    variant = args.variant or "intrinsic"
    k = args.k or 1
    window = _window_from_args(args, k)
    rep, computed, expected = unknot_invariant(variant, k, cap=args.cap or 3,
                                               window=window)
    status = "pass" if rep["match"] else "fail"
    out = {"name": f"table {variant} k={k}", "params": {"variant": variant, "k": k},
           "status": status, "details": rep}
    return [out]


def suite_factors(args, seed) -> list[dict]:
    window = Window((0, 3), (-8, 14), (0, 8))
    rep = theorem1_check([1, 2, 3], window)
    return [
        {"name": c["name"], "params": {}, "status": c["status"]}
        for c in rep["checks"]
    ]


def suite_trace(args, seed) -> list[dict]:
    checks = []
    maxN = args.max_n or 3
    window = Window((0, maxN), (-8, 12), (0, 0))
    # merge/split pairs through the full symmetric ring: split a <- (N)
    # against merge (N) <- a; both composition orders route through a
    # single-block alphabet, which the presentation preprocessing folds away
    for N in range(2, maxN + 1):
        full = Composition.of(N)
        for parts in compositions(N):
            a = Composition(parts)
            if a == full:
                continue
            M_split = build_W(a, full)
            M_merge = build_W(full, a)
            rep = trace_check(M_split, M_merge, window)
            checks.append({
                "name": f"trace split/merge {parts} <-> ({N},)",
                "params": {"a": list(parts), "N": N},
                "status": "pass" if rep["ok"] else "fail",
            })
    # random small pairs at N = 2 (both orders computable directly)
    rng = random.Random(seed)
    small = [Composition(p) for p in compositions(2)]
    for idx in range(args.n or 10):
        a, b = rng.choice(small), rng.choice(small)
        rep = trace_check(build_W(a, b), build_W(b, a), Window((0, 2), (-6, 8), (0, 0)))
        checks.append({
            "name": f"trace random pair #{idx + 1} {a.parts} vs {b.parts}",
            "params": {"a": list(a.parts), "b": list(b.parts)},
            "status": "pass" if rep["ok"] else "fail",
        })
    # digon / blamgon ranks against windowed dimensions
    for N in range(1, (args.max_n or 3) + 1):
        for parts in compositions(N):
            lam = Composition(parts)
            ok = graded_rank_check(lam, 12)
            checks.append({"name": f"blamgon rank lambda={parts}",
                           "params": {}, "status": "pass" if ok else "fail"})
    return checks


SUITES = {
    "a-ijk": suite_a_ijk,
    "thin-recursion": suite_thin_recursion,
    "psi-rho": suite_psi_rho,
    "g-congruence": suite_g_congruence,
    "mc": suite_mc,
    "gauss": suite_gauss,
    "ladder": suite_ladder,
    "tables": suite_tables,
    "factors": suite_factors,
    "trace": suite_trace,
}


# ---------------------------------------------------------------------------
# commands


def cmd_verify(args) -> int:
    seed = args.seed
    if args.suite not in SUITES:
        print(f"unknown suite {args.suite!r}; available: {', '.join(sorted(SUITES))}",
              file=sys.stderr)
        return 2
    checks = SUITES[args.suite](args, seed)
    report = {
        "schema": SCHEMA,
        "tool_version": __version__,
        "seed": seed,
        "suite": args.suite,
        "checks": checks,
    }
    _emit(args, report)
    return 0 if all(c["status"] in ("pass", "skipped") for c in checks) else 1


def cmd_unknot(args) -> int:
    k = args.k or 1
    variant = args.variant or "intrinsic"
    window = _window_from_args(args, k)
    rep, computed, expected = unknot_invariant(
        variant, k, cap=args.cap or 3, window=window
    )
    report = {
        "schema": SCHEMA,
        "tool_version": __version__,
        "seed": args.seed,
        "variant": variant,
        "k": k,
        "match": rep["match"],
        "monomial_defect": rep["monomial_defect"],
        "computed": computed.to_json(),
        "expected": expected.to_json(),
        "mismatches": rep["mismatches"],
    }
    _emit(args, report)
    return 0 if rep["match"] else 1


def cmd_dump(args) -> int:
    obj = args.object
    if obj == "projector":
        lam = Composition(tuple(int(x) for x in args.lam.split(",")))
        proj = projector(lam, args.variant or "finite", cap=args.cap or 2)
        payload = proj.to_json()
    elif obj == "complex":
        if args.cn is None:
            print("dump complex requires --cn N", file=sys.stderr)
            return 2
        payload = cn_family(args.cn, args.variant or "plain", cap=args.cap or 2).to_json()
    elif obj == "poly":
        if args.family == "a-ijk":
            b = Composition(tuple(int(x) for x in args.b.split(",")))
            if all(p == 1 for p in b.parts):
                fam = a_thin_recursive(b.total)
                payload = {
                    f"a_{i}{j}1": fam[(i, j)].to_json() for (i, j) in sorted(fam)
                }
            else:
                fam = a_family(b)
                payload = {
                    f"a_{i}{j}{k}": fam[(i, j, k)].to_json()
                    for (i, j, k) in sorted(fam)
                }
        elif args.family == "g":
            n = args.n or 2
            payload = {f"g_{i + 1}": g.to_json() for i, g in enumerate(g_polys(n))}
        else:
            print(f"unknown poly family {args.family!r}", file=sys.stderr)
            return 2
    else:
        print(f"unknown object {obj!r}", file=sys.stderr)
        return 2
    report = {"schema": SCHEMA, "tool_version": __version__, "seed": args.seed,
              "object": obj, "payload": payload}
    _emit(args, report)
    return 0


def _emit(args, report: dict) -> None:
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
        p.add_argument("--seed", type=int,
                       default=int(os.environ.get("FRAYLAB_SEED", "0")))
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
    pd.add_argument("object", type=str, choices=("projector", "complex", "poly"))
    pd.add_argument("--lambda", dest="lam", type=str, default="1")
    pd.add_argument("--family", type=str, default=None)
    pd.add_argument("--b", type=str, default="1,1")
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
    except ValueError as exc:  # bad --lambda/--b/--k/--variant/window values
        print(f"fraylab {args.command}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
