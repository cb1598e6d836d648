"""Command-line interface.

Every invocation prints a single JSON document on standard output with the
keys ``command``, ``inputs``, ``outputs`` and ``tolerances``; diagnostics go
to standard error.  Exit status is 0 whenever a verdict was computed (true
or false alike) and nonzero only for usage or precondition errors.

The ``inputs`` of every document include ``argv``, the arguments the
document was made from; the ``verify`` subcommand parses them again and
compares the outputs, so every result is checkable by a second run.

Each subcommand imports only the layers it runs, so ``pauli`` and
``spinbasis`` (and ``verify`` of their documents) never load numpy.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import sys
import warnings
from fractions import Fraction

from .errors import AqlabError, InvalidModel

#: the parser's choices, spelled out so that parsing argv loads no layer;
#: tests pin them to sorted(liealg.CATALOG) and sorted(piaq.PREDICATES)
CATALOG_NAMES = ("sl2r", "so4", "su2")
PREDICATE_NAMES = ("integrable", "involutive", "isoclinic_geodesic",
                   "semiholonomic", "three_web")
DEFAULT_TOL = 1e-9  #: verify/check comparison tolerance unless AQLAB_TOL is set
CHECK_FLOOR = 1e-8  #: least bound on check's worst residuals


def _tolerance() -> float:
    return float(os.environ.get("AQLAB_TOL", DEFAULT_TOL))


def _rationalize(x: float, tol: float = 1e-12):
    """Return [num, den] when x is within tol of a small-denominator rational."""
    frac = Fraction(x).limit_denominator(1000) if math.isfinite(x) else x
    if abs(float(frac) - x) < tol:
        return [frac.numerator, frac.denominator]
    return None


def _with_exact(x: float) -> dict:
    out = {"value": float(x)}
    exact = _rationalize(x)
    if exact is not None:
        out["exact"] = exact
    return out


def _f(x: float) -> float:
    """Normalize away negative zero for stable emission."""
    return float(x) + 0.0


def _scalar_doc(z) -> list:
    return [_f(z.re), _f(z.im)]


def _smat_doc(m) -> list:
    return [[_scalar_doc(m[r, c]) for c in range(2)] for r in range(2)]


def _array_doc(a) -> list:
    import numpy as np
    return (np.asarray(a, dtype=float) + 0.0).tolist()


def _emit(doc: dict) -> None:
    json.dump(doc, sys.stdout, indent=2, allow_nan=False)
    sys.stdout.write("\n")


def _parse_floats(text: str, n: int, what: str) -> list[float]:
    parts = [p for p in text.replace(",", " ").split() if p]
    if len(parts) != n:
        raise AqlabError(f"{what} needs {n} comma-separated numbers")
    return [float(p) for p in parts]


def _load_file(path: str, twistor: bool):
    """The algebra in an ``--algebra`` file, or with ``twistor`` the model in
    a ``--model`` file (Jacobi not required), every schema fault raised as
    InvalidModel.

    Bracket records are [i, j, k, value] or {"i", "j", "k", "value"}; a
    model file may omit ``brackets`` for the zero bracket.
    """
    from . import liealg as la
    with open(path) as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise InvalidModel(f"{path}: expected a JSON object")
    for key in ("dim", "alpha", "I", "J") if twistor else ("dim", "brackets"):
        if key not in data:
            raise InvalidModel(f"{path}: missing field {key!r}")
    try:
        entries = []
        for rec in data.get("brackets", []):
            vals = ([rec.get(k) for k in ("i", "j", "k", "value")]
                    if isinstance(rec, dict) else rec)
            if not isinstance(vals, list) or len(vals) != 4 or None in vals:
                raise InvalidModel(
                    f"{path}: bracket record {rec!r} is not [i, j, k, value]")
            entries.append(vals)
        c = la.bracket_tensor(data["dim"], entries)
        name = str(data.get("name", ""))
        if not twistor:
            return la.LieAlgebraModel(len(c), c, name=name)
        import numpy as np
        from . import piaq as pq
        return pq.PiAQModel(len(c), c, np.asarray(data["I"], float),
                            np.asarray(data["J"], float), int(data["alpha"]),
                            name=name)
    except (TypeError, ValueError) as exc:
        raise InvalidModel(f"{path}: {exc}") from None


def _load_algebra(args):
    from . import liealg as la
    if args.catalog:
        return la.CATALOG[args.catalog]()
    return _load_file(args.algebra, twistor=False)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_pauli(args) -> dict:
    from . import quat as qt
    alpha = args.alpha
    s1, s2, s3 = qt.pauli_matrices(alpha)
    return {
        "command": "pauli",
        "inputs": {"alpha": alpha},
        "outputs": {
            "entry_format": "[re, im] with i^2 = alpha",
            "sigma1": _smat_doc(s1),
            "sigma2": _smat_doc(s2),
            "sigma3": _smat_doc(s3),
        },
        "tolerances": {},
    }


def cmd_spinbasis(args) -> dict:
    from . import quat as qt
    from . import scalars as sk
    from . import spinor as sp
    alpha = args.alpha
    triples = [_parse_floats(getattr(args, name), 3, name)
               for name in ("j1", "j2", "j3")]
    js = [qt.from_coeffs([0.0, *t], alpha) for t in triples]
    result = sp.spinbasis(sp.IQBasis(*js))
    return {
        "command": "spinbasis",
        "inputs": {"alpha": alpha, "j1": triples[0], "j2": triples[1],
                   "j3": triples[2]},
        "outputs": {
            "change_matrix": _smat_doc(result.matrix),
            "orientation_sign": result.sign,
        },
        "tolerances": {"isotropy": sk.ISOTROPY_TOL},
    }


def cmd_selfdual(args) -> dict:
    from . import fourdim as fd
    alpha = args.alpha
    comps = _parse_floats(args.omega, 6, "--omega")
    g = fd.Metric4(alpha)
    w = fd.TwoForm4(tuple(comps))
    wp, wm = fd.sd_decompose(g, w)
    J = fd.form_to_endo(g, wp)
    return {
        "command": "selfdual",
        "inputs": {"alpha": alpha, "omega": comps,
                   "component_order": ["12", "13", "14", "23", "24", "34"]},
        "outputs": {
            "omega_plus": list(wp.comp),
            "omega_minus": list(wm.comp),
            "endomorphism": _array_doc(J),
            "lambda_sq": _with_exact(fd.lambda_sq(g, wp)),
        },
        "tolerances": {},
    }


def cmd_einstein(args) -> dict:
    from . import liealg as la
    from .gxg import (EINSTEIN_TOL, MetricFamily, classify_einstein,
                      einstein_sweep)
    base = _load_algebra(args)
    model = la.doubled(base)
    inputs = {"algebra": args.catalog or args.algebra, "dim": base.dim}
    if args.classify:
        points = classify_einstein(model)
        rows = [{"lambda": _with_exact(l), "mu": _with_exact(m),
                 "epsilon": _with_exact(e)} for l, m, e in points]
        outputs = {"einstein_points": rows, "count": len(rows)}
    elif args.sweep is not None:
        grid = einstein_sweep(res=args.sweep)
        points = [{"lambda": _with_exact(l), "mu": _with_exact(m),
                   "epsilon": _with_exact(e)}
                  for l, m, e in grid["einstein_points"]]
        if args.csv:
            with open(args.csv, "w") as fh:
                fh.write("lambda,mu,ricci_off_diagonal,ricci_anisotropy\n")
                for l, m, o, a in zip(grid["lam"], grid["mu"],
                                      grid["off"], grid["aniso"]):
                    fh.write(f"{l:.17g},{m:.17g},{o:.17g},{a:.17g}\n")
            print(f"sweep grid written to {args.csv}", file=sys.stderr)
        outputs = {
            "resolution": args.sweep,
            "points_scanned": int(grid["lam"].size),
            "einstein_points": points,
        }
        inputs["sweep"] = args.sweep
        if args.csv:
            inputs["csv"] = args.csv
    else:
        if args.lam is None or args.mu is None:
            raise AqlabError("either --lambda/--mu, --classify or --sweep is required")
        fam = MetricFamily(model, args.lam, args.mu)
        eps = fam.einstein_check()
        A, B, C, D = fam.ricci_coefficients()
        inputs.update({"lambda": args.lam, "mu": args.mu})
        outputs = {
            "einstein": eps is not None,
            "epsilon": None if eps is None else _with_exact(eps),
            "ricci_coefficients": {"A": _f(A), "B": _f(B), "C": _f(C),
                                   "D": _f(D)},
        }
    return {"command": "einstein", "inputs": inputs, "outputs": outputs,
            "tolerances": {"einstein": EINSTEIN_TOL}}


def cmd_piaq(args) -> dict:
    from . import liealg as la
    from . import piaq as pq
    model = (la.doubled(la.CATALOG[args.doubled]()).as_piaq() if args.doubled
             else _load_file(args.model, twistor=True))
    report = pq.predicate_report(model, args.predicate, lam=args.eigenvalue,
                                 f_name=args.operator, mu=args.mu)
    inputs = {
        "model": args.model or f"doubled:{args.doubled}",
        "dim": model.dim,
        "alpha": model.alpha,
        "predicate": args.predicate,
    }
    if args.operator:
        inputs["operator"] = args.operator
    if args.eigenvalue is not None:
        inputs["eigenvalue"] = args.eigenvalue
    if args.mu is not None:
        inputs["mu"] = args.mu
    return {"command": "piaq", "inputs": inputs, "outputs": report,
            "tolerances": {"predicate": pq.PRED_TOL}}


def cmd_verify(args) -> dict:
    if args.document == "-":
        doc = json.load(sys.stdin)
    else:
        with open(args.document) as fh:
            doc = json.load(fh)
    inputs = doc.get("inputs") if isinstance(doc, dict) else None
    argv = inputs.get("argv") if isinstance(inputs, dict) else None
    if not (isinstance(argv, list) and all(isinstance(a, str) for a in argv)):
        raise AqlabError("document has no inputs.argv; regenerate it")
    err = io.StringIO()
    try:
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err):
            rerun_args = build_parser().parse_args(argv)
    except SystemExit:
        lines = err.getvalue().strip().splitlines() or ["no detail"]
        raise AqlabError(f"stored argv does not parse: {lines[-1]}") from None
    if rerun_args.subcommand == "verify":
        raise AqlabError("a verify document cannot be verified again")
    if getattr(rerun_args, "csv", None):
        rerun_args.csv = None  # compare outputs only; never rewrite files
    rerun = rerun_args.func(rerun_args)
    tol = _tolerance()
    match = _compare(doc.get("outputs"), rerun.get("outputs"), tol)
    return {
        "command": "verify",
        "inputs": {"document": args.document,
                   "verified_command": doc.get("command")},
        "outputs": {"match": match},
        "tolerances": {"comparison": tol},
    }


def _compare(a, b, tol: float) -> bool:
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(
            _compare(a[k], b[k], tol) for k in a)
    if isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)):
        return len(a) == len(b) and all(
            _compare(x, y, tol) for x, y in zip(a, b))
    if isinstance(a, (int, float)) and isinstance(b, (int, float)) \
            and not isinstance(a, bool) and not isinstance(b, bool):
        return abs(float(a) - float(b)) <= tol * (1.0 + abs(float(a)))
    return a == b


def cmd_check(args) -> dict:
    """Randomized property verification across the modules."""
    import numpy as np
    from . import liealg as la
    from . import quat as qt
    from .gxg import MetricFamily
    n = args.samples
    if n < 1 or args.seed < 0:
        raise AqlabError("check needs --samples >= 1 and --seed >= 0")
    rng = np.random.default_rng(args.seed)
    results = {}

    worst = 0.0
    for alpha in (-1, 1):
        for _ in range(n):
            p = qt.from_coeffs(rng.normal(size=4), alpha)
            q = qt.from_coeffs(rng.normal(size=4), alpha)
            d1 = abs(qt.qnormsq(qt.qmul(p, q)) - qt.qnormsq(p) * qt.qnormsq(q))
            prod = qt.spin_matrix(qt.qmul(p, q))
            comp = qt.spin_matrix(p) @ qt.spin_matrix(q)
            d2 = (prod - comp).max_abs()
            worst = max(worst, d1 / (1 + abs(qt.qnormsq(p) * qt.qnormsq(q))), d2)
    results["quaternion_norm_and_spin_homomorphism"] = worst

    worst = 0.0
    base = la.doubled(la.su2())
    for _ in range(n):
        lam, mu = rng.uniform(-0.7, 0.7, size=2)
        fam = MetricFamily(base, lam, mu)
        X, Y, Z = rng.normal(size=(3, 6))
        worst = max(worst,
                    float(np.abs(fam.levi_civita(X, Y)
                                 - fam.levi_civita_koszul(X, Y)).max()),
                    float(np.abs(fam.curvature(X, Y, Z)
                                 - fam.curvature_closed(X, Y, Z)).max()),
                    float(np.abs(fam.ricci_closed(X)
                                 - fam.ricci_contracted(X)).max()))
    results["metric_family_oracle_agreement"] = worst

    bound = max(_tolerance(), CHECK_FLOOR)
    passed = all(v <= bound for v in results.values())
    return {
        "command": "check",
        "inputs": {"seed": args.seed, "samples": n},
        "outputs": {"passed": passed, "worst_residuals": results},
        "tolerances": {"bound": bound},
    }


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="aqlab",
        description="Numerics for generalized quaternionic geometry.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_alpha(p):
        p.add_argument("--alpha", type=int, required=True, choices=(-1, 1),
                       help="signature parameter")

    p = sub.add_parser("pauli", help="emit the generalized Pauli triple")
    add_alpha(p)
    p.set_defaults(func=cmd_pauli)

    p = sub.add_parser("spinbasis",
                       help="spin basis of an orthonormal imaginary triple")
    add_alpha(p)
    for name in ("j1", "j2", "j3"):
        p.add_argument(f"--{name}", required=True, metavar="B,C,D",
                       help=f"imaginary coefficients of {name}")
    p.set_defaults(func=cmd_spinbasis)

    p = sub.add_parser("selfdual",
                       help="split a two-form and emit its endomorphism")
    add_alpha(p)
    p.add_argument("--omega", required=True, metavar="W12,W13,W14,W23,W24,W34",
                   help="six independent components")
    p.set_defaults(func=cmd_selfdual)

    p = sub.add_parser("einstein",
                       help="metric family verdicts on a doubled group")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--catalog", choices=CATALOG_NAMES,
                     help="built-in algebra")
    src.add_argument("--algebra", metavar="FILE",
                     help="structure-constant file (JSON)")
    p.add_argument("--lambda", dest="lam", type=float, help="first parameter")
    p.add_argument("--mu", type=float, help="second parameter")
    p.add_argument("--classify", action="store_true",
                   help="solve for all Einstein points")
    p.add_argument("--sweep", type=float, metavar="RES",
                   help="grid resolution for a disc scan")
    p.add_argument("--csv", metavar="PATH", help="write the sweep grid as CSV")
    p.set_defaults(func=cmd_einstein)

    p = sub.add_parser("piaq", help="integrability predicates of a model")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--model", metavar="FILE", help="model file (JSON)")
    src.add_argument("--doubled", choices=CATALOG_NAMES,
                     help="doubled catalog algebra")
    p.add_argument("--predicate", required=True,
                   choices=PREDICATE_NAMES,
                   help="which property to decide")
    p.add_argument("--operator", choices=("I", "J", "K"),
                   help="structure operator for involutivity tests")
    p.add_argument("--eigenvalue", help="eigenvalue, e.g. 1, -1, i, -i")
    p.add_argument("--mu", type=float, help="constant slope parameter")
    p.set_defaults(func=cmd_piaq)

    p = sub.add_parser("verify", help="re-run a result document and compare")
    p.add_argument("document", help="path to a result JSON, or - for stdin")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("check", help="randomized property verification")
    p.add_argument("--seed", type=int, default=0, help="RNG seed")
    p.add_argument("--samples", type=int, default=50,
                   help="samples per property")
    p.set_defaults(func=cmd_check)

    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser().parse_args(argv)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            doc = args.func(args)
        doc["inputs"]["argv"] = argv
        if not _compare(doc, doc, 0.0):  # False only for a NaN or an infinity
            raise AqlabError("result is not finite: the document holds NaN or inf")
    except (AqlabError, ArithmeticError, RuntimeWarning) as exc:
        if not isinstance(exc, AqlabError):  # overflow or an invalid operation
            exc = AqlabError(f"result is not finite: {exc}")
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except (OSError, json.JSONDecodeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    _emit(doc)
    if doc["command"] == "verify" and not doc["outputs"]["match"]:
        return 1
    if doc["command"] == "check" and not doc["outputs"]["passed"]:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
