"""Command-line interface.

Every invocation prints a single JSON document on standard output with the
keys ``command``, ``inputs``, ``outputs`` and ``tolerances``; diagnostics go
to standard error.  :data:`COMMANDS` is the one table of subcommands: a row
holds the help text, the ``cmd_*`` handler, which returns (inputs, outputs,
tolerances), the arguments, and the output whose falsity fails the exit
status; :func:`build_parser` and :func:`main`, which alone builds the
document, both read it.  Exit status is 0 whenever a verdict was computed
(true or false alike) and nonzero only for usage or precondition errors, a
failed ``verify`` or a failed ``check``.

The ``inputs`` of every document include ``argv``, the arguments the
document was made from; the ``verify`` subcommand parses them again and
compares the outputs, so every result is checkable by a second run.

Each subcommand imports only the layers it runs, so ``pauli``,
``spinbasis``, ``selfdual`` and ``einstein --catalog`` outside ``--sweep``
(and ``verify`` of their documents) never load numpy: ``einstein`` decides
from the scalar closed form of :mod:`aqlab.family`, which holds for every
semisimple base, takes a catalog algebra's dimension from
``CATALOG_DIMS`` and builds no model.  An ``--algebra`` file is still
loaded, checked for the Jacobi identity and semisimplicity with numpy.

:func:`main` parses with one parser per process, writes and flushes the
document and returns the exit status; the console script and ``python -m
aqlab.cli`` run :func:`run`, which then ends the process with ``os._exit``,
skipping interpreter teardown.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import io
import json
import math
import os
import sys
import warnings

from .errors import AqlabError, InvalidModel

#: the catalog algebras and their dimensions, and the parser's choices,
#: spelled out so that parsing argv and ``einstein --catalog`` load no layer;
#: tests pin them to liealg.CATALOG and sorted(piaq.PREDICATES)
CATALOG_DIMS = {"sl2r": 3, "so4": 6, "su2": 3}
CATALOG_NAMES = tuple(CATALOG_DIMS)
PREDICATE_NAMES = ("integrable", "involutive", "isoclinic_geodesic",
                   "semiholonomic", "three_web")
VERIFY_TOL = 1e-9  #: verify's comparison tolerance
CHECK_TOL = 1e-8  #: bound on check's worst residuals
_MISSING = object()  #: in verify, the value at a key or index one side lacks


def _with_exact(x: float) -> dict:
    """The value, with [num, den] as ``exact`` when x is within 1e-12 of a
    rational of denominator at most 1000."""
    from fractions import Fraction  # loaded only where an exact value is printed
    out = dict(value=_f(x))
    frac = Fraction(x).limit_denominator(1000) if math.isfinite(x) else x
    if abs(float(frac) - x) < 1e-12:
        out["exact"] = [frac.numerator, frac.denominator]
    return out


def _f(x: float) -> float:
    """Normalize away negative zero for stable emission."""
    return float(x) + 0.0


def _smat_doc(m) -> list:
    """[[a, b], [c, d]] as [re, im] pairs, read from the 8 floats m holds."""
    e = [_f(x) for x in m.e]
    return [[e[0:2], e[2:4]], [e[4:6], e[6:8]]]


def _parse_floats(text: str, n: int, what: str) -> list[float]:
    parts = text.replace(",", " ").split()
    with contextlib.suppress(ValueError):  # a part that is no number
        if len(parts) == n:
            return [float(p) for p in parts]
    raise AqlabError(f"{what} needs {n} comma-separated numbers")


def _read_json(path: str):
    """The JSON at ``path`` (``-``: stdin); InvalidModel naming the path when
    it cannot be read or parsed, or nests too deep to parse."""
    try:
        if path == "-":
            return json.load(sys.stdin)
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:  # JSON faults too
        raise InvalidModel(f"{path}: {exc}") from None


def _load_file(path: str, twistor: bool):
    """The algebra in an ``--algebra`` file, or with ``twistor`` the model in
    a ``--model`` file (Jacobi not required), every fault of reading it or of
    its content raised as InvalidModel naming the file.  The fields go to
    the library as they are: ``dim`` and ``brackets`` (which a model file
    may omit for the zero bracket) to :func:`aqlab.liealg.bracket_tensor`,
    ``alpha``, ``I`` and ``J`` to :class:`aqlab.piaq.PiAQModel`."""
    from . import liealg as la
    data = _read_json(path)
    try:
        if not isinstance(data, dict):
            raise InvalidModel("expected a JSON object")
        name = str(data.get("name", ""))
        if not twistor:
            return la.from_brackets(data["dim"], data["brackets"], name=name)
        from . import piaq as pq
        c = la.bracket_tensor(data["dim"], data.get("brackets", ()))
        return pq.PiAQModel(len(c), c, data["I"], data["J"], data["alpha"],
                            name=name)
    except KeyError as exc:  # a field the file lacks
        raise InvalidModel(f"{path}: missing field {exc}") from None
    except (InvalidModel, TypeError, ValueError) as exc:
        raise InvalidModel(f"{path}: {exc}") from None


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_pauli(args):
    from . import quat as qt
    s1, s2, s3 = qt.pauli_matrices(args.alpha)
    return {"alpha": args.alpha}, {
        "entry_format": "[re, im] with i^2 = alpha",
        "sigma1": _smat_doc(s1),
        "sigma2": _smat_doc(s2),
        "sigma3": _smat_doc(s3),
    }, {}


def cmd_spinbasis(args):
    from . import quat as qt
    from . import scalars as sk
    from . import spinor as sp
    alpha, names = args.alpha, ("j1", "j2", "j3")
    triples = [_parse_floats(getattr(args, name), 3, name) for name in names]
    js = [qt.from_coeffs([0.0, *t], alpha) for t in triples]
    result = sp.spinbasis(sp.IQBasis(*js))
    outputs = {"change_matrix": _smat_doc(result.matrix),
               "orientation_sign": result.sign}
    return ({"alpha": alpha, **dict(zip(names, triples))}, outputs,
            {"isotropy": sk.ISOTROPY_TOL, "gram": sp.GRAM_TOL,
             "conjugation": sp.CONJ_TOL})


def cmd_selfdual(args):
    from . import fourdim as fd
    alpha = args.alpha
    comps = _parse_floats(args.omega, 6, "--omega")
    g = fd.Metric4(alpha)
    w = fd.TwoForm4(tuple(comps))
    wp, wm = fd.sd_decompose(g, w)
    inputs = {"alpha": alpha, "omega": comps,
              "component_order": ["12", "13", "14", "23", "24", "34"]}
    return inputs, {
        "omega_plus": [_f(x) for x in wp.comp],
        "omega_minus": [_f(x) for x in wm.comp],
        "endomorphism": [[_f(x) for x in row]
                         for row in fd.endo_rows(g, wp)],
        "lambda_sq": _with_exact(fd.lambda_sq(g, wp)),
    }, {}


def _einstein_rows(points) -> list:
    return [{"lambda": _with_exact(l), "mu": _with_exact(m),
             "epsilon": _with_exact(e)} for l, m, e in points]


def cmd_einstein(args):
    modes = [flag for flag, given in (
        ("--classify", args.classify), ("--sweep", args.sweep is not None),
        ("--lambda/--mu", args.lam is not None or args.mu is not None))
        if given]
    if len(modes) > 1:
        raise AqlabError(f"{' and '.join(modes)} are exclusive modes")
    if args.csv and args.sweep is None:
        raise AqlabError("--csv writes the sweep grid and needs --sweep")
    from . import family
    if args.catalog:
        dim = CATALOG_DIMS[args.catalog]
    else:  # a file's algebra must be semisimple, the premise of the closed form
        from . import liealg as la
        base = _load_file(args.algebra, twistor=False)
        la.require_semisimple(base)
        dim = base.dim
    inputs = {"algebra": args.catalog or args.algebra, "dim": dim}
    if args.classify:
        rows = _einstein_rows(family.einstein_points())
        outputs = {"einstein_points": rows, "count": len(rows)}
    elif args.sweep is not None:
        import numpy as np
        from .gxg import check_sweep_resolution, einstein_sweep
        # a bad resolution or --csv path fails before the sweep runs
        check_sweep_resolution(args.sweep)
        try:
            with (open(args.csv, "w") if args.csv
                  else contextlib.nullcontext()) as fh:
                grid = einstein_sweep(res=args.sweep)
                if fh is not None:
                    columns = [grid[k] for k in ("lam", "mu", "off", "aniso")]
                    np.savetxt(fh, np.column_stack(columns), "%.17g", ",", comments="",
                               header="lambda,mu,ricci_off_diagonal,ricci_anisotropy")
        except OSError as exc:
            raise AqlabError(f"--csv {args.csv}: {exc}") from None
        if args.csv:
            print(f"sweep grid written to {args.csv}", file=sys.stderr)
        outputs = {
            "resolution": args.sweep,
            "points_scanned": int(grid["lam"].size),
            "einstein_points": _einstein_rows(grid["einstein_points"]),
        }
        inputs["sweep"] = args.sweep
        if args.csv:
            inputs["csv"] = args.csv
    else:
        if args.lam is None or args.mu is None:
            raise AqlabError("either --lambda/--mu, --classify or --sweep is required")
        eps = family.einstein_constant(args.lam, args.mu)
        A, B, C, D = family.ricci_coefficients(args.lam, args.mu)
        inputs.update({"lambda": args.lam, "mu": args.mu})
        outputs = {
            "einstein": eps is not None,
            "epsilon": None if eps is None else _with_exact(eps),
            "ricci_coefficients": {"A": _f(A), "B": _f(B), "C": _f(C),
                                   "D": _f(D)},
        }
    return inputs, outputs, {"einstein": family.EINSTEIN_TOL}


def cmd_piaq(args):
    given = {k: v for k in ("operator", "eigenvalue", "mu")
             if (v := getattr(args, k)) is not None}
    from . import liealg as la
    from . import piaq as pq
    model = (la.doubled(la.CATALOG[args.doubled]()).as_piaq() if args.doubled
             else _load_file(args.model, twistor=True))
    report = pq.predicate_report(model, args.predicate, lam=args.eigenvalue,
                                 f_name=args.operator, mu=args.mu)
    inputs = {"model": args.model or f"doubled:{args.doubled}",
              "dim": model.dim, "alpha": model.alpha, "predicate": args.predicate,
              **given}
    return inputs, report, {"predicate": pq.PRED_TOL}


def cmd_verify(args):
    doc = _read_json(args.document)
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
    _, outputs, _ = COMMANDS[rerun_args.subcommand][1](rerun_args)
    found = _compare(doc.get("outputs", _MISSING), outputs, VERIFY_TOL)
    result = {"match": found is None}
    if found is not None:  # with both values, but none that a side lacks
        result["first_difference"] = diff = {"path": "outputs" + "".join(
            f"[{k}]" if isinstance(k, int) else f".{k}" for k in found[0])}
        for side, value in zip(("document", "rerun"), found[1:]):
            with contextlib.suppress(TypeError, ValueError):  # _MISSING, NaN
                json.dumps(value, allow_nan=False)
                diff[side] = value
    return ({"document": args.document, "verified_command": doc.get("command")},
            result, {"comparison": VERIFY_TOL})


def _compare(a, b, tol: float, path=()):
    """The first place in document order where b differs from a beyond
    ``tol``, as (path, a's value, b's value), the path a tuple of keys and
    indices and a lacking side ``_MISSING``; None when they match."""
    if isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)):
        a, b = dict(enumerate(a)), dict(enumerate(b))
    if isinstance(a, dict) and isinstance(b, dict):  # a's keys, then b's
        return next(filter(None, (
            _compare(a.get(k, _MISSING), b.get(k, _MISSING), tol, (*path, k))
            for k in {**a, **b})), None)
    same = a == b
    if isinstance(a, (int, float)) and isinstance(b, (int, float)) \
            and not isinstance(a, bool) and not isinstance(b, bool):
        with contextlib.suppress(OverflowError):  # an int past float range
            same = abs(float(a) - float(b)) <= tol * (1.0 + abs(float(a)))
    return None if same else (path, a, b)


def cmd_check(args):
    """Randomized property verification across the modules."""
    import numpy as np
    from . import liealg as la
    from . import quat as qt
    from .family import EINSTEIN_CANDIDATES, einstein_constant
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
    fams = []
    for _ in range(n):
        fams.append(fam := MetricFamily(base, *rng.uniform(-0.7, 0.7, size=2)))
        X, Y, Z = rng.normal(size=(3, 6))
        worst = max(worst,
                    float(np.abs(fam.levi_civita(X, Y)
                                 - fam.levi_civita_koszul(X, Y)).max()),
                    float(np.abs(fam.curvature(X, Y, Z)
                                 - fam.curvature_closed(X, Y, Z)).max()),
                    float(np.abs(fam.ricci_closed(X)
                                 - fam.ricci_contracted(X)).max()))
    results["metric_family_oracle_agreement"] = worst

    # the scalar Einstein verdict against the doubled model's Ricci matrix on
    # the sampled families and the candidates; a differing verdict counts as 1
    worst = 0.0
    for fam in [*fams, *(MetricFamily(base, *p) for p in EINSTEIN_CANDIDATES)]:
        eps, want = einstein_constant(fam.lam, fam.mu), fam.einstein_check()
        if (eps is None) != (want is None):
            worst = 1.0
        elif eps is not None:
            worst = max(worst, abs(eps - want) / max(1.0, abs(want)))
    results["einstein_verdict_scalar_vs_model"] = worst

    passed = all(v <= CHECK_TOL for v in results.values())
    return ({"seed": args.seed, "samples": n},
            {"passed": passed, "worst_residuals": results}, {"bound": CHECK_TOL})


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def _write(text: str, what: str, file=None) -> None:
    """Write ``text`` to ``file`` (default stdout) and flush it; a full
    device or a closed pipe is an AqlabError."""
    file = file or sys.stdout
    try:
        file.write(text)
        file.flush()
    except OSError as exc:
        raise AqlabError(f"cannot write {what}: {exc}") from None


class _Parser(argparse.ArgumentParser):
    """argparse's own ``print_help`` swallows a failed write, after which
    ``--help`` exits 0; this one raises like a document that cannot be
    written."""

    def print_help(self, file=None):
        _write(self.format_help(), "the help text", file)


_ALPHA = ("--alpha", dict(type=int, required=True, choices=(-1, 1),
                          help="signature parameter"))

#: name: (help, handler, arguments, verdict output); an argument is (flag,
#: add_argument's keywords), a list of them a group exactly one of is given
COMMANDS = {
    "pauli": ("emit the generalized Pauli triple", cmd_pauli, [_ALPHA], None),
    "spinbasis": ("spin basis of an orthonormal imaginary triple", cmd_spinbasis, [
        _ALPHA, *((f"--{name}", dict(required=True, metavar="B,C,D",
                                     help=f"imaginary coefficients of {name}"))
                  for name in ("j1", "j2", "j3"))], None),
    "selfdual": ("split a two-form and emit its endomorphism", cmd_selfdual, [
        _ALPHA, ("--omega", dict(required=True, metavar="W12,W13,W14,W23,W24,W34",
                                 help="six independent components"))], None),
    "einstein": ("metric family verdicts on a doubled group", cmd_einstein, [
        [("--catalog", dict(choices=CATALOG_NAMES, help="built-in algebra")),
         ("--algebra", dict(metavar="FILE",
                            help="structure-constant file (JSON)"))],
        ("--lambda", dict(dest="lam", type=float, help="first parameter")),
        ("--mu", dict(type=float, help="second parameter")),
        ("--classify", dict(action="store_true",
                            help="solve for all Einstein points")),
        ("--sweep", dict(type=float, metavar="RES",
                         help="grid resolution for a disc scan")),
        ("--csv", dict(metavar="PATH", help="write the sweep grid as CSV"))], None),
    "piaq": ("integrability predicates of a model", cmd_piaq, [
        [("--model", dict(metavar="FILE", help="model file (JSON)")),
         ("--doubled", dict(choices=CATALOG_NAMES,
                            help="doubled catalog algebra"))],
        ("--predicate", dict(required=True, choices=PREDICATE_NAMES,
                             help="which property to decide")),
        ("--operator", dict(choices=("I", "J", "K"),
                            help="structure operator for involutivity tests")),
        ("--eigenvalue", dict(help="eigenvalue, e.g. 1, -1, i, -i")),
        ("--mu", dict(type=float, help="constant slope parameter"))], None),
    "verify": ("re-run a result document and compare", cmd_verify, [
        ("document", dict(help="path to a result JSON, or - for stdin"))], "match"),
    "check": ("randomized property verification", cmd_check, [
        ("--seed", dict(type=int, default=0, help="RNG seed")),
        ("--samples", dict(type=int, default=50,
                           help="samples per property"))], "passed"),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of :data:`COMMANDS`, built once per process: parsing keeps
    no state in it."""
    parser = _Parser(prog="aqlab", description=(
        "Numerics for generalized quaternionic geometry."))
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, (text, _, arguments, _) in COMMANDS.items():
        p = sub.add_parser(name, help=text)
        for arg in arguments:
            group, arg = ((p.add_mutually_exclusive_group(required=True), arg)
                          if isinstance(arg, list) else (p, [arg]))
            for flag, kw in arg:
                group.add_argument(flag, **kw)
    return parser


def main(argv=None) -> int:
    """Parse ``argv`` (default ``sys.argv[1:]``), run the subcommand, write
    and flush its document, and return the exit status.  Usage errors raise
    argparse's ``SystemExit``; the process is never ended here."""
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = build_parser().parse_args(argv)
        _, func, _, verdict = COMMANDS[args.subcommand]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            inputs, outputs, tolerances = func(args)
        doc = {"command": args.subcommand, "inputs": {**inputs, "argv": argv},
               "outputs": outputs, "tolerances": tolerances}
        try:  # with allow_nan=False the encoder is the finiteness check
            text = json.dumps(doc, indent=2, allow_nan=False) + "\n"
        except ValueError:
            raise AqlabError("result is not finite: the document holds NaN or inf") from None
        _write(text, "the document")
    except (AqlabError, ArithmeticError, RuntimeWarning) as exc:
        if not isinstance(exc, AqlabError):  # overflow or an invalid operation
            exc = AqlabError(f"result is not finite: {exc}")
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    return int(verdict is not None and not outputs[verdict])


def run() -> None:
    """The console entry point: :func:`main`, then ``os._exit`` with its
    status once stderr is flushed.  The document is written by then, so
    the interpreter's teardown would only cost time; profilers, coverage
    and atexit hooks need :func:`main` called in-process instead.  Unless
    the user chose a thread count, numpy gets one OpenBLAS thread, whose
    pool would cost a CLI call more than it gains."""
    if not any(name in os.environ for name in (
            "OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")):
        os.environ["OPENBLAS_NUM_THREADS"] = "1"
    code = main()
    sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    run()
