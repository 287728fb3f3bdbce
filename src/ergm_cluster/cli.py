"""Batch command-line front end.

Subcommands: density, represent, exact, expand, region, coeffs.  Each run is
a single invocation that prints a short human-readable summary and optionally
writes one artifact (CSV or JSON) atomically.  Option precedence is flags over
config file over built-in defaults; a config key that names no option of the
subcommand is refused.  expand certifies at its own depth and base: the
certificate's exact head reaches --max-links links, at the region-optimal
weight base M.

The one output layer: each subcommand builds its artifact from the
library's records, as a JSON document and as CSV rows, and _emit renders the
format asked for with 17 significant digits, so artifacts round-trip
bit-faithfully.  A value that is not finite is null in JSON and an empty CSV
cell; a divergent tail also sets an explicit "divergent" flag.

Exit codes: 0 success (including negative certificate verdicts, which are
valid results), 2 invalid configuration (non-finite numbers and inputs whose
arithmetic overflows included: a partial sum or majorant coefficient past
the float range exits 2 before anything is printed), 3 a guard refused the
job: the n <= 6 size guard without --force, the n <= 7 ceiling with it (exact
and expand only), the 2^24 vertex-map budget of a motif walk, or the
connected-set budget.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile
from pathlib import Path
from typing import Iterable, Sequence

# Module level although only `exact` needs numpy: bench/run.py reads a child's
# peak RSS only above its own, and a numpy-free start-up stays below it.
from .ensemble import ensemble_result
from .graphs import GuardExceeded, Motif, SimpleGraph, graph_from_json, hom_count, load_motif
from .lattice import exact_hom_count, representation_check


def _fmt(x: float) -> str:
    return "%.17g" % x


def render_json(obj, indent: int = 0) -> str:
    """Deterministic JSON with 17-significant-digit floats.

    Dict key order is preserved (all emitters build dicts in canonical
    order); non-finite floats become null.  Only plain lists and tuples
    render as arrays: a record such as a NamedTuple raises TypeError.
    """
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if obj is None or isinstance(obj, (int, float)):
        return _cell(obj, "null")
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, dict):
        brackets = "{}"
        rows = [f"{json.dumps(str(k))}: {render_json(v, indent + 1)}" for k, v in obj.items()]
    elif type(obj) in (list, tuple):
        brackets = "[]"
        rows = [render_json(v, indent + 1) for v in obj]
    else:
        raise TypeError(f"cannot render {type(obj).__name__} as JSON")
    if not rows:
        return brackets
    return f"{brackets[0]}\n{inner}" + f",\n{inner}".join(rows) + f"\n{pad}{brackets[1]}"


def write_artifact(path: str | Path, text: str) -> None:
    """Write text to path atomically: temp file in the same directory, rename."""
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=target.parent, prefix=target.name + ".")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, target)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _cell(v, null: str = "") -> str:
    """A scalar as one CSV cell, or as JSON with null="null": `null` for None
    and for a float that is not finite, 17 significant digits for the others."""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return _fmt(v) if math.isfinite(v) else null
    return null if v is None else str(v)


def _csv(header: Sequence[str], rows: Iterable[Sequence]) -> str:
    return "".join(",".join(map(_cell, cells)) + "\n" for cells in [header, *rows])


# The options with a built-in value; a flag beats the --config file, which beats these.
DEFAULTS = {"format": "json", "order": 4, "max_links": 4, "n_max": 30, "force": False}


def _merge_config(ns: argparse.Namespace) -> None:
    """Fill each option the flags left unset from the --config file, then from
    DEFAULTS.  A key that names no option of the subcommand is refused before
    any value is taken.  A null in the file leaves the option unset; any other
    value is taken as its flag would take it, or refused where the flag
    refuses it."""
    cfg = json.loads(Path(ns.config).read_text()) if ns.config else {}
    if not isinstance(cfg, dict):
        raise ValueError("config file must hold a JSON object")
    for key in cfg:
        if key not in ns.options:
            raise ValueError(f"config key {key!r} names no option of {ns.command}")
    for key, value in [*cfg.items(), *DEFAULTS.items()]:
        if key in ns.options and getattr(ns, key) is None and value is not None:
            setattr(ns, key, _as_flag(ns.options[key], value))


def _as_flag(action: argparse.Action, value):
    """A config value through its flag's checks.  A switch takes a JSON boolean,
    a list option a non-empty list, and a typed option what its type parses
    from the value's text: 3.7 is no --n, true no --betas."""
    if action.choices is not None and value not in action.choices:
        raise ValueError(f"unknown {action.dest} {value!r}")
    many = action.nargs == "+"
    ok = (isinstance(value, bool) if action.nargs == 0 else
          not many or isinstance(value, list) and len(value) > 0)
    if ok and action.type is not None:
        try:
            value = [action.type(str(v)) for v in value] if many else action.type(str(value))
        except ValueError:
            ok = False
    if not ok:
        raise ValueError(f"{action.option_strings[0]} cannot take {value!r} from a config file")
    return value


def _motifs(ns: argparse.Namespace) -> list[Motif]:
    if not ns.motifs:
        raise ValueError("at least one motif is required")
    return [load_motif(str(s)) for s in ns.motifs]


def _finite(key: str, x: float) -> float:
    """The one boundary check for real-valued inputs: a finite float."""
    if not math.isfinite(x):
        raise ValueError(f"--{key} must be finite, got {x!r}")
    return x


def _betas(ns: argparse.Namespace) -> list[float]:
    if ns.betas is None:
        raise ValueError("parameter values are required")
    return [_finite("betas", b) for b in ns.betas]


def _need_int(ns: argparse.Namespace, key: str) -> int:
    val = getattr(ns, key)
    if val is None:
        raise ValueError(f"missing required option --{key.replace('_', '-')}")
    return val


def _graph(ns: argparse.Namespace) -> SimpleGraph | None:
    if ns.graph is None:
        return None
    return graph_from_json(Path(str(ns.graph)).read_text())


def _emit(ns: argparse.Namespace, doc: dict, header: Sequence[str],
          rows: Iterable[Sequence]) -> None:
    """Write the --out artifact, if asked for: doc as JSON, or header and rows as CSV."""
    if ns.out is not None:
        write_artifact(ns.out, render_json(doc) + "\n" if ns.format == "json"
                       else _csv(header, rows))


def cmd_density(ns: argparse.Namespace) -> int:
    if ns.motif is None:
        raise ValueError("--motif is required")
    H = load_motif(str(ns.motif))
    G = _graph(ns)
    n = ns.n if G is None else G.n
    if ns.n not in (None, n):
        raise ValueError(f"--n {ns.n} disagrees with the graph file (n={n})")
    if ns.sites is None and G is None:
        raise ValueError("--graph is required without --sites")
    if n is None:
        raise ValueError("--sites needs --graph or --n to fix the vertex count")
    # A density divides by n^m, which is 0 at n = 0.
    if n < 1:
        raise ValueError(f"need n >= 1 vertices, got n={n}")
    if ns.sites is not None:
        pairs = json.loads(ns.sites) if isinstance(ns.sites, str) else ns.sites
        if not (isinstance(pairs, list) and all(isinstance(e, list) and len(e) == 2
                                                for e in pairs)):
            raise ValueError(f"--sites must be a JSON list of vertex pairs, got {ns.sites!r}")
        num, kind = exact_hom_count(H, pairs, n), "exact"
    else:
        num, kind = hom_count(H, G), "hom"
    den = n ** H.m
    print(f"{num}/{den}")
    doc = {"motif": H.name, "kind": kind, "n": n,
           "numerator": num, "denominator": den, "value": num / den}
    _emit(ns, doc, ("key", "value"), doc.items())
    return 0


def cmd_represent(ns: argparse.Namespace) -> int:
    if ns.motif is None:
        raise ValueError("--motif is required")
    H = load_motif(str(ns.motif))
    G = _graph(ns)
    if G is None:
        raise ValueError("--graph is required")
    num = hom_count(H, G)
    den = G.n ** H.m
    holds = representation_check(H, G)
    print(f"t = {num}/{den}")
    print(f"subset decomposition matches: {'yes' if holds else 'NO'}")
    doc = {"motif": H.name, "n": G.n, "numerator": num,
           "denominator": den, "holds": holds}
    _emit(ns, doc, ("key", "value"), doc.items())
    return 0 if holds else 1


def cmd_exact(ns: argparse.Namespace) -> int:
    motifs = _motifs(ns)
    betas = _betas(ns)
    n = _need_int(ns, "n")
    res = ensemble_result(motifs, betas, n, force=ns.force)
    print(f"psi_{n} = {_fmt(res.psi)}")
    print(f"phi_{n} = {_fmt(res.phi)}")
    for H, e in zip(motifs, res.expectations):
        print(f"E[{H.name}] = {_fmt(e)}")
    doc = {"n": res.n, "motifs": [H.name for H in motifs], "betas": res.betas,
           "psi_n": res.psi, "phi_n": res.phi, "log_w_normalized": res.log_w_normalized,
           "expectations": res.expectations}
    k = range(1, len(motifs) + 1)
    header = ["n", *(f"beta_{i}" for i in k), "psi_n", "phi_n", *(f"E_{i}" for i in k)]
    _emit(ns, doc, header, [[res.n, *res.betas, res.psi, res.phi, *res.expectations]])
    return 0


def cmd_expand(ns: argparse.Namespace) -> int:
    from .expansion import OrderRow, expansion_report

    motifs = _motifs(ns)
    betas = _betas(ns)
    n = _need_int(ns, "n")
    report = expansion_report(motifs, betas, n, order=ns.order, max_links=ns.max_links,
                              force=ns.force)
    for row in report.orders:
        print(f"order {row.order}: partial = {_fmt(row.partial_sum)}, "
              f"gap = {_fmt(row.gap_to_exact)}, tail bound = {_cell(row.tail_bound) or 'n/a'}")
    cert = report.certificate
    state = "pass" if cert.verdict else "FAIL"
    print(f"KP check at M = {_fmt(cert.M)}: max site sum = {_fmt(cert.max_site_sum)}, "
          f"log M = {_fmt(cert.log_m)}, verdict = {state}")
    if not cert.verdict and cert.reason:
        print(f"  reason: {cert.reason}")
    if report.beta_budget is not None:
        print(f"beta budget at this M = {_fmt(report.beta_budget)}")
    doc = {"n": report.n, "motifs": report.motif_names, "betas": report.betas,
           "norm": report.norm, "log_w_exact": report.log_w_exact,
           "orders": [row._asdict() for row in report.orders],
           "kp": {"M": cert.M, "max_site_sum": cert.max_site_sum, "logM": cert.log_m,
                  "margin": cert.margin, "worst_site": cert.worst_site,
                  "verdict": cert.verdict, "tail_order": cert.tail_order,
                  "divergent": not math.isfinite(cert.tail), "reason": cert.reason},
           "region": {"p": report.p, "m": report.m, "M": report.M,
                      "beta_budget": report.beta_budget}}
    _emit(ns, doc, OrderRow._fields, report.orders)
    return 0


def cmd_region(ns: argparse.Namespace) -> int:
    from .coefficients import optimal_M, region_bound

    p = _need_int(ns, "p")
    m = _need_int(ns, "m")
    chose = ns.M is None
    M = optimal_M(p) if chose else _finite("M", ns.M)
    budget = region_bound(p, m, M)
    label = "optimal M" if chose else "M"
    print(f"{label} = {_fmt(M)}")
    print(f"log M = {_fmt(math.log(M))}")
    print(f"beta budget = {_fmt(budget)}")
    doc = {"p": p, "m": m, "M": M, "logM": math.log(M), "beta_budget": budget}
    _emit(ns, doc, ("key", "value"), doc.items())
    return 0


def cmd_coeffs(ns: argparse.Namespace) -> int:
    from .coefficients import (abar_recursion, coefficient_tail, generating_function_check,
                               optimal_M, radius_and_tail)

    p = _need_int(ns, "p")
    if p < 1:
        raise ValueError(f"edge count p must be a positive integer, got {p}")
    if ns.norm is None:
        raise ValueError("--norm is required")
    norm = _finite("norm", ns.norm)
    if ns.M is None and p == 1:
        raise ValueError("--M is required when p = 1 (no interior optimum)")
    M = optimal_M(p) if ns.M is None else _finite("M", ns.M)
    table = abar_recursion(p, norm, M, ns.n_max)
    # radius_and_tail overflows for large p; fail before the identity check.
    radius = radius_and_tail(p, norm, M)[0] if p >= 2 else None
    checked = generating_function_check(p, ns.n_max)
    tail = coefficient_tail(table, ns.n_max)
    divergent = math.isinf(tail)
    # Rows before the first print, so an abar past the float range prints nothing.
    rows = [(i, f"{g.numerator}/{g.denominator}", table.abar(i))
            for i, g in enumerate(table.gamma[1:], start=1)]
    print(f"c = {_fmt(table.c)}")
    if radius is not None:
        print(f"norm radius = {_fmt(radius)}")
    print(f"tail beyond n = {ns.n_max}: {'divergent' if divergent else _fmt(tail)}")
    print(f"series identity check: {'ok' if checked else 'FAILED'}")
    header = ("n", "gamma", "abar")
    doc = {"p": p, "norm": norm, "M": M, "c": table.c,
           "radius": radius, "tail_beyond_n_max": None if divergent else tail,
           "divergent": divergent, "series_check": checked,
           "rows": [dict(zip(header, row)) for row in rows]}
    _emit(ns, doc, header, rows)
    return 0


def _add_common(sub: argparse.ArgumentParser, force: bool = False) -> None:
    sub.add_argument("--out", help="artifact path (written atomically)")
    sub.add_argument("--format", choices=("csv", "json"),
                     help="artifact format (default json)")
    sub.add_argument("--config", help="JSON config file; flags override it")
    if force:
        sub.add_argument("--force", action="store_true", default=None,
                         help="run past the n <= 6 size guard, up to n = 7")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ergm-cluster",
        description="Exact and expansion-side free energy for "
                    "exponential random graphs.")
    subs = parser.add_subparsers(dest="command", required=True)

    s = subs.add_parser("density", help="motif density in a graph or edge subset")
    s.add_argument("--motif", help="builtin motif name or motif JSON path")
    s.add_argument("--graph", help="graph JSON path")
    s.add_argument("--n", type=int, help="vertex count (validated against --graph)")
    s.add_argument("--sites", help="JSON list of edge sites for the exact variant")
    _add_common(s)
    s.set_defaults(func=cmd_density)

    s = subs.add_parser("represent",
                        help="check the subset decomposition of a motif density")
    s.add_argument("--motif")
    s.add_argument("--graph")
    _add_common(s)
    s.set_defaults(func=cmd_represent)

    s = subs.add_parser("exact", help="exact free energy and motif expectations")
    s.add_argument("--motifs", "--motif", nargs="+", dest="motifs")
    s.add_argument("--betas", "--beta", nargs="+", type=float, dest="betas")
    s.add_argument("--n", type=int)
    _add_common(s, force=True)
    s.set_defaults(func=cmd_exact)

    s = subs.add_parser("expand",
                        help="cluster expansion with certificate and exact gaps")
    s.add_argument("--motifs", "--motif", nargs="+", dest="motifs")
    s.add_argument("--betas", "--beta", nargs="+", type=float, dest="betas")
    s.add_argument("--n", type=int)
    s.add_argument("--order", type=int, help="truncation order (default 4)")
    s.add_argument("--max-links", type=int, dest="max_links",
                   help="largest hypergraph used to build polymers (default 4)")
    _add_common(s, force=True)
    s.set_defaults(func=cmd_expand)

    s = subs.add_parser("region", help="convergence budget in parameter space")
    s.add_argument("--p", type=int, help="maximal motif edge count")
    s.add_argument("--m", type=int, help="maximal motif vertex count")
    s.add_argument("--M", type=float, help="weight base (default optimal)")
    _add_common(s)
    s.set_defaults(func=cmd_region)

    s = subs.add_parser("coeffs", help="majorant coefficient table and tail")
    s.add_argument("--p", type=int)
    s.add_argument("--norm", type=float, help="interaction norm")
    s.add_argument("--M", type=float)
    s.add_argument("--n-max", type=int, dest="n_max")
    _add_common(s)
    s.set_defaults(func=cmd_coeffs)
    # argparse reads "-6e-05" as an unknown flag, so --betas -6e-05 would fail.
    import re

    for sub in subs.choices.values():
        sub._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")
        # The flags of the subcommand by option name, for _merge_config.
        sub.set_defaults(options={a.dest: a for a in sub._actions
                                  if a.option_strings and a.dest != "help"})
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    ns = parser.parse_args(argv)
    try:
        _merge_config(ns)
        return ns.func(ns)
    except GuardExceeded as exc:
        sys.stderr.write(render_json({"error": str(exc), "kind": "guard",
                                      "hint": exc.hint}) + "\n")
        return 3
    except (ValueError, TypeError, OverflowError, OSError, KeyError,
            json.JSONDecodeError) as exc:
        sys.stderr.write(render_json({"error": str(exc), "kind": "invalid-config"}) + "\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
