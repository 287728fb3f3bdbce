"""Batch command-line front end.

Subcommands: density, represent, exact, expand, region, coeffs.  Each run is
a single invocation that prints a short human-readable summary and optionally
writes one artifact (CSV or JSON) atomically.  Option precedence is flags over
config file over built-in defaults.  Floats are rendered with 17 significant
digits so artifacts round-trip bit-faithfully; non-finite values appear as
null next to an explicit "divergent" flag.

Exit codes: 0 success (including negative certificate verdicts, which are
valid results), 2 invalid configuration (non-finite numbers and inputs whose
arithmetic overflows included), 3 a guard refused the job: the n <= 6 size
guard without --force (exact and expand only), or the connected-set budget.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile
from pathlib import Path
from typing import Sequence

# Module level although only `exact` needs numpy: bench/run.py reads a child's
# peak RSS only above its own, and a numpy-free start-up stays below it.
from .ensemble import _fmt, ensemble_result, results_csv
from .graphs import (
    GuardExceeded,
    Motif,
    SimpleGraph,
    graph_from_json,
    hom_count,
    load_motif,
)
from .lattice import exact_hom_count, freeze_sites, representation_check


def render_json(obj, indent: int = 0) -> str:
    """Deterministic JSON with 17-significant-digit floats.

    Dict key order is preserved (all emitters build dicts in canonical
    order); non-finite floats become null.
    """
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return _fmt(obj) if math.isfinite(obj) else "null"
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        rows = [f"{inner}{json.dumps(str(k))}: {render_json(v, indent + 1)}"
                for k, v in obj.items()]
        return "{\n" + ",\n".join(rows) + f"\n{pad}}}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        rows = [f"{inner}{render_json(v, indent + 1)}" for v in obj]
        return "[\n" + ",\n".join(rows) + f"\n{pad}]"
    raise TypeError(f"cannot render {type(obj).__name__} as JSON")


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


def _kv_csv(pairs: Sequence[tuple[str, object]]) -> str:
    lines = ["key,value"]
    for k, v in pairs:
        if isinstance(v, bool):
            s = "true" if v else "false"
        elif isinstance(v, float):
            s = _fmt(v) if math.isfinite(v) else ""
        elif v is None:
            s = ""
        else:
            s = str(v)
        lines.append(f"{k},{s}")
    return "\n".join(lines) + "\n"


def _load_config(ns: argparse.Namespace) -> dict:
    if not getattr(ns, "config", None):
        return {}
    data = json.loads(Path(ns.config).read_text())
    if not isinstance(data, dict):
        raise ValueError("config file must hold a JSON object")
    return data


def _opt(ns: argparse.Namespace, cfg: dict, key: str, default=None):
    val = getattr(ns, key, None)
    if val is not None:
        return val
    return cfg.get(key, default)


def _flag(ns: argparse.Namespace, cfg: dict, key: str) -> bool:
    return bool(getattr(ns, key, False) or cfg.get(key, False))


def _motifs(ns: argparse.Namespace, cfg: dict) -> list[Motif]:
    specs = _opt(ns, cfg, "motifs")
    if not specs:
        raise ValueError("at least one motif is required")
    return [load_motif(str(s)) for s in specs]


def _finite(key: str, val) -> float:
    """The one boundary check for real-valued inputs: a finite float."""
    x = float(val)
    if not math.isfinite(x):
        raise ValueError(f"--{key} must be finite, got {val!r}")
    return x


def _betas(ns: argparse.Namespace, cfg: dict) -> list[float]:
    vals = _opt(ns, cfg, "betas")
    if vals is None:
        raise ValueError("parameter values are required")
    return [_finite("betas", b) for b in vals]


def _need_int(ns: argparse.Namespace, cfg: dict, key: str) -> int:
    val = _opt(ns, cfg, key)
    if val is None:
        raise ValueError(f"missing required option --{key.replace('_', '-')}")
    return int(val)


def _graph(ns: argparse.Namespace, cfg: dict) -> SimpleGraph | None:
    src = _opt(ns, cfg, "graph")
    if src is None:
        return None
    return graph_from_json(Path(str(src)).read_text())


def _emit(ns: argparse.Namespace, cfg: dict, json_doc, csv_text: str) -> None:
    out = _opt(ns, cfg, "out")
    if out is None:
        return
    fmt = _opt(ns, cfg, "format", "json")
    if fmt == "json":
        write_artifact(out, render_json(json_doc) + "\n")
    elif fmt == "csv":
        write_artifact(out, csv_text)
    else:
        raise ValueError(f"unknown format {fmt!r}")


def cmd_density(ns: argparse.Namespace) -> int:
    cfg = _load_config(ns)
    spec = _opt(ns, cfg, "motif")
    if spec is None:
        raise ValueError("--motif is required")
    H = load_motif(str(spec))
    G = _graph(ns, cfg)
    n_opt = _opt(ns, cfg, "n")
    sites = _opt(ns, cfg, "sites")
    if sites is not None:
        n = G.n if G is not None else (int(n_opt) if n_opt is not None else None)
        if n is None:
            raise ValueError("--sites needs --graph or --n to fix the vertex count")
    elif G is None:
        raise ValueError("--graph is required without --sites")
    else:
        n = G.n
        if n_opt is not None and int(n_opt) != n:
            raise ValueError(f"--n {n_opt} disagrees with the graph file (n={n})")
    # A density divides by n^m, which is 0 at n = 0.
    if n < 1:
        raise ValueError(f"need n >= 1 vertices, got n={n}")
    if sites is not None:
        pairs = json.loads(sites) if isinstance(sites, str) else sites
        X = freeze_sites([tuple(int(v) for v in e) for e in pairs], n)
        num, kind = exact_hom_count(H, X, n), "exact"
    else:
        num, kind = hom_count(H, G), "hom"
    den = n ** H.m
    print(f"{num}/{den}")
    doc = {"motif": H.name, "kind": kind, "n": n,
           "numerator": num, "denominator": den, "value": num / den}
    csv_text = _kv_csv([("motif", H.name), ("kind", kind), ("n", n),
                        ("numerator", num), ("denominator", den),
                        ("value", num / den)])
    _emit(ns, cfg, doc, csv_text)
    return 0


def cmd_represent(ns: argparse.Namespace) -> int:
    cfg = _load_config(ns)
    spec = _opt(ns, cfg, "motif")
    if spec is None:
        raise ValueError("--motif is required")
    H = load_motif(str(spec))
    G = _graph(ns, cfg)
    if G is None:
        raise ValueError("--graph is required")
    num = hom_count(H, G)
    den = G.n ** H.m
    holds = representation_check(H, G)
    print(f"t = {num}/{den}")
    print(f"subset decomposition matches: {'yes' if holds else 'NO'}")
    doc = {"motif": H.name, "n": G.n, "numerator": num,
           "denominator": den, "holds": holds}
    csv_text = _kv_csv([("motif", H.name), ("n", G.n), ("numerator", num),
                        ("denominator", den), ("holds", holds)])
    _emit(ns, cfg, doc, csv_text)
    return 0 if holds else 1


def cmd_exact(ns: argparse.Namespace) -> int:
    cfg = _load_config(ns)
    motifs = _motifs(ns, cfg)
    betas = _betas(ns, cfg)
    n = _need_int(ns, cfg, "n")
    force = _flag(ns, cfg, "force")
    res = ensemble_result(motifs, betas, n, force=force)
    print(f"psi_{n} = {_fmt(res.psi)}")
    print(f"phi_{n} = {_fmt(res.phi)}")
    for H, e in zip(motifs, res.expectations):
        print(f"E[{H.name}] = {_fmt(e)}")
    doc = {
        "n": res.n,
        "motifs": [H.name for H in motifs],
        "betas": list(res.betas),
        "psi_n": res.psi,
        "phi_n": res.phi,
        "log_w_normalized": res.log_w_normalized,
        "expectations": list(res.expectations),
    }
    _emit(ns, cfg, doc, results_csv([res]))
    return 0


def cmd_expand(ns: argparse.Namespace) -> int:
    from .expansion import expansion_report, report_jsonable

    cfg = _load_config(ns)
    motifs = _motifs(ns, cfg)
    betas = _betas(ns, cfg)
    n = _need_int(ns, cfg, "n")
    order = int(_opt(ns, cfg, "order", 4))
    max_links = int(_opt(ns, cfg, "max_links", 4))
    head_links = _opt(ns, cfg, "head_links")
    head_links = None if head_links is None else int(head_links)
    M = _opt(ns, cfg, "M")
    M = None if M is None else _finite("M", M)
    force = _flag(ns, cfg, "force")
    report = expansion_report(motifs, betas, n, order=order, max_links=max_links,
                              M=M, head_links=head_links, force=force)
    doc = report_jsonable(report)
    for row in report.orders:
        tb = "n/a" if row.tail_bound is None or not math.isfinite(row.tail_bound) \
            else _fmt(row.tail_bound)
        print(f"order {row.order}: partial = {_fmt(row.partial_sum)}, "
              f"gap = {_fmt(row.gap_to_exact)}, tail bound = {tb}")
    cert = report.certificate
    state = "pass" if cert.verdict else "FAIL"
    print(f"KP check at M = {_fmt(cert.M)}: max site sum = {_fmt(cert.max_site_sum)}, "
          f"log M = {_fmt(cert.log_m)}, verdict = {state}")
    if not cert.verdict and cert.reason:
        print(f"  reason: {cert.reason}")
    if report.beta_budget is not None:
        print(f"beta budget at this M = {_fmt(report.beta_budget)}")
    lines = ["order,partial_sum,gap_to_exact,tail_bound"]
    for row in report.orders:
        tb = "" if row.tail_bound is None or not math.isfinite(row.tail_bound) \
            else _fmt(row.tail_bound)
        lines.append(f"{row.order},{_fmt(row.partial_sum)},{_fmt(row.gap_to_exact)},{tb}")
    _emit(ns, cfg, doc, "\n".join(lines) + "\n")
    return 0


def cmd_region(ns: argparse.Namespace) -> int:
    from .coefficients import optimal_M, region_bound

    cfg = _load_config(ns)
    p = _need_int(ns, cfg, "p")
    m = _need_int(ns, cfg, "m")
    M = _opt(ns, cfg, "M")
    chose = M is None
    M = optimal_M(p) if chose else _finite("M", M)
    budget = region_bound(p, m, M)
    label = "optimal M" if chose else "M"
    print(f"{label} = {_fmt(M)}")
    print(f"log M = {_fmt(math.log(M))}")
    print(f"beta budget = {_fmt(budget)}")
    doc = {"p": p, "m": m, "M": M, "logM": math.log(M), "beta_budget": budget}
    csv_text = _kv_csv([("p", p), ("m", m), ("M", M),
                        ("logM", math.log(M)), ("beta_budget", budget)])
    _emit(ns, cfg, doc, csv_text)
    return 0


def cmd_coeffs(ns: argparse.Namespace) -> int:
    from .coefficients import (abar_recursion, coefficient_tail, generating_function_check,
                               optimal_M, radius_and_tail)

    cfg = _load_config(ns)
    p = _need_int(ns, cfg, "p")
    norm = _opt(ns, cfg, "norm")
    if norm is None:
        raise ValueError("--norm is required")
    norm = _finite("norm", norm)
    M = _opt(ns, cfg, "M")
    if M is None:
        if p < 2:
            raise ValueError("--M is required when p = 1 (no interior optimum)")
        M = optimal_M(p)
    else:
        M = _finite("M", M)
    n_max = int(_opt(ns, cfg, "n_max", 30))
    table = abar_recursion(p, norm, M, n_max)
    # radius_and_tail overflows for large p; fail before the O(p n_max^2) check.
    radius = radius_and_tail(p, norm, M)[0] if p >= 2 else None
    checked = generating_function_check(p, min(n_max, 30))
    tail = coefficient_tail(table, n_max)
    divergent = math.isinf(tail)
    print(f"c = {_fmt(table.c)}")
    if radius is not None:
        print(f"norm radius = {_fmt(radius)}")
    if divergent:
        print(f"tail beyond n = {n_max}: divergent")
    else:
        print(f"tail beyond n = {n_max}: {_fmt(tail)}")
    print(f"series identity check: {'ok' if checked else 'FAILED'}")
    rows = [{"n": i, "gamma": f"{table.gamma[i].numerator}/{table.gamma[i].denominator}",
             "abar": table.abar(i)} for i in range(1, table.n_max + 1)]
    doc = {"p": p, "norm": norm, "M": M, "c": table.c,
           "radius": radius, "tail_beyond_n_max": None if divergent else tail,
           "divergent": divergent, "series_check": checked, "rows": rows}
    lines = ["n,gamma,abar"]
    for r in rows:
        lines.append(f"{r['n']},{r['gamma']},{_fmt(r['abar'])}")
    _emit(ns, cfg, doc, "\n".join(lines) + "\n")
    return 0


def _add_common(sub: argparse.ArgumentParser, force: bool = False) -> None:
    sub.add_argument("--out", help="artifact path (written atomically)")
    sub.add_argument("--format", choices=("csv", "json"),
                     help="artifact format (default json)")
    sub.add_argument("--config", help="JSON config file; flags override it")
    if force:
        sub.add_argument("--force", action="store_true", default=None,
                         help="run past the n <= 6 size guard")


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
    s.add_argument("--head-links", type=int, dest="head_links",
                   help="exact head depth of the certificate (default max-links)")
    s.add_argument("--M", type=float, help="weight base (default optimal)")
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
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    ns = parser.parse_args(argv)
    try:
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
