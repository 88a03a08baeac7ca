"""Command-line front end.

Four commands: ``algebra show`` inspects a presentation, ``explore``
enumerates the exchange quiver, ``tors`` assembles the torsion Hasse
diagram for supported families, and ``verify`` reruns the headline counts
and poset isomorphisms with a pass/fail table.

Exit codes: 0 success (including INCOMPLETE explorations, which are a
legitimate result and carry a machine-readable flag), 2 verification
failure, 3 input error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys

from . import __version__
from . import explorer as ex
from . import orders
from .algebra import AlgebraBuildError, algebra_from_dict, FiniteDimAlgebra
from .exactmat import DEFAULT_PRIME, check_field_prime

EXIT_OK = 0
EXIT_VERIFY_FAIL = 2
EXIT_INPUT_ERROR = 3

# Part of every cache key: bump it when the cached document changes shape.
CACHE_FORMAT = 1


class InputError(Exception):
    pass


def _add_source_args(sub):
    sub.add_argument("--builtin", choices=orders.BUILTIN_FAMILIES,
                     help="built-in family name")
    sub.add_argument("--n", type=int, default=None,
                     help="family parameter (hereditary, auslander_bass_v)")
    sub.add_argument("--file", help="algebra description file (JSON)")
    sub.add_argument("--prime", type=int, default=None,
                     help=f"field characteristic (default {DEFAULT_PRIME})")


def _add_run_args(sub):
    sub.add_argument("--max-nodes", type=int, default=ex.DEFAULT_MAX_NODES)
    sub.add_argument("--max-depth", type=int, default=ex.DEFAULT_MAX_DEPTH)
    sub.add_argument("--format", choices=("text", "dot", "json"), default="text")
    sub.add_argument("--out", help="write dot/json output to this path")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="silt",
        description="silting complexes, silting modules and torsion-class posets "
                    "of quiver algebras")
    sub = ap.add_subparsers(dest="command", required=True)

    p_alg = sub.add_parser("algebra", help="inspect an algebra presentation")
    p_alg.add_argument("action", choices=("show",))
    _add_source_args(p_alg)

    p_exp = sub.add_parser("explore", help="enumerate the exchange quiver")
    _add_source_args(p_exp)
    _add_run_args(p_exp)
    p_exp.add_argument("--cache", help="cache directory for exploration JSON")

    p_tors = sub.add_parser("tors", help="assemble the torsion-class Hasse diagram")
    _add_source_args(p_tors)
    _add_run_args(p_tors)

    p_ver = sub.add_parser("verify", help="re-run the headline checks")
    p_ver.add_argument("family",
                       choices=("hereditary", "weak-order", "reduction",
                                "figures", "all"))
    p_ver.add_argument("--max-n", type=int, default=None)
    p_ver.add_argument("--n", type=int, default=None)
    p_ver.add_argument("--prime", type=int, default=None)
    return ap


def _resolve_algebra(args) -> FiniteDimAlgebra:
    p = args.prime
    if p is not None:
        check_field_prime(p)
    if args.builtin and args.file:
        raise InputError("choose either --builtin or --file, not both")
    parametrised = ("hereditary", "auslander_bass_v")
    if args.n is not None and (args.file or args.builtin) and args.builtin not in parametrised:
        source = f"--builtin {args.builtin}" if args.builtin else "--file"
        raise InputError(f"--n applies to --builtin hereditary and auslander_bass_v only, "
                         f"not {source}")
    if args.builtin:
        return orders.builtin_algebra(args.builtin, args.n,
                                      p if p is not None else DEFAULT_PRIME)
    if args.file:
        try:
            with open(args.file) as fh:
                doc = json.load(fh)
        except OSError as exc:
            raise InputError(f"cannot read {args.file}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise InputError(
                f"{args.file}:{exc.lineno}:{exc.colno}: invalid JSON: {exc.msg}"
            ) from exc
        return algebra_from_dict(doc, p)
    raise InputError("an algebra source is required: --builtin NAME or --file PATH")


def _source_name(args) -> str:
    if args.builtin:
        return args.builtin + (f"(n={args.n})" if args.n is not None else "")
    return args.file


# ---- algebra show ---------------------------------------------------------------


def cmd_algebra_show(args) -> int:
    alg = _resolve_algebra(args)
    q = alg.quiver
    print(f"algebra: {_source_name(args)}  p={alg.p}")
    print(f"dimension {alg.dimension}")
    print(f"vertices: {', '.join(q.vertices)}")
    arrows = ", ".join(f"{l}: {s}->{t}" for l, s, t in q.arrows)
    print(f"arrows: {arrows if arrows else '(none)'}")
    print("basis paths:")
    for i in range(q.n_vertices):
        for j in range(q.n_vertices):
            gids = alg.pair_basis(i, j)
            if gids:
                names = ", ".join(alg.basis_name(g) for g in gids)
                print(f"  {q.vertices[i]} -> {q.vertices[j]}: {names}")
    print("projective dimension vectors:")
    for v in range(q.n_vertices):
        print(f"  P_{q.vertices[v]}: {list(alg.projective(v).dims)}")
    return EXIT_OK


# ---- explore --------------------------------------------------------------------


def _cache_key(alg: FiniteDimAlgebra, limits: ex.ExploreLimits) -> str:
    payload = json.dumps({"algebra": alg.to_json_dict(), "p": alg.p,
                          "max_nodes": limits.max_nodes,
                          "max_depth": limits.max_depth,
                          "version": __version__, "format": CACHE_FORMAT},
                         sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()[:24]


def _cache_dir(args) -> str | None:
    return os.environ.get("SILT_CACHE") or args.cache


def _run_exploration(alg, args) -> tuple[str, ex.ExchangeQuiver | None]:
    """Exploration JSON, from cache when possible; the quiver on cold runs."""
    limits = ex.ExploreLimits(args.max_nodes, args.max_depth)
    cache = _cache_dir(args)
    path = None
    if cache:
        os.makedirs(cache, exist_ok=True)
        path = os.path.join(cache, _cache_key(alg, limits) + ".json")
        text = _read_cached(path, alg)
        if text is not None:
            return text, None
    eq = ex.explore(alg, limits)
    text = ex.to_json(eq)
    if path:
        _write_atomic(path, text)
    return text, eq


def _read_cached(path: str, alg: FiniteDimAlgebra) -> str | None:
    """The cached exploration JSON of ``alg``, or ``None`` on a miss.

    A missing file, one that does not parse (a truncated write, say), one
    that lacks a top-level field and one that describes another algebra
    are all misses, which the caller explores again and overwrites.
    """
    try:
        with open(path) as fh:
            text = fh.read()
        doc = json.loads(text)   # ValueError covers bad JSON and bad UTF-8
    except (FileNotFoundError, ValueError):
        return None
    if (isinstance(doc, dict) and {"complete", "nodes", "edges"} <= doc.keys()
            and doc.get("algebra") == alg.to_json_dict()):
        return text
    return None


def _write_atomic(path: str, text: str):
    """Write through a temporary file in the same directory, then rename.

    A crash mid-write leaves at most the temporary file, never a truncated
    ``path`` that a later run would read as a cache hit.
    """
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _emit(args, text_payload: str):
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text_payload)
    else:
        sys.stdout.write(text_payload)


def cmd_silt_explore(args) -> int:
    alg = _resolve_algebra(args)
    json_text, eq = _run_exploration(alg, args)
    doc = json.loads(json_text)
    nv = alg.quiver.n_vertices
    n_sincere = sum(1 for nd in doc["nodes"] if len(nd["summands"]) == nv)
    print(f"algebra: {_source_name(args)}  p={alg.p}  dimension={alg.dimension}")
    print(f"{len(doc['nodes'])} silting modules")
    print(f"{len(doc['edges'])} mutation edges")
    if doc["complete"]:
        print("exploration COMPLETE")
    else:
        print("INCOMPLETE (node or depth limit reached)")
    print(f"sincere: {n_sincere}, non-sincere: {len(doc['nodes']) - n_sincere}")
    if eq is not None and doc["complete"]:
        print(f"hasse check: {'OK' if ex.hasse_check(eq) else 'FAILED'}")
    if args.format == "json":
        _emit(args, json_text)
    elif args.format == "dot":
        _emit(args, ex.doc_to_dot(doc))
    return EXIT_OK


# ---- tors -----------------------------------------------------------------------


def cmd_tors_assemble(args) -> int:
    if args.builtin != "hereditary":
        raise InputError(
            "torsion-class assembly is only supported for --builtin hereditary: "
            "it needs the finite-length = non-sincere dictionary and a "
            "Morita-local generic fibre, which other families do not guarantee")
    alg = _resolve_algebra(args)
    eq = ex.explore(alg, ex.ExploreLimits(args.max_nodes, args.max_depth))
    if not eq.complete:
        raise InputError("exploration hit its limits; raise --max-nodes/--max-depth")
    sincere = orders.classify_sincere(eq)
    th = orders.assemble_tors_hasse(eq, sincere)
    print(f"algebra: {_source_name(args)}  p={alg.p}")
    print(f"{len(th.nodes)} torsion classes")
    print(f"{len(th.edges)} cover relations")
    if args.format == "json":
        _emit(args, json.dumps(orders.tors_hasse_json_doc(th),
                               sort_keys=True, separators=(",", ":")) + "\n")
    elif args.format == "dot":
        _emit(args, orders.tors_hasse_dot(th, eq))
    return EXIT_OK


# ---- verify ---------------------------------------------------------------------


def _verify_hereditary(max_n: int, p: int, rows: list):
    for n in range(1, max_n + 1):
        eq = ex.explore(orders.hereditary_reduction(n, p))
        want = math.comb(2 * n, n)
        rows.append((f"hereditary n={n}: silting count", want, len(eq.nodes)))
        sincere = orders.classify_sincere(eq)
        rows.append((f"hereditary n={n}: sincere == non-sincere",
                     len(eq.nodes) // 2, sum(sincere)))
        th = orders.assemble_tors_hasse(eq, sincere)
        rows.append((f"hereditary n={n}: torsion classes", 3 * want // 2,
                     len(th.nodes)))
        rows.append((f"hereditary n={n}: exchange = Hasse", True,
                     ex.hasse_check(eq)))


def _verify_weak_order(max_n: int, p: int, rows: list):
    for n in range(0, max_n + 1):
        eq = ex.explore(orders.auslander_bass_v_reduction(n, p))
        rows.append((f"auslander n={n}: silting count", math.factorial(n + 2),
                     len(eq.nodes)))
        rows.append((f"auslander n={n}: exchange = Hasse", True,
                     ex.hasse_check(eq)))
        rows.append((f"auslander n={n}: weak order poset of degree {n + 2}", True,
                     orders.poset_isomorphic(eq, orders.weak_order_hasse(n + 2))))


def _verify_reduction(ns: list[int], p: int, rows: list):
    for n in ns:
        base = ex.explore(orders.cyclic_nakayama(n, n, p))
        doubled = ex.explore(orders.cyclic_nakayama(n, 2 * n, p))
        rows.append((f"reduction n={n}: squared-bound poset agrees", True,
                     orders.poset_isomorphic(base, doubled)))


def _verify_figures(p: int, rows: list):
    eq = ex.explore(orders.triangular_example_reduction(p))
    rows.append(("triangular_a2: silting count", 5, len(eq.nodes)))
    rows.append(("triangular_a2: mutation edges", 5, len(eq.edges)))
    rows.append(("triangular_a2: exchange = Hasse", True, ex.hasse_check(eq)))
    eq = ex.explore(orders.bass_v_reduction(p))
    rows.append(("bass_v: silting count", 6, len(eq.nodes)))
    rows.append(("bass_v: mutation edges", 6, len(eq.edges)))
    rows.append(("bass_v: exchange = Hasse", True, ex.hasse_check(eq)))


def _bounded(value: int | None, default: int | None, minimum: int,
             option: str) -> int | None:
    """``value``, or ``default`` when the option was not given."""
    if value is not None and value < minimum:
        raise InputError(f"{option} must be at least {minimum}, got {value}")
    return default if value is None else value


def cmd_verify(args) -> int:
    p = args.prime if args.prime is not None else DEFAULT_PRIME
    check_field_prime(p)
    if args.n is not None and args.family != "reduction":
        raise InputError(f"--n applies to the reduction family only, not {args.family}")
    if args.max_n is not None and args.family in ("reduction", "figures"):
        raise InputError(f"--max-n does not apply to the {args.family} family")
    rows: list[tuple[str, object, object]] = []
    if args.family == "hereditary":
        _verify_hereditary(_bounded(args.max_n, 4, 1, "--max-n"), p, rows)
    elif args.family == "weak-order":
        _verify_weak_order(_bounded(args.max_n, 2, 0, "--max-n"), p, rows)
    elif args.family == "reduction":
        n = _bounded(args.n, None, 1, "--n")
        _verify_reduction([n] if n is not None else [1, 2, 3], p, rows)
    elif args.family == "figures":
        _verify_figures(p, rows)
    else:
        _verify_figures(p, rows)
        _verify_hereditary(_bounded(args.max_n, 4, 1, "--max-n"), p, rows)
        _verify_weak_order(2, p, rows)
        _verify_reduction([1, 2, 3], p, rows)
    width = max(len(r[0]) for r in rows)
    ok = True
    for name, want, got in rows:
        good = want == got
        ok = ok and good
        status = "ok" if good else "MISMATCH"
        print(f"{name:<{width}}  expected {want!r:>6}  computed {got!r:>6}  {status}")
    print("PASS" if ok else "FAIL")
    return EXIT_OK if ok else EXIT_VERIFY_FAIL


# ---- entry point -----------------------------------------------------------------


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        if args.command == "algebra":
            return cmd_algebra_show(args)
        if args.command == "explore":
            return cmd_silt_explore(args)
        if args.command == "tors":
            return cmd_tors_assemble(args)
        if args.command == "verify":
            return cmd_verify(args)
        raise InputError(f"unknown command {args.command!r}")
    except (InputError, AlgebraBuildError, ValueError, OSError) as exc:
        # OSError: a --cache or --out path that cannot be created or written
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
