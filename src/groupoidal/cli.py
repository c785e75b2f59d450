"""Command line interface: JSON model files in, tables or canonical JSON out.

Exit codes: 0 success, 2 for usage/parse/validation problems, 3 when a
requested verification ran but failed.  All output is pure-integer data;
JSON is emitted with a fixed key order so identical inputs produce
byte-identical bytes.

The argument parser is built once per process (`build_parser` is cached)
and holds no per-call state, so `main` can be called repeatedly in one
process, as the tests and the benchmark do, without rebuilding it.
"""

from __future__ import annotations

import argparse
import functools
import json
import random
import re
import sys
from typing import List, Optional

from . import cohomology as coh
from . import homology as hom
from . import limits as lim
from . import models, skew
from .groupoids import (Budget, FiniteGroupoid, GModule, GroupoidError,
                        require_module_work, require_nerve_work, tuple_cap,
                        validate_groupoid, validate_module)
from .zlinalg import FgAbGroup, IntMatrix, LinAlgError


class ParseError(Exception):
    pass


class ValidationError(Exception):
    pass


VERIFICATION_FAILED = 3
USAGE_ERROR = 2


# -- input files ---------------------------------------------------------------


def _load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise ParseError(f"{path}: file not found")
    except json.JSONDecodeError as e:
        raise ParseError(f"{path}: line {e.lineno}: {e.msg}")
    except ValueError as e:  # not UTF-8, or an integer of too many digits to convert
        raise ParseError(f"{path}: {e}")
    except RecursionError:
        raise ParseError(f"{path}: nested too deeply")


def _field(doc: dict, name: str, path: str):
    if not isinstance(doc, dict):
        raise ParseError(f"{path}: expected an object with field '{name}'")
    if name not in doc:
        raise ParseError(f"{path}: missing field '{name}'")
    return doc[name]


def _is_int(value) -> bool:
    """Whether a parsed JSON value is an integer: JSON's true and false
    load as bools, which Python counts as ints, and 2.0 loads as a float."""
    return isinstance(value, int) and not isinstance(value, bool)


def _int(value, what: str, path: str) -> int:
    if not _is_int(value):
        raise ParseError(f"{path}: {what} must be an integer, got {value!r}")
    return value


def _object(doc: dict, name: str, path: str) -> dict:
    value = _field(doc, name, path)
    if not isinstance(value, dict):
        raise ParseError(f"{path}: {name} must be an object")
    return value


def _int_rows(rows, what: str, path: str) -> list:
    if not (isinstance(rows, list) and all(
            isinstance(r, list) and all(_is_int(v) for v in r) for r in rows)):
        raise ParseError(f"{path}: {what} must be a list of integer rows")
    return rows


def _int_matrix(rows, what: str, path: str) -> IntMatrix:
    return IntMatrix.from_rows(_int_rows(rows, what, path))


def _list(doc: dict, name: str, path: str) -> list:
    value = _field(doc, name, path)
    if not isinstance(value, list):
        raise ParseError(f"{path}: {name} must be a list")
    return value


def parse_input(path: str):
    """Parse a model file into a groupoid or a Bratteli diagram."""
    doc = _load_json(path)
    kind = _field(doc, "kind", path)
    if kind == "explicit":
        return _parse_explicit(doc, path)
    if kind == "group":
        try:
            return models.group_groupoid(_int_rows(_field(doc, "cayley", path), "cayley", path))
        except models.NotAGroup as e:
            raise ValidationError(f"{path}: {e}")
    if kind == "pair":
        fibers = _field(doc, "fibers", path)
        if not isinstance(fibers, list):
            raise ParseError(f"{path}: fibers must be a list of positive integers")
        for x, size in enumerate(fibers):
            if not _is_int(size) or size < 1:
                raise ParseError(f"{path}: fibers[{x}] must be a positive integer")
        # the points are passed one at a time and charged as they are read,
        # so a fiber past the cap is never listed
        return models.pair_groupoid_from_map(
            x for x, size in enumerate(fibers) for _ in range(size))
    if kind == "action":
        try:
            return models.action_groupoid(
                _int_rows(_field(doc, "cayley", path), "cayley", path),
                _int_rows(_field(doc, "perms", path), "perms", path))
        except (models.NotAGroup, models.NotAnAction) as e:
            raise ValidationError(f"{path}: {e}")
    if kind == "bratteli":
        return _parse_bratteli(doc, path)
    raise ParseError(f"{path}: unknown kind '{kind}'")


def _arrow_ids(doc: dict, name: str, path: str, n: int) -> list:
    values = _field(doc, name, path)
    if not (isinstance(values, list)
            and all(_is_int(v) and 0 <= v < n for v in values)):
        raise ParseError(f"{path}: {name} must be a list of arrow ids in 0..{n - 1}")
    return values


def _parse_explicit(doc: dict, path: str) -> FiniteGroupoid:
    n = _field(doc, "arrows", path)
    if not _is_int(n) or n < 0:
        raise ParseError(f"{path}: arrows must be a non-negative integer")
    src, rng, inv, units = (_arrow_ids(doc, name, path, n)
                            for name in ("src", "rng", "inv", "units"))
    triples = _field(doc, "compose", path)
    if len(src) != n or len(rng) != n or len(inv) != n:
        raise ParseError(f"{path}: src/rng/inv must have length {n}")
    unit_set = set(units)
    for name, ends in (("src", src), ("rng", rng)):
        for g, u in enumerate(ends):
            if u not in unit_set:
                raise ValidationError(f"{path}: {name}[{g}] = {u} is not a unit")
    if not isinstance(triples, list):
        raise ParseError(f"{path}: compose must be a list of triples")
    comp = {}
    for t in triples:
        if not (isinstance(t, list) and len(t) == 3
                and all(_is_int(v) and 0 <= v < n for v in t)):
            raise ParseError(f"{path}: malformed compose triple {t}")
        gh = comp.setdefault((t[0], t[1]), t[2])
        if gh != t[2]:
            raise ParseError(f"{path}: compose lists the pair ({t[0]}, {t[1]}) "
                             f"twice, as {gh} and {t[2]}")
    G = FiniteGroupoid(src, rng, comp, inv, units)
    rep = validate_groupoid(G)
    if not rep.ok:
        raise ValidationError(f"{path}: {rep.message()}")
    return G


def _parse_bratteli(doc: dict, path: str):
    stationary = doc.get("stationary", False)
    if "p" in doc:
        if not stationary:
            raise ParseError(f"{path}: integer multiplicity requires stationary")
        try:
            return models.bratteli_stationary(
                _int(doc["p"], "p", path), _int(doc.get("levels", 1), "levels", path))
        except models.MalformedDiagram as e:
            raise ValidationError(f"{path}: {e}")
    mats = [_int_matrix(m, "matrices", path) for m in _list(doc, "matrices", path)]
    try:
        if stationary:
            if not mats:
                raise ParseError(f"{path}: a stationary diagram needs a matrix")
            return models.bratteli_stationary(
                mats[0], _int(doc.get("levels", len(mats)), "levels", path))
        counts = [_int(c, "vertex_counts", path) for c in _list(doc, "vertex_counts", path)]
        return models.BratteliDiagram(counts, mats, stationary=False)
    except models.MalformedDiagram as e:
        raise ValidationError(f"{path}: {e}")


def _known_keys(doc: dict, keys, what: str, path: str) -> None:
    """Refuse a key of doc that is not in keys, naming it."""
    for key in doc:
        if key not in keys:
            raise ParseError(f"{path}: {what} has an unknown key {key[:40]!r}")


def parse_module(path: str, G: FiniteGroupoid) -> GModule:
    """Parse a module file over G.  Before any action is built, the work of
    validating it through the isotropy groups (`require_module_work`, the
    products `validate_module` runs) is charged; every command that reads
    a module charges its own nerve work before building on it.  A key that
    names no unit or arrow is refused."""
    doc = _load_json(path)
    fibers_doc = _object(doc, "fibers", path)
    _known_keys(doc, ("fibers", "action"), "the module", path)
    _known_keys(fibers_doc, {str(u) for u in G.units}, "fibers", path)
    fibers = {}
    for u in G.units:
        key = str(u)
        if key not in fibers_doc:
            raise ParseError(f"{path}: missing fiber rank for unit {u}")
        fibers[u] = _int(fibers_doc[key], f"fibers[{key}]", path)
        if fibers[u] < 0:
            raise ParseError(f"{path}: fibers[{key}] must be a non-negative integer")
    require_module_work(G, fibers)
    action_doc = _object(doc, "action", path) if "action" in doc else {}
    _known_keys(action_doc, {str(g) for g in range(G.n_arrows)}, "action", path)
    action = {}
    for g in range(G.n_arrows):
        key = str(g)
        if key in action_doc:
            action[g] = _int_matrix(action_doc[key], f"action[{key}]", path)
        else:
            if fibers[G.src[g]] != fibers[G.rng[g]]:
                raise ParseError(f"{path}: arrow {g} needs an explicit action")
            action[g] = IntMatrix.identity(fibers[G.src[g]])
    M = GModule(G, fibers, action)
    rep = validate_module(G, M)
    if not rep.ok:
        raise ValidationError(f"{path}: {rep.message()}")
    return M


def parse_cocycle(path: str, G: FiniteGroupoid) -> skew.ZCocycle:
    doc = _load_json(path)
    values_doc = _object(doc, "values", path)
    _known_keys(doc, ("values",), "the cocycle", path)
    _known_keys(values_doc, {str(g) for g in range(G.n_arrows)}, "values", path)
    values = [_int(values_doc.get(str(g), 0), f"values[{g}]", path)
              for g in range(G.n_arrows)]
    c = skew.ZCocycle.from_values(values)
    rep = skew.validate_cocycle(G, c)
    if not rep.ok:
        raise ValidationError(f"{path}: {rep.message()}")
    return c


# -- output --------------------------------------------------------------------


def group_dict(g: FgAbGroup) -> dict:
    return {"free_rank": g.free_rank, "torsion": list(g.torsion)}


def degree_list(groups: List[FgAbGroup], start: int = 0) -> list:
    return [{"degree": n + start, **group_dict(g)} for n, g in enumerate(groups)]


def emit(payload: dict, fmt: str, table_lines: List[str]) -> None:
    if fmt == "json":
        sys.stdout.write(json.dumps(payload, indent=2) + "\n")
    else:
        sys.stdout.write("\n".join(table_lines) + "\n")


def _group_table(title: str, sym: str, groups: List[FgAbGroup]) -> List[str]:
    lines = [title]
    for n, g in enumerate(groups):
        lines.append(f"  {sym}{n}  {g}")
    return lines


# -- commands --------------------------------------------------------------------


def _require_groupoid(obj, name: str) -> FiniteGroupoid:
    if not isinstance(obj, FiniteGroupoid):
        raise ParseError(f"{name}: expected a groupoid model file")
    return obj


def cmd_homology(args) -> int:
    G = _require_groupoid(parse_input(args.input), args.input)
    coeff = None
    label = "Z"
    if args.coefficients not in (None, "Z"):
        match = re.fullmatch(r"Z/([0-9]+)", args.coefficients)
        if match is None:
            raise ParseError("coefficients must be Z or Z/m")
        try:
            coeff = int(match.group(1))
        except ValueError:  # more digits than Python converts to an int
            raise ParseError("coefficients Z/m: m has too many digits")
        label = f"Z/{coeff}"
    groups = hom.homology_groups(G, args.max_degree, coefficients=coeff)
    payload = {"command": "homology", "input": args.input,
               "coefficients": label, "groups": degree_list(groups)}
    emit(payload, args.format, _group_table(f"homology with {label} coefficients",
                                            "H_", groups))
    return 0


def cmd_cohomology(args) -> int:
    G = _require_groupoid(parse_input(args.input), args.input)
    # the module is validated, and its cochains built, through G's isotropy
    M = parse_module(args.module, G) if args.module else models.constant_module(G, 1)
    groups = coh.cocycle_cohomology(G, M, args.max_degree)
    payload = {"command": "cohomology", "input": args.input,
               "module": args.module or "constant rank 1",
               "groups": degree_list(groups)}
    emit(payload, args.format, _group_table("cocycle cohomology", "H^", groups))
    return 0


def cmd_verify_theta(args) -> int:
    if args.module and not args.input:
        raise ParseError("--module needs an input model; random instances draw their own")
    instances = []
    if args.input:
        G = _require_groupoid(parse_input(args.input), args.input)
        M = parse_module(args.module, G) if args.module else models.constant_module(G, 1)
        instances.append((args.input, G, M))
    else:
        rng = random.Random(args.seed)
        # the instances' work is summed and refused before any is checked:
        # each costs at least (n + 1)^2 in every degree n <= max_degree + 1
        # (`require_nerve_work`), a floor charged for all before any is drawn
        top = args.max_degree + 2
        floor = top * (top + 1) * (2 * top + 1) // 6
        budget = Budget(f"--count {args.count} instances")
        budget.charge(args.count * floor)
        for i in range(args.count):
            G = models.random_groupoid(rng)
            M = models.random_module(G, rng)
            budget.charge(require_nerve_work(G, args.max_degree + 1, M.fiber_rank) - floor)
            instances.append((f"random[{i}]", G, M))
    results = []
    all_ok = True
    for name, G, M in instances:
        rep = coh.theta_rho_check(G, M, args.max_degree)
        all_ok = all_ok and rep.ok
        results.append({"instance": name, "arrows": G.n_arrows, "ok": rep.ok,
                        "groups": degree_list(rep.cocycle_groups),
                        "failures": [list(map(str, f)) for f in rep.failures]})
    payload = {"command": "verify-theta", "max_degree": args.max_degree,
               "ok": all_ok, "instances": results}
    lines = ["comparison of cochain models"]
    for r in results:
        lines.append(f"  {r['instance']}  arrows={r['arrows']}  "
                     f"{'ok' if r['ok'] else 'FAILED'}")
    lines.append(f"overall: {'ok' if all_ok else 'FAILED'}")
    emit(payload, args.format, lines)
    return 0 if all_ok else VERIFICATION_FAILED


def cmd_skew_les(args) -> int:
    if args.module and args.mode == "homology":
        raise ParseError("--module is read only with --mode cohomology")
    G = _require_groupoid(parse_input(args.input), args.input)
    if args.cocycle in (None, "zero"):
        c = skew.ZCocycle.zero(G)
    else:
        c = parse_cocycle(args.cocycle, G)
    M = parse_module(args.module, G) if args.module else None
    report = skew.les_verify(G, c, args.window, args.guard, args.max_degree,
                             mode=args.mode, M=M)
    payload = {
        "command": "skew-les", "mode": report.mode, "window": report.window,
        "guard": report.guard, "interior": report.interior,
        "ok": report.ok,
        "degree_checks": [{
            "degree": ch.degree, "composite_zero": ch.composite_zero,
            "exact_at_sub": ch.exact_at_sub, "exact_at_mid": ch.exact_at_mid,
            "exact_at_quot": ch.exact_at_quot, "commutes": ch.commutes,
        } for ch in report.checks],
        "base_groups": degree_list(report.base_groups),
        "window_groups": degree_list(report.inner_groups),
        "shift_bookkeeping": degree_list(report.degreewise_groups),
        "degree0": {"group": group_dict(report.degree0_group),
                    "matches_base": report.degree0_matches_base},
        "connecting_ok": report.connecting_ok,
        "cocycle_is_coboundary": report.cocycle_is_coboundary,
        "note": report.note,
    }
    lines = [f"skew product LES ({report.mode}), window {report.window}, "
             f"guard {report.guard}"]
    for ch in report.checks:
        lines.append(f"  degree {ch.degree}: "
                     f"{'exact' if ch.ok else 'NOT EXACT'}")
    lines.append(f"degree0 bookkeeping: {report.degree0_group} "
                 f"({'matches base' if report.degree0_matches_base else 'MISMATCH'})")
    lines.append(f"note: {report.note}")
    lines.append(f"overall: {'ok' if report.ok else 'FAILED'}")
    emit(payload, args.format, lines)
    return 0 if report.ok else VERIFICATION_FAILED


def _element(C: lim.ColimitGroup, doc: dict, path: str) -> lim.ColimitElement:
    stage = _int(_field(doc, "stage", path), "stage", path)
    vector = _field(doc, "vector", path)
    if not (isinstance(vector, list) and all(_is_int(v) for v in vector)):
        raise ParseError(f"{path}: vector must be a list of integers")
    try:
        return C.element(stage, vector)
    except ValueError as e:
        raise ParseError(f"{path}: vector: {e}")


def cmd_dimension_group(args) -> int:
    B = parse_input(args.input)
    if not isinstance(B, models.BratteliDiagram):
        raise ParseError(f"{args.input}: expected a bratteli model")
    C = lim.dimension_group(B, args.levels)
    tower = C.tower
    n_stages = args.levels + 1 if args.levels is not None else (tower.n_stages or 2)
    # a stationary tower has any number of stages: those printed, each a rank
    # and a square map, are charged before any is built
    if tower.stationary:
        Budget(f"--levels {args.levels} of a rank-{tower.rank_at(0)} stationary tower").charge(
            n_stages * (1 + tower.rank_at(0) ** 2))
    payload = {"command": "dimension-group", "input": args.input,
               "stationary": tower.stationary,
               "stage_ranks": [tower.rank_at(n) for n in range(n_stages)],
               "maps": [tower.map_at(n).data for n in range(n_stages - 1)],
               "queries": []}
    lines = [f"dimension group: {n_stages} stages, "
             f"ranks {[tower.rank_at(n) for n in range(n_stages)]}"]
    if args.queries:
        path = args.queries
        qdoc = _load_json(path)
        if not isinstance(qdoc, list):
            raise ParseError(f"{path}: queries must be a list")
        for q in qdoc:
            op = _field(q, "op", path)
            bound = _int(q.get("bound", n_stages - 1), "bound", path)
            if op == "divisible":
                elem = _element(C, q, path)
                divisor = _int(_field(q, "q", path), "q", path)
                if divisor < 1:
                    raise ParseError(f"{path}: q must be >= 1, got {divisor}")
                res = lim.colimit_divisible(C, elem, divisor, bound)
                entry = {"op": "divisible", "q": divisor, "kind": res.kind,
                         "stage": res.stage,
                         "vector": list(res.vector) if res.vector else None,
                         "exact": res.exact}
            elif op == "equal":
                a = _element(C, _field(q, "a", path), path)
                b = _element(C, _field(q, "b", path), path)
                res = lim.colimit_equal(C, a, b, bound)
                entry = {"op": "equal", "kind": res.kind, "stage": res.stage,
                         "exact": res.exact}
            else:
                raise ParseError(f"{path}: unknown op '{op}'")
            payload["queries"].append(entry)
            lines.append(f"  {entry}")
    emit(payload, args.format, lines)
    return 0


def cmd_af_cohomology(args) -> int:
    B = parse_input(args.input)
    if not isinstance(B, models.BratteliDiagram):
        raise ParseError(f"{args.input}: expected a bratteli model")
    rep = lim.af_cohomology_tower(B, args.levels, args.depth)
    payload = {
        "command": "af-cohomology", "p": rep.p, "stages": rep.stages,
        "depth": rep.depth,
        "h0": {"lattice_rank": rep.h0_lattice_rank,
               "constants_only": rep.h0_constants_only,
               "truncated_thread_rank": rep.h0_truncated_thread_rank},
        "h1": {"image_ranks": rep.h1_image_ranks,
               "nonml_evidence": rep.h1_nonml_evidence},
    }
    lines = [f"full shift on {rep.p} symbols, {rep.stages} stages, depth {rep.depth}",
             f"  H^0 lattice rank {rep.h0_lattice_rank} "
             f"({'constants only' if rep.h0_constants_only else 'NOT constants'})",
             f"  H^1 image ranks {rep.h1_image_ranks} "
             f"({'non-Mittag-Leffler evidence' if rep.h1_nonml_evidence else 'stabilized'})"]
    emit(payload, args.format, lines)
    return 0


def cmd_odometer(args) -> int:
    rep = hom.odometer_homology(args.p, args.max_depth)
    payload = {
        "command": "odometer", "p": rep.p,
        "depths": [{
            "depth": d.depth, "h0": group_dict(d.h0), "h1": group_dict(d.h1),
            "h0_connecting": d.h0_connecting.data if d.h0_connecting else None,
            "h1_connecting": d.h1_connecting.data if d.h1_connecting else None,
        } for d in rep.per_depth],
        "stabilized_h1": group_dict(rep.stabilized_h1),
    }
    lines = [f"odometer base {rep.p} to depth {args.max_depth}"]
    for d in rep.per_depth:
        conn = d.h0_connecting.data if d.h0_connecting else "-"
        lines.append(f"  depth {d.depth}: H_0 {d.h0}, H_1 {d.h1}, connecting {conn}")
    lines.append(f"stabilized H_1: {rep.stabilized_h1}")
    emit(payload, args.format, lines)
    return 0


def cmd_z_action(args) -> int:
    try:
        perm = [int(v) for v in args.perm.split(",")]
    except ValueError:
        raise ParseError("--perm expects a comma-separated permutation")
    za = hom.z_action_homology(perm)
    payload = {"command": "z-action", "perm": perm,
               "h0": group_dict(za.h0), "h1": group_dict(za.h1),
               "h0_dual": group_dict(za.h0_dual), "h1_dual": group_dict(za.h1_dual)}
    lines = [f"Z-action of {perm}",
             f"  H_0 {za.h0}   H_1 {za.h1}",
             f"  H^0 {za.h0_dual}   H^1 {za.h1_dual}"]
    emit(payload, args.format, lines)
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built on first use and shared by every later call.

    Parsing reads it and never writes it: `parse_args` returns a fresh
    namespace, and the `minimums` defaults are only read.  Callers must not
    modify the returned parser."""
    ap = argparse.ArgumentParser(
        prog="groupoidal",
        description="Exact homology/cohomology of finite ample groupoid models")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--format", choices=["table", "json"], default="table")

    p = sub.add_parser("homology", help="homology groups of a groupoid model")
    p.add_argument("input")
    p.add_argument("--max-degree", type=int, default=2)
    p.add_argument("--coefficients", default="Z")
    common(p)
    p.set_defaults(func=cmd_homology, minimums={"max_degree": 0})

    p = sub.add_parser("cohomology", help="cocycle cohomology with a module")
    p.add_argument("input")
    p.add_argument("--module")
    p.add_argument("--max-degree", type=int, default=2)
    common(p)
    p.set_defaults(func=cmd_cohomology, minimums={"max_degree": 0})

    p = sub.add_parser("verify-theta", help="verify the two cochain models agree")
    p.add_argument("input", nargs="?")
    p.add_argument("--module")
    p.add_argument("--max-degree", type=int, default=2)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--count", type=int, default=1)
    common(p)
    p.set_defaults(func=cmd_verify_theta, minimums={"max_degree": 0, "count": 0})

    p = sub.add_parser("skew-les", help="verify the skew product exact sequence")
    p.add_argument("input")
    p.add_argument("--cocycle", help="cocycle file, or 'zero'")
    p.add_argument("--window", type=int, required=True)
    p.add_argument("--guard", type=int, required=True)
    p.add_argument("--mode", choices=["homology", "cohomology"], default="homology")
    p.add_argument("--max-degree", type=int, default=2)
    p.add_argument("--module")
    common(p)
    p.set_defaults(func=cmd_skew_les, minimums={"max_degree": 0})

    p = sub.add_parser("dimension-group", help="dimension group with queries")
    p.add_argument("input")
    p.add_argument("--levels", type=int, default=None)
    p.add_argument("--queries")
    common(p)
    p.set_defaults(func=cmd_dimension_group, minimums={"levels": 0})

    p = sub.add_parser("af-cohomology", help="truncated cohomology tower evidence")
    p.add_argument("input")
    p.add_argument("--levels", type=int, required=True)
    p.add_argument("--depth", type=int, required=True)
    common(p)
    p.set_defaults(func=cmd_af_cohomology, minimums={"levels": 1, "depth": 1})

    p = sub.add_parser("odometer", help="odometer homology tower")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--max-depth", type=int, required=True)
    common(p)
    p.set_defaults(func=cmd_odometer, minimums={"p": 2, "max_depth": 1})

    p = sub.add_parser("z-action", help="two-term complex of a permutation")
    p.add_argument("--perm", required=True)
    common(p)
    p.set_defaults(func=cmd_z_action, minimums={})
    return ap


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        try:
            tuple_cap()  # a malformed cap is refused before any work
            # integer options are range-checked before any model is built
            for name, low in args.minimums.items():
                value = getattr(args, name)
                if value is not None and value < low:
                    raise ParseError(f"--{name.replace('_', '-')} must be >= {low}, got {value}")
            return args.func(args)
        except (ParseError, ValidationError, GroupoidError, LinAlgError,
                lim.StageBoundExceeded) as e:
            # an integer of more than 20 digits is named by its digit count, so
            # the line's length does not follow the flag values or the cap
            message = re.sub(r"\d{21,}", lambda m: f"<{len(m[0])} digits>", str(e))
            sys.stderr.write(f"error: {type(e).__name__}: {message}\n")
            return USAGE_ERROR
    except MemoryError:
        # matching one class allocates nothing; the line is written once
        # this handler is left and the failed work is freed
        pass
    sys.stderr.write("error: MemoryError: out of memory\n")
    return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
