"""Structural guards on src/groupoidal, one test per rule.

Each test reads the package's source, finds what breaks its rule and
fails with one line per finding: `path:line: what`, or for a pattern
search `path:line:text` followed by the rule.  The sources are parsed
once per session and never imported.  The paths are found from this
file's place in the repository.
"""

import ast
import functools
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = "src/groupoidal"
ZLINALG = f"{PACKAGE}/zlinalg.py"
WORKFLOW = ".github/workflows/tests.yml"


def sources(*exclude):
    """The modules src/groupoidal/*.py, as paths from the repository root."""
    return [f"{PACKAGE}/{p.name}" for p in sorted((ROOT / PACKAGE).glob("*.py"))
            if p.name not in exclude]


@functools.cache
def tree(path):
    """The module at `path`, parsed once per session."""
    return ast.parse((ROOT / path).read_text(encoding="utf-8"), path)


def grep(pattern, paths, message):
    """Like `grep -nE pattern paths`: each matching line, then `message`."""
    found = [f"{path}:{n}:{line}" for path in paths
             for n, line in enumerate(
                 (ROOT / path).read_bytes().decode("utf-8", "replace").split("\n"), 1)
             if re.search(pattern, line)]
    return found + [message] if found else []


def functions(module):
    """The module's top-level functions by name, and its classes' methods
    as Class.method."""
    fns = {fn.name: fn for fn in module.body if isinstance(fn, ast.FunctionDef)}
    fns.update((f"{cls.name}.{fn.name}", fn) for cls in module.body
               if isinstance(cls, ast.ClassDef) for fn in cls.body
               if isinstance(fn, ast.FunctionDef))
    return fns


def name_of(node):
    """The name a Name or an Attribute node reads, else None."""
    return getattr(node, "id", None) or getattr(node, "attr", None)


def called_names(node):
    """The names called under `node`: f for both f(...) and x.f(...)."""
    return {name_of(call.func) for call in ast.walk(node) if isinstance(call, ast.Call)}


def params(fn):
    """Every parameter of a function or lambda, *args and **kwargs included."""
    a = fn.args
    return [p for p in a.posonlyargs + a.args + a.kwonlyargs + [a.vararg, a.kwarg] if p]


# IntMatrix's storage format is private to zlinalg.py; other modules
# build matrices through its public constructors (from_entries,
# from_row_dicts, ...) and read them through its methods
def test_matrix_storage_stays_inside_zlinalg():
    message = "matrix storage is used outside zlinalg.py"
    bad = (grep(r"\.data\[", sources("zlinalg.py"), message)
           or grep(r"\b(_row_dicts|_of_row_dicts)\b", sources("zlinalg.py"), message))
    assert not bad, "\n".join(bad)


# the elimination engine and the d∘d check are private to zlinalg;
# other modules go through its read-outs and ChainComplex
def test_engine_and_dd_check_stay_inside_zlinalg():
    bad = grep(r"_Smith\(|CompositionNonzero", sources("zlinalg.py"),
               "the engine or the d∘d check is used outside zlinalg.py")
    assert not bad, "\n".join(bad)


# ChainComplex.presentations hands each presentation d_out's engine,
# and a zero d_out's d_in engine, factoring each differential once per
# pass; the one engine a presentation builds itself factors `rel`, the
# relation matrix of a nonzero d_out
def test_presentations_factor_no_differential_of_their_own():
    bad = []
    for cls in ast.walk(tree(ZLINALG)):
        if isinstance(cls, ast.ClassDef) and cls.name == "ChainHomologyPresentation":
            for call in ast.walk(cls):
                if (isinstance(call, ast.Call) and isinstance(call.func, ast.Name)
                        and call.func.id == "_Smith"):
                    arg = ast.unparse(call.args[0]) if call.args else ""
                    if arg != "rel":
                        bad.append(f"{ZLINALG}:{call.lineno}: ChainHomologyPresentation "
                                   f"factors {arg or 'a keyword argument'}")
    assert not bad, "\n".join(bad)


# presentations are built in one pass that releases each engine
# before it builds the next, so a ChainComplex holds its differentials
# and nothing else, and a presentation is handed engines, not a
# callback into an engine cache
def test_chain_complex_keeps_no_engine_state():
    classes = {cls.name: cls for cls in tree(ZLINALG).body if isinstance(cls, ast.ClassDef)}
    bad = [f"{ZLINALG}: no class {name}" for name in ("ChainComplex", "ChainHomologyPresentation")
           if name not in classes]
    cx = classes.get("ChainComplex", ast.ClassDef(body=[]))
    for node in ast.walk(cx):
        targets = (node.targets if isinstance(node, ast.Assign)
                   else [node.target] if isinstance(node, (ast.AugAssign, ast.AnnAssign))
                   else [])
        bad += [f"{ZLINALG}:{node.lineno}: ChainComplex assigns self.{t.attr}"
                for target in targets for t in ast.walk(target)
                if isinstance(t, ast.Attribute) and isinstance(t.value, ast.Name)
                and t.value.id == "self" and t.attr not in ("step", "_ds", "top")]
    bad += [f"{ZLINALG}:{fn.lineno}: ChainComplex has {fn.name}" for fn in cx.body
            if isinstance(fn, ast.FunctionDef)
            and fn.name in ("presentation", "_engine", "_readers")]
    pres = classes.get("ChainHomologyPresentation", ast.ClassDef(body=[]))
    for fn in pres.body:
        if not (isinstance(fn, ast.FunctionDef) and fn.name == "__init__"):
            continue
        args = params(fn)
        bad += [f"{ZLINALG}:{fn.lineno}: ChainHomologyPresentation.__init__ takes "
                f"{p.arg}: {ast.unparse(p.annotation)}" for p in args
                if p.annotation is not None and "Callable" in ast.unparse(p.annotation)]
        bad += [f"{ZLINALG}:{call.lineno}: ChainHomologyPresentation.__init__ calls "
                f"its parameter {call.func.id}" for call in ast.walk(fn)
                if isinstance(call, ast.Call) and isinstance(call.func, ast.Name)
                and call.func.id in {p.arg for p in args}]
    assert not bad, "\n".join(bad)


# a presentation and a linear system read no transform when they are
# built: a presentation keeps the logs it needs and replays them for
# its coordinate rows, generators and cycle basis on first read, and a
# linear system replays its logs in each solve
def test_readouts_run_only_when_read():
    readouts = {"u_cols", "vinv_cols", "_uinv_rows", "_vinv_tail", "uinv_times"}
    kept = {"_coord_rows", "generator_matrix", "generators", "cycle_basis"}
    bad = []
    for name in ("ChainHomologyPresentation", "LinearSystem"):
        inits = [fn for cls in tree(ZLINALG).body if isinstance(cls, ast.ClassDef)
                 and cls.name == name for fn in cls.body
                 if isinstance(fn, ast.FunctionDef) and fn.name == "__init__"]
        if not inits:
            bad.append(f"{ZLINALG}: no {name}.__init__")
        for node in (node for fn in inits for node in ast.walk(fn)):
            called = isinstance(node, ast.Call) and name_of(node.func)
            if called in readouts:
                bad.append(f"{ZLINALG}:{node.lineno}: {name}.__init__ calls {called}")
            if (isinstance(node, ast.Attribute) and node.attr in kept
                    and isinstance(node.value, ast.Name) and node.value.id == "self"):
                bad.append(f"{ZLINALG}:{node.lineno}: {name}.__init__ touches self.{node.attr}")
    assert not bad, "\n".join(bad)


# the engine logs its row and column operations and tracks no
# transform: U, U^-1, V and V^-1 are replays of the two logs, so it
# takes no switch naming the transforms to track, and its elementary
# operations touch only S (`rows`), `colidx`, `_dirty` and the logs
def test_no_tracked_u_inverse_beside_the_row_operation_log():
    every_file = [p.relative_to(ROOT).as_posix()
                  for p in sorted((ROOT / PACKAGE).rglob("*")) if p.is_file()]
    bad = grep("Uinv_rows", every_file, "a tracked U^-1 is back in src/groupoidal")
    ops = {"_row_add", "_row_swap", "_row_neg", "_col_add", "_col_swap"}
    state = {"rows", "colidx", "_dirty", "row_ops", "col_ops"}
    for path in sources():
        for node in ast.walk(tree(path)):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == "_Smith" and len(node.args) + len(node.keywords) != 1):
                bad.append(f"{path}:{node.lineno}: _Smith called with a second argument")
            if not (isinstance(node, ast.ClassDef) and node.name == "_Smith"):
                continue
            for fn in node.body:
                if not isinstance(fn, ast.FunctionDef):
                    continue
                names = [p.arg for p in params(fn)]
                if fn.name == "__init__" and names != ["self", "A"]:
                    bad.append(f"{path}:{fn.lineno}: _Smith.__init__ takes {names[2:]}")
                if fn.name in ops:
                    bad += [f"{path}:{at.lineno}: {fn.name} touches self.{at.attr}"
                            for at in ast.walk(fn) if isinstance(at, ast.Attribute)
                            and isinstance(at.value, ast.Name) and at.value.id == "self"
                            and at.attr not in state]
    assert not bad, "\n".join(bad)


# the +-1 pivots are eliminated by one routine: the unit rule (a test
# against both 1 and -1, written where it is used; a call of a
# `_has_unit` helper counts as one) and the heap of unit rows sit in
# one function of zlinalg.py, which the engine calls with its logs
# and the rank-only routine `_block_factors` without, and no other
# function calls
def test_one_unit_elimination():
    module = tree(ZLINALG)

    def tests_a_unit(node):
        if isinstance(node, ast.Name) and node.id == "_has_unit":
            return True
        if isinstance(node, ast.BoolOp):
            consts = {ast.literal_eval(x) for cmp in node.values if isinstance(cmp, ast.Compare)
                      for x in [cmp.left, *cmp.comparators]
                      if isinstance(x, (ast.Constant, ast.UnaryOp))
                      and ast.unparse(x) in ("1", "-1")}
            return consts == {1, -1}
        return False

    fns = [fn for fn in ast.walk(module) if isinstance(fn, ast.FunctionDef)]
    # the innermost function around each node
    owner = {}
    for fn in fns:
        for node in ast.walk(fn):
            if node is not fn:
                owner[node] = fn
    rule = {owner[node].name for node in ast.walk(module)
            if node in owner and tests_a_unit(node)} - {"_has_unit"}
    bad = []
    if len(rule) != 1:
        bad.append(f"{ZLINALG}: the unit rule is in {sorted(rule) or 'no function'}")
    else:
        (unit,) = rule
        fn = next(fn for fn in fns if fn.name == unit)
        if not any(isinstance(node, ast.Attribute) and node.attr.startswith("heap")
                   for node in ast.walk(fn)):
            bad.append(f"{ZLINALG}:{fn.lineno}: {unit} keeps no heap of unit rows")
        scopes = {node.name: node for node in ast.walk(module)
                  if isinstance(node, (ast.ClassDef, ast.FunctionDef))}
        callers = ("_Smith", "_block_factors")
        for caller in callers:
            if caller not in scopes or not any(
                    isinstance(node, ast.Call) and getattr(node.func, "id", None) == unit
                    for node in ast.walk(scopes[caller])):
                bad.append(f"{ZLINALG}: {caller} does not call {unit}")
        inside = {node for caller in callers if caller in scopes
                  for node in ast.walk(scopes[caller])}
        bad += [f"{ZLINALG}:{node.lineno}: {unit} is called outside {' and '.join(callers)}"
                for node in ast.walk(module) if isinstance(node, ast.Call)
                and name_of(node.func) == unit and node not in inside]
    assert not bad, "\n".join(bad)


# ChainComplex.groups factors each differential through the rank-only
# routine, handing it the cells that the call below paired as the
# rows to clear, and calls neither rank, invariant_factors nor the
# unit phase itself; rank and invariant_factors stay module functions
# of one matrix, which the benchmark's tracer wraps by name
def test_groups_clears_before_it_factors():
    fns = functions(tree(ZLINALG))
    bad = [f"{ZLINALG}: {name} is not a module function of one matrix A"
           for name in ("rank", "invariant_factors")
           if name not in fns or [a.arg for a in fns[name].args.args] != ["A"]]
    groups = [fn for cls in tree(ZLINALG).body if isinstance(cls, ast.ClassDef)
              and cls.name == "ChainComplex" for fn in cls.body
              if isinstance(fn, ast.FunctionDef) and fn.name == "groups"]
    if not groups:
        bad.append(f"{ZLINALG}: no ChainComplex.groups")
    called = {name for fn in groups for name in called_names(fn)}
    bad += [f"{ZLINALG}: ChainComplex.groups calls {name}"
            for name in sorted(called & {"rank", "invariant_factors", "_eliminate_units"})]
    # a call _block_factors(A, cleared) whose result is unpacked into
    # (factors, cleared): each call gets the cells the one before paired
    clears = [node for fn in groups for node in ast.walk(fn)
              if isinstance(node, ast.Assign) and isinstance(node.value, ast.Call)
              and getattr(node.value.func, "id", None) == "_block_factors"
              and len(node.value.args) == 2 and isinstance(node.value.args[1], ast.Name)
              and any(isinstance(t, ast.Tuple) and len(t.elts) == 2
                      and isinstance(t.elts[1], ast.Name)
                      and t.elts[1].id == node.value.args[1].id for t in node.targets)]
    if groups and not clears:
        bad.append(f"{ZLINALG}: ChainComplex.groups does not hand _block_factors "
                   "the cells the call below paired")
    assert not bad, "\n".join(bad)


# rank, invariant_factors and ChainComplex.groups read the Smith
# diagonal through one routine, _block_factors, which runs the
# logless unit phase once over the whole matrix first and only then
# splits what it leaves into the blocks of its row-column graph (a
# unit phase set up block by block costs more on differentials with
# many blocks); the factors are merged into divisibility order by gcd
# and lcm (_merge), which must not recurse through invariant_factors
# or FgAbGroup.  Both helpers are reached from cli.main through
# invariant_factors and ChainComplex.groups, so the test "Every src
# name is reached from cli.main" needs no allowlist entry for them
def test_the_rank_only_path_eliminates_units_then_splits():
    fns = functions(tree(ZLINALG))
    bad = [f"{ZLINALG}: no {name}" for name in ("rank", "invariant_factors", "_block_factors",
                                                "_merge", "ChainComplex.groups",
                                                "FgAbGroup.from_orders")
           if name not in fns]
    if not bad:
        bad += [f"{ZLINALG}: {name} does not call _block_factors"
                for name in ("rank", "invariant_factors", "ChainComplex.groups")
                if "_block_factors" not in called_names(fns[name])]
        bad += [f"{ZLINALG}: _merge calls {name}" for name in sorted(
            called_names(fns["_merge"]) & {"invariant_factors", "from_orders", "FgAbGroup"})]
        bad += [f"{ZLINALG}: {name} does not call _merge"
                for name in ("invariant_factors", "ChainComplex.groups", "FgAbGroup.from_orders")
                if "_merge" not in called_names(fns[name])]
        # one unit phase, and every block split and engine after it
        routine = fns["_block_factors"]
        units = [call.lineno for call in ast.walk(routine) if isinstance(call, ast.Call)
                 and getattr(call.func, "id", None) == "_eliminate_units"]
        later = [node.lineno for node in ast.walk(routine)
                 if isinstance(node, ast.FunctionDef) and node is not routine
                 or isinstance(node, ast.Call)
                 and getattr(node.func, "id", None) in ("_Smith", "find")]
        if len(units) != 1 or not later or min(later) < units[0]:
            bad.append(f"{ZLINALG}: _block_factors does not run one unit phase before it splits")
    assert not bad, "\n".join(bad)


# the rank-only routine has one mode: it takes the matrix and the
# rows to clear, with no flag that skips its unit phase, and no
# second routine strips unit pivots beside it
def test_one_rank_only_routine_with_no_mode_flag():
    bad, routines = [], 0
    for path in sources():
        for fn in ast.walk(tree(path)):
            if not isinstance(fn, ast.FunctionDef):
                continue
            if fn.name == "_strip_unit_pivots":
                bad.append(f"{path}:{fn.lineno}: _strip_unit_pivots is defined")
            if fn.name == "_block_factors":
                routines += 1
                names = [p.arg for p in params(fn)]
                if names != ["A", "cleared"]:
                    bad.append(f"{path}:{fn.lineno}: _block_factors takes {names}")
                bad += [f"{path}:{fn.lineno}: _block_factors has a boolean default"
                        for d in fn.args.defaults + fn.args.kw_defaults
                        if isinstance(d, ast.Constant) and isinstance(d.value, bool)]
    if routines != 1:
        bad.append(f"{PACKAGE}: {routines} definitions of _block_factors")
    assert not bad, "\n".join(bad)


# a number or a yes/no is read off rank or invariant_factors, not off
# the columns of a transform read-out: the exact-order engine runs only
# where a basis is the answer.  limits reports numbers only, so it
# imports and calls no transform read-out (a stored basis whose column
# count a method returns escapes the pattern search), and image_basis,
# whose lattices only the tests read, is defined in tests/oracles.py alone
def test_numbers_are_not_read_off_transform_results():
    bad = grep(r"(kernel_basis|image_basis)\(.*\)\.cols", sources(),
               "a count or a yes/no is read off a transform result")
    readouts = {"kernel_basis", "image_basis", "snf", "LinearSystem"}
    for path in sources():
        for node in ast.walk(tree(path)):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name == "image_basis":
                bad.append(f"{path}:{node.lineno}: defines image_basis")
            if not path.endswith("/limits.py"):
                continue
            if isinstance(node, ast.ImportFrom):
                bad += [f"{path}:{node.lineno}: imports {alias.name}"
                        for alias in node.names if alias.name in readouts]
            elif isinstance(node, ast.Call) and name_of(node.func) in readouts:
                bad.append(f"{path}:{node.lineno}: calls {name_of(node.func)}")
    assert not bad, "\n".join(bad)


# an underscore-prefixed name is private to its module; the package's
# modules import only each other's public names, whether they name the
# module relatively or as groupoidal.<module>
def test_no_private_names_imported_between_modules():
    bad = [f"{path}:{node.lineno}: imports {alias.name}"
           for path in sources() for node in ast.walk(tree(path))
           if isinstance(node, ast.ImportFrom)
           and (node.level > 0 or (node.module or "").split(".")[0] == "groupoidal")
           for alias in node.names if alias.name.startswith("_")]
    assert not bad, "\n".join(bad)


# the records of src/ list their fields in __slots__ and share the
# constructor of groupoidal/records.py: generating dataclass methods
# at import took a tenth of the command line's start-up
def test_no_dataclasses_in_src():
    bad = grep(r"\b(dataclass|dataclasses)\b", sources(), "a dataclass is back in src/groupoidal")
    assert not bad, "\n".join(bad)


# records.Record takes a record's fields as its arguments, in slot
# order, so a record writes a constructor only to check or normalise
# its fields, and homology and cohomology share one InducedMap
def test_records_are_built_by_records_record():
    bad = grep(r"\bInducedCohomologyMap\b", sources(),
               "the cohomology twin of zlinalg.InducedMap is back in src/")
    classes = [(path, node) for path in sources() for node in ast.walk(tree(path))
               if isinstance(node, ast.ClassDef)]
    records = {"Record", "FrozenRecord"}
    grown = True
    while grown:
        found = {cls.name for _, cls in classes
                 if {name_of(b) for b in cls.bases} & records}
        grown = not found <= records
        records |= found

    def copies_a_parameter(stmt, names):
        # self.x = x, or object.__setattr__(self, "x", x)
        if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
            t, v = stmt.targets[0], stmt.value
            return (isinstance(t, ast.Attribute) and getattr(t.value, "id", None) == "self"
                    and isinstance(v, ast.Name) and v.id == t.attr and v.id in names)
        if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Call):
            call = stmt.value
            return (ast.unparse(call.func) == "object.__setattr__" and len(call.args) == 3
                    and getattr(call.args[0], "id", None) == "self"
                    and isinstance(call.args[1], ast.Constant)
                    and isinstance(call.args[2], ast.Name)
                    and call.args[2].id == call.args[1].value and call.args[2].id in names)
        return False

    for path, cls in classes:
        if cls.name not in records:
            continue
        for fn in cls.body:
            if not (isinstance(fn, ast.FunctionDef) and fn.name == "__init__"):
                continue
            a = fn.args
            names = {p.arg for p in a.posonlyargs + a.args + a.kwonlyargs}
            body = fn.body[1:] if ast.get_docstring(fn) else fn.body
            if body and all(copies_a_parameter(stmt, names) for stmt in body):
                bad.append(f"{path}:{fn.lineno}: {cls.name}.__init__ only assigns its parameters")
    assert not bad, "\n".join(bad)


# the work cap has one reader and one meter: groupoids.tuple_cap reads
# GROUPOIDAL_CAP, every size check charges a groupoids.Budget, which
# calls it, and no function takes a per-call cap.  Outside groupoids.py
# only cli.main calls tuple_cap, to refuse a malformed cap before any
# work, and the helpers and error classes the Budget replaced stay gone
def test_the_work_cap_is_read_in_one_place():
    bad = grep(r"\b(power_exceeds_cap|require_pair_cap|DepthTooLarge|WindowTooLarge)\b",
               sources(), "a cap helper or error class the Budget replaced is back in src/")

    def visit(node, path, where):
        name = path.rsplit("/", 1)[1]
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            if any(p.arg == "cap" for p in params(node)):
                bad.append(f"{path}:{node.lineno}: takes a cap parameter")
            where = where or getattr(node, "name", None)
        elif (isinstance(node, ast.Constant) and node.value == "GROUPOIDAL_CAP"
              and name != "groupoids.py"):
            bad.append(f"{path}:{node.lineno}: reads GROUPOIDAL_CAP")
        elif (isinstance(node, ast.Call) and name_of(node.func) == "tuple_cap"
              and name != "groupoids.py" and (name, where) != ("cli.py", "main")):
            bad.append(f"{path}:{node.lineno}: calls tuple_cap outside groupoids.py")
        for child in ast.iter_child_nodes(node):
            visit(child, path, where)

    for path in sources():
        visit(tree(path), path, None)
    assert not bad, "\n".join(bad)


# each answer has one route: kernel groups are the homology of a
# mapping cone, a module file is charged its validation products
# whatever the command, and the twin read-outs and the second
# cohomology entry point stay deleted
def test_one_route_per_answer():
    bad = grep(r"\b(solve_in_image|image_contains|homology_presentation|_isotropy_cohomology)\b",
               sources(), "a deleted twin route is back in src/")
    for path in sources():
        for node in ast.walk(tree(path)):
            if not isinstance(node, ast.FunctionDef):
                continue
            if node.name == "parse_module" and any(p.arg == "top" for p in params(node)):
                bad.append(f"{path}:{node.lineno}: parse_module takes a top parameter")
            if node.name == "kernel_group":
                bad += [f"{path}:{call.lineno}: kernel_group calls {call.func.id}"
                        for call in ast.walk(node) if isinstance(call, ast.Call)
                        and getattr(call.func, "id", None) in (
                            "kernel_basis", "image_basis", "LinearSystem")]
    assert not bad, "\n".join(bad)


# homology and cohomology run on the Morse resolutions of the isotropy
# groups; the normalized nerve is a reference route in tests/ only, so
# no function in src/ takes a normalized switch or reads one
def test_no_normalized_switch_in_src():
    bad = []
    for path in sources():
        for node in ast.walk(tree(path)):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                if any(p.arg == "normalized" for p in params(node)):
                    bad.append(f"{path}:{node.lineno}: takes a normalized parameter")
            elif isinstance(node, ast.Attribute) and node.attr == "normalized":
                bad.append(f"{path}:{node.lineno}: uses a normalized attribute")
    assert not bad, "\n".join(bad)


# theta and rho relabel coordinates, so verify-theta checks them as
# coordinate maps: the only products it runs are the d∘d checks
# inside ChainComplex, and it builds no theta, rho or relabel matrix
def test_verify_theta_checks_theta_and_rho_as_coordinate_maps():
    path = f"{PACKAGE}/cohomology.py"
    fns = [fn for fn in ast.walk(tree(path))
           if isinstance(fn, ast.FunctionDef) and fn.name == "theta_rho_check"]
    bad = [] if fns else [f"{path}: no theta_rho_check"]
    for node in (node for fn in fns for node in ast.walk(fn)):
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult):
            bad.append(f"{path}:{node.lineno}: theta_rho_check multiplies")
        elif isinstance(node, ast.Call) and name_of(node.func) in (
                "theta_matrix", "rho_matrix", "relabel_matrix"):
            bad.append(f"{path}:{node.lineno}: theta_rho_check builds a relabelling matrix")
    assert not bad, "\n".join(bad)


# the composite of the af-cohomology tower's first k maps is the k-fold
# shift pullback, which af_cohomology_tower builds once, when it is
# factored: it builds no Tower and reads no stage map, and the image
# chain only factors the composites it is handed, multiplying none
def test_af_cohomology_builds_each_composite_once():
    path = f"{PACKAGE}/limits.py"
    fns = {fn.name: fn for fn in tree(path).body if isinstance(fn, ast.FunctionDef)}
    bad = [f"{path}: no {name}" for name in ("af_cohomology_tower", "_image_chain")
           if name not in fns]
    for node in ast.walk(fns.get("af_cohomology_tower", ast.Module(body=[]))):
        if isinstance(node, (ast.Name, ast.Attribute)) and name_of(node) in ("Tower", "map_at"):
            bad.append(f"{path}:{node.lineno}: af_cohomology_tower uses {name_of(node)}")
    for node in ast.walk(fns.get("_image_chain", ast.Module(body=[]))):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Mult):
            bad.append(f"{path}:{node.lineno}: _image_chain multiplies")
    assert not bad, "\n".join(bad)


# bench/tracer.py's counters read these attributes of what its wrapped
# calls return, and nothing in src/ reads them, so the walk below starts
# from their bodies too
TRACER_READS = {
    "ChainHomologyPresentation.generators":
        "bench/tracer.py reads it for the entry bits of a presentation's generators",
    "ChainHomologyPresentation.cycle_basis":
        "bench/tracer.py reads it for a presentation's factor and read-out cells",
}


def is_dunder(name):
    return name.startswith("__") and name.endswith("__")


@functools.cache
def reachability():
    """What src/ reaches by name, as (top-level definitions by name, methods
    by name as (path, class, function), the top-level names reached, the
    attribute names reached).  The walk starts from cli.main, module-level
    code (imports aside), the groupoidal names bench/tracer.py wraps and
    the bodies of TRACER_READS.  A reached function reaches the names and
    attributes its body names; a reached class reaches its bases,
    decorators, class-level statements and dunder methods; a reached
    attribute name reaches every method of that name."""
    from test_bench_tracer import _TARGETS

    defs, methods, todo = {}, {}, []
    for path in sources():
        for node in tree(path).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defs.setdefault(node.name, []).append((path, node))
                if path.endswith("/cli.py") and node.name == "main":
                    todo.append(node)
            elif not isinstance(node, (ast.Import, ast.ImportFrom)):
                todo.append(node)
            if isinstance(node, ast.ClassDef):
                for fn in node.body:
                    if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        methods.setdefault(fn.name, []).append((path, node, fn))
    names, attrs = set(), set()

    def reach(name, as_attribute):
        if name in defs and name not in names:
            names.add(name)
            for _, node in defs[name]:
                if not isinstance(node, ast.ClassDef):
                    todo.append(node)
                    continue
                todo.extend(node.bases + node.decorator_list)
                todo.extend(stmt for stmt in node.body
                            if not isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
                            or is_dunder(stmt.name))
        if as_attribute and name not in attrs:
            attrs.add(name)
            todo.extend(fn for _, _, fn in methods.get(name, []))

    for module, target in _TARGETS:
        if module.startswith("groupoidal."):
            *owner, name = target.split(".")
            reach(owner[0] if owner else name, False)
            if owner:
                reach(name, True)
    for entry in TRACER_READS:
        owner, name = entry.split(".")
        todo += [fn for _, cls, fn in methods.get(name, []) if cls.name == owner]
    while todo:
        for node in ast.walk(todo.pop()):
            if isinstance(node, ast.Name):
                reach(node.id, False)
            elif isinstance(node, ast.Attribute):
                reach(node.attr, True)
    return defs, methods, names, attrs


# every top-level function and class of src/, and every method of a
# reached class, is reached by the walk of `reachability`; the tracer's
# reads are listed in TRACER_READS, each with its reason, and an entry
# that src/ reaches, that is gone or that bench/tracer.py does not read
# fails too
def test_every_src_name_is_reached_from_cli_main():
    defs, methods, names, attrs = reachability()
    unreached = "is not reached from cli.main or bench/tracer.py"
    bad = [f"{path}:{node.lineno}: {name} {unreached}"
           for name in sorted(set(defs) - names) for path, node in defs[name]]
    bad += [f"{path}:{fn.lineno}: {cls.name}.{name} {unreached}"
            for name in sorted(set(methods) - attrs) for path, cls, fn in methods[name]
            if cls.name in names and not is_dunder(name)
            and f"{cls.name}.{name}" not in TRACER_READS]
    read = {node.attr for node in ast.walk(tree("bench/tracer.py"))
            if isinstance(node, ast.Attribute)}
    for entry in sorted(TRACER_READS):
        owner, name = entry.split(".")
        if not any(cls.name == owner for _, cls, _ in methods.get(name, [])):
            bad.append(f"allowlisted {entry} is not defined")
        elif name in attrs:
            bad.append(f"allowlisted {entry} is reached")
        if name not in read:
            bad.append(f"allowlisted {entry} is not read by bench/tracer.py")
    assert not bad, "\n".join(bad)


# the package exports what a command reaches or bench/tracer.py wraps,
# and its modules: groupoidal.__all__ lists no other name
def test_the_package_exports_only_reached_names():
    from test_bench_tracer import _TARGETS

    init = f"{PACKAGE}/__init__.py"
    _, _, names, _ = reachability()
    names = names | {target.split(".")[0] for module, target in _TARGETS
                     if module.startswith("groupoidal.")}
    modules = {p.stem for p in (ROOT / PACKAGE).glob("*.py")}
    exported = next((ast.literal_eval(node.value) for node in tree(init).body
                     if isinstance(node, ast.Assign)
                     and [name_of(t) for t in node.targets] == ["__all__"]), None)
    bad = [f"{init}: no __all__"] if exported is None else [
        f"{init}: __all__ lists {name}, which is not reached"
        for name in exported if name not in names | modules]
    assert not bad, "\n".join(bad)


# the guards above are the only copy: the workflow runs this file and
# holds no inline Python program and no pattern search over src/
def test_the_workflow_holds_no_guard_script():
    text = (ROOT / WORKFLOW).read_text(encoding="utf-8").replace("\\\n", " ")
    bad = [f"{WORKFLOW}: {line.strip()}" for line in text.split("\n")
           if re.search(r"\bpython[\d.]*\s+-(\s|$)", line)
           or re.search(r"\bgrep\b.*\bsrc\b", line)]
    assert not bad, "\n".join(bad)
