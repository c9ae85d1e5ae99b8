"""Layering rules of the package source, checked on its syntax trees.

* No module imports another module's private name
  (``from .<module> import _<name>``): what a layer shares, it makes public.
* Only ``lee_oracle`` decides whether the oracle refuses a diagram: no other
  module compares a crossing count (``len(<...>.crossings)``) with a limit
  (a name containing ``limit`` or ``max_crossings``).  Callers that skip
  refused diagrams catch ``CrossingLimitError``.  Within ``lee_oracle``,
  ``build_slice`` is the only function that takes a limit parameter, and
  the other oracle entries, ``canonical_cycles``, ``s_invariant`` and
  ``filtration_profile``, each take one parameter: the slice it built.
* ``cli`` holds argument parsing, input loading, output formatting and exit
  codes only: no classes, and no functions but the ``cmd_*`` handlers,
  ``build_parser``, ``main`` and its I/O helpers.
* ``lee_oracle`` defines one matrix builder, which ``build_slice`` calls
  three times: for both differentials and for the d_-2 relations, which it
  streams into ``_check_slice``.  ``build_slice`` runs ``_check_slice`` on
  every slice it returns, and ``_check_slice`` alone verifies the
  relations and records which columns they clear; ``_composes_to_zero`` is
  called only there and by ``canonical_cycles``.  ``build_slice`` is the
  only caller of ``_crossing_order``: the crossing order only sets the
  order of the cube's vertices, inside the one build.  ``_check_slice``
  and ``_column_echelon`` stay module-level functions: the benchmark
  traces them by name.
* The matrix builder is the only caller of ``_label_table``, and the label
  tables it gathers live in one dict per slice, which ``build_slice`` makes
  and hands to its three builds.  ``lee_oracle`` holds no state that
  outlives a call: no mutable container at module or class level, and no
  ``functools.cache`` or ``lru_cache``, so a repeated call in one process
  starts from nothing.
* The oracle is reached in two places outside ``lee_oracle``, both in
  ``checks``: ``_drawn_s``, which computes s on the diagram it is handed,
  and ``oracle_report``, the ``oracle`` command's session, which reports
  the diagram as given and never simplifies.  Only these two call
  ``build_slice`` or ``s_invariant``, and both take the side the slice is
  built on from one helper, ``_oracle_side``, the only function that
  mirrors a diagram for the oracle; ``run_fuzz`` mirrors only to test the
  bounds, and hands its mirror to ``bound_U`` and ``bound_Delta`` alone.
  ``cmd_oracle`` calls ``oracle_report`` and none of the oracle's entries,
  and ``cli`` imports from ``lee_oracle`` only ``DEFAULT_MAX_CROSSINGS``
  and ``CrossingLimitError``.
* ``knot_s`` and ``run_fuzz`` alone call ``simplify`` and ``_drawn_s``:
  ``knot_s`` hands ``_drawn_s`` the simplified diagram, and ``run_fuzz``
  hands it the closure as drawn, to check ``knot_s``.
* Only ``checks`` turns the cyclic garbage collector off or on
  (``gc.disable``, ``gc.enable``), in ``_collector_paused``, and only
  ``_drawn_s`` and ``oracle_report`` enter that pause.  Each calls
  ``build_slice``, ``filtration_profile`` and ``s_invariant`` inside the
  block, so a slice lives and dies with the collector paused.
  ``lee_oracle`` imports no ``gc`` and defines no pause.  ``gc.collect``
  is called only by ``_collector_paused``: on every
  ``_FULL_COLLECTION_PERIOD``-th block that found the collector on and
  ended normally, one full collection, after ``gc.enable``.
* Which crossing slots an edge fills is tabled in one place:
  ``Diagram._slot_walk`` is the incidence table, and ``_check_structure``
  (behind ``validate``), ``edge_ids``, ``strands``, ``_pieces`` (whose
  count ``is_connected`` and ``is_planar`` read), ``faces`` (whose count
  ``is_planar``, the PD planarity check, reads), ``is_alternating``,
  ``simplify`` and ``resolution`` read it.  All but ``resolution`` build no
  per-edge dict of their own, and no module names a successor map: the
  strand cycles are walked over the slot table, in ``Diagram.strands``
  alone, and the component count, the PD export and the PD label-run rule
  read ``strands``.
* ``diagram_from_pd`` reads the crossing signs of a PD code in one pass
  over its crossings: it builds no dict and runs no loop inside a loop.
* ``seifert.two_coloring`` searches the Seifert graph with the one
  ``UnionFind``: it builds no adjacency dict of its own.
* No module in the package or its tests imports a name it never reads.
* No module assigns into an object's ``__dict__``: a cached property is
  filled by computing it, never by writing its cache slot.
"""

import ast
import re
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "slicebound"
CLI_FUNCTIONS = re.compile(r"cmd_\w+|build_parser|main|_load_input|_write_out|_csv_cell|_csv_text")


def _trees():
    return {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(SRC.glob("*.py"))}


def _names(node):
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr


def _is_crossing_count(node):
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "len"
            and len(node.args) == 1 and isinstance(node.args[0], ast.Attribute)
            and node.args[0].attr == "crossings")


def _is_limit_name(name):
    return "limit" in name.lower() or "max_crossings" in name.lower()


def _is_limit(node):
    return any(map(_is_limit_name, _names(node)))


def test_no_private_name_crosses_a_module_boundary():
    found = []
    for filename, tree in _trees().items():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("slicebound")):
                found += [f"{filename}:{node.lineno} {alias.name}" for alias in node.names
                          if alias.name.startswith("_")]
    assert not found


def test_only_the_oracle_compares_crossing_counts_with_limits():
    found = []
    for filename, tree in _trees().items():
        if filename == "lee_oracle.py":
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.Compare):
                operands = [node.left, *node.comparators]
                if any(map(_is_crossing_count, operands)) and any(map(_is_limit, operands)):
                    found.append(f"{filename}:{node.lineno}")
    assert not found


def _params(node):
    a = node.args
    return [*a.posonlyargs, *a.args, *a.kwonlyargs, *filter(None, (a.vararg, a.kwarg))]


def test_only_build_slice_takes_a_limit():
    takers = []
    for node in ast.walk(_trees()["lee_oracle.py"]):
        if isinstance(node, ast.FunctionDef):
            if any(_is_limit_name(p.arg) for p in _params(node)):
                takers.append(node.name)
    assert takers == ["build_slice"]


def test_the_oracle_entries_take_the_slice_alone():
    functions = {node.name: node for node in _trees()["lee_oracle.py"].body if isinstance(node, ast.FunctionDef)}
    for entry in ("canonical_cycles", "s_invariant", "filtration_profile"):
        assert len(_params(functions[entry])) == 1, entry


def test_cli_defines_only_handlers_and_io():
    tree = _trees()["cli.py"]
    classes = [node.name for node in tree.body if isinstance(node, ast.ClassDef)]
    functions = [node.name for node in tree.body if isinstance(node, ast.FunctionDef)]
    assert not classes
    assert [name for name in functions if not CLI_FUNCTIONS.fullmatch(name)] == []


def _called_names(node):
    return [sub.func.id for sub in ast.walk(node) if isinstance(sub, ast.Call) and isinstance(sub.func, ast.Name)]


def test_the_oracle_builds_both_differentials_with_one_builder_and_checks_them():
    functions = {node.name: node for node in _trees()["lee_oracle.py"].body if isinstance(node, ast.FunctionDef)}
    assert {"build_slice", "_check_slice", "_column_echelon"} <= set(functions)
    builders = [name for name in functions if "matrix" in name]
    assert len(builders) == 1
    build = functions["build_slice"]
    assert _called_names(build).count(builders[0]) == 3
    # _check_slice is handed the d_-2 build, directly or through a name
    (check,) = [sub for sub in ast.walk(build) if isinstance(sub, ast.Call)
                and isinstance(sub.func, ast.Name) and sub.func.id == "_check_slice"]
    stream = check.args[1]
    if isinstance(stream, ast.Name):
        (stream,) = [node.value for node in ast.walk(build) if isinstance(node, ast.Assign)
                     and any(isinstance(t, ast.Name) and t.id == stream.id for t in node.targets)]
    assert isinstance(stream, ast.Call) and _called_names(stream)[0] == builders[0]
    assert "n_minus - 2" in ast.unparse(stream.args[1])
    assert _callers("_composes_to_zero") == ["lee_oracle.py:_check_slice", "lee_oracle.py:canonical_cycles"]


MUTABLE_CALLS = {"dict", "list", "set", "bytearray", "defaultdict", "Counter", "OrderedDict", "deque"}
MEMOIZERS = {"cache", "lru_cache"}


def _is_mutable_container(node):
    return isinstance(node, (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp, ast.SetComp)) or (
        isinstance(node, ast.Call) and isinstance(node.func, (ast.Name, ast.Attribute))
        and (node.func.id if isinstance(node.func, ast.Name) else node.func.attr) in MUTABLE_CALLS)


def _held_values(body):
    """The values assigned by the statements of a module or class body, and
    of the class bodies nested in it."""
    for node in body:
        if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)) and node.value is not None:
            yield node.value
        elif isinstance(node, ast.ClassDef):
            yield from _held_values(node.body)


def test_the_label_tables_live_in_one_slice():
    assert _callers("_label_table") == ["lee_oracle.py:_build_matrix"]
    tree = _trees()["lee_oracle.py"]
    held = [node.lineno for node in _held_values(tree.body) if _is_mutable_container(node)]
    memoized = [sub.lineno for sub in ast.walk(tree)
                if isinstance(sub, (ast.Name, ast.Attribute)) and (
                    sub.id if isinstance(sub, ast.Name) else sub.attr) in MEMOIZERS]
    memoized += [node.lineno for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                 for alias in node.names if alias.name in MEMOIZERS]
    assert not held
    assert not memoized


def test_no_module_names_a_successor_map():
    named = [f"{filename}:{node.lineno} {value}" for filename, tree in _trees().items()
             for node in ast.walk(tree) for field in ("id", "attr", "name", "arg")
             if "successor" in (value := getattr(node, field, None) or "")]
    assert not named


def _callers(name, skip=()):
    """``file:function`` of every function or method, in a module outside
    ``skip``, whose body calls ``name`` by its bare name."""
    return [f"{filename}:{node.name}" for filename, tree in _trees().items() if filename not in skip
            for node in ast.walk(tree) if isinstance(node, ast.FunctionDef) and name in _called_names(node)]


def test_only_knot_s_and_run_fuzz_simplify():
    for name in ("simplify", "_drawn_s"):
        assert sorted(_callers(name)) == ["checks.py:knot_s", "checks.py:run_fuzz"], name


def test_only_build_slice_orders_the_crossings():
    assert _callers("_crossing_order") == ["lee_oracle.py:build_slice"]


def _writes_dict_slot(node):
    """True for ``<x>.__dict__[...] = ...`` (plain, augmented or annotated)
    and for a call of a method of ``<x>.__dict__``."""
    if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        return any(isinstance(t, ast.Subscript) and isinstance(t.value, ast.Attribute)
                   and t.value.attr == "__dict__" for t in targets)
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and isinstance(node.func.value, ast.Attribute) and node.func.value.attr == "__dict__")


def test_no_module_writes_into_an_object_dict():
    found = [f"{filename}:{node.lineno}" for filename, tree in _trees().items()
             for node in ast.walk(tree) if _writes_dict_slot(node)]
    assert not found


def _functions(filename):
    return {node.name: node for node in _trees()[filename].body if isinstance(node, ast.FunctionDef)}


def test_the_oracle_command_never_reduces():
    command = set(_called_names(_functions("cli.py")["cmd_oracle"]))
    session = set(_called_names(_functions("checks.py")["oracle_report"]))
    assert "oracle_report" in command
    for called in (command, session):
        assert not called & {"knot_s", "_drawn_s", "simplify"}
    assert {"build_slice", "s_invariant"} <= session
    # one side rule: both oracle sessions take their side from one helper,
    # the only function that mirrors a diagram for the oracle
    assert sorted(_callers("_oracle_side")) == ["checks.py:_drawn_s", "checks.py:oracle_report"]
    assert sorted(_callers("mirror")) == ["checks.py:_oracle_side", "checks.py:run_fuzz"]
    # run_fuzz mirrors only for the bounds identity: its mirror goes to
    # bound_U and bound_Delta and nowhere else
    fuzz = _functions("checks.py")["run_fuzz"]
    (made,) = [sub.targets[0].id for sub in ast.walk(fuzz) if isinstance(sub, ast.Assign)
               and isinstance(sub.value, ast.Call) and getattr(sub.value.func, "id", None) == "mirror"]
    read = [sub for sub in ast.walk(fuzz) if isinstance(sub, ast.Name) and sub.id == made
            and isinstance(sub.ctx, ast.Load)]
    passed = [arg for sub in ast.walk(fuzz) if isinstance(sub, ast.Call)
              and getattr(sub.func, "id", None) in ("bound_U", "bound_Delta") for arg in sub.args
              if isinstance(arg, ast.Name) and arg.id == made]
    assert read and len(read) == len(passed)


def test_only_knot_s_and_the_oracle_command_run_the_oracle():
    for entry in ("build_slice", "s_invariant"):
        assert sorted(_callers(entry, skip={"lee_oracle.py"})) == ["checks.py:_drawn_s", "checks.py:oracle_report"]


def test_cli_reaches_the_oracle_only_through_checks():
    imported = sorted(alias.name for node in ast.walk(_trees()["cli.py"])
                      if isinstance(node, ast.ImportFrom) and (node.module or "").endswith("lee_oracle")
                      for alias in node.names)
    assert imported == ["CrossingLimitError", "DEFAULT_MAX_CROSSINGS"]
    called = [name for name in _names(_trees()["cli.py"])
              if name in ("build_slice", "filtration_profile", "profile_jumps", "s_invariant")]
    assert called == []


def _builds_a_dict(node):
    return isinstance(node, (ast.Dict, ast.DictComp)) or (
        isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
        and node.func.id in ("dict", "Counter", "defaultdict"))


def test_the_slot_table_is_the_one_incidence_table():
    functions = {node.name: node for node in ast.walk(_trees()["diagram.py"]) if isinstance(node, ast.FunctionDef)}
    readers = ("_check_structure", "edge_ids", "strands", "_pieces", "faces", "is_alternating", "simplify")
    for reader in (*readers, "resolution"):
        assert "_slot_walk" in _names(functions[reader]), reader
    for reader in (*readers, "is_connected", "is_planar"):
        assert not any(map(_builds_a_dict, ast.walk(functions[reader]))), reader
    # the planarity check counts the cached faces, both checks count the
    # cached pieces, and neither walks slots itself
    assert "faces" in _names(functions["is_planar"])
    for counter in ("is_connected", "is_planar"):
        assert "_pieces" in _names(functions[counter]) and "_slot_walk" not in _names(functions[counter]), counter


def test_pd_signs_take_one_pass():
    compile_pd = _functions("notation.py")["diagram_from_pd"]
    loops = [node for node in ast.walk(compile_pd) if isinstance(node, (ast.For, ast.While, ast.comprehension))]
    nested = [inner.lineno for outer in loops for inner in ast.walk(outer)
              if inner is not outer and isinstance(inner, (ast.For, ast.While, ast.comprehension))]
    assert not any(map(_builds_a_dict, ast.walk(compile_pd)))
    assert loops and not nested


def test_the_coloring_searches_with_the_union_find():
    coloring = _functions("seifert.py")["two_coloring"]
    assert not any(map(_builds_a_dict, ast.walk(coloring)))
    assert "UnionFind" in _names(coloring)


def _imported_but_unread(tree):
    """(line, name) of each name an import binds that the module never
    loads; a package's ``__all__`` counts as reading the names it lists."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.update((alias.asname or alias.name.partition(".")[0], node.lineno) for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update((alias.asname or alias.name, node.lineno) for alias in node.names)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            read.update(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in bound.items() if name not in read)


def test_no_module_imports_a_name_it_never_reads():
    paths = sorted([*SRC.glob("*.py"), *Path(__file__).resolve().parent.glob("*.py")])
    assert len(paths) > len(_trees())
    found = [f"{path.name}:{line} {name}" for path in paths
             for line, name in _imported_but_unread(ast.parse(path.read_text(encoding="utf-8")))]
    assert not found


def _toggles_the_collector(node):
    """True when ``node`` reads ``gc.disable`` or ``gc.enable``."""
    return any(isinstance(sub, ast.Attribute) and isinstance(sub.value, ast.Name) and sub.value.id == "gc"
               and sub.attr in ("disable", "enable") for sub in ast.walk(node))


def test_only_the_oracle_pauses_the_collector():
    togglers = [f"{filename}:{node.name}" for filename, tree in _trees().items()
                for node in ast.walk(tree) if isinstance(node, ast.FunctionDef) and _toggles_the_collector(node)]
    from_gc = [filename for filename, tree in _trees().items()
               for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.module == "gc"]
    assert togglers == ["checks.py:_collector_paused"]
    assert not from_gc
    assert sorted(_callers("_collector_paused")) == ["checks.py:_drawn_s", "checks.py:oracle_report"]


def test_only_the_pause_runs_a_full_collection():
    def collects(node):
        return isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "gc" \
            and node.attr == "collect"

    reads = [filename for filename, tree in _trees().items() for node in ast.walk(tree) if collects(node)]
    callers = [f"{filename}:{node.name}" for filename, tree in _trees().items() for node in ast.walk(tree)
               if isinstance(node, ast.FunctionDef) and any(collects(sub) for sub in ast.walk(node))]
    assert reads == ["checks.py"]
    assert callers == ["checks.py:_collector_paused"]


def test_the_oracle_module_has_no_pause():
    tree = _trees()["lee_oracle.py"]
    imported = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import) for alias in node.names]
    defined = [node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)]
    assert "gc" not in imported and "gc" not in _names(tree)
    assert not [name for name in [*defined, *_names(tree)] if "collector_paused" in name]


def test_the_oracle_entries_run_inside_the_pause():
    entries = ("build_slice", "filtration_profile", "s_invariant")
    functions = {f"{filename}:{node.name}": node for filename, tree in _trees().items()
                 for node in tree.body if isinstance(node, ast.FunctionDef)}
    for caller in ("checks.py:_drawn_s", "checks.py:oracle_report"):
        fn = functions[caller]
        called = sorted(name for name in _called_names(fn) if name in entries)
        inside = sorted(name for node in ast.walk(fn) if isinstance(node, ast.With)
                        and any("_collector_paused" in _called_names(item.context_expr) for item in node.items)
                        for stmt in node.body for name in _called_names(stmt) if name in entries)
        assert {"build_slice", "s_invariant"} <= set(called), caller
        assert inside == called, caller
