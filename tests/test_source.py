"""Checks on the package source itself."""

import ast
from pathlib import Path

import tjurina

SOURCES = sorted(Path(tjurina.__file__).resolve().parent.glob("*.py"))


def test_package_has_no_assert_statements():
    # assert statements vanish under python -O; invariant checks must raise
    found = [f"{path.name}:{node.lineno}"
             for path in SOURCES
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert)]
    assert SOURCES and found == []


def test_normal_form_holds_the_only_reduction_loop():
    # one reduction core: every multivariate division runs through _normal_form
    found = [f"{path.name}:{func.name}"
             for path in SOURCES
             for func in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(func, ast.FunctionDef)
             for node in ast.walk(func)
             if isinstance(node, ast.While) and isinstance(node.test, ast.Name)
             and node.test.id == "work"]
    assert found == ["groebner.py:_normal_form"]


def test_analyzer_runs_no_global_basis():
    # per-point invariants come only from the local standard basis in lengths
    source = Path(tjurina.__file__).resolve().parent / "analyzer.py"
    found = [f"{func.name}:{node.lineno}"
             for func in ast.walk(ast.parse(source.read_text(encoding="utf-8")))
             if isinstance(func, ast.FunctionDef)
             for node in ast.walk(func)
             if isinstance(node, ast.Call)
             and getattr(node.func, "id", getattr(node.func, "attr", None)) == "buchberger"]
    assert found == []


def test_normal_form_uses_no_fractions():
    # the reduction core is fraction-free: rationals appear only at the
    # boundary, which poly alone draws (cli reads point coordinates)
    package = Path(tjurina.__file__).resolve().parent
    source = package / "groebner.py"
    func = next(node for node in ast.walk(ast.parse(source.read_text(encoding="utf-8")))
                if isinstance(node, ast.FunctionDef) and node.name == "_normal_form")
    found = [node.lineno for node in ast.walk(func)
             if getattr(node, "id", getattr(node, "attr", None)) == "Fraction"]
    assert found == []
    importers = sorted(path.name for path in package.glob("*.py")
                       for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                       if isinstance(node, ast.ImportFrom) and node.module == "fractions"
                       or isinstance(node, ast.Import)
                       and any(alias.name == "fractions" for alias in node.names))
    assert importers == ["cli.py", "poly.py"]


def test_local_length_runs_one_standard_basis():
    # one truncated run per length, in the one local entry: the cut is
    # lowered inside the run, and the public length only packs its generators
    source = Path(tjurina.__file__).resolve().parent / "lengths.py"
    funcs = {node.name: node for node in ast.walk(ast.parse(source.read_text(encoding="utf-8")))
             if isinstance(node, ast.FunctionDef)}

    def runs(func):
        return [node.lineno for node in ast.walk(func)
                if isinstance(node, ast.Call)
                and getattr(node.func, "id", getattr(node.func, "attr", None))
                in ("buchberger", "_buchberger")]

    func = funcs["_local_length"]
    loops = [node.lineno for node in ast.walk(func) if isinstance(node, (ast.For, ast.While))]
    assert len(runs(func)) == 1 and loops == []
    assert runs(funcs["local_length_at_origin"]) == []


def test_only_the_local_length_runs_under_a_cut():
    # one truncation site: a standard basis under a degree cut comes only
    # from _local_length; every other run is a global one
    found = [f"{path.name}:{func.name}"
             for path in SOURCES
             for func in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(func, ast.FunctionDef)
             for node in ast.walk(func)
             if isinstance(node, ast.Call)
             and getattr(node.func, "id", getattr(node.func, "attr", None)) == "_buchberger"
             and (len(node.args) > 2 or any(kw.arg == "cut" for kw in node.keywords))]
    assert found == ["lengths.py:_local_length"]


def test_global_tjurina_reads_one_window():
    # the Hilbert function is read once, at a proven degree: global_tjurina
    # has no widening loop and no warnings, and only the local entry raises
    # StabilizationError
    source = Path(tjurina.__file__).resolve().parent / "lengths.py"
    tree = ast.parse(source.read_text(encoding="utf-8"))
    funcs = {node.name: node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}
    func = funcs["global_tjurina"]
    loops = [node.lineno for node in ast.walk(func) if isinstance(node, (ast.For, ast.While))]
    names = {node.id for node in ast.walk(func) if isinstance(node, ast.Name)}
    local = funcs["_local_length"]
    raises = [node.lineno for node in ast.walk(tree)
              if isinstance(node, ast.Raise) and node.exc is not None
              and any(getattr(n, "id", None) == "StabilizationError" for n in ast.walk(node.exc))]
    assert loops == [] and "warnings" not in names and raises
    assert all(local.lineno <= line <= local.end_lineno for line in raises)


def test_normal_form_reduces_packed_words_only():
    # the hot loop adds, subtracts and compares packed integer words; no
    # exponent-tuple helper or order key may drift back into it
    source = Path(tjurina.__file__).resolve().parent / "groebner.py"
    func = next(node for node in ast.walk(ast.parse(source.read_text(encoding="utf-8")))
                if isinstance(node, ast.FunctionDef) and node.name == "_normal_form")
    banned = {"monomial_mul", "monomial_divides", "key"}
    found = [f"{node.lineno}:{getattr(node, 'id', getattr(node, 'attr', None))}"
             for node in ast.walk(func)
             if getattr(node, "id", getattr(node, "attr", None)) in banned]
    assert found == []


def test_analyzer_decides_line_questions_by_one_gcd():
    # shared tangent lines come from binforms.common_factor_degree alone: no
    # resultant, no hand-rolled gcd loop and no vertical-line restriction
    source = Path(tjurina.__file__).resolve().parent / "analyzer.py"
    banned = {"binary_form_resultant", "dehomogenize", "upoly_gcd", "VERTICAL",
              "line_restriction_length"}
    tree = ast.parse(source.read_text(encoding="utf-8"))
    names = [alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
             for alias in node.names]
    names += [getattr(node, "id", getattr(node, "attr", None)) for node in ast.walk(tree)]
    assert banned.isdisjoint(names)


def test_every_module_level_definition_is_named_elsewhere():
    # no dead code: each module-level function and class of the package is
    # named by a Name or an attribute outside its own definition, somewhere
    # in the package, the tests, the benchmark or the demos, or is exported
    root = Path(__file__).resolve().parent.parent
    files = [*SOURCES, *(path for folder in ("tests", "bench", "demos")
                         for path in sorted((root / folder).glob("*.py")))]
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in files}
    uses = [(path, node.lineno, getattr(node, "id", getattr(node, "attr", None)))
            for path, tree in trees.items() for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute))]
    found = [f"{path.name}:{node.name}"
             for path in SOURCES for node in trees[path].body
             if isinstance(node, (ast.FunctionDef, ast.ClassDef))
             and not (node.name.startswith("__") or node.name in tjurina._EXPORTS)
             and not any(name == node.name and not (where == path and node.lineno <= line
                                                    <= node.end_lineno)
                         for where, line, name in uses)]
    assert found == []


def test_every_private_definition_is_named_by_the_package():
    # no test-only code in the package: each private module-level function
    # and class is named by a Name or an attribute outside its own
    # definition in the package itself, not only in the tests
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in SOURCES}
    uses = [(path, node.lineno, getattr(node, "id", getattr(node, "attr", None)))
            for path, tree in trees.items() for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute))]
    found = [f"{path.name}:{node.name}"
             for path, tree in trees.items() for node in tree.body
             if isinstance(node, (ast.FunctionDef, ast.ClassDef))
             and node.name.startswith("_") and not node.name.startswith("__")
             and not any(name == node.name and not (where == path and node.lineno <= line
                                                    <= node.end_lineno)
                         for where, line, name in uses)]
    assert found == []


def test_one_tangent_cone_test_serves_every_per_point_reader():
    # is_ordinary, is_slci and analyze (whose germ entry is _analyze) read
    # the germ's one squarefree test; is_slci keeps no order-and-gcd code of
    # its own
    source = Path(tjurina.__file__).resolve().parent / "analyzer.py"
    funcs = {node.name: node for node in ast.walk(ast.parse(source.read_text(encoding="utf-8")))
             if isinstance(node, ast.FunctionDef)}
    for name in ("is_ordinary", "is_slci", "_analyze"):
        calls = {getattr(node.func, "id", getattr(node.func, "attr", None))
                 for node in ast.walk(funcs[name]) if isinstance(node, ast.Call)}
        assert "ordinary" in calls and "squarefree_binary_form" not in calls, name
        assert "common_factor_degree" not in calls, name


def test_the_pair_queue_changes_only_by_push_and_pop():
    # a queued pair is judged when it is popped, so inside _buchberger the
    # queue is named only to create it, to test it for pairs left, and as
    # the queue of heappush and heappop: no heapify, no heap[...] rewrite
    source = Path(tjurina.__file__).resolve().parent / "groebner.py"
    func = next(node for node in ast.walk(ast.parse(source.read_text(encoding="utf-8")))
                if isinstance(node, ast.FunctionDef) and node.name == "_buchberger")
    allowed = set()
    for node in ast.walk(func):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) in ("heappush",
                                                                              "heappop"):
            allowed.add(id(node.args[0]))
        elif isinstance(node, ast.AnnAssign):
            allowed.add(id(node.target))
        elif isinstance(node, ast.While):
            allowed.add(id(node.test))
    found = [node.lineno for node in ast.walk(func)
             if isinstance(node, ast.Name) and node.id == "heap" and id(node) not in allowed]
    calls = [node.lineno for node in ast.walk(func)
             if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "heapify"]
    assert found == [] and calls == []
