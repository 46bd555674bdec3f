"""No dead code in src/psinv: every private name is used, every public
function and class is reached, every parameter is read and every dataclass
field is read.

A private name (a `_`-prefixed function, class or module constant; dunder
names excluded) must be referenced somewhere in the package outside its own
definition.  So must a module-level public function or class, unless
`UNREACHED` names it with the reason it is kept; an import (the exports of
`__init__`) references nothing.  Every parameter of a named function must be
read in its body, apart from `self`, `cls` and `_`-prefixed names.  Every field of a
`@dataclass` must be read as an attribute somewhere in the package, its
tests or the benchmark (`perfbench` and its tests); a field that shares its
name with another attribute passes unseen, so before such a field is removed,
grep src, tests and perfbench for its readers by hand.
No rational is guessed either: the package never calls `limit_denominator`,
which rounds a float to a nearby fraction; exact answers are decided.
Elimination has one way in: the eliminators `_gauss_jordan` and
`_rref_float` are read only inside `linalg.solve_linear`.  The deciders
solve stationary laws one way: `criteria` reads `stationary_distribution`
only inside `CriterionContext.law`, which solves on first read.  A square
table has one way in too: `lattice2d` reads `product_context` only inside
`square_context`, which checks the rates and the marginal first.  Exact
integer arrays have one int64 policy: no module but `scalars` casts an array
to int64 or to Python ints with `.astype`; the others go through
`scalars.int_array` and its bound.
The source is read with `ast`, not imported.
"""
import ast
import os

import psinv

SOURCE = os.path.dirname(os.path.abspath(psinv.__file__))
TESTS = os.path.dirname(os.path.abspath(__file__))
PERFBENCH = os.path.join(os.path.dirname(TESTS), "perfbench")


def package_trees(folder=SOURCE):
    """{module name: parsed tree} of every module of the package (or of
    another folder)."""
    trees = {}
    for name in sorted(os.listdir(folder)):
        if name.endswith(".py"):
            with open(os.path.join(folder, name)) as handle:
                trees[name[:-3]] = ast.parse(handle.read())
    return trees


def is_private(name):
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def private_definitions(tree):
    """(name, node) of every private function and class, at any depth, and
    of every private module constant (the node is None for constants)."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if is_private(node.name):
                found.append((node.name, node))
    for node in tree.body:
        targets = node.targets if isinstance(node, ast.Assign) else \
            [node.target] if isinstance(node, ast.AnnAssign) else []
        for target in targets:
            if isinstance(target, ast.Name) and is_private(target.id):
                found.append((target.id, None))
    return found


def public_definitions(tree):
    """(name, node) of every module-level public function and class."""
    return [(node.name, node) for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and not node.name.startswith("_")]


def references(tree, skip=None):
    """Names read in a tree, as bare names or attributes, leaving out the
    subtree `skip`."""
    names = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        stack.extend(ast.iter_child_nodes(node))
    return names


def unreferenced_names(trees, definitions=private_definitions):
    """module.name of every definition that no tree references outside the
    definition itself."""
    read = {module: references(tree) for module, tree in trees.items()}
    dead = []
    for module, tree in trees.items():
        for name, node in definitions(tree):
            elsewhere = any(name in names for other, names in read.items() if other != module)
            if not elsewhere and name not in references(tree, skip=node):
                dead.append(f"{module}.{name}")
    return dead


def functions(tree, prefix=""):
    """(qualified name, node) of every named function, methods included."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            name = f"{prefix}{node.name}"
            if not isinstance(node, ast.ClassDef):
                yield name, node
            yield from functions(node, name + ".")
        else:
            yield from functions(node, prefix)


def unread_parameters(trees):
    unread = []
    for module, tree in trees.items():
        for name, node in functions(tree):
            args = node.args
            params = args.posonlyargs + args.args + args.kwonlyargs + \
                [a for a in (args.vararg, args.kwarg) if a is not None]
            read = {n.id for stmt in node.body for n in ast.walk(stmt)
                    if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            unread += [f"{module}.{name}.{p.arg}" for p in params
                       if p.arg not in read and p.arg not in ("self", "cls")
                       and not p.arg.startswith("_")]
    return unread


def unread_fields(trees, readers):
    """Class.field of every dataclass field in `trees` that no tree of
    `readers` reads as an attribute."""
    read = {node.attr for tree in readers for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    unread = []
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef) and any(
                    ast.unparse(d).startswith("dataclass") for d in node.decorator_list):
                unread += [f"{node.name}.{item.target.id}" for item in node.body
                           if isinstance(item, ast.AnnAssign) and item.target.id not in read]
    return unread


def rational_guesses(trees):
    """module:line of every call of a `limit_denominator` method."""
    return [f"{module}:{node.lineno}" for module, tree in trees.items()
            for node in ast.walk(tree) if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute) and node.func.attr == "limit_denominator"]


# the `.astype` arguments that pick int64 or Python ints
INTEGER_DTYPES = {"np.int64", "numpy.int64", "'int64'", "object", "'object'", "'O'",
                  "np.object_", "numpy.object_"}


def integer_casts(trees):
    """module:line of every `.astype` to int64 or to object outside `scalars`."""
    return [f"{module}:{node.lineno}" for module, tree in trees.items() if module != "scalars"
            for node in ast.walk(tree) if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute) and node.func.attr == "astype"
            and any(ast.unparse(arg) in INTEGER_DTYPES
                    for arg in node.args + [k.value for k in node.keywords])]


def readers(trees, names):
    """module.scope of every place that reads one of `names`, as a bare name
    or an attribute; the scope is the innermost enclosing function or class
    (qualified, as in `functions`), or <module>."""
    found = set()

    def visit(node, module, scope):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and node.id in names \
                or isinstance(node, ast.Attribute) and node.attr in names:
            found.add(f"{module}.{scope or '<module>'}")
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}" if scope else node.name
        for child in ast.iter_child_nodes(node):
            visit(child, module, scope)

    for module, tree in trees.items():
        visit(tree, module, "")
    return sorted(found)


ELIMINATORS = {"_gauss_jordan", "_rref_float"}

# public functions and classes that no package code reaches, and why each is kept
UNREACHED = {
    "cycle_balance": "tests compare the cycle decider and the oracle against it",
    "line_balance": "tests compare the line decider and the oracle against it",
    "segment_balance": "tests compare the segment scan against it",
    "symmetrize": "tests check that symmetrized rates keep invariant products",
    "bold_z_partial": "tests compare the square tables against it",
    "line_balance_2d": "tests compare check_product_2d against it",
    "growth_difference": "tests compare check_product_2d against it",
    "check_product_2d_incremental": "tests compare check_product_2d against it",
    "restrict_support": "error hints and golden notes point users to it",
    "project_jrm": "hidden Markov laws: projects a model's rates, no decider reads it yet",
    "hidden_marginal": "hidden Markov laws: projected marginals, no decider reads them yet",
    "check_multinomial_preservation": "truncated infinite alphabets, no subcommand yet",
    "check_product_general_graph": "products on graphs with pair rates, no subcommand yet",
    "segment_measure": "the benchmark's expected results read it",
    "catalog": "tests list the catalog's models through it",
}


def test_every_private_name_is_used():
    assert unreferenced_names(package_trees()) == []


def test_every_public_function_is_reached():
    unreached = unreferenced_names(package_trees(), public_definitions)
    assert sorted(name.split(".")[1] for name in unreached) == sorted(UNREACHED)


def test_every_parameter_is_read():
    assert unread_parameters(package_trees()) == []


def test_every_dataclass_field_is_read():
    trees = package_trees()
    readers = list(trees.values())
    for folder in (TESTS, PERFBENCH, os.path.join(PERFBENCH, "tests")):
        readers += package_trees(folder).values()
    assert unread_fields(trees, readers) == []


def test_no_rational_guesses():
    assert rational_guesses(package_trees()) == []


def test_integer_arrays_only_through_scalars():
    assert integer_casts(package_trees()) == []


def test_elimination_only_through_solve_linear():
    assert readers(package_trees(), ELIMINATORS) == ["linalg.solve_linear"]


def test_criteria_solve_laws_only_in_the_context():
    criteria = {"criteria": package_trees()["criteria"]}
    assert readers(criteria, {"stationary_distribution"}) == ["criteria.CriterionContext.law"]


def test_square_contexts_only_through_square_context():
    lattice2d = {"lattice2d": package_trees()["lattice2d"]}
    assert readers(lattice2d, {"product_context"}) == ["lattice2d.square_context"]


def test_checks_see_dead_code():
    tree = ast.parse("_USED = 1\n_UNUSED = 2\n"
                     "def _helper(a, b, _c, *rest):\n    return _helper(a, _USED)\n"
                     "class Box:\n    def _spin(self, cls):\n        return cls\n"
                     "    def __len__(self):\n        return 0\n")
    # _helper calls only itself
    assert sorted(unreferenced_names({"m": tree})) == ["m._UNUSED", "m._helper", "m._spin"]
    public = ast.parse("def solve(x):\n    return check(x)\n"
                       "def check(x):\n    return x\n"
                       "def spare(x):\n    return spare(x)\n"
                       "class Loose:\n    pass\n")
    exports = ast.parse("from .m import Loose, check, solve, spare\n")
    # spare calls only itself, and an import reaches nothing
    assert sorted(unreferenced_names({"m": public, "__init__": exports},
                                     public_definitions)) == ["m.Loose", "m.solve", "m.spare"]
    assert unread_parameters({"m": tree}) == ["m._helper.b", "m._helper.rest"]
    guess = ast.parse("from fractions import Fraction\n"
                      "x = Fraction(0.1).limit_denominator(10)\n")
    assert rational_guesses({"m": guess}) == ["m:2"]
    casts = ast.parse("import numpy as np\n"
                      "a = np.zeros(3).astype(np.int64)\n"
                      "b = a.astype(object)\n"
                      "c = a.astype(dtype='O')\n"
                      "d = a.astype(np.min_scalar_type(3))\n"
                      "e = a.astype(float)\n")
    assert integer_casts({"m": casts, "scalars": casts}) == ["m:2", "m:3", "m:4"]
    solver = ast.parse("def _gauss_jordan(rows, cols):\n    return rows\n"
                       "def solve_linear(rows, cols):\n    return _gauss_jordan(rows, cols)\n"
                       "class Law:\n    def solve(self, m):\n"
                       "        eliminate = m._rref_float\n        return eliminate\n"
                       "SHORTCUT = _gauss_jordan\n")
    assert readers({"m": solver}, ELIMINATORS) == \
        ["m.<module>", "m.Law.solve", "m.solve_linear"]
    square = ast.parse("from .criteria import product_context\n"
                       "def square_context(T2, rho):\n    return product_context(T2, rho)\n"
                       "class _Partials:\n    def __init__(self, T2, rho):\n"
                       "        self.ctx = product_context(T2, rho)\n")
    assert readers({"m": square}, {"product_context"}) == \
        ["m._Partials.__init__", "m.square_context"]


def test_field_check_sees_unread_fields():
    tree = ast.parse("from dataclasses import dataclass\n"
                     "@dataclass(frozen=True)\nclass Pair:\n    left: int\n    right: int\n"
                     "@dataclass\nclass One:\n    only: int\n"
                     "class Plain:\n    loose: int\n"
                     "def use(pair, one):\n    pair.right = one.only\n    return pair.left\n")
    # a store is no read, and only dataclasses have fields
    assert unread_fields({"m": tree}, [tree]) == ["Pair.right"]
