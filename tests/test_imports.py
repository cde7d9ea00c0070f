"""Every name a module of the package imports is used in it, every private
function or class it defines is referenced in the package, no module uses
``numpy.linalg`` or drops the ints ``as_integers`` returns, no function
outside the CLI raises ``BadDims`` without parsing its integers with
``as_integers``, no module but ``matkernel`` scales by powers of two or
silences numpy's float warnings, no object is made without its constructor
but in ``symmetry._built``, no input is read with ``complex_array`` but by
the readers of a matrix, a stack and a vector, no module imports another
module's private name, every dataclass holding an array compares by
identity (``eq=False``), every module parses with the grammar of the oldest
Python that ``pyproject.toml`` declares, and the package re-exports the
paper's objects, not the batched forms behind them.

The package's ``__init__.py`` imports names only to re-export them, so it is
not walked for unused imports.  A name counts as used when the module refers
to it anywhere, annotations included; a private name counts as referenced
when some module of the package names it, as a name or as an attribute.
"""

import ast
import importlib
import pathlib
import re

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "opball"
MODULES = sorted(p.name for p in SRC.glob("*.py") if p.name != "__init__.py")


def _unused_imports(tree: ast.Module) -> list[str]:
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("module", MODULES)
def test_every_imported_name_is_used(module):
    tree = ast.parse((SRC / module).read_text(), filename=module)
    assert _unused_imports(tree) == []


def test_an_unused_import_is_found():
    tree = ast.parse("import math\nfrom os import path, sep\n\nprint(sep)\n")
    assert _unused_imports(tree) == ["math (line 1)", "path (line 2)"]


def _dropped_parses(tree: ast.Module) -> list[str]:
    """Each call of ``as_integers``, bare or as an attribute, made as an
    expression statement, so that the ints it returns are dropped."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Call):
            func = node.value.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name == "as_integers":
                found.append(f"{ast.unparse(node)} (line {node.lineno})")
    return found


@pytest.mark.parametrize("module", MODULES + ["__init__.py"])
def test_no_module_drops_the_ints_it_parses(module):
    # an entry computes with the ints as_integers returns, never the raw values
    tree = ast.parse((SRC / module).read_text(), filename=module)
    assert _dropped_parses(tree) == []


def test_a_dropped_parse_is_found():
    tree = ast.parse(
        "def f(n, m):\n    as_integers(n=n)\n    (m,) = as_integers(m=m)\n"
        "    matkernel.as_integers(depth=m)\n    return n + m\n"
    )
    assert _dropped_parses(tree) == [
        "as_integers(n=n) (line 2)", "matkernel.as_integers(depth=m) (line 4)",
    ]


def _unparsed_bad_dims(tree: ast.Module) -> list[str]:
    """Each function that raises ``BadDims``, bare or as an attribute, and
    calls no ``as_integers``, with the line of its first such raise;
    ``as_integers``, the parser itself, is not counted."""
    def name(node):
        return node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)

    found = []
    for func in ast.walk(tree):
        if not isinstance(func, ast.FunctionDef) or func.name == "as_integers":
            continue
        nodes = list(ast.walk(func))
        raises = [
            node.lineno for node in nodes
            if isinstance(node, ast.Raise) and name(
                node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            ) == "BadDims"
        ]
        parses = any(
            isinstance(node, ast.Call) and name(node.func) == "as_integers" for node in nodes
        )
        if raises and not parses:
            found.append(f"{func.name} (line {min(raises)})")
    return found


@pytest.mark.parametrize("module", [m for m in MODULES if m != "cli.py"] + ["__init__.py"])
def test_a_bad_dimension_is_one_that_was_parsed(module):
    # BadDims is the error of a size, depth, count or seed, which an entry
    # parses with as_integers; a misfit operand is a ShapeMismatch.  The CLI
    # range-checks its parsed options itself
    tree = ast.parse((SRC / module).read_text(), filename=module)
    assert _unparsed_bad_dims(tree) == []


def test_an_unparsed_bad_dims_is_found():
    tree = ast.parse(
        "def as_integers(**values):\n    raise BadDims('not an integer')\n\n\n"
        "def depth(t, d):\n    (d,) = matkernel.as_integers(d=d)\n"
        "    raise errors.BadDims(f'depth {d}')\n\n\n"
        "def fit(t, pair):\n    if t.dim_h != pair.dim_dst:\n"
        "        raise errors.BadDims('pair')\n    raise BadDims\n\n\n"
        "def other(m):\n    raise ShapeMismatch(m)\n"
    )
    assert _unparsed_bad_dims(tree) == ["fit (line 12)"]


def _linalg_uses(tree: ast.Module) -> list[str]:
    """Each import of ``numpy.linalg`` or of a name from it, and each
    ``.linalg`` attribute, however deep (``np.core.linalg``), with its line."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [f"{node.module}.{alias.name}" for alias in node.names]
        elif isinstance(node, ast.Attribute):
            names = [node.attr]
        else:
            continue
        if any("linalg" in name.split(".") for name in names):
            found.append(f"{ast.unparse(node)} (line {node.lineno})")
    return found


@pytest.mark.parametrize("module", MODULES + ["__init__.py"])
def test_no_module_uses_numpy_linalg(module):
    # numpy.linalg is the test suite's oracle; the package solves with its own kernel
    tree = ast.parse((SRC / module).read_text(), filename=module)
    assert _linalg_uses(tree) == []


def test_a_numpy_linalg_use_is_found():
    tree = ast.parse(
        "import numpy as np\nimport numpy.linalg\nfrom numpy import linalg\n"
        "from numpy.linalg import eigh\n\nnp.linalg.norm(np.eye(2))\nnp.abs(1)\n"
        "np.core.linalg.eigh(np.eye(2))\n"
    )
    assert _linalg_uses(tree) == [
        "import numpy.linalg (line 2)", "from numpy import linalg (line 3)",
        "from numpy.linalg import eigh (line 4)", "np.linalg (line 6)",
        "np.core.linalg (line 8)",
    ]


FLOAT_RANGE_NAMES = ("errstate", "frexp", "ldexp")


def _float_range_uses(tree: ast.Module) -> list[str]:
    """Each import of ``errstate``, ``frexp`` or ``ldexp`` from numpy, and
    each ``np.<name>`` or ``numpy.<name>`` attribute of them, with its line,
    in line order."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "numpy":
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            names = [node.attr] if node.value.id in ("np", "numpy") else []
        else:
            continue
        if any(name in FLOAT_RANGE_NAMES for name in names):
            found.append((node.lineno, f"{ast.unparse(node)} (line {node.lineno})"))
    return [text for _, text in sorted(found)]


@pytest.mark.parametrize("module", [m for m in MODULES if m != "matkernel.py"] + ["__init__.py"])
def test_only_the_kernel_scales_or_silences_float_warnings(module):
    # matkernel owns the float range: _pow2_scaled / _unscaled scale, and
    # in_float_range is the one guard on a product of a caller's operands
    tree = ast.parse((SRC / module).read_text(), filename=module)
    assert _float_range_uses(tree) == []


def test_a_float_range_use_is_found():
    tree = ast.parse(
        "import numpy as np\nfrom numpy import errstate, ldexp\n\n"
        "with np.errstate(over='ignore'):\n    x = np.frexp(2.0)\nmath.ldexp(1.0, 3)\n"
        "np.exp(1.0)\n"
    )
    assert _float_range_uses(tree) == [
        "from numpy import errstate, ldexp (line 2)", "np.errstate (line 4)",
        "np.frexp (line 5)",
    ]


def _inside(tree: ast.Module, allowed: tuple[str, ...]) -> set[int]:
    """The ids of the nodes of the top-level functions named in ``allowed``."""
    return {
        id(node)
        for top in tree.body
        if isinstance(top, ast.FunctionDef) and top.name in allowed
        for node in ast.walk(top)
    }


def _stray_constructions(tree: ast.Module, allowed: str) -> list[str]:
    """Each ``object.__new__`` attribute outside the top-level function
    ``allowed``, with its line, in line order."""
    inside = _inside(tree, (allowed,))
    found = [
        (node.lineno, f"{ast.unparse(node)} (line {node.lineno})")
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr == "__new__"
        and isinstance(node.value, ast.Name) and node.value.id == "object"
        and id(node) not in inside
    ]
    return [text for _, text in sorted(found)]


@pytest.mark.parametrize("module", MODULES + ["__init__.py"])
def test_a_pair_skips_its_constructor_only_in_built(module):
    # symmetry._built is the one place an object is made without its
    # constructor: the pairs of exact, derived and stack-gated frames
    tree = ast.parse((SRC / module).read_text(), filename=module)
    assert _stray_constructions(tree, "_built" if module == "symmetry.py" else "") == []


def test_a_stray_construction_is_found():
    tree = ast.parse(
        "def _built(j):\n    return object.__new__(Pair)\n\n\n"
        "def pairs(frames):\n    new = object.__new__\n"
        "    return [object.__new__(Pair) for _ in frames]\n\n\n"
        "class Pair:\n    def __new__(cls):\n        return super().__new__(cls)\n"
    )
    assert _stray_constructions(tree, "_built") == [
        "object.__new__ (line 6)", "object.__new__ (line 7)",
    ]
    assert len(_stray_constructions(tree, "")) == 3


def _reader_calls(tree: ast.Module, allowed: tuple[str, ...]) -> list[str]:
    """Each call of ``complex_array``, bare or as an attribute, outside the
    top-level functions ``allowed``, with its line, in line order."""
    inside = _inside(tree, allowed)
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and id(node) not in inside:
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name == "complex_array":
                found.append((node.lineno, f"{ast.unparse(node)} (line {node.lineno})"))
    return [text for _, text in sorted(found)]


# module -> the readers that may call complex_array: one per input kind
READERS = {"matkernel.py": ("as_cmat", "as_cstack"), "symmetry.py": ("conj_apply",)}


@pytest.mark.parametrize("module", MODULES + ["__init__.py"])
def test_an_input_is_read_only_by_its_kinds_reader(module):
    # a matrix is read by as_cmat, a stack by as_cstack, a vector by
    # symmetry.conj_apply; every other entry goes through one of them
    tree = ast.parse((SRC / module).read_text(), filename=module)
    assert _reader_calls(tree, READERS.get(module, ())) == []


def test_a_stray_reader_is_found():
    tree = ast.parse(
        "def as_cmat(a):\n    return complex_array(a)\n\n\n"
        "def fro_norm(a):\n    m = complex_array(a)\n"
        "    return [matkernel.complex_array(x, 'a vector') for x in m]\n"
    )
    assert _reader_calls(tree, ("as_cmat",)) == [
        "complex_array(a) (line 6)", "matkernel.complex_array(x, 'a vector') (line 7)",
    ]
    assert len(_reader_calls(tree, ())) == 3


def _stray_guards(tree: ast.Module, defaults: bool) -> list[str]:
    """Each float literal between 0 and 1e-6, a guard threshold's size, with
    its line, in line order; with ``defaults``, one given as the
    ``default=`` of an ``add_argument`` call is not counted."""
    options = {
        id(keyword.value)
        for node in ast.walk(tree)
        if defaults and isinstance(node, ast.Call)
        and getattr(node.func, "attr", None) == "add_argument"
        for keyword in node.keywords
        if keyword.arg == "default"
    }
    found = [
        (node.lineno, f"{ast.unparse(node)} (line {node.lineno})")
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and type(node.value) is float
        and 0.0 < node.value < 1e-6 and id(node) not in options
    ]
    return [text for _, text in sorted(found)]


@pytest.mark.parametrize("module", [m for m in MODULES + ["__init__.py"] if m != "tolerances.py"])
def test_a_guard_threshold_lives_in_the_record(module):
    # every guard is a field of tolerances.DEFAULT; the CLI's --tol defaults
    # are its own options
    tree = ast.parse((SRC / module).read_text(), filename=module)
    assert _stray_guards(tree, defaults=module == "cli.py") == []


def test_a_stray_guard_is_found():
    tree = ast.parse(
        "def gate(x):\n    if abs(x) < 1e-12:\n        raise ValueError\n"
        "    return x * 0.0 + 1e-3\n\n\n"
        "parser.add_argument('--tol', type=float, default=1e-10)\n"
        "parser.add_argument('--eps', type=float, help=str(-1e-9))\n"
    )
    assert _stray_guards(tree, defaults=True) == ["1e-12 (line 2)", "1e-09 (line 8)"]
    assert len(_stray_guards(tree, defaults=False)) == 3


def _value_compared_array_records(tree: ast.Module) -> list[str]:
    """Each class decorated ``@dataclass`` without ``eq=False`` that has a
    field annotated with ``ndarray``, with its line: the generated ``==``
    would compare arrays, whose truth value is ambiguous."""
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef):
            continue
        for deco in node.decorator_list:
            func = deco.func if isinstance(deco, ast.Call) else deco
            if getattr(func, "attr", getattr(func, "id", None)) != "dataclass":
                continue
            keywords = deco.keywords if isinstance(deco, ast.Call) else []
            if any(k.arg == "eq" and getattr(k.value, "value", True) is False for k in keywords):
                continue
            annotations = [s.annotation for s in node.body if isinstance(s, ast.AnnAssign)]
            if any(getattr(n, "attr", getattr(n, "id", None)) == "ndarray"
                   for a in annotations for n in ast.walk(a)):
                found.append(f"{node.name} (line {node.lineno})")
    return found


@pytest.mark.parametrize("module", MODULES)
def test_a_record_holding_arrays_compares_by_identity(module):
    tree = ast.parse((SRC / module).read_text(), filename=module)
    assert _value_compared_array_records(tree) == []


def test_a_value_compared_array_record_is_found():
    tree = ast.parse(
        "import dataclasses\nfrom dataclasses import dataclass\nimport numpy as np\n\n"
        "@dataclass(frozen=True)\nclass A:\n    x: np.ndarray\n\n"
        "@dataclass(frozen=True, eq=False)\nclass B:\n    x: np.ndarray\n\n"
        "@dataclasses.dataclass\nclass C:\n    x: np.ndarray | None = None\n\n"
        "@dataclass\nclass D:\n    x: float\n"
    )
    assert _value_compared_array_records(tree) == ["A (line 6)", "C (line 14)"]


# the oldest Python that pyproject.toml's requires-python admits
OLDEST_PYTHON = (3, 10)


@pytest.mark.parametrize("module", MODULES + ["__init__.py"])
def test_every_module_parses_on_the_oldest_python(module):
    ast.parse((SRC / module).read_text(), filename=module, feature_version=OLDEST_PYTHON)


def test_newer_grammar_is_refused_on_the_oldest_python():
    source = "try:\n    pass\nexcept* ValueError:\n    pass\n"
    ast.parse(source)
    with pytest.raises(SyntaxError):
        ast.parse(source, feature_version=OLDEST_PYTHON)


def test_the_oldest_python_is_the_declared_one():
    pyproject = (SRC.parent.parent / "pyproject.toml").read_text()
    declared = re.search(r'^requires-python = ">=(\d+)\.(\d+)"$', pyproject, re.MULTILINE)
    assert tuple(map(int, declared.groups())) == OLDEST_PYTHON


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def _foreign_private_names(tree: ast.Module) -> list[str]:
    """Each single-underscore name taken from another module of the package,
    imported (``from .x import _y``, or ``from opball.x import _y``) or read
    as an attribute of a module of the package bound by an import
    (``x._y``), and each private module path imported (``from ._x import
    y``, ``import opball._x``), with its line, in line order."""
    modules, found = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
            node.level or (node.module or "").split(".")[0] == "opball"
        ):
            path = "." * node.level + (node.module or "")
            if any(_private(part) for part in path.split(".")):
                found.append((node.lineno, f"{path} (line {node.lineno})"))
            for alias in node.names:
                if node.module is None or node.module == "opball":
                    modules.add(alias.asname or alias.name)
                if _private(alias.name):
                    found.append((node.lineno, f"{alias.name} (line {node.lineno})"))
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "opball":
                    modules.add(alias.asname or alias.name)
                    if any(_private(part) for part in alias.name.split(".")):
                        found.append((node.lineno, f"{alias.name} (line {node.lineno})"))
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and _private(node.attr) and (
            ast.unparse(node.value) in modules
        ):
            found.append((node.lineno, f"{ast.unparse(node)} (line {node.lineno})"))
    return [text for _, text in sorted(found)]


@pytest.mark.parametrize("module", MODULES + ["__init__.py"])
def test_no_module_imports_another_modules_private_name(module):
    # a private name is used only in the module that defines it; another
    # module goes through a public name
    tree = ast.parse((SRC / module).read_text(), filename=module)
    assert _foreign_private_names(tree) == []


def test_a_foreign_private_name_is_found():
    tree = ast.parse(
        "from . import matkernel\nfrom .ball import defects, _lift\n"
        "from .matkernel import _freeze as freeze, __all__\nimport opball.symmetry as sym\n"
        "import opball.ball\n\n\ndef f(self):\n    self._x = matkernel._jacobi(matkernel.adj)\n"
        "    return sym._built(opball.ball._lift, matkernel.__name__)\n"
        "\n\nfrom ._internal import helper\nimport opball._hidden\n"
    )
    assert _foreign_private_names(tree) == [
        "_lift (line 2)", "_freeze (line 3)", "matkernel._jacobi (line 9)",
        "opball.ball._lift (line 10)", "sym._built (line 10)",
        "._internal (line 13)", "opball._hidden (line 14)",
    ]


def _unreferenced_private(trees) -> list[str]:
    """The single-underscore functions and classes defined in ``trees`` that
    no tree refers to."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    defined = {
        node.name
        for tree in trees
        for node in ast.walk(tree)
        if isinstance(node, defs) and node.name.startswith("_") and not node.name.startswith("__")
    }
    referred = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                referred.add(node.id)
            elif isinstance(node, ast.Attribute):
                referred.add(node.attr)
    return sorted(defined - referred)


def test_every_private_function_is_referenced():
    trees = [ast.parse(p.read_text(), filename=p.name) for p in sorted(SRC.glob("*.py"))]
    assert _unreferenced_private(trees) == []


def test_an_unreferenced_private_function_is_found():
    tree = ast.parse(
        "def _used():\n    pass\n\n\ndef _dead():\n    _used()\n\n\n"
        "class _Gone:\n    def _method(self):\n        self._used()\n"
    )
    assert _unreferenced_private([tree]) == ["_Gone", "_dead", "_method"]



# module -> names it defines that the package does not re-export: the
# batched forms behind the paper's objects, and the tolerance record's class
UNEXPORTED = {
    "ball": ("defects", "lifts", "mobius_images"),
    "matkernel": ("powers", "transport"),
    "symmetry": ("extension_blocks", "induced_pairs", "symmetry_residuals"),
    "tolerances": ("Tolerances",),
    "transform": ("inverse_bounded_transforms", "left_defects"),
}


def test_the_package_exports_the_papers_objects():
    package = importlib.import_module("opball")
    for module, names in UNEXPORTED.items():
        defining = importlib.import_module(f"opball.{module}")
        for name in names:
            assert not hasattr(package, name), name
            assert callable(getattr(defining, name)), f"opball.{module}.{name}"
    assert not hasattr(package, "truncate")
    assert not hasattr(importlib.import_module("opball.density"), "truncate")
    # one name per concept: herm_eig returns its eigenpairs as a tuple, and
    # the disc is the 1 x 1 ball, guarded by OutOfBall
    for module in (package, importlib.import_module("opball.matkernel"),
                   importlib.import_module("opball.errors")):
        assert not hasattr(module, "HermSpectrum")
        assert not hasattr(module, "OutOfDisc")
    # a bad depth is a bad dimension, and moving a center to the origin is
    # the inverse Moebius map under its second name
    for module in (package, importlib.import_module("opball.errors")):
        assert not hasattr(module, "BadDepth")
    ball = importlib.import_module("opball.ball")
    assert ball.mobius_to_origin is ball.mobius_inv


def test_a_gram_factor_is_a_plain_record():
    # powers and transports are taken through matkernel.powers and
    # matkernel.transport only
    factor = importlib.import_module("opball.matkernel").GramFactor
    assert not hasattr(factor, "power")
    assert not hasattr(factor, "transport")
