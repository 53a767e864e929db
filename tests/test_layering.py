"""The package's import layering, read off its source with `ast`.

- The verifier stays independent of construction: besides the standard
  library, `frobenius` imports only `model`, `polynomials` and `scalars`.
- The verifier divides no series: from `polynomials` it takes exactly the
  frame, Taylor-head and product kernels `FROBENIUS_FROM_POLYNOMIALS`.
- One kernel per job: the module-level functions `polynomials`, `frobenius`
  and `builder` define are exactly `MODULE_FUNCTIONS`, so `polynomials`
  holds the frame rule both ways (`_in_frame`, `_from_frame`), the one
  division kernel (`_taylor_head_ints`) and the one product kernel
  (`_product_sum`); a second one, or a private loop helper in `builder`,
  shows up as an edit here.
- One solver per quadratic: only `scalars` defines `exact_quadratic_roots`,
  `frobenius` takes no square root of its own, and `cli` leaves the float
  roots to `QuadraticConstraint.float_roots` (no `to_complex` or
  `solve_quadratic_float` of its own).
- The local analysis at the points is one loop: the public functions
  `frobenius` defines are exactly `verify` and `report_to_json_obj`, and
  `dimension` imports only `verify` from it.
- `dimension` uses `builder` through exactly `DIMENSION_FROM_BUILDER`: the
  over case reaches it as the Fredholm constraints and their values, so
  the h-system's row layout stays inside `builder`.
- Elimination is an oracle: only `builder` (for `Matrix`), `cli` (for
  det-check's `det`) and `__init__` import `linalg`.
- No package module imports a module of the test suite, and every import
  outside the package is from the standard library.
- The public surface is exactly `PUBLIC_NAMES`: widening or narrowing
  `fuchsian.__all__` shows up as an edit of this file.
- `Polynomial` is a coefficient container: the attributes and methods its
  class defines are exactly `POLYNOMIAL_NAMES`, so no arithmetic operator
  comes back to it unnoticed.  The tests' polynomial arithmetic is in `fraction_reference`.
- The package has no `assert` statement, so no correctness check disappears
  under `python -O`.
- The read-only rule is written once: `scalars._Frozen` is the one class
  that defines `__setattr__`, `__delattr__` and `__reduce__`, and every
  class the package defines derives from it, `GaussianRational` included,
  but the exceptions.
"""

import ast
import importlib
import sys
from pathlib import Path

import fuchsian

PACKAGE = Path(fuchsian.__file__).parent
PUBLIC_NAMES = [
    "CaseReport", "ExponentPair", "FuchsViolation", "FuchsianEquation", "FuchsianInstance",
    "GaussianRational", "InvalidInstance", "Matrix", "MomentaCheck", "Polynomial",
    "QuadraticConstraint", "SolveOutcome", "VerificationFailed", "VerificationReport",
    "build_h_system", "check_momenta", "classify", "construct", "eliminate",
    "equation_from_json_obj", "equation_to_json_obj", "exact_quadratic_roots",
    "float_obstructions", "fuchs_defect", "instance_from_json_obj", "instance_to_json_obj",
    "quadratic_constraints", "random_instance", "solve_g", "solve_h", "solve_quadratic_float",
    "solve_under", "verify",
]
POLYNOMIAL_NAMES = [
    "__init__", "__repr__", "__str__", "_value", "coefficient", "coeffs", "degree", "is_zero",
    "padded", "shift", "zero",
]
DIMENSION_FROM_BUILDER = [
    "VerificationFailed", "fredholm_terms", "fredholm_values", "solve_g", "solve_h",
]
FROBENIUS_FROM_POLYNOMIALS = ["_in_frame", "_product_sum", "_taylor_head_ints"]
MODULE_FUNCTIONS = {
    "polynomials": [
        "_from_frame", "_in_frame", "_monic_ints", "_product_sum", "_taylor_head_ints",
    ],
    "frobenius": [
        "_cleared_residual", "_frame", "_heads", "_indicial", "_log_free_check", "_momentum",
        "_pole_terms", "_recursion", "report_to_json_obj", "verify",
    ],
    "builder": [
        "_hermite_frame", "_rhs_terms", "_rhs_values", "build_h_system", "construct",
        "fredholm_terms", "fredholm_values", "h_matrix", "h_rhs_terms", "solve_g", "solve_h",
    ],
}
FROZEN_RULE = ("__setattr__", "__delattr__", "__reduce__")
TEST_MODULES = {path.stem for path in Path(__file__).parent.glob("*.py")}


def _imports(path: Path) -> list:
    """(module, imported names) for every import in the file; package
    modules are named fuchsian.<module>."""
    imports = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            imports += [(alias.name, ()) for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level and not node.module:
            imports += [("fuchsian." + alias.name, ()) for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            module = "fuchsian." + node.module if node.level else node.module
            imports.append((module, tuple(alias.name for alias in node.names)))
    return imports


def _package_imports() -> dict:
    return {path.stem: _imports(path) for path in sorted(PACKAGE.glob("*.py"))}


def test_frobenius_imports_only_model_polynomials_scalars():
    imported = [module for module, _ in _package_imports()["frobenius"]]
    assert imported
    for name in imported:
        top, _, rest = name.partition(".")
        if top == "fuchsian":
            assert rest in {"model", "polynomials", "scalars"}, name


def test_frobenius_divides_no_series():
    imported = [
        name
        for module, names in _package_imports()["frobenius"]
        if module == "fuchsian.polynomials"
        for name in names
    ]
    assert sorted(imported) == FROBENIUS_FROM_POLYNOMIALS


def test_kernel_set_is_pinned():
    for stem, names in MODULE_FUNCTIONS.items():
        tree = ast.parse((PACKAGE / f"{stem}.py").read_text(encoding="utf-8"))
        defined = [node.name for node in tree.body if isinstance(node, ast.FunctionDef)]
        assert sorted(defined) == names, stem


def _names(stem: str) -> set:
    """Every name and attribute name the module's source mentions."""
    tree = ast.parse((PACKAGE / f"{stem}.py").read_text(encoding="utf-8"))
    return {
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
    }


def test_one_solver_per_quadratic():
    definers = [
        path.stem
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.parse(path.read_text(encoding="utf-8")).body
        if isinstance(node, ast.FunctionDef) and node.name == "exact_quadratic_roots"
    ]
    assert definers == ["scalars"]
    assert {"exact_quadratic_roots"} <= _names("frobenius")
    assert "sqrt" not in _names("frobenius")
    assert not {"to_complex", "solve_quadratic_float"} & _names("cli")


def test_verify_is_the_one_local_analysis():
    tree = ast.parse((PACKAGE / "frobenius.py").read_text(encoding="utf-8"))
    public = [
        node.name
        for node in tree.body
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
    ]
    assert public == ["verify", "report_to_json_obj"]
    dimension = _package_imports()["dimension"]
    assert [names for module, names in dimension if module == "fuchsian.frobenius"] == [
        ("verify",)
    ]


def test_dimension_imports_only_public_builder_names():
    imported = [
        name
        for module, names in _package_imports()["dimension"]
        if module == "fuchsian.builder"
        for name in names
    ]
    assert sorted(imported) == DIMENSION_FROM_BUILDER


def test_only_builder_cli_and_init_import_linalg():
    importers = {}
    for stem, imports in _package_imports().items():
        for module, names in imports:
            if module == "fuchsian.linalg":
                importers.setdefault(stem, set()).update(names)
    assert set(importers) == {"__init__", "builder", "cli"}
    assert importers["builder"] == {"Matrix"}
    assert importers["cli"] == {"det"}


def test_package_imports_nothing_from_the_tests():
    modules = _package_imports()
    assert {"builder", "frobenius", "linalg"} <= set(modules)
    for stem, imports in modules.items():
        for module, _ in imports:
            top = module.partition(".")[0]
            assert top not in TEST_MODULES, (stem, module)
            assert top in ("fuchsian", "__future__") or top in sys.stdlib_module_names, (
                stem,
                module,
            )


def test_public_surface_is_pinned():
    assert fuchsian.__all__ == PUBLIC_NAMES
    for name in PUBLIC_NAMES:
        assert getattr(fuchsian, name) is not None, name


def test_polynomial_is_a_coefficient_container():
    # dunder data such as __doc__ and __slots__ varies with the Python version
    defined = vars(fuchsian.Polynomial).items()
    names = sorted(name for name, value in defined if not name.startswith("__") or callable(value))
    assert names == POLYNOMIAL_NAMES
    assert not hasattr(fuchsian.polynomials, "Z")


def test_package_has_no_assert_statement():
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
        assert not lines, (path.name, lines)


def test_one_class_holds_the_read_only_rule():
    defining, others = {}, set()
    for path in sorted(PACKAGE.glob("*.py")):
        module = importlib.import_module(f"fuchsian.{path.stem}".removesuffix(".__init__"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and item.name in FROZEN_RULE:
                        defining.setdefault(item.name, set()).add(f"{path.stem}.{node.name}")
                if not issubclass(getattr(module, node.name), fuchsian.scalars._Frozen):
                    others.add(node.name)
    assert defining == dict.fromkeys(FROZEN_RULE, {"scalars._Frozen"})
    assert others == {"FuchsViolation", "InvalidInstance", "VerificationFailed"}
