"""Package layout rules that no single behaviour test would catch."""
import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "privcause"


def private_imports(source: str) -> list[str]:
    """Every `from .<module> import _name` in a module's source."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.level > 0:
            found += [f"{node.module}.{a.name}" for a in node.names if a.name.startswith("_")]
    return found


def declared_exports(source: str) -> list[str] | None:
    """The names a module's source lists in ``__all__``, or None if it has none."""
    for node in ast.parse(source).body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            return ast.literal_eval(node.value)
    return None


def unexported_imports(sources: dict[str, str]) -> list[str]:
    """Every public name one of the given modules imports from another
    that declares ``__all__`` without it, as ``importer: module.name``."""
    exports = {module: declared_exports(source) for module, source in sources.items()}
    found = []
    for importer, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.ImportFrom) and node.level > 0 and exports.get(node.module) is not None:
                found += [
                    f"{importer}: {node.module}.{a.name}"
                    for a in node.names
                    if not a.name.startswith("_") and a.name not in exports[node.module]
                ]
    return found


def test_no_module_imports_another_modules_private_helper():
    offenders = {
        path.name: names
        for path in sorted(PACKAGE.glob("*.py"))
        if (names := private_imports(path.read_text()))
    }
    assert offenders == {}
    # a public name one module takes from another is in the exporter's __all__
    sources = {path.stem: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    assert unexported_imports(sources) == []
    # the rule sees a name left out of __all__, and not one listed there
    exporter = '__all__ = ["listed"]\ndef listed(): pass\ndef unlisted(): pass\n'
    importer = "from .exporter import listed, unlisted\n"
    assert unexported_imports({"exporter": exporter, "importer": importer}) == [
        "importer: exporter.unlisted"
    ]


def quantile_calls(source: str) -> list[str]:
    """Every numpy quantile or percentile routine a module's source names,
    as an attribute (``np.quantile``) or an import (``from numpy import``)."""
    routines = {"quantile", "percentile", "nanquantile", "nanpercentile"}
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr in routines:
            found.append(node.attr)
        elif isinstance(node, ast.ImportFrom) and node.module == "numpy":
            found += [a.name for a in node.names if a.name in routines]
    return found


def test_quartiles_are_computed_in_one_place():
    """Every quartile in the package comes from _arrays.quartiles on a
    sorted vector, so no module takes its own with numpy's routines."""
    offenders = {
        path.name: names
        for path in sorted(PACKAGE.glob("*.py"))
        if (names := quantile_calls(path.read_text()))
    }
    assert offenders == {}


def names_used(source: str) -> set[str]:
    """Every identifier a module's source defines, imports or reads, or
    passes or takes as a keyword."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.asname or node.name)
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            found.add(node.name)
        elif isinstance(node, (ast.arg, ast.keyword)) and node.arg is not None:
            found.add(node.arg)
    return found


def names_assigned(source: str) -> set[str]:
    """Every identifier that an assignment in a module's source binds."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Assign):
            found.update(*(names_used(ast.unparse(target)) for target in node.targets))
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
            found.update(names_used(ast.unparse(node.target)))
    return found


def test_the_iqr_is_read_in_one_place():
    """Every IQR in the package is read by _arrays.sorted_iqr, so no other
    module takes quartiles itself."""
    users = [
        path.name for path in sorted(PACKAGE.glob("*.py")) if "quartiles" in names_used(path.read_text())
    ]
    assert users == ["_arrays.py"]
    # the rule sees the import and call it replaced
    assert "quartiles" in names_used("from ._arrays import quartiles\nq25, q75 = quartiles(v)")


LOW_RANK_RULE = {"LOW_RANK_MIN_SIZE", "RANK_CAP_DIVISOR", "LANDMARK_STEPS"}


def test_the_low_rank_rule_is_read_in_one_place():
    """Every low-rank route reads its size floor, rank cap and landmark
    grid spacing from KernelSpec.pivoted_cholesky and
    KernelSpec.landmarks, so no other module restates them."""
    users = [
        path.name for path in sorted(PACKAGE.glob("*.py")) if LOW_RANK_RULE & names_used(path.read_text())
    ]
    assert users == ["scores.py"]
    # the rule sees the import and the checks it replaced
    source = (
        "from .scores import LOW_RANK_MIN_SIZE\nif n >= LOW_RANK_MIN_SIZE: cap = n // scores.RANK_CAP_DIVISOR\n"
        "grid = np.linspace(-1, 1, math.ceil(2 * scores.LANDMARK_STEPS / h) + 1)"
    )
    assert LOW_RANK_RULE <= names_used(source)


def test_only_inference_decides_whether_fits_may_be_low_rank():
    """A report's target sets whether its fits may be low-rank, in
    inference; only regression, whose fit_krr takes the route, also
    names the flag."""
    users = [path.name for path in sorted(PACKAGE.glob("*.py")) if "low_rank" in names_used(path.read_text())]
    assert users == ["inference.py", "regression.py"]
    # the rule sees the keyword a caller passed and a parameter
    assert {"low_rank"} <= names_used('anm_infer_detailed(parts, kind, low_rank="train" not in sides)')
    assert {"low_rank"} <= names_used("def fit(x, *, low_rank=False): pass")


def test_the_private_score_bandwidth_is_set_in_one_place():
    """Every private HSIC is scored at inference's PRIVATE_SCORE_BANDWIDTH;
    other modules import it, and none restates it."""
    owners = [
        path.name
        for path in sorted(PACKAGE.glob("*.py"))
        if "PRIVATE_SCORE_BANDWIDTH" in names_assigned(path.read_text())
    ]
    assert owners == ["inference.py"]
    # the rule sees an assignment, and not an import or a read
    source = "from .inference import PRIVATE_SCORE_BANDWIDTH\nk = KernelSpec(PRIVATE_SCORE_BANDWIDTH)"
    assert names_assigned(source) == {"k"}
    assert names_assigned("PRIVATE_SCORE_BANDWIDTH: float = 0.5") == {"PRIVATE_SCORE_BANDWIDTH"}


def imported_modules(source: str) -> set[str]:
    """The top-level name of every module a module's source imports."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found.update(a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.add(node.module.split(".")[0])
    return found


def test_csv_tables_are_written_in_one_place():
    """Every CSV table in the package is written by experiments.csv_table,
    so one rule renders None, bools and floats."""
    writers = [
        path.name for path in sorted(PACKAGE.glob("*.py")) if "csv" in imported_modules(path.read_text())
    ]
    assert writers == ["experiments.py"]
    assert imported_modules("import csv\nfrom csv import writer") == {"csv"}


NATIVE_MODULES = ("ctypes", "numpy.ctypeslib", "scipy")


def native_imports(source: str) -> list[str]:
    """Every import in a module's source of ctypes, numpy.ctypeslib or
    scipy, or of a name inside one of them, written as a dotted name."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [f"{node.module}.{a.name}" for a in node.names]
        else:
            continue
        found += [n for n in names if any(n == m or n.startswith(f"{m}.") for m in NATIVE_MODULES)]
    return found


def test_native_routines_are_reached_from_one_module():
    """Only _blas binds native routines or calls scipy, so which library
    a fit runs on, and what a command imports at start-up, is decided in
    one place."""
    users = [path.name for path in sorted(PACKAGE.glob("*.py")) if native_imports(path.read_text())]
    assert users == ["_blas.py"]
    # the rule sees each form of the import
    source = "import ctypes\nimport numpy as np\nfrom numpy import ctypeslib\nfrom scipy.linalg import dposv"
    assert native_imports(source) == ["ctypes", "numpy.ctypeslib", "scipy.linalg.dposv"]


TARGET_NAMES = {"test", "train", "both"}


def target_comparisons(source: str) -> list[str]:
    """Every comparison of a value against a privacy target name, or a
    tuple of them, in a module's source (``target == "both"``,
    ``target in ("train", "both")``)."""
    def is_target(node) -> bool:
        if isinstance(node, ast.Tuple):
            return bool(node.elts) and all(is_target(e) for e in node.elts)
        return isinstance(node, ast.Constant) and node.value in TARGET_NAMES

    return [
        ast.unparse(node)
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Compare) and any(is_target(c) for c in node.comparators)
    ]


def test_targets_are_read_from_one_table():
    """What each target releases is spelled out once, in inference's
    TARGET_SIDES; no other module tests a value against a target name."""
    offenders = {
        path.name: found
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "inference.py" and (found := target_comparisons(path.read_text()))
    }
    assert offenders == {}
    # the rule sees the tuple form it replaced
    found = target_comparisons('if config.target in ("train", "both"): pass')
    assert found == ["config.target in ('train', 'both')"]


def shared_helpers(sources: dict[str, str]) -> dict[str, list[str]]:
    """Each top-level non-test function name defined in more than one of
    the given modules' sources, with the modules that define it."""
    defined: dict[str, list[str]] = {}
    for module, source in sources.items():
        for node in ast.parse(source).body:
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("test"):
                defined.setdefault(node.name, []).append(module)
    return {name: modules for name, modules in defined.items() if len(modules) > 1}


def test_each_test_oracle_is_defined_once():
    """A reference implementation or fixture helper that two test modules
    need lives in tests/oracles.py, so no two copies can drift apart."""
    tests = Path(__file__).resolve().parent
    sources = {path.name: path.read_text() for path in sorted(tests.glob("test_*.py"))}
    assert shared_helpers(sources) == {}
    # the rule sees a helper copied into a second module
    copy = "def cubic_split():\n    pass\n"
    assert shared_helpers({"a.py": copy, "b.py": copy}) == {"cubic_split": ["a.py", "b.py"]}


# Each config value's rule, by the message it raises, and the module that
# owns it; every other module calls the owner's check.
OWNED_RULES = {
    "lam must lie in (0, 1]": "regression.py",
    "test_fraction must lie in (0, 1)": "data_io.py",
    "unknown shape": "data_io.py",
    "need at least 8 samples of synthetic data": "data_io.py",
    "noise_level must be nonnegative": "data_io.py",
    "split too small": "data_io.py",
    "target must be one of": "inference.py",
    "requires delta > 0": "privacy.py",
    "kernel bandwidth must be positive and finite": "scores.py",
}


def rule_raises(source: str) -> list[str]:
    """The owned message of each raise statement in a module's source that
    states one, in source order; adjacent literals and f-strings are read
    as the one string they make."""
    return [
        message
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Raise)
        for message in OWNED_RULES
        if message in ast.unparse(node)
    ]


def test_each_config_rule_is_raised_in_one_place():
    """Each rule is raised from exactly one place under src/, in its
    owner, so no restated copy can drift from it."""
    sites = {message: [] for message in OWNED_RULES}
    for path in sorted(PACKAGE.glob("*.py")):
        for message in rule_raises(path.read_text()):
            sites[message].append(path.name)
    assert sites == {message: [owner] for message, owner in OWNED_RULES.items()}
    # the rule sees a restated check in each form, and not a call of the owner
    source = (
        'raise ValueError(f"lam must lie in (0, 1], got {lam}")\n'
        'raise ValueError(f"{kind} at {target} runs a gate, " "which requires delta > 0")\n'
        'raise ValueError("noise_level must be nonnegative")\n'
        "check_lam(lam)\n"
    )
    assert rule_raises(source) == [
        "lam must lie in (0, 1]", "requires delta > 0", "noise_level must be nonnegative"
    ]
