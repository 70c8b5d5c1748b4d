"""The package's public surface: each module's ``__all__``, re-exported."""

import ast
import importlib
import os
import subprocess
import sys

import activeci

MODULES = ("fields", "kernels", "multipliers", "directions", "slabs", "iteration", "harness")

# every name the package exported when it listed them by hand
EXPORTED = (
    "SpectralField analyze besov_norm divergence fractional_laplacian gradient low_pass lp_norms "
    "mean_part multiply sample shell_project sobolev_norm ShellKernel Multiplier apply_T "
    "check_claims even_part ipm2d ipm3d load_multiplier mg sqg DirectionBasis build_basis "
    "gamma_coefficients Profile SlabSpec build_profile certify_scaling slab_fourier slab_physical "
    "IterationParams IterationState base_state build_increment make_params "
    "oscillation_diagnostics step RunConfig run"
).split()


def test_every_listed_name_exists_in_its_module():
    for name in MODULES:
        module = importlib.import_module(f"activeci.{name}")
        assert [n for n in module.__all__ if not hasattr(module, n)] == [], name


def test_package_exports_each_module_all_once():
    modules = [importlib.import_module(f"activeci.{name}") for name in MODULES]
    assert activeci.__all__ == [n for m in modules for n in m.__all__]
    assert len(set(activeci.__all__)) == len(activeci.__all__)
    assert all(getattr(activeci, n) is getattr(m, n) for m in modules for n in m.__all__)
    assert len(EXPORTED) == 41 and set(EXPORTED) <= set(activeci.__all__)


def test_import_loads_fields_first():
    # the module load order sets a run's peak memory
    spy = (
        "import sys\n"
        "seen = []\n"
        "class Spy:\n"
        "    def find_spec(self, name, path=None, target=None):\n"
        "        seen.append(name)\n"
        "sys.meta_path.insert(0, Spy())\n"
        "import activeci\n"
        "print([n for n in seen if n.startswith('activeci.')][0])\n"
    )
    env = dict(os.environ, PYTHONPATH=os.path.dirname(activeci.__path__[0]))
    out = subprocess.run([sys.executable, "-c", spy], capture_output=True, text=True, check=True, env=env)
    assert out.stdout.strip() == "activeci.fields"


# numpy calls that run BLAS or LAPACK code, whose pages add to a run's
# resident memory (build_basis' det, inv and dot paged in 0.47 MB);
# ``np.linalg.norm`` calls ``dot`` only without ``axis=``
BLAS_CALLS = {f"np.linalg.{f}" for f in "det inv solve lstsq pinv eig eigh svd".split()}
BLAS_CALLS |= {"np.dot", "np.vdot", "np.inner", "np.polyfit"}


def _dotted(node):
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    return ".".join([{"numpy": "np"}.get(node.id, node.id)] + parts[::-1])


def blas_calls(source: str) -> list:
    """``(line, name)`` of each BLAS or LAPACK call the source names."""
    found = []
    for node in ast.walk(ast.parse(source)):
        name = _dotted(node) if isinstance(node, ast.Attribute) else None
        if name in BLAS_CALLS:
            found.append((node.lineno, name))
        if isinstance(node, ast.Call) and _dotted(node.func) == "np.linalg.norm":
            if not any(k.arg == "axis" for k in node.keywords):
                found.append((node.lineno, "np.linalg.norm without axis="))
    return found


def test_blas_guard_finds_each_call():
    source = (
        "import numpy as np\n"
        "import numpy\n"
        "a = np.linalg.inv(x) + numpy.linalg.det(x)\n"
        "f = np.dot\n"
        "n = np.linalg.norm(v) + np.linalg.norm(v, axis=0)\n"
        "c = np.polyfit(x, y, 1)\n"
    )
    assert sorted(blas_calls(source)) == [
        (3, "np.linalg.det"),
        (3, "np.linalg.inv"),
        (4, "np.dot"),
        (5, "np.linalg.norm without axis="),
        (6, "np.polyfit"),
    ]


def test_package_calls_no_blas_or_lapack():
    # a run keeps BLAS and LAPACK code out of its resident memory
    package = os.path.dirname(activeci.__file__)
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name)) as fh:
                assert blas_calls(fh.read()) == [], name
