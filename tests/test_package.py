"""The package's public surface: each module's ``__all__``, re-exported."""

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
