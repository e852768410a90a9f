"""Public-API surface tests: everything advertised must exist and work."""

import importlib
import os
import pathlib
import subprocess
import sys

import pytest

import repro


class TestTopLevelExports:
    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_version(self):
        assert repro.__version__ == "1.7.0"

    def test_pyproject_reads_the_package_version(self):
        """The version lives in one place: the package metadata takes
        ``repro.__version__`` (it salts every cache key)."""
        tomllib = pytest.importorskip("tomllib")
        root = pathlib.Path(__file__).resolve().parents[1]
        with open(root / "pyproject.toml", "rb") as handle:
            project = tomllib.load(handle)
        assert "version" not in project["project"]
        assert project["project"]["dynamic"] == ["version"]
        assert (project["tool"]["setuptools"]["dynamic"]["version"]
                == {"attr": "repro.__version__"})

    def test_key_types_importable_from_top(self):
        from repro import (
            DMRConfig, GPU, GPUConfig, GlobalMemory, KernelBuilder,
            KernelResult, LaunchConfig, MappingPolicy, Program,
        )
        assert GPU and GPUConfig and DMRConfig  # noqa: S101 - smoke


class TestSubpackageExports:
    @pytest.mark.parametrize("module", [
        "repro.common", "repro.isa", "repro.kernel", "repro.sim",
        "repro.core", "repro.faults", "repro.baselines", "repro.power",
        "repro.workloads", "repro.analysis", "repro.obs",
    ])
    def test_subpackage_all_resolves(self, module):
        mod = importlib.import_module(module)
        for name in getattr(mod, "__all__", []):
            assert hasattr(mod, name), f"{module}.{name}"

    def test_sim_has_no_module_level_core_imports(self):
        """Layering rule (DESIGN.md): the substrate must not import the
        DMR layer at module scope — core plugs in through the
        controller protocol, with only function-local late imports."""
        import pathlib

        import repro.sim
        sim_dir = pathlib.Path(repro.sim.__file__).parent
        offenders = []
        for path in sim_dir.glob("*.py"):
            for line_number, line in enumerate(path.read_text().splitlines(), 1):
                if line.startswith(("from repro.core", "import repro.core")):
                    offenders.append(f"{path.name}:{line_number}")
        assert not offenders, offenders

    def test_obs_imports_stdlib_only(self):
        """Layering rule: ``repro.obs`` sits below the simulator — it
        may import nothing from the package beyond its own modules, so
        any component (sim, core, analysis, faults) can depend on it
        without cycles."""
        import pathlib

        import repro.obs
        obs_dir = pathlib.Path(repro.obs.__file__).parent
        offenders = []
        for path in obs_dir.glob("*.py"):
            for line_number, line in enumerate(path.read_text().splitlines(), 1):
                stripped = line.strip()
                if (stripped.startswith(("from repro.", "import repro."))
                        and not stripped.startswith(("from repro.obs",
                                                     "import repro.obs"))):
                    offenders.append(f"{path.name}:{line_number}")
        assert not offenders, offenders


_NO_NETWORKX_SCRIPT = """
import sys
sys.modules["networkx"] = None  # any later `import networkx` raises
import repro, repro.analysis.runner, repro.service.worker, repro.fuzz
from repro.workloads import get_workload
print(sorted(get_workload("bfs").prepare(0.25).program.reconvergence.items()))
"""


class TestNoNetworkx:
    """networkx is not a dependency, and nothing imports it again."""

    def test_package_runs_with_networkx_blocked(self):
        from repro.workloads import get_workload
        src = pathlib.Path(repro.__file__).resolve().parents[1]
        env = {**os.environ, "PYTHONPATH": str(src)}
        out = subprocess.run([sys.executable, "-c", _NO_NETWORKX_SCRIPT],
                             env=env, check=True, timeout=120,
                             capture_output=True, text=True).stdout
        table = get_workload("bfs").prepare(0.25).program.reconvergence
        assert table
        assert out.strip() == str(sorted(table.items()))

    def test_not_installed_by_packaging_or_ci(self):
        root = pathlib.Path(__file__).resolve().parents[1]
        for path in (root / "pyproject.toml",
                     root / ".github" / "workflows" / "ci.yml"):
            assert "networkx" not in path.read_text(), path


class TestDocstrings:
    @pytest.mark.parametrize("module", [
        "repro", "repro.common.bitops", "repro.common.config",
        "repro.isa.opcodes", "repro.kernel.builder", "repro.kernel.cfg",
        "repro.sim.sm", "repro.sim.simt_stack", "repro.sim.executor",
        "repro.core.rfu", "repro.core.inter_warp", "repro.core.intra_warp",
        "repro.core.replayq", "repro.core.mapping", "repro.core.diagnosis",
        "repro.core.recovery", "repro.faults.models",
        "repro.baselines.schemes", "repro.baselines.sampling",
        "repro.sim.regbank", "repro.power.model", "repro.workloads.base",
        "repro.analysis.runner", "repro.__main__",
        "repro.obs", "repro.obs.metrics", "repro.obs.probes",
        "repro.obs.tracer",
    ])
    def test_module_docstrings_present(self, module):
        mod = importlib.import_module(module)
        assert mod.__doc__ and len(mod.__doc__.strip()) > 20, module

    def test_public_classes_documented(self):
        from repro.core.rfu import RegisterForwardingUnit
        from repro.core.inter_warp import ReplayChecker
        from repro.sim.gpu import GPU
        from repro.sim.simt_stack import SIMTStack
        for cls in (RegisterForwardingUnit, ReplayChecker, GPU, SIMTStack):
            assert cls.__doc__, cls
            for name, member in vars(cls).items():
                if callable(member) and not name.startswith("_"):
                    assert member.__doc__, f"{cls.__name__}.{name}"
