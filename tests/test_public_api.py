"""Public-API surface tests: imports, facade completeness, docstrings."""

import importlib
import inspect
import os
import subprocess
import sys

import pytest

SUBPACKAGES = [
    "repro",
    "repro.core",
    "repro.pepa",
    "repro.ctmc",
    "repro.dists",
    "repro.models",
    "repro.approx",
    "repro.sim",
    "repro.batch",
    "repro.experiments",
    "repro.sweep",
    "repro.serve",
    "repro.faults",
    "repro.obs",
]


class TestImports:
    @pytest.mark.parametrize("name", SUBPACKAGES)
    def test_importable(self, name):
        mod = importlib.import_module(name)
        assert mod.__doc__, f"{name} lacks a module docstring"

    @pytest.mark.parametrize("name", SUBPACKAGES)
    def test_all_resolves(self, name):
        mod = importlib.import_module(name)
        for sym in getattr(mod, "__all__", []):
            assert hasattr(mod, sym), f"{name}.__all__ lists missing {sym!r}"


class TestCoreFacade:
    def test_headline_workflow(self):
        from repro.core import TagsExponential, TagsParameters, build_tags_model

        m = TagsExponential(lam=5, mu=10, t=51, n=2, K1=2, K2=2)
        assert m.metrics().throughput > 0
        assert build_tags_model(TagsParameters(n=2, K1=2, K2=2))

    def test_version(self):
        import repro

        assert repro.__version__


class TestDocstrings:
    @pytest.mark.parametrize(
        "name",
        [
            "repro.pepa.semantics",
            "repro.pepa.statespace",
            "repro.ctmc.steady",
            "repro.models.tags_pepa",
            "repro.models.tags_hyper",
            "repro.models.tags_multinode",
            "repro.approx.balance",
            "repro.sim.runner",
            "repro.sweep.engine",
            "repro.sweep.cache",
            "repro.faults.plan",
            "repro.faults.injector",
            "repro.faults.breaker",
            "repro.serve.supervisor",
        ],
    )
    def test_public_callables_documented(self, name):
        mod = importlib.import_module(name)
        for sym in getattr(mod, "__all__", []):
            obj = getattr(mod, sym)
            if inspect.isfunction(obj) or inspect.isclass(obj):
                assert obj.__doc__, f"{name}.{sym} lacks a docstring"


class TestLazyScipy:
    def test_core_imports_leave_heavy_scipy_modules_unloaded(self):
        """SciPy's optimize, special and integrate are imported by the
        functions that use them: a figure, simulator or runtime import
        pays for none of them."""
        import repro

        src = os.path.dirname(os.path.dirname(repro.__file__))
        code = (
            "import sys\n"
            "import repro.experiments.figures, repro.sim, repro.serve\n"
            "heavy = ('scipy.optimize', 'scipy.special', 'scipy.integrate')\n"
            "print(','.join(m for m in heavy if m in sys.modules))\n"
        )
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        assert out.stdout.strip() == ""
