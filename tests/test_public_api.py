"""The public API surface: everything advertised in ``__all__`` must
exist, and the README quickstart must run verbatim."""

import importlib

import pytest

import repro
import repro.analysis
import repro.core
import repro.engine
import repro.experiments
import repro.faults
import repro.schedulers

PACKAGES = [
    repro,
    repro.analysis,
    repro.core,
    repro.engine,
    repro.experiments,
    repro.faults,
    repro.schedulers,
]


class TestExports:
    @pytest.mark.parametrize(
        "package", PACKAGES, ids=lambda p: p.__name__
    )
    def test_all_names_resolve(self, package):
        for name in package.__all__:
            assert hasattr(package, name), f"{package.__name__}.{name}"

    @pytest.mark.parametrize(
        "package", PACKAGES, ids=lambda p: p.__name__
    )
    def test_all_is_sorted_and_unique(self, package):
        names = [n for n in package.__all__ if n != "__version__"]
        assert len(set(names)) == len(names)

    def test_version_string(self):
        assert repro.__version__.count(".") == 2

    def test_submodules_importable(self):
        for module in (
            "repro.cli",
            "repro.errors",
            "repro.analysis.counterexample",
            "repro.core.transformer",
            "repro.core.leader_election",
            "repro.engine.ensemble",
            "repro.schedulers.graph_restricted",
            "repro.experiments.time_study",
            "repro.experiments.scaling",
        ):
            importlib.import_module(module)


class TestReadmeQuickstart:
    def test_quickstart_snippet_runs(self):
        from repro import (
            AsymmetricNamingProtocol,
            Configuration,
            NamingProblem,
            Population,
            RandomPairScheduler,
            run_protocol,
        )

        protocol = AsymmetricNamingProtocol(bound=8)
        population = Population(n_mobile=8)
        scheduler = RandomPairScheduler(population, seed=1)
        start = Configuration.uniform(population, 0)
        result = run_protocol(
            protocol, population, scheduler, start, NamingProblem()
        )
        assert result.converged
        assert len(set(result.names())) == 8
