"""Tests for the Table 1 regeneration harness - the headline experiment."""

import hashlib
import warnings

import pytest

from repro.analysis.model_checker import check_naming_global
from repro.analysis.reachability import (
    arbitrary_initial_configurations,
    uniform_initial_configurations,
)
from repro.analysis.symbolic import check_liveness, check_sinks
from repro.analysis.weak_fairness import check_naming_weak
from repro.core.registry import protocol_for
from repro.core.spec import (
    Fairness,
    LeaderKind,
    MobileInit,
    ModelSpec,
    Symmetry,
    all_specs,
    table1_cell,
)
from repro.engine.population import Population
from repro.errors import BackendFallbackWarning
from repro.experiments.table1 import (
    _CHECK_BOUND,
    Table1Row,
    _check_roots,
    _check_sizes,
    _random_initials,
    _simulation_sizes,
    _start_spaces,
    main,
    render_rows,
    run_table1,
)


@pytest.fixture(scope="module")
def rows():
    # bound=4 keeps the whole regeneration fast while exercising N = P
    # for every protocol family.
    return run_table1(bound=4, seed=11, budget=300_000, samples=2)


@pytest.fixture(scope="module")
def fast_rows():
    with warnings.catch_warnings():
        # The homonym-preserving adversary inspects the configuration
        # and falls back to the reference simulator, with a warning.
        warnings.simplefilter("ignore", BackendFallbackWarning)
        return run_table1(
            bound=4, seed=11, budget=300_000, samples=2, backend="fast"
        )


class TestRegeneration:
    def test_all_cells_present(self, rows):
        assert len(rows) == 24

    def test_every_cell_matches_the_paper(self, rows):
        mismatches = [r for r in rows if not r.match]
        details = [(r.spec.describe(), r.evidence) for r in mismatches]
        assert not mismatches, details

    def test_feasible_cells_report_state_counts(self, rows):
        for row in rows:
            if row.expected.feasible:
                assert row.measured_states == row.expected.optimal_states(4)
            else:
                assert row.measured_states is None

    def test_evidence_collected_for_every_cell(self, rows):
        assert all(row.evidence for row in rows)

    def test_exact_checks_ran_for_feasible_cells(self, rows):
        # One check per checked size, each on the counts quotient.
        for row in rows:
            exact = [item for item in row.evidence if "exact" in item]
            sizes = _check_sizes(row.spec) if row.expected.feasible else []
            assert len(exact) == len(sizes)
            assert all(item.endswith(" count vectors)") for item in exact)

    def test_fast_backend_rows_equal_reference_rows(self, rows, fast_rows):
        # Evidence strings included: the Prop. 1 adversary's run reports
        # the same interaction count although the fast engine skips its
        # repeating cycles.
        assert fast_rows == rows


class TestRendering:
    def test_render_contains_all_cells(self, rows):
        text = render_rows(rows, bound=4)
        assert text.count("OK") == 24
        assert "asymmetric" in text and "symmetric" in text

    def test_render_marks_mismatches(self):
        spec = ModelSpec(
            Fairness.WEAK,
            Symmetry.SYMMETRIC,
            LeaderKind.NONE,
            MobileInit.ARBITRARY,
        )
        fake = Table1Row(
            spec=spec,
            expected=table1_cell(spec),
            measured_feasible=True,
            measured_states=None,
            match=False,
        )
        assert "FAIL" in render_rows([fake], bound=4)


class TestSimulationSizes:
    def make_spec(self, fairness, symmetry, leader):
        return ModelSpec(fairness, symmetry, leader, MobileInit.ARBITRARY)

    def test_prop13_cells_skip_n_2(self):
        spec = self.make_spec(
            Fairness.GLOBAL, Symmetry.SYMMETRIC, LeaderKind.NONE
        )
        assert all(n > 2 for n in _simulation_sizes(spec, 6))

    def test_protocol3_cells_skip_n_p_for_large_bounds(self):
        spec = self.make_spec(
            Fairness.GLOBAL, Symmetry.SYMMETRIC, LeaderKind.INITIALIZED
        )
        assert 6 not in _simulation_sizes(spec, 6)
        assert 3 in _simulation_sizes(spec, 3)

    def test_asymmetric_cells_include_full_range(self):
        spec = self.make_spec(
            Fairness.WEAK, Symmetry.ASYMMETRIC, LeaderKind.NONE
        )
        sizes = _simulation_sizes(spec, 5)
        assert 2 in sizes and 5 in sizes


FEASIBLE_SPECS = [spec for spec in all_specs() if table1_cell(spec).feasible]


class TestStartSampling:
    def test_starts_pinned(self):
        # The draws index into the sorted spaces, so sorting them once
        # per cell must leave every start of a seed where it was.
        starts = []
        for spec in FEASIBLE_SPECS:
            protocol = protocol_for(spec, 5)
            spaces = _start_spaces(protocol, spec)
            for n in _simulation_sizes(spec, 5):
                population = Population(n, protocol.requires_leader)
                starts += [
                    config.states
                    for config in _random_initials(
                        protocol, population, spec, 2018, 3, *spaces
                    )
                ]
        assert len(starts) == 180
        assert hashlib.sha256(repr(starts).encode()).hexdigest() == (
            "d1654cf85839902f33a486d3488b5a1ed4bed4406668c9556b89c4e8d5f87b92"
        )

    @pytest.mark.parametrize(
        "spec", FEASIBLE_SPECS, ids=lambda spec: spec.describe()
    )
    def test_leader_space_sorted_only_when_drawn(self, spec):
        # Every registered leader protocol designates an initial leader
        # state, so only a non-initialized leader is drawn at random.
        protocol = protocol_for(spec, 4)
        mobile_space, leader_space = _start_spaces(protocol, spec)
        assert mobile_space == sorted(protocol.mobile_state_space())
        if (
            protocol.requires_leader
            and spec.leader is LeaderKind.NON_INITIALIZED
        ):
            assert leader_space == sorted(
                protocol.leader_state_space(), key=repr
            )
        else:
            assert leader_space == []


def _exact_cases():
    for spec in all_specs():
        if table1_cell(spec).feasible:
            for n in _check_sizes(spec):
                yield pytest.param(spec, n, id=f"{spec.describe()}, N={n}")


class TestExactCheckOracle:
    """The labelled checkers stay the oracle of Table 1's exact evidence:
    on the same roots, the symbolic verdict each cell uses must equal
    the labelled one."""

    @pytest.mark.parametrize("spec,n", list(_exact_cases()))
    def test_symbolic_verdict_equals_labelled(self, spec, n):
        protocol = protocol_for(spec, _CHECK_BOUND)
        roots = _check_roots(spec, protocol)
        population = Population(n, protocol.requires_leader)
        enumerate_roots = (
            uniform_initial_configurations
            if roots["mobile_mode"] == "uniform"
            else arbitrary_initial_configurations
        )
        initial = list(
            enumerate_roots(protocol, population, roots["leader_states"])
        )
        if spec.fairness is Fairness.WEAK:
            labelled = check_naming_weak(protocol, population, initial)
            symbolic = check_liveness(protocol, n, **roots)
        else:
            labelled = check_naming_global(protocol, population, initial)
            symbolic = check_sinks(protocol, n, **roots)
        assert symbolic.holds == labelled.solves

    def test_covers_all_forty_instances(self):
        assert len(list(_exact_cases())) == 40


class TestInvalidBound:
    @pytest.mark.parametrize("bound", ["0", "1", "-3"])
    def test_bound_below_two_is_a_usage_error(self, capsys, bound):
        with pytest.raises(SystemExit) as exc:
            main(["--bound", bound])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert f"argument --bound: must be at least 2, got {bound}" in err
        assert "Traceback" not in out + err
