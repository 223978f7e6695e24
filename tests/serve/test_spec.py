"""Tests for canonical spec hashing (fingerprints, job keys, tokens)."""

import pytest

from repro.core.asymmetric import AsymmetricNamingProtocol
from repro.engine.configuration import Configuration
from repro.engine.population import Population
from repro.engine.problems import NamingProblem
from repro.engine.protocol import PopulationProtocol
from repro.schedulers.random_pair import RandomPairScheduler
from repro.serve.spec import (
    JobSpec,
    callable_token,
    job_key,
    protocol_fingerprint,
    resolve_backend,
)


def _scheduler_factory(population, seed):
    return RandomPairScheduler(population, seed=seed)


def _initial_factory(population, seed):
    return Configuration.uniform(population, 0)


def _other_initial_factory(population, seed):
    return Configuration.uniform(population, 1)


def make_spec(**overrides):
    kwargs = dict(
        protocol=AsymmetricNamingProtocol(5),
        population=Population(40),
        scheduler_factory=_scheduler_factory,
        initial_factory=_initial_factory,
        problem=NamingProblem(),
        seeds=(0, 1, 2),
        backend="batch",
    )
    kwargs.update(overrides)
    return JobSpec(**kwargs)


class Unfingerprintable(PopulationProtocol):
    """A protocol whose state space cannot be enumerated."""

    display_name = "unfingerprintable"

    def transition(self, p, q):
        return p, q

    def mobile_state_space(self):
        raise NotImplementedError("no enumerable state space")


class TestProtocolFingerprint:
    def test_equal_instances_share_fingerprint(self):
        fp1 = protocol_fingerprint(AsymmetricNamingProtocol(5))
        fp2 = protocol_fingerprint(AsymmetricNamingProtocol(5))
        assert fp1 is not None
        assert fp1 == fp2

    def test_different_protocols_differ(self):
        fp1 = protocol_fingerprint(AsymmetricNamingProtocol(4))
        fp2 = protocol_fingerprint(AsymmetricNamingProtocol(5))
        assert fp1 != fp2

    def test_unfingerprintable_protocol_is_none(self):
        assert protocol_fingerprint(Unfingerprintable()) is None


class TestCallableToken:
    def test_function_token_is_dotted_path(self):
        token = callable_token(_scheduler_factory)
        assert token.endswith(":_scheduler_factory")

    def test_none_token(self):
        assert callable_token(None) == "none"

    def test_instance_with_repr_includes_repr(self):
        token = callable_token(NamingProblem())
        assert token.split("|", 1)[0].endswith(":NamingProblem")

    def test_tokens_are_process_independent(self):
        # Two equal instances must token identically (no id()/address).
        assert callable_token(NamingProblem()) == callable_token(
            NamingProblem()
        )


class TestResolveBackend:
    def test_explicit_backend_passes_through(self):
        assert resolve_backend("fast", Population(10)) == "fast"

    def test_auto_matches_run_ensemble_thresholds(self):
        for n, backend in (
            (10, "batch"),
            (9_999, "batch"),
            (10_000, "bleap"),
            (999_999, "bleap"),
            (1_000_000, "fluid"),
        ):
            assert resolve_backend("auto", Population(n)) == backend, n


class TestJobKey:
    def test_equal_specs_share_key(self):
        assert job_key(make_spec()) == job_key(make_spec())

    def test_seeds_enter_the_key(self):
        assert job_key(make_spec()) != job_key(make_spec(seeds=(3, 4, 5)))

    def test_budget_enters_the_key(self):
        assert job_key(make_spec()) != job_key(
            make_spec(max_interactions=999)
        )

    def test_backend_enters_the_key(self):
        assert job_key(make_spec(backend="batch")) != job_key(
            make_spec(backend="fast")
        )

    def test_sanitize_enters_the_key(self):
        assert job_key(make_spec()) != job_key(make_spec(sanitize=True))

    def test_factories_enter_the_key(self):
        assert job_key(make_spec()) != job_key(
            make_spec(initial_factory=_other_initial_factory)
        )

    def test_require_convergence_does_not_enter_the_key(self):
        # Enforced at assembly time, so cached results stay sharable.
        assert job_key(make_spec()) == job_key(
            make_spec(require_convergence=True)
        )

    def test_unfingerprintable_protocol_has_no_key(self):
        assert job_key(make_spec(protocol=Unfingerprintable())) is None

    def test_key_of_a_fixed_spec_is_pinned(self):
        """Moves only when the key's version or inputs do: a new version
        keeps a persisted cache from replaying older engines' draws."""
        assert job_key(make_spec(backend="bleap")) == (
            "23d4e740b7701ff88b195dc8b0fedfbfdcc2d20805dba6760a245f714f741294"
        )

    def test_seeds_normalized_to_tuple(self):
        spec = make_spec(seeds=range(3))
        assert spec.seeds == (0, 1, 2)
        assert job_key(spec) == job_key(make_spec(seeds=(0, 1, 2)))
