"""``resilience_test``: declarative chaos experiments as pytest tests.

Replaces the hand-rolled ``live_chaos(...)``-plus-assertions setup with a
decorator: declare the faults and the ring, receive the executed
:class:`~repro.chaoslab.experiment.ExperimentResult` as an ``outcome``
keyword argument, assert on it::

    @resilience_test(
        faults=[FaultConfig(FaultType.LOSS, at=0.2, duration=0.4,
                            severity=0.7)],
        n=5, seed=41, budget=20.0,
    )
    def test_ring_survives_loss(outcome):
        assert outcome.ok
        assert outcome.report["health"]["stabilized"]

The decorator strips ``outcome`` from the wrapper's signature so pytest
does not try to resolve it as a fixture; every other parameter passes
through untouched (fixtures still work).  Fault specs are permissive:
:class:`~repro.runtime.chaos.FaultConfig` instances,
:class:`~repro.runtime.chaos.FaultType` members (default onset /
duration / severity), or CLI-style ``"type[:severity[:duration]]"``
strings.
"""

from __future__ import annotations

import functools
import inspect
from typing import Any, Callable, Iterable, List, Optional, Tuple, Union

from repro.chaoslab.experiment import ChaosExperiment, run_experiment
from repro.chaoslab.observe import ObservationPoint
from repro.runtime.chaos import FaultConfig, FaultType, parse_fault_flag

FaultSpec = Union[FaultConfig, FaultType, str]


def _coerce_fault(spec: FaultSpec) -> FaultConfig:
    if isinstance(spec, FaultConfig):
        return spec
    if isinstance(spec, FaultType):
        return FaultConfig(fault_type=spec)
    return parse_fault_flag(str(spec))


def _coerce_faults(
    faults: Union[FaultSpec, Iterable[FaultSpec]]
) -> Tuple[FaultConfig, ...]:
    if isinstance(faults, (FaultConfig, FaultType, str)):
        faults = (faults,)
    return tuple(_coerce_fault(f) for f in faults)


def resilience_test(
    faults: Union[FaultSpec, Iterable[FaultSpec]],
    *,
    points: Optional[List[ObservationPoint]] = None,
    name: Optional[str] = None,
    **experiment_kwargs: Any,
) -> Callable[[Callable], Callable]:
    """Declare a chaos experiment around a test function.

    Parameters
    ----------
    faults:
        One fault spec or an iterable of them (see module docstring).
    points:
        Observation points; defaults to the canonical panel.
    name:
        Experiment name; defaults to the test function's ``__name__``.
    experiment_kwargs:
        Everything else :class:`ChaosExperiment` accepts — ``algorithm``,
        ``n``, ``K``, ``seed``, ``transport``, ``wire``,
        ``timer_interval``, ``initial``, ``budget``, ``settle``,
        ``stabilize_timeout``, ``extra_duration``, ``abort_on_breach``.
    """
    fault_configs = _coerce_faults(faults)

    def decorate(fn: Callable) -> Callable:
        def make_experiment() -> ChaosExperiment:
            # A fresh experiment per invocation: status is mutable and a
            # rerun (pytest-repeat, flake retries) must start PENDING.
            return ChaosExperiment(
                name=name or fn.__name__,
                faults=fault_configs,
                **experiment_kwargs,
            )

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any):
            outcome = run_experiment(make_experiment(), points=points)
            return fn(*args, outcome=outcome, **kwargs)

        signature = inspect.signature(fn)
        if "outcome" not in signature.parameters:
            raise TypeError(
                f"{fn.__name__} must take an 'outcome' parameter to be a "
                f"resilience_test"
            )
        wrapper.__signature__ = signature.replace(  # type: ignore[attr-defined]
            parameters=[
                p for pname, p in signature.parameters.items()
                if pname != "outcome"
            ]
        )
        # Introspection hooks (docs, campaign dogfooding).
        wrapper.make_experiment = make_experiment  # type: ignore[attr-defined]
        wrapper.faults = fault_configs  # type: ignore[attr-defined]
        return wrapper

    return decorate


__all__ = ["FaultSpec", "resilience_test"]
