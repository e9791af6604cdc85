"""Experiment definitions: the pluggable unit the :class:`Runner` executes.

An experiment is a set of pure functions over plain parameter dicts:

``build_batch(topo_seeds, params) -> list[dict | None]``
    Evaluate a batch of topology seeds at once (stacked channel synthesis
    + batched linear algebra), returning one outcome per seed in order,
    ``None`` for a rejected draw (placement constraints; the runner draws
    more seeds).  Each entry is a function of its own seed only, so any
    partition of a seed range into batches gives the same outcomes.  This
    is the only hook the runner calls.  It must be a module-level callable
    so worker processes can resolve it.

``build(topo_seed, params) -> dict | None``
    Evaluate one topology with the scalar models.  This is the
    per-topology reference the equivalence suites hold ``build_batch`` to
    (entry ``i`` of ``build_batch`` must equal ``build(topo_seeds[i],
    params)`` exactly); the runner never calls it.

``finalize(outcomes, params) -> ExperimentResult``
    Reduce the accepted per-topology outcomes into named series.

Modules register experiments with the :func:`register_experiment`
decorator, either on an :class:`ExperimentDef` factory call or on a class
carrying ``name``/``description``/``defaults``/``build``/``build_batch``/
``finalize`` attributes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Mapping, Sequence

from .registry import EXPERIMENTS
from .result import ExperimentResult

BuildFn = Callable[[int, dict], "dict | None"]
BatchBuildFn = Callable[[Sequence[int], dict], "list[dict | None]"]
FinalizeFn = Callable[[list, dict], ExperimentResult]

_RESERVED_PARAMS = {"seed"}


@dataclass(frozen=True)
class ExperimentDef:
    """A registered experiment: defaults plus its build/finalize callables."""

    name: str
    description: str
    build: BuildFn
    finalize: FinalizeFn
    build_batch: BatchBuildFn
    defaults: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self):
        if not callable(self.build_batch):
            raise TypeError(
                f"experiment {self.name!r} must provide a callable build_batch"
            )
        if "n_topologies" not in self.defaults:
            raise ValueError(
                f"experiment {self.name!r} must declare an n_topologies default"
            )
        bad = _RESERVED_PARAMS & set(self.defaults)
        if bad:
            raise ValueError(
                f"experiment {self.name!r} defaults may not include {sorted(bad)}"
            )


def register_experiment(obj):
    """Register an :class:`ExperimentDef` (or a class describing one).

    Usable as a decorator on a definition class::

        @register_experiment
        class Fig03:
            name = "fig03"
            description = "..."
            defaults = {"n_topologies": 60}
            build = staticmethod(_build)
            build_batch = staticmethod(_build_batch)
            finalize = staticmethod(_finalize)

    or called directly with an :class:`ExperimentDef`.
    """
    if isinstance(obj, ExperimentDef):
        defn = obj
    else:
        # A missing hook becomes None, which ExperimentDef rejects.
        build_batch: Any = getattr(obj, "build_batch", None)
        defn = ExperimentDef(
            name=obj.name,
            description=obj.description,
            build=obj.build,
            finalize=obj.finalize,
            build_batch=build_batch,
            defaults=dict(obj.defaults),
        )
    EXPERIMENTS.add(defn.name, defn)
    return obj


def get_experiment_def(name: str) -> ExperimentDef:
    """Registered definition for ``name`` (loading the built-ins first)."""
    load_builtin_experiments()
    return EXPERIMENTS.get(name)


def experiment_names() -> list[str]:
    """All registered experiment names (loading the built-ins first)."""
    load_builtin_experiments()
    return EXPERIMENTS.names()


def load_builtin_experiments() -> None:
    """Import the built-in experiment modules so they self-register.

    Idempotent; safe to call from worker processes spawned without the
    parent's module state.
    """
    from .. import experiments  # noqa: F401  (import triggers registration)
