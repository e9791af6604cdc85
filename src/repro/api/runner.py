"""The session runner: executes a :class:`RunSpec` into a :class:`RunResult`.

The runner owns everything the declarative spec deliberately leaves out:

* **execution** -- there is one path: seed batches go to the experiment's
  ``build_batch`` hook, which evaluates all draws as stacked arrays
  (batched channel synthesis + broadcasting linalg precoders) under the
  :mod:`repro.xp` namespace selected by ``namespace``/``device``/``dtype``
  (NumPy/CPU/float64 by default, which is how the same code also runs on
  torch/CUDA).  On the default namespace every result is **bit-identical**
  to evaluating the topologies one at a time with the experiment's scalar
  ``build`` (the reference the equivalence suites hold ``build_batch``
  to); other namespace configurations meet documented tolerance contracts
  instead (see ``docs/api.md``);
* **parallelism** -- with ``jobs > 1`` each round of seeds is cut into
  contiguous chunks that a ``ProcessPoolExecutor`` maps ``build_batch``
  over; outcomes are accepted in stream order and ``build_batch`` is a
  per-item function of its seed, so ``jobs=1`` and ``jobs=N`` produce
  bit-identical series for a fixed seed;
* **rejection sampling** -- experiments may reject topologies (placement
  constraints); the runner keeps drawing seed batches until the requested
  count is met (with the classic generous attempt cap);
* **caching** -- with a ``cache_dir``, results are persisted as JSON keyed
  by a hash of the fully resolved parameters plus the package version, and
  reloaded on a hit (the version *is* part of the key, because algorithm
  changes between releases must invalidate stale entries; inexact
  namespace configurations add their own key material).  This module is
  the only code that looks up, reads, classifies and writes cache
  entries; ``RunResult.from_cache`` tells the caller which way a result
  came (campaign shards read it instead of probing the cache themselves).
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from itertools import chain, repeat
from pathlib import Path

from .. import __version__ as _PACKAGE_VERSION
from .. import obs as obsmod
from .. import rng as rng_mod
from .. import xp as xpmod
from .experiments import ExperimentDef, get_experiment_def, load_builtin_experiments
from .registry import ASSOCIATION, COORDINATION, ENVIRONMENTS, MOBILITY, PRECODERS, TRAFFIC
from .result import RunResult
from .spec import RunSpec, normalize_params


def resolve_params(defn: ExperimentDef, spec: RunSpec) -> dict:
    """Merge a spec over an experiment's declared defaults.

    Spec-level overrides (``environment``, ``precoder``) and every key in
    ``spec.params`` must be parameters the experiment declares; anything
    else raises with the allowed names so typos fail loudly.
    """
    allowed = set(defn.defaults)
    params = dict(defn.defaults)
    params["seed"] = spec.seed
    if spec.n_topologies is not None:
        params["n_topologies"] = spec.n_topologies
    if spec.environment is not None:
        if "environment" not in allowed:
            raise ValueError(
                f"experiment {defn.name!r} does not take an environment override"
            )
        ENVIRONMENTS.get(spec.environment)  # fail early, listing registered names
        params["environment"] = spec.environment
    if spec.precoder is not None:
        if "precoder" not in allowed:
            raise ValueError(
                f"experiment {defn.name!r} does not take a precoder override; "
                f"experiments with a 'precoder' parameter do"
            )
        PRECODERS.get(spec.precoder)  # fail early, listing registered names
        params["precoder"] = spec.precoder
    def axis_override(field: str, registry, universal: str, populate) -> None:
        """Shared validation for model axes with a universal no-op default
        (traffic's full_buffer, mobility's static): fail early on unknown
        names, fold into params only for experiments declaring the axis."""
        value = getattr(spec, field)
        if value is None:
            return
        populate()  # import the built-in models so the registry is loaded
        registry.get(value)  # fail early, listing registered names
        if field in allowed:
            params[field] = value
        elif value != universal:
            raise ValueError(
                f"experiment {defn.name!r} does not take a {field} override; "
                f"experiments with a {field!r} parameter do ({universal!r} is "
                f"accepted everywhere because it is the universal default)"
            )

    def _load_traffic():
        from ..traffic import models  # noqa: F401

    def _load_mobility():
        from ..mobility import models  # noqa: F401

    def _load_association():
        from .. import assoc  # noqa: F401

    axis_override("traffic", TRAFFIC, "full_buffer", _load_traffic)
    axis_override("mobility", MOBILITY, "static", _load_mobility)
    axis_override("association", ASSOCIATION, "nearest_anchor", _load_association)
    axis_override("coordination", COORDINATION, "independent", _load_association)
    unknown = set(spec.params) - allowed
    if unknown:
        raise ValueError(
            f"unknown parameter(s) {sorted(unknown)} for experiment "
            f"{defn.name!r}; allowed: {sorted(allowed)}"
        )
    params.update(spec.params)
    return params


def _build_chunk(experiment: str, seeds: list, params: dict, xp_config: tuple):
    """Worker entry point: ``build_batch`` over one contiguous seed chunk.

    Module-level (picklable) and self-bootstrapping so it works under both
    ``fork`` and ``spawn`` start methods.
    """
    load_builtin_experiments()
    defn = get_experiment_def(experiment)
    with xpmod.use(xpmod.get_namespace(*xp_config)):
        return defn.build_batch(seeds, params)


#: Upper bound on topology seeds scheduled per round.  Large enough that a
#: typical sweep runs as one stacked batch; affects scheduling only, never
#: results.
_DEFAULT_BATCH_CAP = 1024

#: Names the retired ``backend=`` option still accepts (with a warning).
#: Each one runs the single batched path.
DEPRECATED_BACKENDS = ("loop", "vectorized", "array_api")

#: Everything a cache entry can legitimately throw when the file on disk is
#: truncated, torn, or otherwise unreadable.  ``Runner`` treats these as a
#: cache miss (recompute and rewrite) rather than crashing forever on the
#: same poisoned entry.
_CACHE_READ_ERRORS = (
    OSError,
    EOFError,
    KeyError,
    ValueError,  # includes json.JSONDecodeError and format-version errors
)


@dataclass
class Runner:
    """Executes :class:`RunSpec`\\ s; one instance can serve many specs.

    Parameters
    ----------
    jobs:
        Worker process count; ``1`` (default) runs in-process.  With more,
        each round of seeds is split into ``jobs`` contiguous chunks
        evaluated by ``build_batch`` in worker processes.
    cache_dir:
        Directory for on-disk result caching (one JSON file per entry,
        keyed by spec hash), or ``None`` (default) to disable caching.
    backend:
        Deprecated and ignored.  Any of ``"loop"``, ``"vectorized"`` or
        ``"array_api"`` runs the one batched path and emits a
        :class:`DeprecationWarning`; other names raise ``ValueError``.
    namespace / device / dtype:
        The :mod:`repro.xp` configuration ``build_batch`` runs under.
        ``namespace`` is ``"numpy"`` (default, always available) or
        ``"torch"`` (optional dependency; a missing install raises
        :class:`repro.xp.BackendUnavailableError` naming the extra at
        construction).  ``device`` is ``"cpu"`` or a torch device string
        like ``"cuda"``; ``dtype`` is ``"float64"`` or ``"float32"``.
        NumPy/float64 is bit-exact; other configurations meet the
        documented tolerance contracts and get their own cache entries.
    telemetry:
        An optional :class:`repro.obs.Telemetry` installed (via
        :func:`repro.obs.use`) around every :meth:`run` /
        :meth:`run_window` call, collecting spans and counters from the
        engines and the runner itself.  ``None`` (default) keeps the
        null-object fast path.  Telemetry is pure observation: it never
        enters cache keys, never changes control flow, and engine outputs
        are byte-identical with it on or off.  Results carry a
        :class:`repro.obs.TelemetrySummary` snapshot in
        ``RunResult.telemetry`` when set.
    """

    jobs: int = 1
    cache_dir: str | Path | None = None
    backend: str | None = field(default=None, repr=False, compare=False)
    namespace: str = "numpy"
    device: str = "cpu"
    dtype: str = "float64"
    # Observation only: excluded from repr/compare and (deliberately) from
    # _cache_path -- a traced run and an untraced run share cache entries.
    telemetry: obsmod.Telemetry | None = field(
        default=None, repr=False, compare=False
    )

    def __post_init__(self):
        if self.jobs < 1:
            raise ValueError("Runner.jobs must be >= 1")
        if self.backend is not None:
            if self.backend not in DEPRECATED_BACKENDS:
                raise ValueError(
                    f"backend must be one of {DEPRECATED_BACKENDS} (deprecated), "
                    f"got {self.backend!r}"
                )
            warnings.warn(
                f"backend={self.backend!r} is deprecated and has no effect: "
                "every run takes the one batched path; drop the argument "
                "(namespace/device/dtype select the array namespace)",
                DeprecationWarning,
                stacklevel=3,  # __post_init__ <- generated __init__ <- caller
            )
        if self.telemetry is not None and not isinstance(
            self.telemetry, obsmod.Telemetry
        ):
            raise TypeError(
                "Runner.telemetry must be a repro.obs.Telemetry or None, "
                f"got {type(self.telemetry).__name__}"
            )
        # Resolve eagerly so a missing optional dependency (torch) or a bad
        # device/dtype fails at construction with a clean error, not
        # mid-sweep.
        self._resolve_namespace()

    def _resolve_namespace(self):
        """The :class:`repro.xp.ArrayNamespace` this runner computes on.

        Raises :class:`repro.xp.BackendUnavailableError` (naming the extra
        to install) when the namespace's optional dependency is missing.
        """
        return xpmod.get_namespace(self.namespace, self.device, self.dtype)

    def run(self, spec: RunSpec) -> RunResult:
        """Execute ``spec`` (or load it from cache) into a :class:`RunResult`."""
        return self._execute(spec)

    def run_window(self, spec: RunSpec, seed_start: int, seed_count: int) -> RunResult:
        """Execute ``spec`` over a fixed window of the derived-seed stream.

        Evaluates exactly the topology-seed indices
        ``seed_start .. seed_start + seed_count - 1`` of ``spec.seed``'s
        derived stream -- the same seeds :meth:`run` would walk -- and
        keeps whatever passes the experiment's placement constraints (no
        rejection top-up: the window *is* the work unit, so a partition of
        windows always covers each seed index exactly once).  This is the
        shard primitive of :mod:`repro.campaign`: disjoint windows of one
        spec are independently computable, independently cacheable (the
        window is folded into the cache key; keys without a window are
        unchanged), and their union reproduces a monolithic sweep.

        ``spec.n_topologies`` is ignored; the window defines the work.
        The result's ``notes`` record the window and the accepted count.
        """
        if seed_start < 0:
            raise ValueError("seed_start must be >= 0")
        if seed_count < 1:
            raise ValueError("seed_count must be >= 1")
        return self._execute(spec, window=(int(seed_start), int(seed_count)))

    # ------------------------------------------------------------------
    def _execute(
        self, spec: RunSpec, window: tuple[int, int] | None = None
    ) -> RunResult:
        """The one session path: resolve, serve from cache or sweep,
        finalize, save.  A window run also notes its window and accepted
        count.  The result's in-memory ``from_cache`` says which way it
        came."""
        span_fields = (
            {} if window is None else {"seed_start": window[0], "seed_count": window[1]}
        )
        with obsmod.use(self.telemetry) as telemetry:
            with telemetry.span("runner.run", experiment=spec.experiment, **span_fields):
                defn, params, cache_path = self._resolve(spec, window)
                result = self._load_cache(cache_path)
                from_cache = result is not None
                if result is not None:
                    telemetry.count("runner.cache.hits")
                else:
                    if cache_path is not None:
                        telemetry.count("runner.cache.misses")
                    outcomes = self._sweep(defn, params, window)
                    result = RunResult.from_experiment_result(
                        defn.finalize(outcomes, params), spec
                    )
                    if window is not None:
                        result = replace(
                            result,
                            notes={
                                **result.notes,
                                "seed_window": list(window),
                                "n_accepted": len(outcomes),
                            },
                        )
                    if cache_path is not None:
                        result.save(cache_path)
        # In memory only: neither attribute is ever serialized, so cache
        # entries are byte-identical whether a run was traced or cached.
        object.__setattr__(result, "from_cache", from_cache)
        if self.telemetry is not None:
            object.__setattr__(result, "telemetry", self.telemetry.summary())
        return result

    def _resolve(
        self, spec: RunSpec, window: tuple[int, int] | None
    ) -> tuple[ExperimentDef, dict, Path | None]:
        """The experiment, its resolved parameters (a window run's
        ``n_topologies`` is the window length) and the cache file."""
        defn = get_experiment_def(spec.experiment)
        params = resolve_params(defn, spec)
        if window is not None:
            params["n_topologies"] = window[1]
        return defn, params, self._cache_path(spec, params, window)

    def _cache_path(
        self, spec: RunSpec, params: dict, window: tuple[int, int] | None = None
    ) -> Path | None:
        """Cache file keyed by the *resolved* parameters.

        Hashing the resolved params (experiment defaults merged in) rather
        than the raw spec means a spec relying on a default and a spec
        stating it explicitly share one entry, and editing an experiment's
        registered defaults invalidates stale cached results.  The package
        version is folded in so entries do not survive algorithm changes
        across releases.  Seed-window runs additionally fold the window
        into the key (full runs keep their historical keys verbatim);
        because the resolved ``n_topologies`` of a window run is the
        window length, shard entries are shared by every campaign that
        covers the same (spec, window) -- regardless of campaign totals.
        """
        if self.cache_dir is None:
            return None
        body = {
            "experiment": spec.experiment,
            "params": normalize_params(params),
            "version": _PACKAGE_VERSION,
        }
        if window is not None:
            body["seed_window"] = list(window)
        namespace = self._resolve_namespace()
        if not namespace.is_exact:
            # Non-bit-exact configurations (torch, float32) get their own
            # cache entries; the exact NumPy/float64 namespace keeps the
            # historical keys.
            body["xp"] = namespace.config_dict()
        payload = json.dumps(body, sort_keys=True, separators=(",", ":"))
        digest = hashlib.sha256(payload.encode()).hexdigest()[:16]
        return Path(self.cache_dir) / f"{spec.experiment}-{digest}.json"

    @staticmethod
    def _load_cache(cache_path: Path | None) -> RunResult | None:
        """Load a cache entry, treating unreadable/corrupt files as a miss."""
        if cache_path is None or not cache_path.exists():
            return None
        try:
            return RunResult.load(cache_path)
        except _CACHE_READ_ERRORS as exc:
            obsmod.active().count("runner.cache.recomputes")
            warnings.warn(
                f"cache entry {cache_path} is unreadable "
                f"({type(exc).__name__}: {exc}); recomputing",
                RuntimeWarning,
                stacklevel=4,  # _load_cache <- _execute <- run/run_window <- caller
            )
            return None

    def _sweep(
        self, defn: ExperimentDef, params: dict, window: tuple[int, int] | None
    ) -> list:
        """Accepted per-topology outcomes, in derived-seed-stream order.

        With ``window=(start, count)`` the sweep evaluates exactly the
        seed-stream indices ``start .. start+count-1`` -- no rejection
        top-up, no attempt cap -- and returns whatever those indices
        accept (the campaign shard contract).  Without a window it keeps
        drawing until ``params["n_topologies"]`` topologies are accepted.
        With ``jobs > 1`` the sweep owns one worker pool for its rounds.
        """
        n = int(params["n_topologies"])
        if n < 1:
            raise ValueError("need at least one topology")
        root_seed = int(params["seed"])
        stream_start = 0 if window is None else window[0]
        max_attempts = n if window is not None else max(200, 80 * n)
        namespace = self._resolve_namespace()

        accepted: list = []
        attempts = 0
        pool = (
            ProcessPoolExecutor(max_workers=self.jobs)
            if self.jobs > 1
            else contextlib.nullcontext()
        )
        with pool:
            while attempts < max_attempts and (
                window is not None or len(accepted) < n
            ):
                if window is not None:
                    # The window is the work unit: evaluate every index in
                    # it, chunked only to bound per-round memory.
                    target = max_attempts - attempts
                else:
                    # Aim for exactly what is still needed (padded to keep
                    # every worker busy); the cap only bounds one round.
                    target = max(n - len(accepted), min(self.jobs, _DEFAULT_BATCH_CAP))
                    if attempts:
                        # Rejection-heavy sweeps would otherwise shrink to
                        # deficit-sized (eventually single-seed) batches and
                        # forfeit the stacking win.  Overdraw by the observed
                        # acceptance rate instead: the derived-seed stream and
                        # each seed's accept/reject verdict are deterministic
                        # and outcomes are consumed in stream order up to n,
                        # so results are unchanged -- extra draws only cost
                        # the (rejected) build work.
                        rate = max(len(accepted) / attempts, 1.0 / 64.0)
                        target = max(target, math.ceil((n - len(accepted)) / rate))
                count = min(target, _DEFAULT_BATCH_CAP, max_attempts - attempts)
                seeds = rng_mod.derived_seeds(
                    root_seed, stream_start + attempts, count
                )
                attempts += count
                if self.jobs > 1:
                    size = math.ceil(count / self.jobs)
                    chunks = [seeds[i : i + size] for i in range(0, count, size)]
                    outcomes = chain.from_iterable(
                        pool.map(
                            _build_chunk,
                            repeat(defn.name),
                            chunks,
                            repeat(params),
                            repeat((self.namespace, self.device, self.dtype)),
                        )
                    )
                else:
                    with xpmod.use(namespace):
                        outcomes = defn.build_batch(seeds, params)
                for outcome in outcomes:
                    if outcome is None:
                        continue
                    accepted.append(outcome)
                    if window is None and len(accepted) == n:
                        break
        if window is None and len(accepted) < n:
            raise RuntimeError(
                f"only {len(accepted)}/{n} topologies satisfied the "
                f"placement constraints after {attempts} attempts"
            )
        return accepted
