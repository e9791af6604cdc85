"""Per-layer timing of ``repro`` from outside the program.

:class:`Tracer` replaces every public function and public method of the
loaded ``repro`` modules with a timing wrapper, at every place the program
can reach the original from: the defining module, every module that
imported it under any name, the registries, and the registered experiment
hooks.  Each wrapper records calls, inclusive time and self time (inclusive
time minus the time of wrapped calls made inside it).  A layer is the
``repro`` subpackage a function is defined in, so a layer's self time is
the sum of the self times of its functions.  Leaving the ``with`` block
puts every original back.

Campaign shards run in forked pool workers.  The tracer ships each
worker's per-shard statistics back on the shard record and merges them
into :attr:`Tracer.worker_stats` in the parent, so worker layers are
measured without touching the program.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import inspect
import os
import sys
import time

#: ``repro`` packages never wrapped: ``obs`` is the program's own telemetry
#: (the benchmark reads it instead) and ``lint`` never runs in a workload.
SKIPPED_PACKAGES = ("repro.obs", "repro.lint")

#: Dunder methods worth timing; every other dunder is bookkeeping.
TIMED_DUNDERS = ("__init__", "__call__")

#: Key of the per-shard statistics a forked campaign worker attaches to its
#: shard record.  The parent removes it before the record reaches the
#: campaign journal, so journal bytes are unchanged.
SHARD_STATS_KEY = "perfbench_stats"


def layer_of(key: str) -> str:
    """The layer a wrapped-function key belongs to.

    ``"repro.channel.batch:ChannelBatch.advance"`` is in ``channel``; the
    top-level ``repro`` package counts as ``api``.
    """
    parts = key.split(":", 1)[0].split(".")
    return parts[1] if len(parts) > 1 else "api"


def _repro_modules():
    return [
        (name, module)
        for name, module in sorted(sys.modules.items())
        if module is not None
        and (name == "repro" or name.startswith("repro."))
        and not name.startswith(SKIPPED_PACKAGES)
    ]


def _timed_class(cls) -> bool:
    return not issubclass(cls, (enum.Enum, BaseException))


class Tracer:
    """Wrap ``repro``'s public functions for the duration of a ``with`` block.

    ``stats`` maps ``"module:qualname"`` to ``[calls, inclusive_s, self_s,
    items]`` for this process; ``worker_stats`` holds the same for work done
    in campaign pool workers.  ``items`` stays 0 unless ``item_counts`` maps
    the key to a function of the call's ``(args, kwargs)`` returning how
    many items the call processes.  Import every ``repro`` module a
    workload uses before entering, because only loaded modules are wrapped.
    """

    def __init__(self, item_counts: dict | None = None):
        self._item_counts = dict(item_counts or {})
        self.stats: dict[str, list] = {}
        self.worker_stats: dict[str, list] = {}
        self._stack: list[float] = []
        self._undo: list = []
        self._pid = os.getpid()

    # -- wrapping ---------------------------------------------------------
    def _timed(self, key: str, fn):
        stat = self.stats.setdefault(key, [0, 0.0, 0.0, 0])
        stack = self._stack
        clock = time.perf_counter
        count_items = self._item_counts.get(key)

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            if count_items is not None:
                stat[3] += count_items(args, kwargs)
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stat[0] += 1
                stat[1] += elapsed
                stat[2] += elapsed - stack.pop()
                if stack:
                    stack[-1] += elapsed

        return timed

    def _set(self, owner, name: str, value) -> None:
        self._undo.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def _set_item(self, mapping: dict, name, value) -> None:
        self._undo.append((mapping, name, mapping[name]))
        mapping[name] = value

    def __enter__(self) -> "Tracer":
        from repro.api import registry

        # First, while ExperimentDef's constructor is still unwrapped.
        self._wrap_experiments(registry.EXPERIMENTS._items)
        modules = _repro_modules()
        originals: dict[int, object] = {}
        wrappers: dict[int, object] = {}

        for modname, module in modules:
            for name, obj in list(vars(module).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != modname:
                    continue
                if inspect.isfunction(obj) and not inspect.isgeneratorfunction(obj):
                    wrappers[id(obj)] = self._timed(f"{modname}:{obj.__qualname__}", obj)
                    originals[id(obj)] = obj
                elif inspect.isclass(obj) and _timed_class(obj):
                    self._wrap_class(modname, obj)

        self._wrap_special(wrappers, originals)

        # Rebind every reference the program can reach: module globals
        # (aliased imports included), dicts held in module globals, and the
        # registries' item tables.
        tables = [
            reg._items for reg in vars(registry).values() if isinstance(reg, registry.Registry)
        ]
        for _modname, module in modules:
            for name, obj in list(vars(module).items()):
                if id(obj) in wrappers and originals[id(obj)] is obj:
                    self._set(module, name, wrappers[id(obj)])
                elif type(obj) is dict and not name.startswith("__"):
                    tables.append(obj)
        for table in tables:
            for name, obj in list(table.items()):
                if id(obj) in wrappers and originals[id(obj)] is obj:
                    self._set_item(table, name, wrappers[id(obj)])
        return self

    def _wrap_class(self, modname: str, cls) -> None:
        for name, raw in list(vars(cls).items()):
            if name.startswith("_") and name not in TIMED_DUNDERS:
                continue
            key = f"{modname}:{cls.__qualname__}.{name}"
            if isinstance(raw, staticmethod):
                self._set(cls, name, staticmethod(self._timed(key, raw.__func__)))
            elif isinstance(raw, classmethod):
                self._set(cls, name, classmethod(self._timed(key, raw.__func__)))
            elif inspect.isfunction(raw) and not inspect.isgeneratorfunction(raw):
                self._set(cls, name, self._timed(key, raw))

    def _wrap_special(self, wrappers: dict, originals: dict) -> None:
        """Private or foreign callables that hold a layer boundary."""
        from repro.campaign import executor

        # The master blocked on the pool: concurrent.futures.wait as the
        # campaign executor imported it.
        wait = executor.wait
        wrappers[id(wait)] = self._timed("repro.campaign.executor:wait", wait)
        originals[id(wait)] = wait

        shard_worker = self._timed(
            "repro.campaign.executor:_shard_worker", executor._shard_worker
        )

        @functools.wraps(executor._shard_worker)
        def shard_worker_with_stats(payload):
            in_worker = os.getpid() != self._pid
            if in_worker:
                self._reset_after_fork()
            record = shard_worker(payload)
            if in_worker:
                record[SHARD_STATS_KEY] = self._drain()
            return record

        self._set(executor, "_shard_worker", shard_worker_with_stats)

        complete = executor.CampaignRunner._complete

        @functools.wraps(complete)
        def complete_merging_stats(runner, shard, record, records, journal):
            for key, values in record.pop(SHARD_STATS_KEY, {}).items():
                stat = self.worker_stats.setdefault(key, [0, 0.0, 0.0, 0])
                for i, value in enumerate(values):
                    stat[i] += value
            return complete(runner, shard, record, records, journal)

        self._set(executor.CampaignRunner, "_complete", complete_merging_stats)

    def _wrap_experiments(self, table: dict) -> None:
        """Time the registered build/build_batch/finalize hooks.

        They are private functions reached only through the registry, so
        each definition is swapped for a copy holding timed hooks; a hook
        shared by two experiments gets one wrapper.
        """
        timed: dict[int, object] = {}
        for name, defn in list(table.items()):
            hooks = {}
            for hook in ("build", "build_batch", "finalize"):
                fn = getattr(defn, hook)
                if fn is None:
                    continue
                if id(fn) not in timed:
                    timed[id(fn)] = self._timed(f"{fn.__module__}:{hook}", fn)
                hooks[hook] = timed[id(fn)]
            self._set_item(table, name, dataclasses.replace(defn, **hooks))

    def __exit__(self, *exc) -> None:
        while self._undo:
            owner, name, value = self._undo.pop()
            if isinstance(owner, dict):
                owner[name] = value
            else:
                setattr(owner, name, value)

    # -- worker statistics -----------------------------------------------
    def _reset_after_fork(self) -> None:
        """Forget what the parent had recorded when this worker forked."""
        self._stack.clear()
        self._drain()

    def _drain(self) -> dict:
        """Return the non-zero statistics and zero them in place."""
        drained = {}
        for key, stat in self.stats.items():
            if stat[0]:
                drained[key] = list(stat)
                stat[:] = [0, 0.0, 0.0, 0]
        return drained

    # -- reading ----------------------------------------------------------
    def combined(self) -> dict[str, list]:
        """This process's statistics plus the campaign workers'."""
        merged = {key: list(stat) for key, stat in self.stats.items()}
        for key, stat in self.worker_stats.items():
            total = merged.setdefault(key, [0, 0.0, 0.0, 0])
            for i, value in enumerate(stat):
                total[i] += value
        return merged
