"""Per-layer spans, recorded by wrapping the program's public callables.

The program has no tracing of its own, so a traced replay wraps every
public function and method of the layer modules (``stream``, ``features``,
``learners``, ``drift``, ``pipeline``, ``evaluation``) before it runs.  A
span is one call: its name is ``<module>.<qualname>`` and its parent is the
innermost span still open.  Spans are folded into per-name totals as they
close.  Beyond those totals and a few counters, the tracer keeps one
integer per evaluated sample (when its step started) and one per rebuild
stall, for the step and stall percentiles.

The strategy call is the root.  Its *control* spans are the root itself and
the pipeline module's own code; every other span whose parent is a control
span is a *child*.  ``TokenIndexer.encode`` lives in the pipeline module but
is the pool's feature step, so it counts as a child.  A child's share is its
time over the root's wall time; the pipeline's self share is what the
children leave, so all shares add up to one.  The tracer's own
bookkeeping, hooks included, runs outside the child spans and so counts in
the pipeline's self share and in the tracing overhead.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from contextlib import contextmanager

LAYERS = ("stream", "features", "learners", "drift", "pipeline", "evaluation")
_NOT_CONTROL = {"pipeline.TokenIndexer.encode"}


def _is_control(name: str) -> bool:
    return name.startswith("pipeline.") and name not in _NOT_CONTROL


class Tracer:
    """Span totals plus the few facts the per-layer metrics need."""

    def __init__(self):
        self._open: list[bool] = []     # one control flag per open span
        self.calls: dict[str, int] = {}
        self.total_ns: dict[str, int] = {}
        self.child_calls: dict[str, int] = {}
        self.child_ns: dict[str, int] = {}
        self.root_ns = 0
        self.record_starts: list[int] = []
        self.stalls_ns: list[int] = []
        self._stall_from: int | None = None
        self.fit_samples = 0
        self.tokens_seen = 0            # tokens that transform saw
        self.tokens_known = 0           # of them, in the extractor's vocabulary
        self.warnings = 0
        self.drifts = 0
        self._last_level = None

    # -- spans -------------------------------------------------------------

    @contextmanager
    def root(self):
        """Open the strategy call's root span."""
        self._open.append(True)
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            self.root_ns += time.perf_counter_ns() - start
            self._open.pop()

    def wrap(self, name: str, fn, hook=None):
        """Return ``fn`` recording one span per call.

        ``hook(args, kwargs, result, start_ns)`` runs after the span has
        closed, so its cost is not charged to ``name``.
        """
        is_control = _is_control(name)
        open_spans = self._open
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            under_control = bool(open_spans) and open_spans[-1]
            open_spans.append(is_control)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                open_spans.pop()
                self.calls[name] = self.calls.get(name, 0) + 1
                self.total_ns[name] = self.total_ns.get(name, 0) + elapsed
                if under_control and not is_control:
                    self.child_calls[name] = self.child_calls.get(name, 0) + 1
                    self.child_ns[name] = self.child_ns.get(name, 0) + elapsed
            if hook is not None:
                hook(args, kwargs, result, start)
            return result

        return traced

    # -- hooks that count what the metrics need ------------------------------

    def _on_fit(self, args, kwargs, result, start):
        samples = args[0] if args else kwargs["samples"]
        self.fit_samples += len(samples)

    def _on_transform(self, args, kwargs, result, start):
        extractor, sample = args[0], args[1]
        for vocab in extractor.vocabularies:
            tokens = sample.attributes[vocab.attribute_name]
            self.tokens_seen += len(tokens)
            self.tokens_known += sum(map(vocab.token_to_index.__contains__,
                                         tokens))

    def _on_update(self, args, kwargs, result, start):
        level = result.name
        if level == "DRIFT":
            self.drifts += 1
            if self._stall_from is None:
                self._stall_from = time.perf_counter_ns()
        elif level == "WARNING" and self._last_level != "WARNING":
            self.warnings += 1
        self._last_level = level

    def _on_record(self, args, kwargs, result, start):
        self.record_starts.append(start)
        if self._stall_from is not None:
            self.stalls_ns.append(start - self._stall_from)
            self._stall_from = None

    def _hook_for(self, name: str):
        if name == "features.fit_extractor":
            return self._on_fit
        if name == "features.FeatureExtractorModel.transform":
            return self._on_transform
        if name.startswith("drift.") and name.endswith(".update"):
            return self._on_update
        if name == "evaluation.MetricsTimeline.record":
            return self._on_record
        return None

    # -- installation --------------------------------------------------------

    def install(self, package: str = "driftstream") -> None:
        """Wrap the public callables of every layer module of ``package``.

        Module-level functions are also replaced wherever another module of
        the package imported them by name, so every call path is traced.
        """
        replaced = {}
        for layer in LAYERS:
            module = importlib.import_module(f"{package}.{layer}")
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) \
                        != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    name = f"{layer}.{attr}"
                    replaced[obj] = self.wrap(name, obj, self._hook_for(name))
                elif inspect.isclass(obj):
                    self._install_class(layer, obj)
        for mod_name, module in list(sys.modules.items()):
            if mod_name != package and not mod_name.startswith(package + "."):
                continue
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in replaced:
                    setattr(module, attr, replaced[obj])

    def _install_class(self, layer: str, cls) -> None:
        for attr, member in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if isinstance(member, (classmethod, staticmethod)):
                setattr(cls, attr, type(member)(
                    self.wrap(name, member.__func__, self._hook_for(name))))
            elif inspect.isfunction(member):
                setattr(cls, attr, self.wrap(name, member,
                                             self._hook_for(name)))

    # -- results -------------------------------------------------------------

    def child_totals(self, select) -> tuple[int, int]:
        """(calls, ns) summed over the child spans whose name passes ``select``."""
        names = [n for n in self.child_ns if select(n)]
        return (sum(self.child_calls[n] for n in names),
                sum(self.child_ns[n] for n in names))
