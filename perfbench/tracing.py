"""Spans recorded from outside the program.

The tracer replaces public functions of the cdunlearn modules with wrappers
that record one span per call: a name, start and end on the
``time.perf_counter`` clock, the id of the enclosing span, the deletion
request it belongs to, and optional counts taken from the call. Nothing in
``src/`` is edited; the original functions are restored when
:func:`instrument` exits.

A layer's self time is its spans' duration minus the part covered by their
child spans. Spans are kept in memory and written out once, at the end of the
run.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import time
from dataclasses import dataclass, field
from typing import Callable


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1
    request: int | None = None
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """An in-memory span recorder for one single-threaded run."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.request: int | None = None

    def _current_name(self) -> str | None:
        return self.spans[self._stack[-1]].name if self._stack else None

    def _open(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else -1
        span = Span(name, 0.0, parent=parent, request=self.request)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span.start = time.perf_counter()
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        """A span around a block of the benchmark's own code."""
        span = self._open(name)
        try:
            yield span
        finally:
            self._close(span)

    def wrap(
        self,
        name: str | Callable,
        fn: Callable,
        count: Callable | None = None,
        skip_under: str | None = None,
    ) -> Callable:
        """``fn`` recording a span per call.

        ``name`` may be a function of the call's ``(args, kwargs)``; ``count``
        maps ``(args, kwargs, result)`` to a dict of counts kept on the span.
        Calls made directly inside a span named ``skip_under`` record nothing,
        so their time stays with that caller.
        """

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if skip_under is not None and self._current_name() == skip_under:
                return fn(*args, **kwargs)
            span = self._open(name(args, kwargs) if callable(name) else name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if count is not None:
                span.counts = count(args, kwargs, result)
            return result

        return wrapper

    # -- summaries -----------------------------------------------------
    def self_times(self) -> list[float]:
        covered = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent >= 0:
                covered[span.parent] += span.duration
        return [s.duration - c for s, c in zip(self.spans, covered)]

    def layers(self) -> dict[str, dict]:
        """Per span name: self time, inclusive time, calls and summed counts."""
        table: dict[str, dict] = {}
        for span, self_s in zip(self.spans, self.self_times()):
            row = table.setdefault(
                span.name, {"self_s": 0.0, "total_s": 0.0, "calls": 0, "counts": {}}
            )
            row["self_s"] += self_s
            row["total_s"] += span.duration
            row["calls"] += 1
            for key, value in span.counts.items():
                row["counts"][key] = row["counts"].get(key, 0) + value
        return table

    def _has_ancestor(self, index: int, name: str) -> bool:
        parent = self.spans[index].parent
        while parent >= 0:
            if self.spans[parent].name == name:
                return True
            parent = self.spans[parent].parent
        return False

    def share(self, inner: str, outer: str) -> float | None:
        """Time in ``inner`` spans nested under ``outer`` spans, as a share of
        the ``outer`` spans' time; None when there is no ``outer`` span."""
        outer_s = sum(
            s.duration
            for i, s in enumerate(self.spans)
            if s.name == outer and not self._has_ancestor(i, outer)
        )
        if outer_s <= 0.0:
            return None
        inner_s = sum(
            s.duration
            for i, s in enumerate(self.spans)
            if s.name == inner
            and self._has_ancestor(i, outer)
            and not self._has_ancestor(i, inner)
        )
        return inner_s / outer_s

    def write(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as f:
            json.dump(
                [
                    [s.name, s.start, s.end, s.parent, s.request, s.counts]
                    for s in self.spans
                ],
                f,
            )


def _rows(args, kwargs, result) -> dict:
    return {"rows": len(result[2])}


def _fit_counts(args, kwargs, result) -> dict:
    model, records = args[0], args[1]
    epochs = model.epochs_run_
    per_epoch = -(-len(records) // model.batch_size)
    return {"epochs": epochs, "batches": epochs * per_epoch}


def _fisher_name(args, kwargs) -> str:
    source = kwargs.get("source", args[2] if len(args) > 2 else "")
    return "importance.fim_retain" if source == "retain" else "importance.fim_forget"


def _fisher_records(args, kwargs, result) -> dict:
    return {"records": len(args[1])}


def _predict_rows(args, kwargs, result) -> dict:
    return {"rows": len(result)}


def _selected(args, kwargs, result) -> dict:
    return {"selected": result[1]}


def _bytes_written(args, kwargs, result) -> dict:
    return {"bytes": os.path.getsize(args[0])}


def _sweep_points(args, kwargs, result) -> dict:
    return {"points": len(result.points)}


def _targets() -> list[tuple]:
    """(owners, attribute, span name, count, skip_under) for every wrapped
    function. A function imported by name into several modules is listed with
    all of them, so each call records exactly one span."""
    from cdunlearn import data, experiment, metrics, mia, model, nn, serialize, synth, unlearn
    from cdunlearn import importance as imp

    wirings = (model.DecoupledWiring, model.MonotonicCdmWiring)
    both = (unlearn, experiment)
    return [
        ((synth,), "generate_dataset", "synth.generate", None, None),
        ((synth,), "write_dataset_csv", "synth.write_csv", None, None),
        ((data, experiment), "load_responses", "data.load", None, None),
        ((data, experiment), "load_qmatrix", "data.load", None, None),
        ((data, experiment), "split_records", "data.partition", None, None),
        ((data, experiment), "partition_students", "data.partition", None, None),
        ((data, experiment), "derive_mia_subsets", "data.partition", None, None),
        ((data, model, imp, mia, unlearn), "records_to_arrays",
         "data.records_to_arrays", _rows, None),
        ((nn,), "sigmoid", "nn.sigmoid", None, None),
        ((nn,), "optimizer_step", "nn.optimizer_step", None, None),
        ((nn,), "accumulate_sq_grads", "nn.accumulate_sq_grads", None, None),
        (wirings, "forward", "nn.forward", None, None),
        (wirings, "backward", "nn.backward", None, None),
        ((model.CDModel,), "fit", "model.fit", _fit_counts, None),
        ((model.CDModel,), "predict_proba", "model.predict", _predict_rows, None),
        ((imp,), "fim_diag", _fisher_name, _fisher_records, None),
        ((imp,), "hutchinson_hessian_diag", "importance.hutchinson", None, None),
        (both, "hif_unlearn", "unlearn.hif", None, "unlearn.fim"),
        (both, "fim_unlearn", "unlearn.fim", None, None),
        (both, "gradient_ascent_unlearn", "unlearn.gradasc", None, None),
        (both, "hessian_unlearn", "unlearn.hessian", None, None),
        ((unlearn,), "select_and_attenuate", "unlearn.select_attenuate", _selected, None),
        ((mia, experiment), "extract_features", "mia.extract_features", None, None),
        ((mia, experiment), "evaluate_attack", "mia.evaluate", None, None),
        ((mia.LogisticAttacker,), "fit", "mia.attacker_fit", None, None),
        ((metrics,), "auc", "metrics.auc", None, None),
        ((serialize,), "save_bundle", "serialize.save", _bytes_written, None),
        ((experiment,), "build_context", "experiment.build_context", None, None),
        ((experiment,), "sweep", "experiment.sweep", _sweep_points, None),
    ]


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Install the wrappers on the cdunlearn modules and restore the
    originals on exit."""
    saved: list[tuple[object, str, object]] = []
    try:
        for owners, attr, name, count, skip_under in _targets():
            wrapped: dict[int, Callable] = {}
            for owner in owners:
                original = owner.__dict__[attr]
                if id(original) not in wrapped:
                    wrapped[id(original)] = tracer.wrap(name, original, count, skip_under)
                saved.append((owner, attr, original))
                setattr(owner, attr, wrapped[id(original)])
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
