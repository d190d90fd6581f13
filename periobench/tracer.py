"""Spans around periocast's public functions, recorded from the outside.

`Tracer.install` replaces each traced function by a wrapper at the place it
is looked up when called: the module attribute the benchmark calls through,
and the name a periocast module imported it under (for example
`periocast.model.match`, which `make_windows` calls).  `uninstall` puts the
originals back.  Spans are kept in memory, nest by a stack (the benchmark
runs one caller, no threads), and are written out once at the end.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from pathlib import Path


def _targets(pc) -> list[tuple[object, str, str, object]]:
    """(owner, attribute, span name, counter) for every traced call site.

    A span name of None means the name depends on the call: a forward pass
    is `model.forward_nograd` when its tape does not record, otherwise
    `model.forward_train`.  A counter maps (args, result) to counts."""
    rows_loaded = lambda args, out: {"traceio.rows_loaded": sum(len(t) for t in out)}
    windows_cut = lambda args, out: {"model.windows_cut": len(out.train) + len(out.val) + len(out.test)}
    tape_nodes = lambda args, out: {"neural.tape_nodes": len(args[0])}
    return [
        (pc.traceio, "load_csv", "traceio.load_csv", rows_loaded),
        (pc.periodicity, "acf", "stats.acf", None),
        (pc.training, "metrics", "stats.metrics", None),
        (pc.periodicity, "detect_period", "periodicity.detect", None),
        (pc.model, "match", "periodicity.match", None),
        (pc.periodicity, "dtw_distance", "periodicity.dtw", None),
        (pc.model, "make_windows", "model.make_windows", windows_cut),
        (pc.model, "forward_batch", None, None),
        (pc.training, "forward_batch", None, None),
        (pc.neural.Tape, "backward", "neural.backward", tape_nodes),
        (pc.loss, "batch_loss", "loss.batch_loss", None),
        (pc.training, "batch_loss", "loss.batch_loss", None),
        (pc.training.Adam, "step", "training.optimizer_step", None),
        (pc.training, "_val_scores", "training.validation", None),
        (pc.training, "evaluate", "training.evaluate", None),
        (pc.checkpoint, "save_checkpoint", "checkpoint.save", None),
        (pc.checkpoint, "load_checkpoint", "checkpoint.load", None),
    ]


def _forward_name(args, kwargs) -> str:
    tape = kwargs.get("tape", args[4] if len(args) > 4 else None)
    return "model.forward_nograd" if tape is not None and not tape.recording else "model.forward_train"


class Tracer:
    def __init__(self, pc):
        self._pc = pc
        self.spans: list[list] = []    # [id, parent id or -1, name, start, end]
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name, counter):
        spans, stack, counts = self.spans, self._stack, self.counts

        def traced(*args, **kwargs):
            sid = len(spans)
            span = [sid, stack[-1] if stack else -1,
                    name or _forward_name(args, kwargs), time.perf_counter(), 0.0]
            spans.append(span)
            stack.append(sid)
            try:
                out = fn(*args, **kwargs)
            finally:
                span[4] = time.perf_counter()
                stack.pop()
            counts[span[2] + "_calls"] += 1
            if counter is not None:
                for key, n in counter(args, out).items():
                    counts[key] += n
            return out

        return traced

    def install(self) -> None:
        for owner, attr, name, counter in _targets(self._pc):
            fn = owner.__dict__[attr]
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(fn, name, counter))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)

    def self_times(self) -> dict[str, float]:
        """Total self time per span name: duration minus direct children."""
        child = defaultdict(float)
        for _, parent, _, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(float)
        for sid, _, name, start, end in self.spans:
            out[name] += (end - start) - child[sid]
        return dict(out)

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, name, start, end in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "name": name,
                                     "start": start, "end": end}) + "\n")
