"""In-memory spans around the benchmark's calls into the program's layers.

A span holds a name (`<layer>.<call>`), start, end, parent and op id.  Spans
are kept in memory; `dump` writes them out once, at the end of a run.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._op = -1

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        rec = {
            "name": name,
            "op": self._op,
            "parent": self._stack[-1] if self._stack else None,
            "start": time.perf_counter(),
            "end": None,
            "error": None,
        }
        self.spans.append(rec)
        self._stack.append(idx)
        try:
            yield
        except Exception as exc:
            rec["error"] = type(exc).__name__
            raise
        finally:
            self._stack.pop()
            rec["end"] = time.perf_counter()

    @contextmanager
    def op(self):
        """The root span of one op; its children are the layer calls."""
        self._op += 1
        with self.span("op"):
            yield

    def self_times(self) -> dict[str, float]:
        """Total self time per span name, root `op` spans excluded."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s["parent"] is not None:
                child[s["parent"]] += s["end"] - s["start"]
        out: dict[str, float] = {}
        for i, s in enumerate(self.spans):
            if s["name"] != "op":
                out[s["name"]] = out.get(s["name"], 0.0) + s["end"] - s["start"] - child[i]
        return out

    def ops(self) -> list[dict]:
        """Per op: start, end, wall time, share covered by layer spans, and the failing layer."""
        kids: dict[int, list[dict]] = {}
        for s in self.spans:
            kids.setdefault(s["parent"], []).append(s)
        out = []
        for i, s in enumerate(self.spans):
            if s["name"] != "op":
                continue
            wall = s["end"] - s["start"]
            failing = next((k["name"] for k in kids.get(i, []) if k["error"]), None)
            out.append({
                "start": s["start"],
                "end": s["end"],
                "wall": wall,
                "coverage": sum(k["end"] - k["start"] for k in kids.get(i, [])) / wall,
                "failed_layer": failing.split(".")[0] if failing else None,
            })
        return out

    def dump(self, path: str):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.spans, fh)
