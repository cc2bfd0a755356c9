"""Spans recorded from the benchmark's side of each layer's public API.

`Tracer.install()` replaces the public functions listed in `LAYER_API` by
wrappers in every loaded `regulus` module's namespace (so calls from one
layer into another are traced too), and `remove()` puts them back.  A span
is (name, start, end, parent span index, op id); a layer's self time is the
duration of its spans minus the part their child spans cover.
"""

from __future__ import annotations

import sys
from contextlib import contextmanager
from time import perf_counter

# Public entry points per layer.  Small helpers called in inner loops
# (mask_of, vertices_of, private solver calls) are left out on purpose: a
# span there would cost more than the call.
LAYER_API = {
    "hypercore": ("Hypergraph", "parse", "serialize", "read_hypergraph", "write_hypergraph",
                  "complete_uniform"),
    "regdetect": ("find_regular", "verify_certificate", "parse_certificate",
                  "serialize_certificate"),
    "extremal": ("extremal_search", "count_wedges", "classify_3sets"),
    "gadgets": ("full_star", "star_plus", "gadget_h", "gadget_h_prime", "example_a",
                "example_b", "bes_layer_star", "verify_bes_layer_star"),
    "patterns": ("find_sunflower", "greedy_sunflower", "find_same_union", "find_gadget_copy"),
    "cli": ("run",),
}
LAYERS = tuple(LAYER_API) + ("bench",)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, op]
        self.op = None
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        self.spans.append([name, perf_counter(), None, self._stack[-1] if self._stack else None,
                           self.op])
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx][2] = perf_counter()

    def _wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        modules = {n: m for n, m in sys.modules.items()
                   if m is not None and (n == "regulus" or n.startswith("regulus."))}
        for layer, names in LAYER_API.items():
            home = modules.get(f"regulus.{layer}")
            for name in names if home else ():
                original = getattr(home, name)
                wrapper = self._wrap(f"{layer}.{name}", original)
                for mod in modules.values():
                    # The class must stay itself where isinstance checks use it.
                    if name == "Hypergraph" and mod is home:
                        continue
                    if mod.__dict__.get(name) is original:
                        self._patched.append((mod, name, original))
                        setattr(mod, name, wrapper)

    def remove(self) -> None:
        for mod, name, original in reversed(self._patched):
            setattr(mod, name, original)
        self._patched.clear()

    # -- reading the spans ------------------------------------------------

    def total(self, name: str, since: int = 0) -> float:
        """Seconds covered by spans[since:] called `name`; a name ending in
        "." matches every span with that prefix, counting nested ones once."""
        def hit(i):
            n = self.spans[i][0]
            return n.startswith(name) if name.endswith(".") else n == name
        return sum(s[2] - s[1] for i, s in enumerate(self.spans[since:], since)
                   if hit(i) and not (s[3] is not None and s[3] >= since and hit(s[3])))

    def self_times(self, since: int = 0) -> dict[str, float]:
        """Seconds of self time per layer over spans[since:]."""
        child = [0.0] * len(self.spans)
        for s in self.spans[since:]:
            if s[3] is not None:
                child[s[3]] += s[2] - s[1]
        out = {layer: 0.0 for layer in LAYERS}
        for i in range(since, len(self.spans)):
            name, start, end = self.spans[i][:3]
            out[name.split(".")[0]] += end - start - child[i]
        return out
