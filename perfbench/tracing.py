"""Spans around the calls into each layer, recorded from outside the program.

``install`` replaces every public function named in LAYERS with a wrapper,
at every module attribute of the package that binds it (``propagate_fold``
is bound in ``doubleline.fold3d``, ``doubleline.thicken``, ``doubleline.cli``
and the package itself), and the two CreasePattern methods on the class.
Calls made inside the program go through module globals, so they are
caught as well.  A name that no longer exists is reported, not skipped.

Spans are (layer, start, end, parent, op) rows kept in memory; a layer's
self time is its span time minus the time of the spans nested in it.
"""
from __future__ import annotations

import functools
import json
import sys
import time
from pathlib import Path

# per-layer metric stem -> functions as "module:name"
LAYERS = {
    "pattern.build": ["pattern:CreasePattern.build"],
    "pattern.validate": ["pattern:CreasePattern.validate"],
    "patterns.gen_dl": ["patterns:gen_dl_miura", "patterns:gen_dl_yoshimura"],
    "fold_io.load": ["fold_io:load_fold"],
    "fold_io.save": ["fold_io:save_fold"],
    "svg.save": ["svg:save_svg"],
    "fold3d.network_multipliers": ["fold3d:network_multipliers"],
    "fold3d.sweep": ["fold3d:sweep_motion"],
    "fold3d.propagate": ["fold3d:propagate_fold"],
    "fold3d.solve": ["fold3d:solve_fold_angles"],
    "thicken.half_widths": ["thicken:crease_half_widths"],
    "thicken.thicken": ["thicken:thicken"],
    "thicken.clearance": ["thicken:clearance_records"],
    "thicken.watertight": ["thicken:watertight_gap"],
    "thicken.export": ["thicken:export_solids_obj", "thicken:export_clearance_csv"],
    "dl.construct": ["dl:construct_dl"],
    "dl.classify": ["dl:classify_theta"],
    "dl.theta_for_ratio": ["dl:theta_for_ratio"],
    "dl.even_minor": ["dl:theta_for_even_minor"],
    "symmetric.enumerate": ["symmetric:enumerate_mode_sequences"],
}
# calls are counted per op for these layers; vertex_star is too small and
# too frequent to time, so it is only counted
COUNTED = ("pattern.build", "fold3d.propagate", "pattern.vertex_star")
COUNT_ONLY = {"pattern.vertex_star": "pattern:vertex_star"}

# package functions the benchmark calls directly that no layer names
UNNAMED = "unnamed"

LAYER_MS = [f"{name}_ms" for name in LAYERS]
LAYER_CALLS = [f"{name}_calls" for name in COUNTED]


class Tracer:
    def __init__(self):
        self.names = list(LAYERS) + [UNNAMED]
        self.spans: list[tuple[int, float, float, int, int]] = []
        self.calls = {name: 0 for name in COUNTED}
        self.missing: list[str] = []
        self.op = -1
        self.active = False
        self._stack: list[int] = []

    # -- wrapping ----------------------------------------------------------

    def _span(self, layer: int, fn):
        name = self.names[layer]
        counted = name in self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            if counted:
                self.calls[name] += 1
            parent = self._stack[-1] if self._stack else -1
            idx = len(self.spans)
            self.spans.append(None)
            self._stack.append(idx)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[idx] = (layer, start, end, parent, self.op)

        return wrapper

    def _counter(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.active:
                self.calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def unnamed(self, fn):
        return self._span(self.names.index(UNNAMED), fn)

    def install(self, package) -> None:
        modules = [m for k, m in sorted(sys.modules.items())
                   if k == package.__name__ or k.startswith(package.__name__ + ".")]
        targets = [(layer, ref) for layer, refs in LAYERS.items() for ref in refs]
        targets += list(COUNT_ONLY.items())
        for layer, ref in targets:
            home, attr = ref.split(":")
            module = sys.modules.get(f"{package.__name__}.{home}")
            owner_name, _, method = attr.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            original = getattr(owner, method, None) if owner is not None else None
            if original is None:
                self.missing.append(ref)
                continue
            if owner_name:  # a method: wrap it once, on the class
                raw = owner.__dict__[method]
                if isinstance(raw, classmethod):
                    setattr(owner, method, classmethod(self._span(self.names.index(layer), raw.__func__)))
                else:
                    setattr(owner, method, self._span(self.names.index(layer), raw))
                continue
            if layer in COUNT_ONLY:
                wrapper = self._counter(layer, original)
            else:
                wrapper = self._span(self.names.index(layer), original)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, key, wrapper)

    # -- aggregation -------------------------------------------------------

    def self_times(self) -> dict[int, dict[int, float]]:
        """op -> layer -> self seconds, and op -> -1 -> seconds inside any span."""
        child = [0.0] * len(self.spans)
        for layer, start, end, parent, op in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[int, dict[int, float]] = {}
        for k, (layer, start, end, parent, op) in enumerate(self.spans):
            per_op = out.setdefault(op, {})
            per_op[layer] = per_op.get(layer, 0.0) + (end - start) - child[k]
            if parent < 0:
                per_op[-1] = per_op.get(-1, 0.0) + (end - start)
        return out

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            json.dump({"layers": self.names, "missing": self.missing,
                       "columns": ["layer", "start", "end", "parent", "op"], "spans": self.spans}, fh)
