"""Per-layer spans recorded from outside the package.

Each traced layer function is wrapped, and the wrapper is bound wherever the
original function object appears in a ``qqdyn.*`` module namespace.  The
package imports with ``from .x import y``, so patching only the defining
module would miss call sites such as ``negativity.evolve`` or
``cli.run_sweep``.  Dataclass targets are traced through their
``__post_init__`` validation.  A target missing from the package is reported
as absent and contributes zero calls.
"""

from __future__ import annotations

import importlib
import sys
from time import perf_counter

#: (module, attribute) of every traced layer function, named after the
#: modules in ``src/qqdyn``.  Classes are traced through ``__post_init__``.
TARGETS = (
    ("states", "initial_state"),
    ("states", "DensityMatrix"),
    ("channels", "make_channel"),
    ("channels", "KrausChannel"),
    ("evolution", "evolve"),
    ("evolution", "apply_channel"),
    ("evolution", "analytic_evolved"),
    ("evolution", "coherence_l1"),
    ("linalg", "partial_transpose_qutrit"),
    ("negativity", "negativity_numeric"),
    ("negativity", "negativity_analytic"),
    ("negativity", "esd_gamma"),
    ("negativity", "analytic_esd_gamma"),
    ("sweep", "run_sweep"),
    ("sweep", "render_sweep"),
    ("cli", "main"),
)

LAYERS = ("states", "channels", "evolution", "linalg", "negativity", "sweep", "cli")

_EVOLVE = "evolution.evolve"
_ESD = "negativity.esd_gamma"
_RENDER = "sweep.render_sweep"


class Tracer:
    """Counts calls and self time per target while installed.

    Self time is a span's duration minus the part covered by traced child
    spans.  ``esd_evals`` counts ``evolve`` calls made inside an
    ``esd_gamma`` span; ``bytes_out`` sums the UTF-8 size of every rendered
    sweep.
    """

    def __init__(self) -> None:
        self.calls = {f"{m}.{n}": 0 for m, n in TARGETS}
        self.self_s = {key: 0.0 for key in self.calls}
        self.absent: list[str] = []
        self.esd_evals = 0
        self.bytes_out = 0
        self._stack: list[float] = []
        self._esd_depth = 0
        self._bindings: list[tuple[object, str, object, object]] = []
        for module, name in TARGETS:
            self._resolve(f"{module}.{name}", module, name)

    def _resolve(self, key: str, module: str, name: str) -> None:
        try:
            mod = importlib.import_module(f"qqdyn.{module}")
        except ImportError:
            self.absent.append(key)
            return
        obj = getattr(mod, name, None)
        if isinstance(obj, type):
            hook = obj.__dict__.get("__post_init__")
            if hook is None:
                self.absent.append(key)
                return
            self._bindings.append((obj, "__post_init__", hook, self._wrap(key, hook)))
        elif callable(obj):
            wrapper = self._wrap(key, obj)
            for mod_name, namespace in list(sys.modules.items()):
                if mod_name != "qqdyn" and not mod_name.startswith("qqdyn."):
                    continue
                for attr, value in list(vars(namespace).items()):
                    if value is obj:
                        self._bindings.append((namespace, attr, obj, wrapper))
        else:
            self.absent.append(key)

    def _wrap(self, key: str, fn):
        calls, self_s, stack = self.calls, self.self_s, self._stack

        def traced(*args, **kwargs):
            calls[key] += 1
            if key == _EVOLVE and self._esd_depth:
                self.esd_evals += 1
            if key == _ESD:
                self._esd_depth += 1
            stack.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - t0
                self_s[key] += elapsed - stack.pop()
                if stack:
                    stack[-1] += elapsed
                if key == _ESD:
                    self._esd_depth -= 1
            if key == _RENDER:
                self.bytes_out += len(result.encode("utf-8"))
            return result

        return traced

    def install(self) -> None:
        for owner, attr, _, wrapper in self._bindings:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _ in self._bindings:
            setattr(owner, attr, original)

    def metrics(self, ops: int, traced_s: float, untraced_s: float) -> dict[str, float]:
        """Per-op layer metrics over ``ops`` traced ops taking ``traced_s``,
        whose untraced repeats took ``untraced_s``."""
        out: dict[str, float] = {}
        for key in self.calls:
            out[f"{key}.calls"] = self.calls[key] / ops
            out[f"{key}.self_s"] = self.self_s[key] / ops
        esd_calls = self.calls[_ESD]
        out[f"{_ESD}.evals_per_call"] = self.esd_evals / esd_calls if esd_calls else 0.0
        out["sweep.bytes_out"] = self.bytes_out / ops
        for layer in LAYERS:
            busy = sum(v for k, v in self.self_s.items() if k.startswith(layer + "."))
            out[f"{layer}.share"] = busy / traced_s
        out["trace.overhead_frac"] = traced_s / untraced_s - 1.0
        return out
