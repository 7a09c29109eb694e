"""In-memory span tracer that times gasketfields from outside the package.

`traced(tracer)` wraps the public functions listed in `TARGETS` and
rebinds each wrapper at every site that holds the original: the defining
module's attribute, every ``from``-import of it inside the package (for
example ``fields.fractional_laplacian_inv``), dict registries such as
``verify.SUITES``, and the class attribute for methods such as
``GasketMesh.snap``.  Leaving the context restores every site, so the
package runs unwrapped outside it.

A span is (name, start, end, parent).  Spans stay in memory until the
run writes them out; `summarize` turns them into per-name call counts,
inclusive time and self time.
"""

import contextlib
import functools
import importlib
import inspect
import sys
import time

# layer -> public functions and methods timed by the traced run; a method is
# named "Class.method" here and "<layer>.<method>" in its spans
TARGETS = {
    "geometry": ("build_mesh", "sample_mu", "GasketMesh.snap",
                 "GasketMesh.level_edges"),
    "spectral": ("assemble_form", "solve_spectrum", "heat_kernel"),
    "riesz": ("KernelEvaluator.apply", "KernelEvaluator.matrix",
              "KernelEvaluator.row", "KernelEvaluator.value",
              "fractional_laplacian_inv"),
    "stable": ("make_draw", "lepage_replicates", "direct_replicates",
               "standard_stable"),
    "fields": ("simulate_field", "scaled_subcell_field", "distributional_field"),
    "analysis": ("two_sample", "one_sample_ks", "cf_gof",
                 "holder_exponent_estimate", "divergence_diagnostic"),
}

# span name -> (count name, work done by one call, from its bound arguments)
COUNTERS = {
    "spectral.solve_spectrum": ("spectral.eigh_n",
                                lambda a: len(a["form"].weights)),
    "stable.lepage_replicates": ("stable.lepage_terms",
                                 lambda a: a["n_terms"] * a["n_replicates"]),
    "geometry.sample_mu": ("geometry.sample_mu_points",
                           lambda a: 1 if a["size"] is None else a["size"]),
}


class Tracer:
    """Collects nested spans and work counts for one run."""

    def __init__(self, run_id, clock=time.perf_counter):
        self.run_id = run_id
        self.clock = clock
        self.spans = []          # [name, start, end, parent index or None]
        self.counts = {}
        self._stack = []

    def begin(self, name):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, self.clock(), None, parent])
        self._stack.append(idx)
        return idx

    def end(self, idx):
        self.spans[idx][2] = self.clock()
        if self._stack.pop() != idx:
            raise RuntimeError(f"span {self.spans[idx][0]!r} closed out of order")

    @contextlib.contextmanager
    def span(self, name):
        idx = self.begin(name)
        try:
            yield
        finally:
            self.end(idx)

    def count(self, name, n):
        self.counts[name] = self.counts.get(name, 0) + n

    def records(self, origin=0.0):
        """Spans as JSON-ready dicts, times in seconds from `origin`."""
        return [{"id": i, "name": name, "start": start - origin,
                 "end": end - origin, "parent": parent, "run": self.run_id}
                for i, (name, start, end, parent) in enumerate(self.spans)]


def _wrap(tracer, name, fn):
    counter = COUNTERS.get(name)
    sig = inspect.signature(fn) if counter else None

    @functools.wraps(fn)
    def traced_call(*args, **kwargs):
        idx = tracer.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.end(idx)
            if counter:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                tracer.count(counter[0], counter[1](bound.arguments))

    return traced_call


def span_cost(calls=20_000):
    """Seconds one traced call adds over a plain call, measured on a no-op."""
    plain = lambda: None
    wrapped = _wrap(Tracer("calibration"), "noop", plain)
    t0 = time.perf_counter()
    for _ in range(calls):
        plain()
    t1 = time.perf_counter()
    for _ in range(calls):
        wrapped()
    t2 = time.perf_counter()
    return max(0.0, ((t2 - t1) - (t1 - t0)) / calls)


def _targets():
    """(owner, attribute, span name) for every function to wrap."""
    out = []
    for layer, names in TARGETS.items():
        mod = importlib.import_module(f"gasketfields.{layer}")
        for dotted in names:
            owner, attr = mod, dotted
            if "." in dotted:
                cls, attr = dotted.split(".")
                owner = getattr(mod, cls)
            out.append((owner, attr, f"{layer}.{attr}"))
    verify = importlib.import_module("gasketfields.verify")
    for suite, fn in verify.SUITES.items():
        out.append((verify, fn.__name__, f"verify.{suite}"))
    return out


@contextlib.contextmanager
def traced(tracer):
    """Wrap every target at every binding site for the duration of the block."""
    wrappers = {}            # id(original) -> (original, wrapper)
    patches = []             # (container, key, original), undone in reverse
    for owner, attr, name in _targets():
        original = owner.__dict__[attr]
        wrappers[id(original)] = (original, _wrap(tracer, name, original))
        if inspect.isclass(owner):
            patches.append((owner, attr, original))
            setattr(owner, attr, wrappers[id(original)][1])

    def swap(value):
        hit = wrappers.get(id(value))
        return hit[1] if hit is not None and hit[0] is value else None

    modules = [m for n, m in list(sys.modules.items())
               if n == "gasketfields" or n.startswith("gasketfields.")]
    for mod in modules:
        for key, value in list(vars(mod).items()):
            wrapped = swap(value)
            if wrapped is not None:
                patches.append((mod, key, value))
                setattr(mod, key, wrapped)
            elif isinstance(value, dict):
                for k, v in list(value.items()):
                    wrapped = swap(v)
                    if wrapped is not None:
                        patches.append((value, k, v))
                        value[k] = wrapped
    try:
        yield tracer
    finally:
        for container, key, original in reversed(patches):
            if isinstance(container, dict):
                container[key] = original
            else:
                setattr(container, key, original)


def _covered(intervals, lo, hi):
    """Length of the union of `intervals`, clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def summarize(spans):
    """Per span name: calls, inclusive seconds and self seconds.

    Self time is a span's duration minus the part of it covered by its
    child spans.  Inclusive time counts only the outermost of nested spans
    sharing a name, so a function that re-enters itself is not counted
    twice.
    """
    children = {}
    for i, (_, start, end, parent) in enumerate(spans):
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    out = {}
    for i, (name, start, end, parent) in enumerate(spans):
        stats = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        stats["calls"] += 1
        stats["self_s"] += (end - start) - _covered(children.get(i, ()), start, end)
        p = parent
        while p is not None and spans[p][0] != name:
            p = spans[p][3]
        if p is None:
            stats["total_s"] += end - start
    return out
