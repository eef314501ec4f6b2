"""External span tracer for tropnp.

The tracer wraps tropnp functions from outside the package: every wrapped
call becomes a span with a name, a parent span, the thread it ran on, its
wall-clock interval and its self time.  Nothing inside ``src/tropnp`` is
changed; the wrappers replace module attributes at run time, in every
tropnp module that holds the original function, because ``cli``,
``engine`` and ``oracle`` import ``decomposition``, ``tnp_set`` and
``in_tnp`` by name.

Self time is measured in per-thread CPU time.  ``tnp_set`` and
``grid_compare`` fan work out over ``ThreadPoolExecutor`` threads, and
under the interpreter lock a worker's wall-clock span also contains the
time it waited for the lock while another worker ran; CPU time does not.
Each thread keeps its own span stack, so a span's children are exactly the
spans nested inside it on the same thread and its self time (CPU time minus
its children's CPU time) cannot go negative.  Work handed to a pool thread
records the ``parallel_map`` span of the submitting thread as its parent.
The self times of all spans add up to the CPU time spent inside them, which
for this single-interpreter-lock program is the wall time of the traced
window less the time no thread was running.

``_DD.add`` runs about a thousand times per planar map, so it records no
span of its own: its count, CPU time and resulting ray counts are added up
per thread, and its CPU time is charged to the enclosing span as child time.
"""

from __future__ import annotations

import functools
import itertools
import sys
import threading
import time

_cpu_ns = time.thread_time_ns
_wall_ns = time.perf_counter_ns


class _Frame:
    __slots__ = ("sid", "child_ns")

    def __init__(self, sid):
        self.sid = sid
        self.child_ns = 0


class _ThreadState:
    """Span stack, finished spans and counters of one thread."""

    def __init__(self, serial):
        self.serial = serial     # thread idents are reused; serials are not
        self.stack = []
        self.spans = []  # (id, parent id, thread serial, name, wall0, wall1, self_ns)
        self.counters = {}
        self.dd_calls = 0
        self.dd_ns = 0
        self.dd_rays = 0
        self.dd_peak = 0


class Tracer:
    """Collects spans and counters; thread-safe, one state per thread."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads = []
        self._ids = itertools.count(1)

    def _state(self) -> _ThreadState:
        st = getattr(self._local, "state", None)
        if st is None:
            with self._lock:
                st = _ThreadState(len(self._threads))
                self._threads.append(st)
            self._local.state = st
        return st

    def current_span(self) -> int:
        """Id of the innermost open span of the calling thread (0: none)."""
        stack = self._state().stack
        return stack[-1].sid if stack else 0

    def count(self, name: str, k=1) -> None:
        c = self._state().counters
        c[name] = c.get(name, 0) + k

    def run(self, name, fn, args=(), kwargs=None, parent=None):
        """Call fn inside a span; parent defaults to this thread's open span."""
        st = self._state()
        stack = st.stack
        if parent is None:
            parent = stack[-1].sid if stack else 0
        frame = _Frame(next(self._ids))
        stack.append(frame)
        wall0 = _wall_ns()
        cpu0 = _cpu_ns()
        try:
            return fn(*args, **(kwargs or {}))
        finally:
            cpu = _cpu_ns() - cpu0
            wall1 = _wall_ns()
            stack.pop()
            if stack:
                stack[-1].child_ns += cpu
            st.spans.append((frame.sid, parent, st.serial, name, wall0, wall1,
                             cpu - frame.child_ns))

    def wrap(self, name, fn, on_result=None):
        """fn traced as span `name`; on_result(tracer, result) adds counters."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            result = self.run(name, fn, args, kwargs)
            if on_result is not None:
                on_result(self, result)
            return result
        return traced

    def wrap_dd_add(self, add):
        """Aggregate-only wrapper for geom._DD.add (see the module doc)."""
        state = self._state

        @functools.wraps(add)
        def traced_add(dd, a, equality=False):
            st = state()
            cpu0 = _cpu_ns()
            try:
                add(dd, a, equality)
            finally:
                cpu = _cpu_ns() - cpu0
                st.dd_calls += 1
                st.dd_ns += cpu
                rays = len(dd.rays)
                st.dd_rays += rays
                if rays > st.dd_peak:
                    st.dd_peak = rays
                if st.stack:
                    st.stack[-1].child_ns += cpu
        return traced_add

    def wrap_parallel_map(self, parallel_map):
        """parallel_map whose work items are spans parented to its own span,
        whichever thread runs them."""
        def traced_parallel_map(fn, items):
            items = list(items)
            self.count("engine.parallel_map.items", len(items))

            def body():
                parent = self.current_span()

                def item(x):
                    return self.run("engine.parallel_item", fn, (x,),
                                    parent=parent)
                return parallel_map(item, items)
            return self.run("engine.parallel_map", body)
        return functools.wraps(parallel_map)(traced_parallel_map)

    # -- results -------------------------------------------------------------

    def spans(self):
        with self._lock:
            threads = list(self._threads)
        return [s for st in threads for s in st.spans]

    def summary(self) -> dict:
        """Per span name: calls, self CPU seconds, inclusive wall seconds;
        plus merged counters and the _DD.add aggregates."""
        with self._lock:
            threads = list(self._threads)
        names = {}
        for st in threads:
            for _sid, _parent, _thread, name, w0, w1, self_ns in st.spans:
                e = names.setdefault(name, [0, 0, 0])
                e[0] += 1
                e[1] += self_ns
                e[2] += w1 - w0
        counters = {}
        for st in threads:
            for k, v in st.counters.items():
                counters[k] = counters.get(k, 0) + v
        dd_calls = sum(st.dd_calls for st in threads)
        return {
            "spans": {k: {"calls": c, "self_s": s / 1e9, "wall_s": w / 1e9}
                      for k, (c, s, w) in names.items()},
            "counters": counters,
            "dd": {
                "calls": dd_calls,
                "self_s": sum(st.dd_ns for st in threads) / 1e9,
                "rays_mean": (sum(st.dd_rays for st in threads) / dd_calls
                              if dd_calls else 0.0),
                "rays_peak": max((st.dd_peak for st in threads), default=0),
            },
        }


def _replace_everywhere(orig, new) -> None:
    """Rebind every tropnp module attribute that holds `orig` to `new`."""
    for modname, mod in list(sys.modules.items()):
        if mod is None or not (modname == "tropnp" or modname.startswith("tropnp.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is orig:
                setattr(mod, attr, new)


def _count_faces(tracer, faces):
    tracer.count("faces.tuple_faces", len(faces))
    tracer.count("faces.relevant",
                 sum(1 for f in faces if f.dicritical and f.pre_origin))


def _count_cells(tracer, cx):
    tracer.count("subdivision.cells", len(cx.cells))


def _count_sigma(tracer, analysis):
    tracer.count("engine.cells_analyzed")
    if analysis.contributing:
        tracer.count("engine.cells_contributing")


def _count_piece(tracer, piece):
    if not piece.is_empty:
        tracer.count("engine.pieces")


def _count_canonical(tracer, canonical):
    tracer.count("engine.canonical_pieces", len(canonical))


def _count_verdict(tracer, verdict):
    if verdict.member:
        tracer.count("oracle.members")


def install(tracer: Tracer) -> None:
    """Wrap the layer entry points of an imported tropnp in `tracer` spans."""
    from tropnp import cli, engine, faces, geom, newton, oracle, subdivision

    plain = [
        (cli, "main", "cli.main", None),
        (cli, "load_input", "cli.load_input", None),
        (cli, "dump_doc", "cli.dump_doc", None),
        (cli, "parse_output_doc", "cli.parse_output_doc", None),
        (faces, "delta0", "faces.delta0", None),
        (faces, "enumerate_tuple_faces", "faces.enumerate", _count_faces),
        (subdivision, "decomposition", "subdivision.decomposition", _count_cells),
        (engine, "tnp_set", "engine.tnp_set", None),
        (engine, "analyze_gamma", "engine.analyze_gamma", None),
        (engine, "analyze_sigma", "engine.analyze_sigma", _count_sigma),
        (engine, "cell_contribution", "engine.cell_contribution", _count_piece),
        (oracle, "in_tnp", "oracle.in_tnp", _count_verdict),
        (oracle, "grid_compare", "oracle.grid_compare", None),
        (newton, "recover_fan", "newton.recover_fan", None),
    ]
    for mod, attr, name, on_result in plain:
        orig = getattr(mod, attr)
        _replace_everywhere(orig, tracer.wrap(name, orig, on_result))

    orig = engine.parallel_map
    _replace_everywhere(orig, tracer.wrap_parallel_map(orig))

    union = engine.TNPSet.__dict__["_canonical_union"].__func__
    engine.TNPSet._canonical_union = staticmethod(
        tracer.wrap("engine.canonical_union", union, _count_canonical))

    geom._DD.add = tracer.wrap_dd_add(geom._DD.add)
