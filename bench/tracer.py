"""Layer tracing for the entwine benchmark, installed from outside the package.

The tracer wraps public functions and ``Matrix`` methods of the ``entwine``
modules.  Modules bind names such as ``sv_apply`` with ``from .exactla import
...``, so every wrapper is rebound in each ``entwine.*`` module that holds the
original object.

Two kinds of wrapper exist:

* span wrappers (op roots, ``check_*``/``verify_*``, ``conv2_inverse``,
  ``solve_affine``, matrix builds, ...) record a span ``(id, parent, name,
  start, end)`` while span recording is on, and always add to the layer's
  counters;
* hot wrappers (``sv_apply``, ``sv_permute``, ``Matrix.__init__``,
  ``sparse_cols``, ...) only add to aggregated counters.

Both keep a per-thread stack so that a layer's self time is its elapsed time
minus the elapsed time of the wrapped calls it made.  The wrappers' own cost,
counter updates included, is charged to ``trace.bookkeeping``, not to any
layer.  Part of that cost falls outside the wrapper's own timer reads (the
call into the wrapper, the return from it, the timer calls themselves), so it
cannot be measured per call.  ``calibrate`` measures it on an empty function,
and every call charges the calibrated amount to ``trace.bookkeeping`` and
keeps it out of the caller's self time.  Spans stay in memory until the caller
writes them out.
"""

from __future__ import annotations

import functools
import gc
import os
import statistics
import sys
import threading
from time import perf_counter

HOT, SPAN = "hot", "span"

PRODUCT = "exactla.product"
SOLVE = "exactla.solve"
BOOKKEEPING = "trace.bookkeeping"
CALIBRATION = "trace.calibration"

CALIBRATION_CALLS = 3000
CALIBRATION_REPEATS = 5


def _noop(a, b):
    return None


class _ThreadState:
    __slots__ = ("stack", "span_stack", "layers", "spans", "finder_depth", "root_parent")

    def __init__(self, root_parent):
        self.stack = []          # one float per open frame: its children's elapsed time
        self.span_stack = []     # open span records
        self.layers = {}         # layer -> {"calls": n, "self_s": t, other counters}
        self.spans = []          # span records: [id, parent_id, name, start, end]
        self.finder_depth = 0
        self.root_parent = root_parent


def _layer(st, name):
    rec = st.layers.get(name)
    if rec is None:
        rec = st.layers[name] = {"calls": 0, "self_s": 0.0}
    return rec


def _bump(st, layer, key, amount):
    rec = _layer(st, layer)
    rec[key] = rec.get(key, 0) + amount


class Tracer:
    """Per-thread frame stacks, aggregated layer counters and in-memory spans."""

    def __init__(self):
        self._tls = threading.local()
        self._lock = threading.Lock()
        self._states = []
        self._next_span = 0
        self._patches = []
        self.record_spans = False
        self.pools = []          # one record per multi-file CLI pool run
        self._root_parent = None
        # per-call wrapper cost that the wrapper's timer reads cannot see:
        # inside the callee's measured elapsed time, and outside [ts, te]
        self.cost_in = 0.0
        self.cost_out = 0.0
        self.calibrations = []   # (cost_in, cost_out) since the last reset

    def _state(self) -> _ThreadState:
        st = getattr(self._tls, "st", None)
        if st is None:
            st = _ThreadState(self._root_parent)
            with self._lock:
                self._states.append(st)
            self._tls.st = st
        return st

    def _open_span(self, st, name):
        with self._lock:
            self._next_span += 1
            sid = self._next_span
        parent = st.span_stack[-1][0] if st.span_stack else st.root_parent
        span = [sid, parent, name, 0.0, 0.0]
        st.span_stack.append(span)
        st.spans.append(span)
        return span

    def reset(self) -> None:
        "Forget all counters, spans and calibrations."
        with self._lock:
            for st in self._states:
                st.layers.clear()
                st.spans.clear()
            self.pools.clear()
            self.calibrations.clear()

    def charge(self, seconds: float) -> None:
        "Charge tracing work done outside any wrapper to ``trace.bookkeeping``."
        _layer(self._state(), BOOKKEEPING)["self_s"] += seconds

    def calibrate(self) -> tuple[float, float]:
        """Measure the wrapper cost that a wrapper cannot time itself.

        An empty two-argument function is called CALIBRATION_CALLS times
        directly and through a wrapper, inside an open frame.  Per call:

        * ``cost_in`` = self time the wrapper records for the empty function
          minus the cost of calling it directly (timer reads and argument
          unpacking inside the measured interval);
        * ``cost_out`` = total wrapping overhead minus what the wrapper
          already charged to bookkeeping minus ``cost_in`` (the call into
          the wrapper, argument packing and the return, outside its first
          and last timer reads).

        Medians over CALIBRATION_REPEATS rounds, with the garbage collector
        paused.  Returns ``(cost_in, cost_out)``; later calls use them.
        """
        n = CALIBRATION_CALLS
        wrapped = self._wrap(_noop, CALIBRATION)
        st = self._state()
        saved = self.cost_in, self.cost_out
        self.cost_in = self.cost_out = 0.0
        bk_before = st.layers.get(BOOKKEEPING)
        enabled = gc.isenabled()
        gc.disable()
        ins, outs = [], []
        try:
            for _ in range(CALIBRATION_REPEATS):
                t0 = perf_counter()
                for _ in range(n):
                    pass
                t1 = perf_counter()
                for _ in range(n):
                    _noop(0, 1)
                t2 = perf_counter()
                st.stack.append(0.0)
                st.layers[BOOKKEEPING] = {"calls": 0, "self_s": 0.0}
                cal = _layer(st, CALIBRATION)
                self0 = cal["self_s"]
                t3 = perf_counter()
                for _ in range(n):
                    wrapped(0, 1)
                t4 = perf_counter()
                st.stack.pop()
                direct = ((t2 - t1) - (t1 - t0)) / n
                overhead = ((t4 - t3) - (t2 - t1)) / n
                measured_bk = st.layers[BOOKKEEPING]["self_s"] / n
                cost_in = (cal["self_s"] - self0) / n - direct
                ins.append(cost_in)
                outs.append(overhead - measured_bk - cost_in)
        except BaseException:
            self.cost_in, self.cost_out = saved
            raise
        finally:
            st.layers.pop(CALIBRATION, None)
            st.layers.pop(BOOKKEEPING, None)
            if bk_before is not None:
                st.layers[BOOKKEEPING] = bk_before
            if enabled:
                gc.enable()
        self.cost_in = statistics.median(ins)
        self.cost_out = statistics.median(outs)
        self.calibrations.append((self.cost_in, self.cost_out))
        return self.cost_in, self.cost_out

    def call(self, layer, span_name, fn, args, kwargs):
        "Run ``fn(*args, **kwargs)`` as one frame of ``layer``, with a span."
        return self._wrap(fn, layer, span_name)(*args, **kwargs)

    def add_child(self, layers: dict, bookkeeping_s: float = 0.0) -> None:
        """Merge layer counters measured elsewhere (a traced child process)
        as children of the current frame, plus ``bookkeeping_s`` of tracing
        work that the child's counters do not hold."""
        st = self._state()
        total = bookkeeping_s
        _layer(st, BOOKKEEPING)["self_s"] += bookkeeping_s
        for name, counters in layers.items():
            rec = _layer(st, name)
            for k, v in counters.items():
                rec[k] = rec.get(k, 0) + v
            total += counters.get("self_s", 0.0)
        if st.stack:
            st.stack[-1] += total

    def layers(self) -> dict:
        "Layer counters summed over all threads."
        out: dict = {}
        with self._lock:
            states = list(self._states)
        for st in states:
            for name, rec in st.layers.items():
                tot = out.setdefault(name, {})
                for k, v in rec.items():
                    tot[k] = tot.get(k, 0) + v
        return out

    def spans(self) -> list:
        out = [tuple(s) for st in self._states for s in st.spans]
        out.sort(key=lambda s: (s[3], s[0]))
        return out

    def _wrap(self, fn, layer, span_name=None, after=None, before=None):
        """A wrapper that runs ``fn`` as one frame of ``layer``.

        Its own cost (stack handling, span and counter updates, the hooks)
        is kept out of every layer: it goes to ``trace.bookkeeping`` and is
        excluded from the caller's self time too.  The wrapper reads the
        clock first and last, so that the part of its cost outside the
        measured intervals is small; that part is the calibrated
        ``cost_in + cost_out``.
        """
        tracer = self
        tls = self._tls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            ts = perf_counter()
            st = getattr(tls, "st", None)
            if st is None:
                st = tracer._state()
            span = (tracer._open_span(st, span_name)
                    if span_name is not None and tracer.record_spans else None)
            stack = st.stack
            stack.append(0.0)
            token = before(st, args) if before is not None else None
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                exc = None
            except BaseException as e:  # re-raised below, after the frame is closed
                result, exc = None, e
            t1 = perf_counter()
            children = stack.pop()
            elapsed = t1 - t0
            layers = st.layers
            rec = layers.get(layer)
            if rec is None:
                rec = _layer(st, layer)
            rec["calls"] += 1
            cost_in = tracer.cost_in
            rec["self_s"] += elapsed - children - cost_in
            if span is not None:
                st.span_stack.pop()
                span[3], span[4] = t0, t1
            if after is not None:
                after(st, args, kwargs, result, exc, token)
            bk = layers.get(BOOKKEEPING)
            if bk is None:
                bk = _layer(st, BOOKKEEPING)
            cost_out = tracer.cost_out
            te = perf_counter()
            if stack:
                stack[-1] += te - ts + cost_out
            bk["self_s"] += (te - ts) - elapsed + cost_in + cost_out
            if exc is not None:
                raise exc
            return result

        return wrapper

    def _patch_function(self, module, attr, layer, kind, after=None, before=None):
        orig = getattr(module, attr)
        wrapper = self._wrap(orig, layer, layer if kind == SPAN else None, after, before)
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == "entwine" or name.startswith("entwine.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, key, wrapper)
                    self._patches.append((mod, key, orig))

    def _patch_method(self, cls, attr, layer, kind, after=None, before=None):
        orig = cls.__dict__[attr]
        setattr(cls, attr, self._wrap(orig, layer, layer if kind == SPAN else None,
                                      after, before))
        self._patches.append((cls, attr, orig))

    def install(self) -> None:
        "Wrap every traced entry point; import the entwine modules first."
        import entwine  # noqa: F401  (imports every library module)
        import entwine.fileformat as ff
        from entwine import emodcat, entwining, exactla, pivribbon, report, smash

        if self._patches:
            raise RuntimeError("tracer already installed")
        xl = exactla

        def matrix_after(st, args, kwargs, result, exc, token):
            if exc is None:
                m = args[0]
                rec = _layer(st, "exactla.matrix")
                rec["entries"] = rec.get("entries", 0) + m.nrows * m.ncols
                zero = xl.ZERO
                rec["nnz"] = rec.get("nnz", 0) + sum(len(r) - r.count(zero) for r in m._rows)

        def cols_before(st, args):
            return args[0]._colcache is None

        def cols_after(st, args, kwargs, result, exc, missed):
            if missed:
                _bump(st, "exactla.sparse_cols", "misses", 1)

        def kernel_after(st, args, kwargs, result, exc, token):
            if exc is None:
                _bump(st, "exactla.kernel", "terms_out", len(result))

        def solve_after(st, args, kwargs, result, exc, token):
            a = args[0]
            rec = _layer(st, SOLVE)
            rec["rows"] = rec.get("rows", 0) + a.nrows
            rec["cols"] = rec.get("cols", 0) + a.ncols
            if result is None or isinstance(exc, xl.NotInvertibleError):
                rec["inconsistent"] = rec.get("inconsistent", 0) + 1

        def compare_after(st, args, kwargs, result, exc, token):
            if exc is not None:
                return
            in_dims = tuple(args[1])
            domain = 1
            for d in in_dims:
                domain *= d
            # the scan is lexicographic and stops at the first witness
            scanned = domain
            if not result.passed:
                scanned = xl.flatten_index(in_dims, result.witness.basis) + 1
            rec = _layer(st, "report.compare_item")
            rec["tuples"] = rec.get("tuples", 0) + scanned
            rec["domain"] = rec.get("domain", 0) + domain

        def finder_before(st, args):
            st.finder_depth += 1

        def finder_after(st, args, kwargs, result, exc, token):
            st.finder_depth -= 1
            if exc is None:
                _bump(st, "pivribbon.find_morphisms", "solutions", len(result.solutions))

        def verifier_after(st, args, kwargs, result, exc, token):
            if st.finder_depth:
                _bump(st, "pivribbon.verifier", "calls", 1)

        def file_after(layer, path_arg):
            def after(st, args, kwargs, result, exc, token):
                path = args[path_arg] if len(args) > path_arg else kwargs.get("path")
                if exc is None:
                    _bump(st, layer, "bytes", os.path.getsize(path))
            return after

        # hot counters
        self._patch_method(xl.Matrix, "__init__", "exactla.matrix", HOT, matrix_after)
        self._patch_method(xl.Matrix, "sparse_cols", "exactla.sparse_cols", HOT,
                           cols_after, cols_before)
        self._patch_method(xl.Matrix, "__mul__", PRODUCT, HOT)
        self._patch_function(xl, "sv_apply", "exactla.kernel", HOT, kernel_after)
        self._patch_function(xl, "sv_permute", "exactla.kernel", HOT, kernel_after)
        self._patch_method(report.AxiomReport, "to_dict", "report.render", HOT)
        self._patch_method(report.AxiomReport, "render_text", "report.render", HOT)
        # coarse spans
        self._patch_function(xl, "kron", PRODUCT, SPAN)
        self._patch_function(xl, "matrix_from_columns_fn", PRODUCT, SPAN)
        self._patch_function(xl, "solve_affine", SOLVE, SPAN, solve_after)
        self._patch_function(xl, "invert", SOLVE, SPAN, solve_after)
        self._patch_function(report, "compare_item", "report.compare_item", SPAN, compare_after)
        self._patch_function(entwining, "conv2_inverse", "entwining.conv2_inverse", SPAN)
        self._patch_function(entwining, "conv_inverse", "entwining.conv_inverse", SPAN)
        self._patch_function(emodcat, "tensor_modules", "emodcat.tensor_modules", SPAN)
        self._patch_function(emodcat, "left_dual", "emodcat.dual", SPAN)
        self._patch_function(emodcat, "right_dual", "emodcat.dual", SPAN)
        self._patch_function(emodcat, "double_right_dual", "emodcat.double_right_dual", SPAN)
        self._patch_function(emodcat, "std_module_CA", "emodcat.std_module", SPAN)
        self._patch_function(emodcat, "std_module_AC", "emodcat.std_module", SPAN)
        self._patch_function(emodcat, "braiding", "emodcat.braiding", SPAN)
        self._patch_method(emodcat.ModuleMorphism, "__init__", "emodcat.module_morphism", SPAN)
        self._patch_function(pivribbon, "find_morphisms", "pivribbon.find_morphisms", SPAN,
                             finder_after, finder_before)
        self._patch_function(smash, "smash_product", "smash.build", SPAN)
        self._patch_function(smash, "smash_coproduct", "smash.build", SPAN)
        self._patch_function(ff, "load", "fileformat.load", SPAN, file_after("fileformat.load", 0))
        self._patch_function(ff, "save", "fileformat.save", SPAN, file_after("fileformat.save", 1))
        for mod in (sys.modules[n] for n in sorted(sys.modules) if n.startswith("entwine.")):
            short = mod.__name__.split(".", 1)[1]
            for name, fn in sorted(vars(mod).items()):
                if (name.startswith(("check_", "verify_")) and callable(fn)
                        and getattr(fn, "__module__", None) == mod.__name__):
                    after = verifier_after if name in ("verify_pivotal", "verify_ribbon") else None
                    self._patch_function(mod, name, f"{short}.{name}", SPAN, after)
        cli = sys.modules.get("entwine.cli")
        if cli is not None:
            self._patch_pool(cli)

    def _patch_pool(self, cli) -> None:
        """Time the multi-file pool of the CLI.

        Worker threads start with empty stacks, and their self times run in
        parallel with the main thread's wait.  The wait is kept out of every
        layer, and the workers' self times (their bookkeeping included) are
        scaled by (wall - main-thread work) / busy, so that the workers share
        out the pool's wall time instead of counting overlapped time twice.
        This is an attribution, not a measurement: the harness checks the
        traced run against untraced runs, never against the sum of self times.
        """
        tracer = self
        orig = cli._run_file_checks

        @functools.wraps(orig)
        def run_file_checks(paths, runner, fmt, report_out):
            if len(paths) < 2:
                return orig(paths, runner, fmt, report_out)
            busy = []

            def timed_runner(path):
                t0 = perf_counter()
                try:
                    return runner(path)
                finally:
                    busy.append(perf_counter() - t0)

            st = tracer._state()
            with tracer._lock:
                first_worker = len(tracer._states)
            child_before = st.stack[-1] if st.stack else 0.0
            tracer._root_parent = st.span_stack[-1][0] if st.span_stack else None
            t0 = perf_counter()
            try:
                return orig(paths, timed_runner, fmt, report_out)
            finally:
                wall = perf_counter() - t0
                tracer._root_parent = None
                total = sum(busy)
                main_work = (st.stack[-1] - child_before) if st.stack else 0.0
                scale = max(wall - main_work, 0.0) / total if total > 0 else 0.0
                with tracer._lock:
                    worker_states = tracer._states[first_worker:]
                for ws in worker_states:
                    for rec in ws.layers.values():
                        rec["self_s"] *= scale
                if st.stack:
                    st.stack[-1] = child_before + wall
                tracer.pools.append({
                    "files": len(paths),
                    "workers": min(cli._max_workers(), len(paths)),
                    "wall_s": wall,
                    "busy_s": total,
                })

        cli._run_file_checks = run_file_checks
        self._patches.append((cli, "_run_file_checks", orig))

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()


def layer_metrics(layers: dict) -> dict:
    """The per-layer metrics named in BENCHMARK.json, from summed counters.

    Returns ``name -> value``; layers that did no work read 0.
    """

    def get(layer, key="calls"):
        return layers.get(layer, {}).get(key, 0)

    def ratio(num, den):
        return num / den if den else 0.0

    m = {}
    m["exactla.matrix.calls"] = get("exactla.matrix")
    m["exactla.matrix.entries"] = get("exactla.matrix", "entries")
    m["exactla.matrix.nnz_ratio"] = ratio(get("exactla.matrix", "nnz"), m["exactla.matrix.entries"])
    m["exactla.matrix.self_s"] = get("exactla.matrix", "self_s")
    m["exactla.sparse_cols.calls"] = get("exactla.sparse_cols")
    m["exactla.sparse_cols.miss_ratio"] = ratio(get("exactla.sparse_cols", "misses"),
                                                m["exactla.sparse_cols.calls"])
    m["exactla.sparse_cols.self_s"] = get("exactla.sparse_cols", "self_s")
    m["exactla.product.calls"] = get(PRODUCT)
    m["exactla.product.self_s"] = get(PRODUCT, "self_s")
    m["exactla.kernel.calls"] = get("exactla.kernel")
    m["exactla.kernel.terms_out"] = get("exactla.kernel", "terms_out")
    m["exactla.kernel.self_s"] = get("exactla.kernel", "self_s")
    for key in ("calls", "rows", "cols", "inconsistent", "self_s"):
        m[f"exactla.solve.{key}"] = get(SOLVE, key)
    m["report.compare_item.calls"] = get("report.compare_item")
    m["report.compare_item.tuples"] = get("report.compare_item", "tuples")
    m["report.compare_item.scan_ratio"] = ratio(m["report.compare_item.tuples"],
                                                get("report.compare_item", "domain"))
    m["report.compare_item.self_s"] = get("report.compare_item", "self_s")
    m["report.render.self_s"] = get("report.render", "self_s")
    m["hopfcore.check_hopf.calls"] = get("hopfcore.check_hopf")
    m["hopfcore.check_hopf.self_s"] = get("hopfcore.check_hopf", "self_s")
    m["entwining.check_antipode_compat.self_s"] = get("entwining.check_antipode_compat", "self_s")
    for layer in ("entwining.conv2_inverse", "entwining.conv_inverse"):
        m[f"{layer}.calls"] = get(layer)
        m[f"{layer}.self_s"] = get(layer, "self_s")
    for layer in ("tensor_modules", "dual", "check_duality", "module_morphism", "braiding"):
        m[f"emodcat.{layer}.self_s"] = get(f"emodcat.{layer}", "self_s")
    m["pivribbon.find_morphisms.calls"] = get("pivribbon.find_morphisms")
    m["pivribbon.find_morphisms.self_s"] = get("pivribbon.find_morphisms", "self_s")
    m["pivribbon.verifier.calls"] = get("pivribbon.verifier")
    m["pivribbon.solutions_ratio"] = ratio(get("pivribbon.find_morphisms", "solutions"),
                                           m["pivribbon.verifier.calls"])
    m["smash.build.self_s"] = get("smash.build", "self_s")
    for layer in ("fileformat.load", "fileformat.save"):
        m[f"{layer}.calls"] = get(layer)
        m[f"{layer}.bytes"] = get(layer, "bytes")
        m[f"{layer}.self_s"] = get(layer, "self_s")
    return m
