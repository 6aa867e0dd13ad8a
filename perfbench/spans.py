"""Per-layer spans and counts, recorded by wrapping ucdkit from outside.

Nothing under ``src/`` is edited. A target is a module-level function
that callers resolve at call time: a module global (``solve`` inside
``qp``), an attribute reached through a module (``_kernels.qp_core``),
or a name imported into another module (``switching_cost`` as bound in
``oracle``, ``clho``, ``simulate``, ``hybrid``, ``cli``, ``qp``). For
each target the tracer replaces every binding of that function object
in every loaded ``ucdkit`` module, and puts each one back on exit.

Spans nest: each keeps its parent, and a span's self time is its
duration minus the time covered by its children. Spans are aggregated
in memory per (parent, name) edge, because the hot targets run millions
of times per pass.

Layers are the package's modules; ``_kernels`` is named ``kernels``.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

LAYERS = ("scenario", "costs", "qp", "kernels", "hybrid", "oracle", "clho",
          "simulate", "cli")

# (module, attribute) -> span name; the span's layer is its prefix
TARGETS = (
    ("scenario", "parse_scenario", "scenario.parse"),
    ("scenario", "load_bundled_scenario", "scenario.load_bundled"),
    ("scenario", "scenario_fingerprint", "scenario.fingerprint"),
    ("costs", "switching_cost", "costs.switching"),
    ("costs", "running_cost", "costs.running"),
    ("qp", "assemble", "qp.assemble"),
    ("qp", "solve", "qp.solve"),
    ("qp", "kkt_residual", "qp.kkt"),
    ("qp", "mode_candidates", "qp.mode_candidates"),
    ("qp", "mode_dynamics", "qp.mode_dynamics"),
    ("_kernels", "qp_core", "kernels.qp_core"),
    ("hybrid", "run_schedule", "hybrid.run_schedule"),
    ("oracle", "graph_dp_optimal", "oracle.graph_dp"),
    ("oracle", "enumerate_optimal", "oracle.enumerate"),
    ("oracle", "enumerate_tail", "oracle.enumerate_tail"),
    ("oracle", "enumerate_schedule_costs", "oracle.enumerate_table"),
    ("clho", "train", "clho.train"),
    ("clho", "basis_vector", "clho.basis_vector"),
    ("clho", "schedule_step", "clho.schedule_step"),
    ("simulate", "simulate", "simulate.simulate"),
    ("simulate", "compare_with_oracle", "simulate.compare"),
    ("cli", "main", "cli.main"),
)

ENUMERATIONS = ("oracle.enumerate", "oracle.enumerate_tail", "oracle.enumerate_table")


def _modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "ucdkit" or name.startswith("ucdkit."))]


class Tracer:
    """Context manager: wraps the targets on entry, restores on exit.

    ``edges[(parent, name)] = [calls, total_s, self_s]``; the parent of a
    top-level span is ``None``. ``paused`` lets the benchmark run its own
    answer checks through ucdkit without recording them.
    """

    def __init__(self):
        self.edges = defaultdict(lambda: [0, 0.0, 0.0])
        self.paused = False
        self._stack = []            # frames: [name, child seconds]
        self._saved = []            # (module, attribute, original)
        # counts observed at the boundaries
        self.solves = 0
        self.infeasible = 0
        self.distinct = set()
        self.kernel_iterations = 0
        self.kernel_iterations_max = 0
        self.row_col_products = 0
        self.budget_exhausted = 0
        self.budgets = []           # every enumeration budget created
        self.graph_evaluations = 0

    # -- wrapping -----------------------------------------------------------

    def __enter__(self):
        bindings = _modules()
        mods = {m.__name__.rsplit(".", 1)[-1]: m for m in bindings}
        for mod_name, attr, span in TARGETS:
            mod = mods.get(mod_name)
            original = getattr(mod, attr, None) if mod is not None else None
            if original is None:
                continue   # absent in this version of the package
            wrapper = self._wrap(original, span)
            for m in bindings:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._saved.append((m, key, value))
                        setattr(m, key, wrapper)
        budget_cls = getattr(mods.get("oracle"), "_Budget", None)
        if budget_cls is not None:
            self._saved.append((mods["oracle"], "_Budget", budget_cls))
            setattr(mods["oracle"], "_Budget", self._counting_budget(budget_cls))
        return self

    def __exit__(self, *exc):
        for mod, key, value in reversed(self._saved):
            setattr(mod, key, value)
        self._saved.clear()
        return False

    def _counting_budget(self, base):
        budgets = self.budgets

        class CountingBudget(base):
            __slots__ = ()

            def __init__(self, limit):
                super().__init__(limit)
                budgets.append(self)

        return CountingBudget

    def _wrap(self, fn, name):
        observe = getattr(self, "_observe_" + name.replace(".", "_"), None)
        stack = self._stack
        edges = self.edges
        clock = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            if tracer.paused:
                return fn(*args, **kwargs)
            parent = stack[-1][0] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            except Exception as exc:
                if name in ENUMERATIONS and type(exc).__name__ == "BudgetExceededError":
                    tracer.budget_exhausted += 1
                raise
            finally:
                dt = clock() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += dt
                e = edges[(parent, name)]
                e[0] += 1
                e[1] += dt
                e[2] += dt - frame[1]
            if observe is not None:
                observe(args, out)
            return out

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    # -- counts at the boundaries -------------------------------------------

    def _observe_qp_solve(self, args, sol):
        self.solves += 1
        if sol.status != "optimal":
            self.infeasible += 1
        q = args[0]
        # a stage table keys on (t, mode); the constraint data tells a
        # ramp-coupled problem apart from the relaxed one. Hashes, not
        # the bytes, keep a pass of ~10^5 solves small in memory.
        self.distinct.add(hash((q.t, q.commitment, q.h.tobytes(), q.G.tobytes())))

    def _observe_kernels_qp_core(self, args, out):
        iters = int(out[3])
        self.kernel_iterations += iters
        if iters > self.kernel_iterations_max:
            self.kernel_iterations_max = iters
        C = args[2]
        self.row_col_products += int(C.shape[0]) * int(C.shape[1])

    def _observe_oracle_graph_dp(self, args, res):
        self.graph_evaluations += int(res.evaluations)

    # -- aggregation ---------------------------------------------------------

    def by_name(self):
        """name -> [calls, total_s, self_s], summed over parents."""
        out = defaultdict(lambda: [0, 0.0, 0.0])
        for (_, name), (calls, total, self_s) in self.edges.items():
            agg = out[name]
            agg[0] += calls
            agg[1] += total
            agg[2] += self_s
        return out

    def layer_self(self):
        out = dict.fromkeys(LAYERS, 0.0)
        for name, (_, _, self_s) in self.by_name().items():
            out[name.split(".", 1)[0]] += self_s
        return out

    def metrics(self, traced_wall: float, overhead_ratio: float) -> dict:
        """Every per-layer metric, as {name: (value, unit)}.

        traced_wall is the elapsed time of the traced work, the interval
        the spans cover; overhead_ratio is traced over untraced time."""
        n = self.by_name()
        layer = self.layer_self()

        def calls(name):
            return n[name][0] if name in n else 0

        def total(name):
            return n[name][1] if name in n else 0.0

        def self_s(*names):
            return sum(n[x][2] for x in names if x in n)

        exact_tail = sum(v[1] for (parent, name), v in self.edges.items()
                         if name == "oracle.enumerate_tail"
                         and parent == "simulate.simulate")
        kcalls = calls("kernels.qp_core")
        m = {
            "scenario.self_s": (layer["scenario"], "s"),
            "scenario.parse_s": (self_s("scenario.parse"), "s"),
            "scenario.parse_calls": (calls("scenario.parse"), "count"),
            "scenario.fingerprint_s": (self_s("scenario.fingerprint"), "s"),
            "scenario.fingerprint_calls": (calls("scenario.fingerprint"), "count"),
            "costs.self_s": (layer["costs"], "s"),
            "costs.switching_s": (self_s("costs.switching"), "s"),
            "costs.switching_calls": (calls("costs.switching"), "count"),
            "costs.running_s": (self_s("costs.running"), "s"),
            "costs.running_calls": (calls("costs.running"), "count"),
            "qp.self_s": (layer["qp"], "s"),
            "qp.assemble_s": (self_s("qp.assemble"), "s"),
            "qp.solve_self_s": (self_s("qp.solve"), "s"),
            "qp.kkt_s": (self_s("qp.kkt"), "s"),
            "qp.solves": (self.solves, "count"),
            "qp.infeasible_ratio": (self.infeasible / max(self.solves, 1), "ratio"),
            "qp.distinct_ratio": (len(self.distinct) / max(self.solves, 1), "ratio"),
            "kernels.s": (layer["kernels"], "s"),
            "kernels.calls": (kcalls, "count"),
            "kernels.us_per_call": (1e6 * total("kernels.qp_core") / max(kcalls, 1), "us"),
            "kernels.iterations_total": (self.kernel_iterations, "count"),
            "kernels.iterations_max": (self.kernel_iterations_max, "count"),
            "kernels.row_col_products": (self.row_col_products, "count"),
            "hybrid.run_schedule_s": (layer["hybrid"], "s"),
            "oracle.self_s": (layer["oracle"], "s"),
            "oracle.graph_dp_self_s": (self_s("oracle.graph_dp"), "s"),
            "oracle.enumerate_self_s": (self_s(*ENUMERATIONS), "s"),
            "oracle.evaluations": (self.graph_evaluations
                                   + sum(b.used for b in self.budgets), "count"),
            "oracle.budget_exhausted": (self.budget_exhausted, "count"),
            "clho.self_s": (layer["clho"], "s"),
            "clho.train_self_s": (self_s("clho.train"), "s"),
            "clho.basis_calls": (calls("clho.basis_vector"), "count"),
            "clho.basis_s": (self_s("clho.basis_vector"), "s"),
            "clho.schedule_step_calls": (calls("clho.schedule_step"), "count"),
            "clho.schedule_step_self_s": (self_s("clho.schedule_step"), "s"),
            "simulate.self_s": (layer["simulate"], "s"),
            "simulate.rollout_self_s": (self_s("simulate.simulate"), "s"),
            "simulate.exact_tail_s": (exact_tail, "s"),
            "cli.self_s": (layer["cli"], "s"),
            "trace.overhead_ratio": (overhead_ratio, "ratio"),
            "trace.covered_ratio": (sum(layer.values()) / traced_wall, "ratio"),
        }
        return m
