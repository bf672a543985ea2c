"""Spans and counts around calls into gatesynth, kept in memory.

A wrapped function is rebound everywhere gatesynth looks it up: every
gatesynth module attribute that holds it, and the entries of module-level
dispatch tables (such as cli._COMMANDS) that hold it. The program itself is
not edited. Each call records a span (name, start, end, parent span); a few
wrappers also record notes taken from the call's arguments or result.
"""

import json
import sys
import time
from array import array

import numpy as np


class Tracer:
    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.notes = {}
        self.counts = {}
        self._stack = [-1]
        self._restore = []

    # ---------------------------------------------------------------- wrappers

    def _name_id(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def span(self, name, fn, prepare=None, note=None):
        """Wrap fn so each call records a span. prepare(args, kwargs) may
        return substitute (args, kwargs); note(args, kwargs, result) returns
        a dict kept with the span."""
        nid = self._name_id(name)
        stack, clock = self._stack, time.perf_counter

        def traced(*args, **kwargs):
            if prepare is not None:
                args, kwargs = prepare(args, kwargs)
            idx = len(self.start)
            self.name.append(nid)
            self.parent.append(stack[-1])
            self.end.append(0.0)
            stack.append(idx)
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                stack.pop()
            if note is not None:
                self.notes[idx] = note(args, kwargs, result)
            return result

        return traced

    def counter(self, name, fn):
        """Wrap fn so each call only increments a count (for functions called
        far too often for a span each)."""
        counts = self.counts
        counts.setdefault(name, 0)

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    # ---------------------------------------------------------------- patching

    def install(self, module, attr, wrap):
        """Rebind module.attr to wrap(original) wherever gatesynth holds it."""
        original = getattr(module, attr)
        wrapped = wrap(original)
        for modname, mod in list(sys.modules.items()):
            if modname != "gatesynth" and not modname.startswith("gatesynth."):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._rebind(mod.__dict__, key, wrapped)
                elif isinstance(value, dict):
                    for dkey, entry in list(value.items()):
                        if isinstance(entry, tuple) and any(e is original for e in entry):
                            self._rebind(value, dkey, tuple(wrapped if e is original else e for e in entry))

    def _rebind(self, holder, key, value):
        self._restore.append((holder, key, holder[key]))
        holder[key] = value

    def uninstall(self):
        while self._restore:
            holder, key, value = self._restore.pop()
            holder[key] = value

    # ----------------------------------------------------------------- results

    def arrays(self):
        # copies, so the arrays stay free to grow
        return (np.array(self.name, dtype=np.int32), np.array(self.parent, dtype=np.int32),
                np.array(self.start, dtype=float), np.array(self.end, dtype=float))

    def save(self, path):
        name, parent, start, end = self.arrays()
        notes = {str(k): v for k, v in self.notes.items()}
        np.savez_compressed(
            path, names=np.array(self.names), name=name, parent=parent, start=start, end=end,
            counts=json.dumps(self.counts), notes=json.dumps(notes),
        )


class Spans:
    """Read-only views of a tracer's spans for deriving metrics."""

    def __init__(self, tracer, first=0, last=None):
        name, parent, start, end = tracer.arrays()
        last = len(start) if last is None else last
        self.tracer = tracer
        self.all_name, self.all_parent = name, parent
        self.index = np.arange(first, last)
        self.name = name[first:last]
        self.parent = parent[first:last]
        self.dur = end[first:last] - start[first:last]
        child = self.parent >= 0
        self.child_time = np.bincount(
            self.parent[child], weights=self.dur[child], minlength=len(start)
        )[first:last]

    def of(self, name):
        nid = self.tracer._name_ids.get(name)
        return np.flatnonzero(self.name == nid) if nid is not None else np.array([], dtype=int)

    def calls(self, name):
        return len(self.of(name))

    def busy(self, name, where=None):
        """Total duration of the spans called `name` (whose notes pass `where`)."""
        rows = self.of(name)
        if where is not None:
            rows = rows[np.array([where(n) for n in self.notes(name)], dtype=bool)]
        return float(self.dur[rows].sum())

    def self_time(self, name):
        rows = self.of(name)
        return float((self.dur[rows] - self.child_time[rows]).sum())

    def notes(self, name):
        return [self.tracer.notes.get(int(self.index[r]), {}) for r in self.of(name)]


# ------------------------------------------------------------------ the layers

def _arg(args, kwargs, position, name):
    if name in kwargs:
        return kwargs[name]
    return args[position] if len(args) > position else None


def instrument(tracer):
    """Wrap the public functions of every layer the benchmark measures."""
    from gatesynth import ansatz, channels, cli, devices, dfe, numkit, optimkit

    def spans(module, prefix, *attrs):
        for attr in attrs:
            tracer.install(module, attr, lambda fn, a=attr: tracer.span(f"{prefix}.{a}", fn))

    spans(numkit, "numkit", "kron_all", "expm_hermitian")
    spans(channels, "channels", "ptm")
    spans(ansatz, "ansatz", "agi_cost")
    spans(devices, "devices", "cr_gate", "tpcx", "four_cr_gate")
    spans(dfe, "dfe", "dfe_plan")
    spans(cli, "cli", "cmd_cnot_sweep", "verify_artifact")
    tracer.install(dfe, "simulate_expectation",
                   lambda fn: tracer.counter("dfe.simulate_expectation.calls", fn))
    tracer.install(ansatz, "parameter_shift_gradient", lambda fn: tracer.span(
        "ansatz.parameter_shift_gradient", fn,
        note=lambda a, k, r: {"callable": _arg(a, k, 4, "cost") is not None}))

    def dfe_note(args, kwargs, result):
        cfg = _arg(args, kwargs, 3, "cfg")
        return {"sampled": cfg is not None, "settings": cfg.num_settings() if cfg else 0}

    tracer.install(dfe, "dfe_estimate", lambda fn: tracer.span("dfe.dfe_estimate", fn, note=dfe_note))

    # the optimizers' own cost and gradient callables become child spans, so
    # an optimizer's self time is its own arithmetic and bookkeeping
    qn = "optimkit.minimize_quasi_newton"

    def qn_prepare(args, kwargs):
        f, grad, *rest = args
        return (tracer.span(f"{qn}.cost", f), tracer.span(f"{qn}.gradient", grad), *rest), kwargs

    tracer.install(optimkit, "minimize_quasi_newton", lambda fn: tracer.span(
        qn, fn, prepare=qn_prepare, note=lambda a, k, r: {"iterations": r[2]["iterations"]}))

    dfo = "optimkit.minimize_derivative_free"

    def dfo_prepare(args, kwargs):
        f, *rest = args
        return (tracer.span(f"{dfo}.cost", f), *rest), kwargs

    tracer.install(optimkit, "minimize_derivative_free",
                   lambda fn: tracer.span(dfo, fn, prepare=dfo_prepare))
    tracer.install(optimkit, "vqgo", lambda fn: tracer.span(
        "optimkit.vqgo", fn, note=lambda a, k, r: {"cost": r.best_cost}))

    def concat_note(args, kwargs, result):
        cfg = _arg(args, kwargs, 5, "cfg")
        return {"stop_below": cfg.stop_below if cfg is not None else None}

    tracer.install(optimkit, "concatenated_optimize",
                   lambda fn: tracer.span("optimkit.concatenated_optimize", fn, note=concat_note))


def _additive(spans, counts):
    """Per-layer quantities that add up over calls, from one stretch of spans."""
    sampled = lambda n: n["sampled"]
    out = {
        "optimkit.concatenated_optimize.busy_s": spans.busy("optimkit.concatenated_optimize"),
        "optimkit.minimize_derivative_free.evaluations": spans.calls("optimkit.minimize_derivative_free.cost"),
        "optimkit.vqgo.busy_s": spans.busy("optimkit.vqgo"),
        "optimkit.minimize_quasi_newton.iterations": sum(
            n["iterations"] for n in spans.notes("optimkit.minimize_quasi_newton")),
        "optimkit.minimize_quasi_newton.self_s": spans.self_time("optimkit.minimize_quasi_newton"),
        "ansatz.parameter_shift_gradient.exact_busy_s": spans.busy(
            "ansatz.parameter_shift_gradient", lambda n: not n["callable"]),
        "ansatz.parameter_shift_gradient.exact_calls": sum(
            not n["callable"] for n in spans.notes("ansatz.parameter_shift_gradient")),
        "ansatz.agi_cost.calls": spans.calls("ansatz.agi_cost"),
        "ansatz.agi_cost.busy_s": spans.busy("ansatz.agi_cost"),
        "numkit.kron_all.calls": spans.calls("numkit.kron_all"),
        "numkit.kron_all.busy_s": spans.busy("numkit.kron_all"),
        "numkit.expm_hermitian.calls": spans.calls("numkit.expm_hermitian"),
        "numkit.expm_hermitian.busy_s": spans.busy("numkit.expm_hermitian"),
        "devices.cr_gate.calls": spans.calls("devices.cr_gate"),
        "devices.cr_gate.busy_s": spans.busy("devices.cr_gate"),
        "devices.tpcx.calls": spans.calls("devices.tpcx"),
        "devices.four_cr_gate.calls": spans.calls("devices.four_cr_gate"),
        "devices.four_cr_gate.busy_s": spans.busy("devices.four_cr_gate"),
        "channels.ptm.calls": spans.calls("channels.ptm"),
        "channels.ptm.busy_s": spans.busy("channels.ptm"),
        "dfe.dfe_estimate.sampled_busy_s": spans.busy("dfe.dfe_estimate", sampled),
        "dfe.dfe_estimate.settings": sum(n["settings"] for n in spans.notes("dfe.dfe_estimate")),
        "dfe.dfe_plan.busy_s": spans.busy("dfe.dfe_plan"),
        "dfe.simulate_expectation.calls": counts.get("dfe.simulate_expectation.calls", 0),
        "cli.cmd_cnot_sweep.busy_s": spans.busy("cli.cmd_cnot_sweep"),
        "cli.verify_artifact.busy_s": spans.busy("cli.verify_artifact"),
        "cli.artifact_bytes": counts.get("cli.artifact_bytes", 0),
        "qn_evals": spans.calls("optimkit.minimize_quasi_newton.cost")
        + spans.calls("optimkit.minimize_quasi_newton.gradient"),
    }
    out.update(_inner_runs(spans))
    return out


def _inner_runs(spans):
    """vqgo runs started (through the outer search) by concatenated_optimize,
    and those started after its best inner cost was already under
    cfg.stop_below."""
    concat_id = spans.tracer._name_ids.get("optimkit.concatenated_optimize")
    by_concat = {}
    for row in spans.of("optimkit.vqgo"):
        span = spans.all_parent[spans.index[row]]
        while span >= 0 and spans.all_name[span] != concat_id:
            span = spans.all_parent[span]
        if span >= 0:
            by_concat.setdefault(int(span), []).append(row)
    runs = after = 0
    after_s = 0.0
    for concat, rows in by_concat.items():
        stop = spans.tracer.notes[concat]["stop_below"]
        best = np.inf
        for row in rows:
            runs += 1
            if stop is not None and best < stop:
                after += 1
                after_s += float(spans.dur[row])
            best = min(best, spans.tracer.notes[int(spans.index[row])]["cost"])
    return {
        "optimkit.concatenated_optimize.inner_runs": runs,
        "optimkit.concatenated_optimize.runs_after_target": after,
        "optimkit.concatenated_optimize.after_target_s": after_s,
    }


def layer_metrics(tracer, setup, timed, rounds, cpu_s, wall_s, overhead_s):
    """Per-layer metrics for one pass of the workload: the set-up spans once,
    plus the mean over the timed rounds. `setup` is (index of the first span
    after set-up, counts then); `timed` is (index of the first span of the
    rounds, counts then). Spans in between (the warm-up) count in neither."""
    (setup_end, setup_counts), (rounds_start, start_counts) = setup, timed
    rounds_counts = {k: v - start_counts.get(k, 0) for k, v in tracer.counts.items()}
    setup = _additive(Spans(tracer, 0, setup_end), setup_counts)
    timed = _additive(Spans(tracer, rounds_start), rounds_counts)
    out = {k: setup[k] + timed[k] / rounds for k in setup}
    evals = out.pop("qn_evals")
    iterations = out["optimkit.minimize_quasi_newton.iterations"]
    out["ansatz.evals_per_iteration"] = evals / iterations if iterations else 0.0
    busy = out["dfe.dfe_estimate.sampled_busy_s"]
    out["dfe.dfe_estimate.settings_per_s"] = out["dfe.dfe_estimate.settings"] / busy if busy else 0.0
    first = Spans(tracer)
    firsts = [r for r, n in zip(first.of("dfe.dfe_estimate"), first.notes("dfe.dfe_estimate"))
              if n["sampled"]]
    out["dfe.dfe_estimate.first_sampled_s"] = float(first.dur[firsts[0]]) if firsts else 0.0
    out["proc.cpu_s"] = cpu_s
    out["proc.cpu_per_wall"] = cpu_s / wall_s
    out["trace.overhead_s"] = overhead_s
    return out
