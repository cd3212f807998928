"""Spans and counters around radiuslab's public functions, installed from
outside the package.

`Tracer.install()` replaces each traced function with a wrapper in every
``radiuslab.*`` module that holds it, so calls made through
``from .x import f`` bindings are caught too; `uninstall()` puts the
originals back.  NormSpec evaluators are wrapped where the norm factories
build them.  Wrappers only record while `active` is set, so work done by
the benchmark itself (input generation, output checks) is never counted.

Two kinds of record:

* spans ``[name, start, end, parent]`` for the public functions, kept in
  memory and written out by `dump`;
* count-and-total aggregates for the innermost hot calls
  (``matcore.spectral_norm`` and ``NormSpec.evaluate``), whose time is
  charged to the enclosing span as covered by children.

A span's self time is its duration minus the time its direct child spans
and top-level aggregate calls cover.  A function's ``time_s`` counts only
its outermost spans, so recursion (a generalized radius whose norm is
itself a radius) is not counted twice.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import sys
import time
from collections import defaultdict

import numpy as np

# set on NormSpec evaluators already wrapped, so a spec rebuilt from a
# wrapped one (schatten:inf from op) is not wrapped twice
_NORM_MARK = "_perfbench_norm"

# (module, function) -> span name; radius optimizers also feed the
# distinct-input ratio and their evaluation counts
SPAN_TARGETS = (
    ("cli", "cmd_verify", "cli.verify"),
    ("cli", "cmd_compute", "cli.compute"),
    ("matfile", "load_matrix", "matfile.load_matrix"),
    ("inequalities", "run_suite", "inequalities.run_suite"),
    ("ensembles", "generate", "ensembles.generate"),
    ("ensembles", "generate_pair", "ensembles.generate"),
    ("radius", "numerical_radius", "radius.numerical_radius"),
    ("radius", "generalized_radius", "radius.generalized_radius"),
    ("radius", "omega_norm", "radius.omega_norm"),
    ("radius", "omega_radius_slow", "radius.omega_radius_slow"),
    ("matcore", "spectral_norm_many", "matcore.spectral_norm_many"),
)
AGGREGATE_TARGETS = (("matcore", "spectral_norm", "matcore.spectral_norm"),)
NORM_FACTORIES = ("operator_norm_spec", "schatten_norm_spec",
                  "numerical_radius_norm_spec", "omega_norm_spec")
OPTIMIZERS = ("radius.numerical_radius", "radius.generalized_radius", "radius.omega_norm")


def _matrix_key(a) -> bytes:
    arr = np.ascontiguousarray(np.asarray(a, dtype=np.complex128))
    return hashlib.blake2b(repr(arr.shape).encode() + arr.tobytes(), digest_size=16).digest()


class Tracer:
    def __init__(self):
        self.active = False
        self.spans = []              # [name, start, end, parent index or -1]
        self.covered = []            # per span: time of top-level aggregate calls inside it
        self._stack = []             # indices of open spans
        self._agg_depth = 0          # aggregate calls open inside the innermost span
        self._agg_open = defaultdict(int)
        self.agg = defaultdict(lambda: [0, 0.0])   # name -> [calls, outermost time]
        self.counts = defaultdict(int)             # extra counters
        self._keys = set()
        self._patched = []           # (module, attribute, original)

    # -- wrappers ---------------------------------------------------------

    def span(self, name, fn, before=None, after=None):
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            if before is not None:
                before(args, kwargs)
            parent = tracer._stack[-1] if tracer._stack else -1
            idx = len(tracer.spans)
            rec = [name, 0.0, 0.0, parent, tracer._agg_depth > 0]
            tracer.spans.append(rec)
            tracer.covered.append(0.0)
            tracer._stack.append(idx)
            saved_depth, tracer._agg_depth = tracer._agg_depth, 0
            rec[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                tracer._agg_depth = saved_depth
                tracer._stack.pop()
            if after is not None:
                after(result)
            return result

        return wrapper

    def aggregate(self, name, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            outer = tracer._agg_open[name] == 0
            top = tracer._agg_depth == 0
            tracer._agg_open[name] += 1
            tracer._agg_depth += 1
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                tracer._agg_depth -= 1
                tracer._agg_open[name] -= 1
                rec = tracer.agg[name]
                rec[0] += 1
                if outer:
                    rec[1] += dt
                if top and tracer._stack:
                    tracer.covered[tracer._stack[-1]] += dt

        return wrapper

    # -- installation -----------------------------------------------------

    def _replace(self, original, wrapper):
        """Swap `original` for `wrapper` in every radiuslab module."""
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "radiuslab" or mod_name.startswith("radiuslab.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)
                    self._patched.append((mod, attr, original))

    def _count(self, key, amount=1):
        self.counts[key] += amount

    def _optimizer_hooks(self, name):
        def before(args, kwargs):
            options = sorted((k, getattr(v, "id", v)) for k, v in kwargs.items())
            extra = [getattr(a, "id", None) for a in args[1:]]
            self._keys.add((name, _matrix_key(args[0]), repr(options), repr(extra)))
            self._count("optimizer_calls")

        def after(result):
            self._count(f"{name}.evaluations", result.evaluations)

        return before, after

    def _hooks(self, name):
        if name in OPTIMIZERS:
            return self._optimizer_hooks(name)
        if name == "matfile.load_matrix":
            return (lambda args, kwargs: self._count(f"{name}.bytes", os.path.getsize(args[0]))), None
        if name == "inequalities.run_suite":
            return None, (lambda report: self._count("inequalities.records", len(report.records)))
        if name == "matcore.spectral_norm_many":
            def before(args, kwargs):
                shape = np.shape(args[0])
                matrices = int(np.prod(shape[:-2])) if len(shape) > 2 else 1
                self._count(f"{name}.matrices", matrices)
                self._count(f"{name}.bytes_computed", matrices * shape[-2] * shape[-1] * 16)
            return before, None
        if name == "norms.evaluate_many":
            def before(args, kwargs):
                shape = np.shape(args[0])
                self._count(f"{name}.matrices", int(np.prod(shape[:-2])) if len(shape) > 2 else 1)
            return before, None
        return None, None

    def _wrap_norm_spec(self, spec):
        changes = {}
        if not getattr(spec.evaluate, _NORM_MARK, False):
            ev = self.aggregate("norms.evaluate", spec.evaluate)
            setattr(ev, _NORM_MARK, True)
            changes["evaluate"] = ev
        many = spec.evaluate_many
        if many is not None and not getattr(many, _NORM_MARK, False):
            before, after = self._hooks("norms.evaluate_many")
            wrapped = self.span("norms.evaluate_many", many, before, after)
            setattr(wrapped, _NORM_MARK, True)
            changes["evaluate_many"] = wrapped
        return dataclasses.replace(spec, **changes) if changes else spec

    def install(self, check_runners):
        """Wrap every traced function; `check_runners` maps each suite
        check's runner function to its check name."""
        mods = {name: sys.modules[f"radiuslab.{name}"]
                for name in ("cli", "matfile", "inequalities", "ensembles",
                             "radius", "norms", "matcore")}
        for mod, attr, name in SPAN_TARGETS:
            original = getattr(mods[mod], attr)
            before, after = self._hooks(name)
            self._replace(original, self.span(name, original, before, after))
        for mod, attr, name in AGGREGATE_TARGETS:
            original = getattr(mods[mod], attr)
            self._replace(original, self.aggregate(name, original))
        for runner, check in check_runners.items():
            self._replace(runner, self.span(f"inequalities.{check}", runner))
        for attr in NORM_FACTORIES:
            original = getattr(mods["norms"], attr)

            def factory(*args, _original=original, **kwargs):
                return self._wrap_norm_spec(_original(*args, **kwargs))

            self._replace(original, factory)

    def uninstall(self):
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    # -- results ----------------------------------------------------------

    def self_times(self):
        """Per span: duration minus the time direct children cover."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, under_agg in self.spans:
            if parent >= 0 and not under_agg:
                child[parent] += end - start
        return [end - start - child[i] - self.covered[i]
                for i, (name, start, end, parent, _) in enumerate(self.spans)]

    def _outermost(self, idx):
        name = self.spans[idx][0]
        parent = self.spans[idx][3]
        while parent >= 0:
            if self.spans[parent][0] == name:
                return False
            parent = self.spans[parent][3]
        return True

    def layer_metrics(self, check_names):
        calls = defaultdict(int)
        total = defaultdict(float)
        self_s = defaultdict(float)
        for i, (name, start, end, parent, _) in enumerate(self.spans):
            outer = self._outermost(i)
            # ensembles.generate counts generate and generate_pair as one
            # draw: a pair kind's generate inside generate_pair is not a call
            if name != "ensembles.generate" or outer:
                calls[name] += 1
            if outer:
                total[name] += end - start
        for i, value in enumerate(self.self_times()):
            self_s[self.spans[i][0]] += value
        c = self.counts
        key_calls = c["optimizer_calls"]
        m = {
            "cli.verify.self_s": self_s["cli.verify"],
            "cli.compute.self_s": self_s["cli.compute"],
            "cli.compute.calls": calls["cli.compute"],
            "matfile.load_matrix.calls": calls["matfile.load_matrix"],
            "matfile.load_matrix.time_s": total["matfile.load_matrix"],
            "matfile.load_matrix.bytes": c["matfile.load_matrix.bytes"],
            "inequalities.run_suite.self_s": self_s["inequalities.run_suite"],
            "inequalities.records": c["inequalities.records"],
        }
        for check in check_names:
            m[f"inequalities.{check}.time_s"] = total[f"inequalities.{check}"]
        m["ensembles.generate.calls"] = calls["ensembles.generate"]
        m["ensembles.generate.time_s"] = total["ensembles.generate"]
        for name in OPTIMIZERS:
            m[f"{name}.calls"] = calls[name]
            m[f"{name}.time_s"] = total[name]
            m[f"{name}.evaluations"] = c[f"{name}.evaluations"]
        m["radius.omega_radius_slow.calls"] = calls["radius.omega_radius_slow"]
        m["radius.omega_radius_slow.time_s"] = total["radius.omega_radius_slow"]
        m["radius.distinct_input_ratio"] = len(self._keys) / key_calls if key_calls else 1.0
        m["norms.evaluate.calls"] = self.agg["norms.evaluate"][0]
        m["norms.evaluate.time_s"] = self.agg["norms.evaluate"][1]
        m["norms.evaluate_many.calls"] = calls["norms.evaluate_many"]
        m["norms.evaluate_many.matrices"] = c["norms.evaluate_many.matrices"]
        m["norms.evaluate_many.time_s"] = total["norms.evaluate_many"]
        m["matcore.spectral_norm.calls"] = self.agg["matcore.spectral_norm"][0]
        m["matcore.spectral_norm.time_s"] = self.agg["matcore.spectral_norm"][1]
        m["matcore.spectral_norm_many.calls"] = calls["matcore.spectral_norm_many"]
        m["matcore.spectral_norm_many.matrices"] = c["matcore.spectral_norm_many.matrices"]
        m["matcore.spectral_norm_many.time_s"] = total["matcore.spectral_norm_many"]
        m["matcore.spectral_norm_many.bytes_computed"] = c["matcore.spectral_norm_many.bytes_computed"]
        return m

    def dump(self, path):
        """Write the spans as JSON lines, then one line of aggregates."""
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, _ in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent}) + "\n")
            fh.write(json.dumps({"aggregates": {k: {"calls": v[0], "time_s": v[1]}
                                                for k, v in self.agg.items()}}) + "\n")
