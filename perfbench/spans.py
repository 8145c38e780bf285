"""Tracing from outside the program, for the traced run only.

While a stage runs under `Tracer.active()`, each traced public function is
rebound, in every `lrnn` module that holds it, to a wrapper that records
a span (name, start, end, parent span).  Activation evaluations are only
counted, since a span per evaluation would cost more than the evaluation.
Spans stay in memory and are written once when the run ends.  A function
that no longer exists leaves its layers reported as unmeasured.
"""

import contextlib
import json
import sys
import time

import lrnn


def _export(name):
    return lambda: getattr(lrnn, name)


# span name -> how to find the function the program exports
SPANNED = {
    "parse_template": _export("parse_template"),
    "parse_examples": _export("parse_examples"),
    "parse_queries": _export("parse_queries"),
    "ground": _export("ground"),
    "least_herbrand_model": _export("least_herbrand_model"),
    "build": _export("build"),
    "forward": _export("forward"),
    "backward": _export("backward"),
    "total_cost": lambda: lrnn.CompiledTask.total_cost,
    "sgd_epoch": _export("sgd_epoch"),
    "train": _export("train"),
    "crossvalidate": lambda: sys.modules["lrnn.cli"].crossvalidate,
}
COUNTED = {"eval_conj": _export("eval_conj"), "eval_agg": _export("eval_agg"),
           "eval_disj": _export("eval_disj")}

# per-layer metric -> (unit, functions it needs)
LAYERS = {
    "logic.parse_s": ("s", ("parse_template", "parse_examples", "parse_queries")),
    "grounding.calls": ("count", ("ground",)),
    "grounding.model_s": ("s", ("least_herbrand_model",)),
    "grounding.enumerate_s": ("s", ("ground", "least_herbrand_model")),
    "grounding.model_atoms": ("count", ("least_herbrand_model",)),
    "grounding.instances": ("count", ("ground",)),
    "network.build_s": ("s", ("build",)),
    "network.neurons": ("count", ("build",)),
    "network.edges": ("count", ("build",)),
    "network.forward_calls": ("count", ("forward",)),
    "network.forward_s": ("s", ("forward",)),
    "activations.evals": ("count", ("eval_conj", "eval_agg", "eval_disj")),
    "training.backward_calls": ("count", ("backward",)),
    "training.backward_s": ("s", ("backward",)),
    "training.cost_pass_s": ("s", ("total_cost",)),
    "training.update_s": ("s", ("sgd_epoch", "forward", "backward", "total_cost")),
    "cli.xval_trainings": ("count", ("crossvalidate", "train")),
}


def _facts_key(args, kwargs):
    facts = kwargs.get("example_facts", args[1] if len(args) > 1 else ())
    return hash(tuple(facts))


def _example_key(args, kwargs):
    return kwargs.get("example_id", args[2] if len(args) > 2 else None)


class Tracer:
    def __init__(self):
        self.originals, self.missing = {}, set()
        for name, find in {**SPANNED, **COUNTED}.items():
            try:
                self.originals[name] = find()
            except (AttributeError, KeyError):
                self.missing.add(name)
        self.rounds = []  # one dict per traced round: spans, evals, sizes
        self._patches = []

    def unmeasured(self):
        return sorted(m for m, (_, needs) in LAYERS.items() if self.missing.intersection(needs))

    def new_round(self):
        self.rounds.append({"spans": [], "evals": [0], "atoms": {}, "instances": {},
                            "neurons": {}, "edges": {}})

    def _span(self, name, fn, rnd, stack):
        spans = rnd["spans"]
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent)
            if name == "least_herbrand_model":
                rnd["atoms"][_facts_key(args, kwargs)] = len(result.atoms)
            elif name == "ground":
                rnd["instances"][_facts_key(args, kwargs)] = len(result.instances)
            elif name == "build":
                key = _example_key(args, kwargs)
                rnd["neurons"][key] = sum(result.counts())
                rnd["edges"][key] = result.edge_count()
            return result

        return wrapper

    @staticmethod
    def _counter(fn, cell):
        def wrapper(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)

        return wrapper

    @contextlib.contextmanager
    def active(self):
        """Rebind the traced functions for the duration of the block."""
        self._install()
        try:
            yield
        finally:
            self._uninstall()

    def _install(self):
        rnd, stack = self.rounds[-1], []
        wrappers = {}
        for name, fn in self.originals.items():
            if name in SPANNED:
                wrappers[id(fn)] = self._span(name, fn, rnd, stack)
            else:
                wrappers[id(fn)] = self._counter(fn, rnd["evals"])
        owners = [m for n, m in list(sys.modules.items()) if n == "lrnn" or n.startswith("lrnn.")]
        owners += [lrnn.CompiledTask]
        for owner in owners:
            for attr, value in list(vars(owner).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None and callable(value):
                    self._patches.append((owner, attr, value))
                    setattr(owner, attr, wrapper)

    def _uninstall(self):
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)

    def layer_metrics(self, rnd):
        """Per-layer values of one traced round."""
        spans = rnd["spans"]
        child = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child[parent] += end - start
        total, self_time, calls = {}, {}, {}
        for i, (name, start, end, _) in enumerate(spans):
            total[name] = total.get(name, 0.0) + (end - start)
            self_time[name] = self_time.get(name, 0.0) + (end - start - child[i])
            calls[name] = calls.get(name, 0) + 1
        in_xval = 0
        for name, _, _, parent in spans:
            if name != "train":
                continue
            while parent >= 0 and spans[parent][0] != "crossvalidate":
                parent = spans[parent][3]
            in_xval += parent >= 0
        values = {
            "logic.parse_s": sum(total.get(n, 0.0) for n in
                                 ("parse_template", "parse_examples", "parse_queries")),
            "grounding.calls": calls.get("ground", 0),
            "grounding.model_s": total.get("least_herbrand_model", 0.0),
            "grounding.enumerate_s": self_time.get("ground", 0.0),
            "grounding.model_atoms": sum(rnd["atoms"].values()),
            "grounding.instances": sum(rnd["instances"].values()),
            "network.build_s": total.get("build", 0.0),
            "network.neurons": sum(rnd["neurons"].values()),
            "network.edges": sum(rnd["edges"].values()),
            "network.forward_calls": calls.get("forward", 0),
            "network.forward_s": total.get("forward", 0.0),
            "activations.evals": rnd["evals"][0],
            "training.backward_calls": calls.get("backward", 0),
            "training.backward_s": total.get("backward", 0.0),
            "training.cost_pass_s": total.get("total_cost", 0.0),
            "training.update_s": self_time.get("sgd_epoch", 0.0),
            "cli.xval_trainings": in_xval,
        }
        skip = set(self.unmeasured())
        return {k: v for k, v in values.items() if k not in skip}

    def write(self, path, meta):
        """All spans of all traced rounds, as one JSON file."""
        payload = dict(meta, unmeasured=self.unmeasured(), rounds=[
            {"spans": r["spans"], "activation_evals": r["evals"][0]} for r in self.rounds])
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, separators=(",", ":"))

