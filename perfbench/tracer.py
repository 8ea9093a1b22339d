"""Per-layer spans recorded from outside the package.

``Tracer.install`` wraps the public functions of every package module (plus
a few named methods and private helpers) and rebinds each wrapper at every
module global that held the original, because modules such as ``cli`` and
``rates`` bind names like ``fidelity`` and ``merging_fidelity`` at import
time.  NumPy's ``eigh``/``eigvalsh``/``svd`` are wrapped too, as the
``linalg.eig`` span, so their time and size buckets are attributed to the
linear-algebra layer.

Each span has a name, a start, an end and the span that called it.  Spans
are folded into per-name aggregates as they close, in memory, and the
aggregates are handed out once by ``summary`` when the invocation ends:
calls, self time (duration minus the time covered by child spans) and
inclusive time (outermost span of the name only, so recursion is not
counted twice), plus the same self and inclusive times per module.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import defaultdict

LAYERS = (
    "cli", "io", "linalg", "entropy", "channels", "optim",
    "rates", "rate_gap", "schur_weyl", "robustify",
)

# Called tens of thousands of times per frame sweep; a span each would add
# more time than the function takes.  Their cost stays in the caller's self
# time.
SKIP = {"schur_weyl.conjugacy_class_size"}

# Private helpers that get a span, and functions that share one span name.
RENAMED = {
    "cli._emit": "cli.emit",
    "rate_gap.build_orthogonal_family": "rate_gap.build",
    "rate_gap.known_pure_state_merging": "rate_gap.build",
    "rate_gap.family_merging_protocol": "rate_gap.build",
    "io.load_json": "io.parse",
}

METHODS = {
    ("linalg", "State", "__post_init__"): "linalg.state_init",
    ("channels", "CpMap", "__post_init__"): "channels.cpmap_init",
    ("channels", "Instrument", "__post_init__"): "channels.cpmap_init",
    ("rates", "StateSet", "word_state"): "rates.word_state",
    ("schur_weyl", "EntropyInstrument", "probabilities"): "schur_weyl.probabilities",
}

EIG_BUCKETS = ((8, "le8"), (64, "le64"), (512, "le512"))


class Tracer:
    def __init__(self):
        self.stack: list[list[float]] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.incl_s: dict[str, float] = defaultdict(float)
        self.open: dict[str, int] = defaultdict(int)
        self.counters: dict[str, float] = defaultdict(float)

    # -- spans -----------------------------------------------------------
    def _span(self, name, layer, fn, before=None, after=None):
        stack, calls, self_s, incl_s, open_ = (
            self.stack, self.calls, self.self_s, self.incl_s, self.open
        )
        perf = time.perf_counter
        mod = "@" + layer

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                args, kwargs = before(args, kwargs)
            child = [0.0]
            open_[name] += 1
            open_[mod] += 1
            stack.append(child)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = perf() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dur
                own = dur - child[0]
                calls[name] += 1
                self_s[name] += own
                self_s[mod] += own
                open_[name] -= 1
                if not open_[name]:
                    incl_s[name] += dur
                open_[mod] -= 1
                if not open_[mod]:
                    incl_s[mod] += dur
            if after is not None:
                after(result)
            return result

        return wrapper

    def _count_first_arg(self, counter):
        """Hook that wraps the callable first argument with a call counter."""
        counters = self.counters

        def counted(f):
            def inner(*a, **k):
                counters[counter] += 1
                return f(*a, **k)
            return inner

        def before(args, kwargs):
            if args:
                return (counted(args[0]),) + tuple(args[1:]), kwargs
            key = "fn" if "fn" in kwargs else "f"
            return args, {**kwargs, key: counted(kwargs[key])}

        return before

    def _eig_hook(self, kind):
        counters = self.counters

        def before(args, kwargs):
            shape = getattr(args[0] if args else kwargs["a"], "shape", ())
            batch = 1
            for b in shape[:-2]:
                batch *= b
            if kind == "svd":
                m, n = shape[-2:]
                d, flops = max(m, n), m * n * min(m, n)
            else:
                d = shape[-1]
                flops = d**3
            bucket = next((label for cap, label in EIG_BUCKETS if d <= cap), "gt512")
            counters["linalg.eig.calls." + bucket] += batch
            counters["linalg.eig.flops_computed"] += batch * flops
            return args, kwargs

        return before

    def _hooks(self, name):
        if name == "optim.maximize_over_simplex":
            def after(result):
                self.counters["optim.maximize_over_simplex.iterations"] += result[2]["iterations"]
            return self._count_first_arg("optim.maximize_over_simplex.objective_evals"), after
        if name == "optim.minimize_over_simplex":
            return self._count_first_arg("optim.minimize_over_simplex.objective_evals"), None
        if name == "robustify.check_robustification":
            return self._count_first_arg("robustify.words"), None
        if name == "rate_gap.family_merging_protocol":
            def after(p):
                self.counters["rate_gap.protocol_kraus.count"] += sum(
                    len(m.kraus) for m in p.locc.a_instrument.outcomes
                ) + sum(len(c.kraus) for c in p.locc.b_channels)
            return None, after
        return None, None

    # -- installation ----------------------------------------------------
    def install(self) -> None:
        import numpy.linalg

        wrappers = {}
        for layer in LAYERS:
            mod = importlib.import_module("avqsbench." + layer)
            for attr, obj in list(vars(mod).items()):
                qual = f"{layer}.{attr}"
                if not inspect.isfunction(obj) or obj.__module__ != mod.__name__ or qual in SKIP:
                    continue
                if attr.startswith("_") and qual not in RENAMED:
                    continue
                if qual in RENAMED:
                    name = RENAMED[qual]
                elif layer == "io" and attr.endswith("_from_dict"):
                    name = "io.parse"
                else:
                    name = qual
                before, after = self._hooks(qual)
                wrappers[id(obj)] = (obj, self._span(name, layer, obj, before, after))
        for (layer, cls_name, meth), name in METHODS.items():
            cls = getattr(importlib.import_module("avqsbench." + layer), cls_name)
            setattr(cls, meth, self._span(name, layer, getattr(cls, meth)))
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "avqsbench" or mod_name.startswith("avqsbench.")):
                continue
            for attr, obj in list(vars(mod).items()):
                entry = wrappers.get(id(obj))
                if entry is not None and entry[0] is obj:
                    setattr(mod, attr, entry[1])
        for kind in ("eigh", "eigvalsh", "svd"):
            fn = getattr(numpy.linalg, kind)
            setattr(numpy.linalg, kind, self._span("linalg.eig", "linalg", fn, self._eig_hook(kind)))

    def summary(self) -> dict[str, float]:
        """Flat ``<name>.<stat>`` aggregates; module totals are ``<module>.self_s``
        and ``<module>.incl_s``."""
        from avqsbench import schur_weyl

        out: dict[str, float] = dict(self.counters)
        for name, n in self.calls.items():
            out[name + ".calls"] = n
        for name, t in self.self_s.items():
            out[name.lstrip("@") + ".self_s"] = t
        for name, t in self.incl_s.items():
            out[name.lstrip("@") + ".incl_s"] = t
        out["schur_weyl.character.cache_misses"] = (
            schur_weyl.symmetric_group_character.cache_info().misses
        )
        return out
