"""Spans around the public functions and methods of evencob's modules.

The tracer patches the functions from outside the program.  A method is
replaced on its class.  A module function is replaced in every evencob module
that holds it, because `from .linalg import kernel` binds a separate name in
each importer.  Each span records its name, start, end and parent and is kept
in memory until the pass ends.  A span's self time is its duration minus the
durations of its child spans.
"""

from __future__ import annotations

import sys
import time
from collections import Counter

# metric prefix -> (module, class or None, attribute)
TRACED = {
    "linalg.rref": ("linalg", "RationalMatrix", "rref"),
    "linalg.canonical_basis": ("linalg", None, "canonical_basis"),
    "linalg.kernel": ("linalg", None, "kernel"),
    "linalg.matmul": ("linalg", "RationalMatrix", "__matmul__"),
    "linalg.cokernel": ("linalg", None, "cokernel"),
    "linalg.intersect": ("linalg", "Subspace", "intersect"),
    "symplectic.is_lagrangian": ("symplectic", "SymplecticSpace", "is_lagrangian"),
    "symplectic.annihilator": ("symplectic", "SymplecticSpace", "annihilator"),
    "symplectic.random_symplectic": ("symplectic", None, "random_symplectic"),
    "maslov.triple_check": ("maslov", "LagrangianTriple", "__post_init__"),
    "maslov.maslov_form": ("maslov", None, "maslov_form"),
    "maslov.decompose": ("maslov", None, "decompose"),
    "maslov.signature": ("maslov", None, "signature"),
    "maslov.form_annihilator": ("maslov", None, "form_annihilator"),
    "cobordism.compose": ("cobordism", None, "compose"),
    "cobordism.push_forward": ("cobordism", None, "push_forward"),
    "cobordism.pull_back": ("cobordism", None, "pull_back"),
    "cobordism.is_even": ("cobordism", None, "is_even"),
    "cobordism.validate": ("cobordism", None, "validate"),
    "generators.random_even_morphism": ("generators", None, "random_even_morphism"),
    "sampling.random_triple": ("sampling", None, "random_triple"),
    "sampling.random_even_pair": ("sampling", None, "random_even_pair"),
    "sampling.random_abstract_even_pair": ("sampling", None, "random_abstract_even_pair"),
    "formats.parse_scenario": ("formats", None, "parse_scenario"),
    "formats.parse_pipeline": ("formats", None, "parse_pipeline"),
    "campaigns.run_campaign": ("campaigns", None, "run_campaign"),
    "campaigns.evaluate_scenario": ("campaigns", None, "evaluate_scenario"),
    "cli.main": ("cli", None, "main"),
}

# Loop and front-end spans: their self time is reported, their call count is
# one per operation and says nothing.
SELF_TIME_ONLY = ("campaigns.run_campaign", "campaigns.evaluate_scenario", "cli.main")


def _coeff_bits(result) -> int:
    matrix = result[0]
    return max(
        (max(x.numerator.bit_length(), x.denominator.bit_length()) for x in matrix.entries),
        default=0,
    )


# span -> size probes: (metric, how to read a size from (args, result), fold)
PROBES = {
    "linalg.rref": (
        ("linalg.rref.max_cols", lambda args, result: args[0].cols, max),
        ("linalg.coeff_bits.max", lambda args, result: _coeff_bits(result), max),
    ),
    "maslov.maslov_form": (("maslov.form_dim.max", lambda args, result: result.dim, max),),
    "cobordism.compose": (("cobordism.body_h1.max", lambda args, result: result.h1_dim, max),),
    "formats.parse_scenario": (
        ("formats.input_bytes", lambda args, result: len(args[0].encode()), int.__add__),
    ),
    "formats.parse_pipeline": (
        ("formats.input_bytes", lambda args, result: len(args[0].encode()), int.__add__),
    ),
}

SIZE_METRICS = {
    "linalg.rref.max_cols": "columns",
    "linalg.coeff_bits.max": "bits",
    "maslov.form_dim.max": "dim",
    "cobordism.body_h1.max": "dim",
    "formats.input_bytes": "bytes",
}


def metric_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for name in TRACED:
        if name not in SELF_TIME_ONLY:
            units[f"{name}.calls"] = "count"
        units[f"{name}.self_ms"] = "ms"
    units.update(SIZE_METRICS)
    return units


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.spans: list[tuple[int, int, int, int]] = []  # name index, start, end, parent
        self.calls: Counter[str] = Counter()
        self.self_ns: Counter[str] = Counter()
        self.sizes: dict[str, int] = {name: 0 for name in SIZE_METRICS}
        self._stack: list[list[int]] = []  # [span index, ns covered by children]

    def wrap(self, name: str, fn):
        name_index = len(self.names)
        self.names.append(name)
        probes = PROBES.get(name, ())
        spans, stack, calls, self_ns, sizes = (
            self.spans, self._stack, self.calls, self.self_ns, self.sizes
        )
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            frame = [index, 0]
            parent = stack[-1][0] if stack else -1
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name_index, start, end, parent)
                calls[name] += 1
                self_ns[name] += end - start - frame[1]
                if stack:
                    stack[-1][1] += end - start
            if probes:
                for metric, read, fold in probes:
                    sizes[metric] = fold(sizes[metric], read(args, result))
                if stack:
                    # the probes' own cost is left out of every self time
                    stack[-1][1] += clock() - end
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n == "evencob" or n.startswith("evencob.")]
        for name, (module_name, class_name, attr) in TRACED.items():
            module = sys.modules[f"evencob.{module_name}"]
            if class_name is not None:
                cls = getattr(module, class_name)
                setattr(cls, attr, self.wrap(name, cls.__dict__[attr]))
                continue
            original = getattr(module, attr)
            traced = self.wrap(name, original)
            for holder in modules:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        setattr(holder, key, traced)

    def metrics(self, self_ns: dict[str, float]) -> dict[str, float]:
        """Counts and sizes as recorded, with self times taken from self_ns."""
        out: dict[str, float] = {}
        for name in TRACED:
            if name not in SELF_TIME_ONLY:
                out[f"{name}.calls"] = self.calls[name]
            out[f"{name}.self_ms"] = self_ns.get(name, 0) / 1e6
        out.update(self.sizes)
        return out

    def span_table(self) -> dict:
        """The spans in columns, for writing out when the pass ends."""
        return {
            "names": self.names,
            "name": [s[0] for s in self.spans],
            "start_ns": [s[1] for s in self.spans],
            "end_ns": [s[2] for s in self.spans],
            "parent": [s[3] for s in self.spans],
        }
