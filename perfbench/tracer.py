"""Spans around tropasym's public functions, recorded from outside the package.

`Tracer` wraps each function in LAYERS; `enable` rebinds the wrappers
wherever a tropasym module holds the original (its own module, `from .x
import f` imports, the package namespace), so nothing under src/ changes,
and `disable` puts the originals back.  Spans stay in memory, in flat arrays
of nanosecond timestamps, until `write_jsonl`; a span's self time is its
duration minus the time its child spans cover.
"""

from __future__ import annotations

import json
import sys
from array import array
from collections import defaultdict
from time import perf_counter_ns

import numpy as np

# layer (module) -> public functions traced in it
LAYERS = {
    "core": ("kleene_star", "span_distance"),
    "spectral": ("max_cycle_mean", "spectral_data", "eigenspace_equal"),
    "schur": ("minplus_schur", "schur_sequence", "candidate_exponents"),
    "perron": ("normalized_trajectory", "estimate_p_infinity"),
    "conjectures": (
        "eigenspace_preserving_perturbations",
        "conjecture1_test",
        "conjecture2_test",
    ),
    "plotting": ("render_eigenspace_svg",),
    "cli": ("main",),
}


def _first_arg(args, kwargs, name):
    return args[0] if args else kwargs[name]


# span name -> key of the input, for the share of calls repeating one in the same op
DUP_KEYS = {
    "spectral.spectral_data": lambda a, kw: _first_arg(a, kw, "A"),
    "perron.normalized_trajectory": lambda a, kw: np.asarray(
        _first_arg(a, kw, "A"), dtype=float
    ).tobytes(),
}

# span name -> facts read off the result
RESULT_NOTES = {
    "perron.normalized_trajectory": lambda t: {
        "iterations": sum(s.iterations for s in t.samples)
        + sum(f.iterations for f in t.failures),
        "failed": len(t.failures),
    },
    "conjectures.eigenspace_preserving_perturbations": lambda r: {"accepted": len(r)},
}


SPAN_FIELDS = ["id", "parent", "op", "name", "start_ns", "end_ns", "self_ns", "notes"]


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.parent = array("q")
        self.op = array("q")
        self.name = array("h")
        self.start = array("q")
        self.end = array("q")
        self.notes: dict[int, dict] = {}
        self.stack: list[int] = []
        self.op_id = -1
        self.seen: dict[str, set] = defaultdict(set)
        self.bindings = self._bind()

    def begin_op(self):
        self.op_id += 1
        self.seen.clear()

    def wrap(self, name: str, fn):
        idx = len(self.names)
        self.names.append(name)
        dup_key = DUP_KEYS.get(name)
        result_note = RESULT_NOTES.get(name)

        def traced(*args, **kwargs):
            sid = len(self.start)
            self.parent.append(self.stack[-1] if self.stack else -1)
            self.op.append(self.op_id)
            self.name.append(idx)
            self.end.append(0)
            if dup_key is not None:
                key = dup_key(args, kwargs)
                if key in self.seen[name]:
                    self.notes[sid] = {"dup": True}
                self.seen[name].add(key)
            self.stack.append(sid)
            self.start.append(perf_counter_ns())
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self.notes.setdefault(sid, {})["raised"] = type(exc).__name__
                raise
            else:
                if result_note is not None:
                    self.notes.setdefault(sid, {}).update(result_note(result))
                return result
            finally:
                self.end[sid] = perf_counter_ns()
                self.stack.pop()

        return traced

    def _bind(self):
        """(module, attribute, original, wrapper) for every loaded tropasym binding."""
        modules = [
            m for n, m in list(sys.modules.items())
            if n == "tropasym" or n.startswith("tropasym.")
        ]
        out = []
        for layer, functions in LAYERS.items():
            home = sys.modules[f"tropasym.{layer}"]
            for fn_name in functions:
                orig = getattr(home, fn_name)
                wrapped = self.wrap(f"{layer}.{fn_name}", orig)
                for m in modules:
                    out += [(m, a, orig, wrapped) for a, v in vars(m).items() if v is orig]
        return out

    def enable(self):
        for m, attr, _, wrapped in self.bindings:
            setattr(m, attr, wrapped)

    def disable(self):
        for m, attr, orig, _ in self.bindings:
            setattr(m, attr, orig)

    def self_times(self) -> list[int]:
        covered = [0] * len(self.start)
        for sid, p in enumerate(self.parent):
            if p >= 0:
                covered[p] += self.end[sid] - self.start[sid]
        return [e - s - c for s, e, c in zip(self.start, self.end, covered)]

    def write_jsonl(self, path, self_ns: list[int]):
        """A header line naming the fields and span names, then one array per span."""
        with open(path, "w") as f:
            f.write(json.dumps({"fields": SPAN_FIELDS, "names": self.names}) + "\n")
            for sid in range(len(self.start)):
                notes = self.notes.get(sid)
                f.write(
                    f"[{sid},{self.parent[sid]},{self.op[sid]},{self.name[sid]},"
                    f"{self.start[sid]},{self.end[sid]},{self_ns[sid]}"
                    + (f",{json.dumps(notes)}]\n" if notes else "]\n")
                )

    def layer_metrics(self, self_ns: list[int], ops: int) -> dict[str, float]:
        """Per-op counts and self times, plus ratios measured at the layer boundaries."""
        calls: dict[str, int] = defaultdict(int)
        self_total: dict[str, int] = defaultdict(int)
        dups: dict[str, int] = defaultdict(int)
        raised: dict[str, int] = defaultdict(int)
        sums: dict[str, int] = defaultdict(int)
        sampler_checks = 0
        names = self.names
        for sid, idx in enumerate(self.name):
            name = names[idx]
            calls[name] += 1
            self_total[name] += self_ns[sid]
            p = self.parent[sid]
            if (
                name == "spectral.eigenspace_equal" and p >= 0
                and names[self.name[p]] == "conjectures.eigenspace_preserving_perturbations"
            ):
                sampler_checks += 1
            notes = self.notes.get(sid)
            if notes:
                dups[name] += notes.get("dup", False)
                raised[name] += notes.get("raised") == "StarDivergenceError"
                for k in ("iterations", "failed", "accepted"):
                    sums[k] += notes.get(k, 0)

        def frac(a, b):
            return a / b if b else 0.0

        per_op = max(ops, 1)
        out = {}
        for layer, functions in LAYERS.items():
            for fn_name in functions:
                name = f"{layer}.{fn_name}"
                out[f"{name}.calls"] = calls[name] / per_op
                out[f"{name}.self_s"] = self_total[name] * 1e-9 / per_op
        out["cli.self_s"] = out.pop("cli.main.self_s")
        out.pop("cli.main.calls")
        for name in DUP_KEYS:
            out[f"{name}.dup_frac"] = frac(dups[name], calls[name])
        out["conjectures.eigenspace_preserving_perturbations.accept_frac"] = frac(
            sums["accepted"], sampler_checks
        )
        out["schur.candidate_exponents.diverged_frac"] = frac(
            raised["schur.candidate_exponents"], calls["schur.candidate_exponents"]
        )
        out["perron.iterations"] = sums["iterations"] / per_op
        out["perron.samples_failed"] = sums["failed"] / per_op
        return out
