"""Per-layer tracing of dyndeg, installed from outside the package.

A layer is a dyndeg module.  Each traced function is replaced by a wrapper
wherever its name is bound: on its own module and on every dyndeg module
that imported it by name (``cli`` and ``oracle`` do).  A wrapper keeps one
span per call in memory: id, parent span, op id, name, start and end.  A
span's self time is its duration minus the time of its child spans.

Hot kernels are aggregated instead of spanned: every ``Dyadic`` method,
``HomoPoly.__mul__`` and ``GaussianInt.__mul__``.  For ``Dyadic`` and
``HomoPoly.__mul__`` a wrapper counts the outermost calls into the kernel,
times them, and adds the time to the enclosing span's child time.
``GaussianInt.__mul__`` is only counted, so its time stays in its caller's
self time.  ``intervals.Dyadic.mantissa_bits`` sums the bit lengths of the
mantissas of all dyadics constructed: a computed measure of work, not a
timing.
"""

from __future__ import annotations

import itertools
import json
import sys
import time
from collections import defaultdict

# (layer, qualified name) of the functions and methods traced by spans
SPANS = (
    ("cli", "main"),
    ("gaussian", "gamma_argmax"),
    ("gaussian", "d_sequence"),
    ("degrees", "e_sequence"),
    ("degrees", "series_identity_check"),
    ("intervals", "atan2_brackets"),
    ("solver", "solve_lambda"),
    ("solver", "alpha_of"),
    ("polynomials", "divexact"),
    ("polynomials", "CoprimeBase.decompose"),
    ("polynomials", "certify_coprime"),
    ("polynomials", "homo_gcd"),
    ("polynomials", "restrict_line_mod"),
    ("polynomials", "univ_gcd_mod"),
    ("oracle", "compose"),
    ("oracle", "factored_line_degree"),
    ("diophantine", "theta_interval"),
    ("diophantine", "cf_expand"),
    ("diophantine", "octant_gamma"),
    ("diophantine", "irregular_indices"),
    ("diophantine", "phi_n_eval"),
    ("diophantine", "psi_n_eval"),
)

# result fields averaged over the calls of a span
RESULT_FIELDS = {
    "solver.solve_lambda": ("n_terms", "precision_bits"),
    "diophantine.cf_expand": ("precision_bits",),
}

DYADIC_METHODS = (
    "make", "from_int", "from_fraction", "__add__", "__sub__", "__neg__", "__mul__", "__abs__",
    "_cmp", "__lt__", "__le__", "__gt__", "__ge__", "__eq__", "sign", "is_zero", "round", "div",
    "sqrt", "floor_int", "to_fraction", "__float__", "decimal_str",
)


def _dyndeg_modules():
    return [m for name, m in sys.modules.items() if name == "dyndeg" or name.startswith("dyndeg.")]


class Tracer:
    """Spans and kernel counters of one traced run; `install` patches, `uninstall` restores."""

    def __init__(self):
        self.op_id = None  # set by the runner before each op
        self.spans = []  # (span id, parent id, op id, name, start, end)
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.fields = defaultdict(list)
        self.kernels = {}  # name -> [outermost calls, seconds, depth]
        self.mantissa_bits = 0
        self._stack = []  # [span id, child seconds] of the open spans
        self._ids = itertools.count()
        self._undo = []  # (owner, attribute, original value)

    # -- installation ---------------------------------------------------------

    def install(self):
        mods = {m.__name__.rpartition(".")[2]: m for m in _dyndeg_modules()}
        for layer, qual in SPANS:
            owner, attr = _resolve(mods[layer], qual)
            self._patch(owner, attr, self._span_wrapper(f"{layer}.{qual}", getattr(owner, attr)))
        dyadic = mods["intervals"].Dyadic
        state = self.kernels.setdefault("intervals.Dyadic", [0, 0.0, 0])
        for attr in DYADIC_METHODS:
            self._patch(dyadic, attr, self._kernel_wrapper(state, getattr(dyadic, attr)))
        self._patch(dyadic, "__init__", self._bits_wrapper(dyadic.__init__))
        homo = mods["polynomials"].HomoPoly
        state = self.kernels.setdefault("polynomials.HomoPoly.mul", [0, 0.0, 0])
        self._patch(homo, "__mul__", self._kernel_wrapper(state, homo.__mul__))
        gauss = mods["gaussian"].GaussianInt
        counted = self._count_wrapper(self.kernels.setdefault("gaussian.GaussianInt.mul", [0, 0.0, 0]), gauss.__mul__)
        self._patch(gauss, "__mul__", counted)
        self._patch(gauss, "__rmul__", counted)

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def _patch(self, owner, attr, wrapper):
        raw = owner.__dict__[attr]
        if isinstance(owner, type):
            self._undo.append((owner, attr, raw))
            setattr(owner, attr, staticmethod(wrapper) if isinstance(raw, staticmethod) else wrapper)
            return
        for module in _dyndeg_modules():  # every binding of the function's name
            for name, value in list(vars(module).items()):
                if value is raw:
                    self._undo.append((module, name, raw))
                    setattr(module, name, wrapper)

    # -- wrappers -------------------------------------------------------------

    def _span_wrapper(self, name, fn):
        stack, spans, calls, self_s = self._stack, self.spans, self.calls, self.self_s
        fields = RESULT_FIELDS.get(name, ())
        ids, perf = self._ids, time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1][0] if stack else None
            frame = [next(ids), 0.0]
            stack.append(frame)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                if stack:
                    stack[-1][1] += end - start
                calls[name] += 1
                self_s[name] += end - start - frame[1]
                spans.append((frame[0], parent, self.op_id, name, start, end))
            for field in fields:
                self.fields[f"{name}.{field}"].append(getattr(result, field))
            return result

        return traced

    def _kernel_wrapper(self, state, fn):
        stack, perf = self._stack, time.perf_counter

        def kernel(*args, **kwargs):
            if state[2]:  # called from inside the kernel: part of the outer call
                return fn(*args, **kwargs)
            state[0] += 1
            state[2] = 1
            start = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf() - start
                state[2] = 0
                state[1] += elapsed
                if stack:
                    stack[-1][1] += elapsed

        return kernel

    @staticmethod
    def _count_wrapper(state, fn):
        def counted(a, b):
            state[0] += 1
            return fn(a, b)

        return counted

    def _bits_wrapper(self, init):
        def counted_init(obj, man, exp):
            self.mantissa_bits += man.bit_length()
            init(obj, man, exp)

        return counted_init

    # -- results --------------------------------------------------------------

    def metrics(self) -> dict:
        """Every per-layer figure by metric name."""
        out = {}
        for layer, qual in SPANS:
            name = f"{layer}.{qual}"
            out[f"{name}.calls"] = self.calls[name]
            out[f"{name}.self_s"] = self.self_s[name]
        for name, fields in RESULT_FIELDS.items():
            for field in fields:
                values = self.fields[f"{name}.{field}"]
                out[f"{name}.{field}"] = sum(values) / len(values) if values else 0
        for name, (calls, seconds, _) in self.kernels.items():
            out[f"{name}.calls"] = calls
            out[f"{name}.self_s"] = seconds
        out["intervals.Dyadic.ops"] = out.pop("intervals.Dyadic.calls")
        out["intervals.Dyadic.mantissa_bits"] = self.mantissa_bits
        return out

    def layer_self_s(self) -> dict:
        """Self seconds summed per layer (module), kernels included."""
        layers = defaultdict(float)
        for name, seconds in list(self.self_s.items()) + [(n, s[1]) for n, s in self.kernels.items()]:
            layers[name.partition(".")[0]] += seconds
        return dict(layers)

    def write_spans(self, path):
        with open(path, "w") as fh:
            for span_id, parent, op_id, name, start, end in self.spans:
                fh.write(
                    json.dumps({"id": span_id, "parent": parent, "op": op_id, "name": name, "start": start, "end": end})
                    + "\n"
                )


def _resolve(module, qual):
    """(owner, attribute) for 'func' or 'Class.method' inside module."""
    owner = module
    *path, attr = qual.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attr
