"""Spans and work counts around the public functions of ``diskabc``.

The tracer wraps functions from outside the program: every module of the
package that holds a reference to a wrapped function gets the wrapper, so
calls between modules are seen too.  Spans (name, start, end, parent) stay
in memory until the run ends.  A layer's self time is its span duration
minus the durations of its direct children.

Evaluation points are counted as the size of each array passed to a
``PolyC`` or ``BlaschkeProduct`` evaluation, credited to the innermost open
span.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter

import numpy as np

import diskabc

# span name of each wrapped function, by module
SPANS = {
    "polycore": {
        "roots_with_multiplicity": "polycore.roots",
        "aberth_roots": "polycore.aberth",
        "gcd_exact": "polycore.gcd_exact",
        "squarefree_part": "polycore.squarefree",
    },
    "blaschke": {"lcm": "blaschke.combine", "product": "blaschke.combine",
                 "radical": "blaschke.combine"},
    "quadrature": {
        "disk_area_mean": "quadrature.area",
        "sup_boundary": "quadrature.extremum",
        "inf_boundary": "quadrature.extremum",
        "boundary_integral": "quadrature.boundary",
        "unit_disk_weighted_mean": "quadrature.weighted_area",
    },
    "abc_verifier": {
        "build_system": "abc_verifier.build_system",
        "lambda_mu_kappa": "abc_verifier.lambda_mu_kappa",
        "check_divisibility": "abc_verifier.divisibility",
        "verify": "abc_verifier.verify",
    },
    "mason_stothers": {
        "verify_theorem_A": "mason_stothers.theorem_A",
        "verify_theorem_B": "mason_stothers.theorem_B",
        "wronskian_degree_bound_check": "mason_stothers.degree_bound",
        "limit_R_study": "mason_stothers.limit_R",
    },
    "dalpha": {
        "blaschke_norm_sq": "dalpha.coeff_norm",
        "product_norm_sq": "dalpha.coeff_norm",
        "truncation_study": "dalpha.truncation",
        "verify_theorem_41": "dalpha.theorem_41",
        "r_alpha": "dalpha.r_alpha",
        "r_alpha_area": "dalpha.r_alpha_area",
        "division_monotonicity_check": "dalpha.monotonicity",
    },
}

# the Wronskian span is named after the coefficient domain of its inputs
WRONSKIAN = ("polycore.wronskian_float", "polycore.wronskian_exact")

# evaluation methods whose argument sizes are counted
EVALUATIONS = (("PolyC", "__call__"), ("BlaschkeProduct", "__call__"),
               ("BlaschkeProduct", "derivative_eval"),
               ("BlaschkeProduct", "boundary_derivative_modulus"))


class Tracer:
    """Span recorder; ``install`` patches the package, ``uninstall`` restores it."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent index]
        self.stack = []
        self.points = Counter()  # innermost span name -> evaluation points
        self.counts = Counter()  # other work counts
        self._patches = []

    # -- spans ---------------------------------------------------------------
    def open(self, name):
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None,
                           self.stack[-1] if self.stack else -1])
        self.stack.append(idx)
        return idx

    def close(self, idx):
        self.spans[idx][2] = time.perf_counter()
        self.stack.pop()

    def _span(self, fn, name):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(idx)
        return wrapper

    def _wronskian_span(self, fn, exact_type):
        @functools.wraps(fn)
        def wrapper(fs):
            fs = list(fs)
            idx = self.open(WRONSKIAN[bool(fs) and isinstance(fs[0], exact_type)])
            try:
                return fn(fs)
            finally:
                self.close(idx)
        return wrapper

    def _count_points(self, fn, blaschke):
        @functools.wraps(fn)
        def wrapper(obj, z, *args, **kwargs):
            size = int(np.size(z))
            if self.stack:
                self.points[self.spans[self.stack[-1]][0]] += size
            if blaschke:
                self.counts["blaschke.eval.points"] += size
            return fn(obj, z, *args, **kwargs)
        return wrapper

    def _count_samples(self, fn):
        @functools.wraps(fn)
        def wrapper(sample_fn, n):
            self.counts["dalpha.coeff_norm.samples"] += int(n)
            return fn(sample_fn, n)
        return wrapper

    # -- patching ------------------------------------------------------------
    def _replace_everywhere(self, original, wrapper):
        for name, module in list(sys.modules.items()):
            if name != "diskabc" and not name.startswith("diskabc."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def install(self):
        for mod, table in SPANS.items():
            module = importlib.import_module(f"diskabc.{mod}")
            for attr, span in table.items():
                original = getattr(module, attr)
                self._replace_everywhere(original, self._span(original, span))
        original = diskabc.polycore.wronskian
        self._replace_everywhere(original,
                                 self._wronskian_span(original, diskabc.PolyQ))
        for cls_name, meth in EVALUATIONS:
            cls = getattr(diskabc, cls_name)
            original = cls.__dict__[meth]
            self._patches.append((cls, meth, original))
            setattr(cls, meth, self._count_points(original, cls_name == "BlaschkeProduct"))
        dalpha = diskabc.dalpha
        original = dalpha._sample_circle
        self._patches.append((dalpha, "_sample_circle", original))
        dalpha._sample_circle = self._count_samples(original)

    def uninstall(self):
        for target, attr, original in reversed(self._patches):
            setattr(target, attr, original)
        self._patches.clear()

    # -- results -------------------------------------------------------------
    def self_times(self):
        """Total self time (s) and call count per span name."""
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        total, calls = Counter(), Counter()
        for (name, t0, t1, _), c in zip(self.spans, child):
            total[name] += (t1 - t0) - c
            calls[name] += 1
        return total, calls
