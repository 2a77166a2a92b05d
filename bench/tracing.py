"""Span tracing from outside the program.

The tracer wraps each listed function at its definition and at every module
of the package that imported it by name, so calls through either binding
open a span.  A span's self time is its duration minus the time covered by
the spans it opened.  Spans are folded into per-function counters as they
close; nothing is kept per call.

A listed function that no longer exists is reported as absent instead of
failing the run: later changes rename or delete some of these functions,
and a change that claims a gain may not edit the benchmark.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time

# Layers are the package's modules; each lists the functions traced in it.
LAYERS: dict[str, tuple[str, ...]] = {
    "padic": ("factorial_ratio", "vp", "MultiIndex.scale_by_p", "MultiIndex.floor_l1", "MultiIndex.from_dict"),
    "drw": ("nygaard_exponents",),
    "syntomic": ("s_function", "h1_syntomic_orbit", "kernel_generator", "enumerate_orbits"),
    "prosystem": ("tr_valuation", "build_tower", "stabilized_images", "limit_classify", "ml_bound"),
    "oracle": (
        "build_orbit_matrices",
        "fiber_cohomology",
        "oracle_cohomology",
        "certify_kernel_generator",
        "verify_orbit",
        "TransitionOracle.level",
        "TransitionOracle.valuation",
    ),
    "snf": (
        "smith_with_transforms",
        "smith_normal_form",
        "smith_mod_prime_power",
        "kernel_mod",
        "quotient",
        "solve_in_lattice",
        "QuotientPresentation.class_order_exponent",
        "QuotientPresentation.generator_of_largest_factor",
    ),
    "report": ("emit_report",),
    "cli": ("run_command",),
}

TARGETS: tuple[str, ...] = tuple(f"{mod}.{name}" for mod, names in LAYERS.items() for name in names)


def _matrix_cells(args, kwargs) -> int:
    M = args[0] if args else kwargs.get("M", [])
    return len(M) * (len(M[0]) if M else 0)


def _max_entry_bits(dec) -> int:
    return max(
        (abs(x).bit_length() for T in (dec.U, dec.Uinv, dec.V, dec.Vinv) for row in T for x in row),
        default=0,
    )


class Tracer:
    """Wraps ``targets`` (``"<module>.<attr path>"`` inside ``package``) with
    span counters while installed.

    ``observers`` maps a target to ``fn(args, kwargs, result, totals)``,
    called after the span closes to fold a value into ``totals``; its run
    time is charged to neither the span nor its parent.
    """

    def __init__(self, package: str, targets=TARGETS, observers=None, clock=time.perf_counter):
        self.package = package
        self.targets = tuple(targets)
        self.observers = dict(observers or {})
        self.clock = clock
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.totals: dict[str, int] = {}
        self.absent: list[str] = []
        self._stack: list[float] = []
        self._restore: list[tuple[object, str, object]] = []

    def install(self) -> "Tracer":
        """Wrap every target that exists, with all counters at zero."""
        if self._restore:
            raise RuntimeError("tracer already installed")
        self.absent = []
        self.totals.clear()
        for target in self.targets:
            if not self._install_one(target):
                self.absent.append(target)
        return self

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def module_self_s(self, module: str) -> float:
        prefix = module + "."
        return sum(s for name, s in self.self_s.items() if name.startswith(prefix))

    def _install_one(self, target: str) -> bool:
        module_name, _, path = target.partition(".")
        try:
            module = importlib.import_module(f"{self.package}.{module_name}")
        except ImportError:
            return False
        *owners, attr = path.split(".")
        owner = module
        for name in owners:
            owner = getattr(owner, name, None)
            if owner is None:
                return False
        if inspect.isclass(owner):
            raw = owner.__dict__.get(attr)
            if isinstance(raw, (classmethod, staticmethod)):
                wrapped = type(raw)(self._span(target, raw.__func__))
            elif inspect.isfunction(raw):
                wrapped = self._span(target, raw)
            else:
                return False
            self._rebind(owner, attr, raw, wrapped)
            return True
        original = getattr(owner, attr, None)
        if not callable(original):
            return False
        wrapped = self._span(target, original)
        prefix = self.package + "."
        for name, mod in list(sys.modules.items()):
            if mod is not None and (name == self.package or name.startswith(prefix)):
                for binding, value in list(vars(mod).items()):
                    if value is original:
                        self._rebind(mod, binding, original, wrapped)
        return True

    def _rebind(self, owner, attr: str, original, wrapped) -> None:
        self._restore.append((owner, attr, original))
        setattr(owner, attr, wrapped)

    def _span(self, target: str, fn):
        self.calls[target] = 0
        self.self_s[target] = 0.0
        calls, self_s, totals = self.calls, self.self_s, self.totals
        stack, clock = self._stack, self.clock
        observe = self.observers.get(target)

        @functools.wraps(fn)
        def span(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - t0
                children = stack.pop()
                calls[target] += 1
                self_s[target] += duration - children
                if stack:
                    stack[-1] += duration
            if observe is not None:
                t1 = clock()
                observe(args, kwargs, result, totals)
                if stack:
                    stack[-1] += clock() - t1
            return result

        return span


def _observe_exact_snf(args, kwargs, dec, totals) -> None:
    totals["snf.exact_cells"] = totals.get("snf.exact_cells", 0) + _matrix_cells(args, kwargs)
    bits = _max_entry_bits(dec)
    if bits > totals.get("snf.exact_entry_bits_max", 0):
        totals["snf.exact_entry_bits_max"] = bits


def _observe_modp_snf(args, kwargs, result, totals) -> None:
    totals["snf.modp_cells"] = totals.get("snf.modp_cells", 0) + _matrix_cells(args, kwargs)


def _observe_report(args, kwargs, data, totals) -> None:
    totals["report.bytes"] = totals.get("report.bytes", 0) + len(data)


OBSERVERS = {
    "snf.smith_with_transforms": _observe_exact_snf,
    "snf.smith_mod_prime_power": _observe_modp_snf,
    "report.emit_report": _observe_report,
}
