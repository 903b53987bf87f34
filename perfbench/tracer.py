"""
Outside-in tracing of grhecke for the benchmark's traced runs.

`install(package)` replaces the public functions named in SPANS with
wrappers that record a span per call, everywhere the function is bound:
the defining module, every module that imported it by name, and the
package's re-exports. It also counts calls of a few hot methods
(IntPoly.__mul__/__add__, HeckeElt.right_gen/left_gen). Nothing under
src/ is modified; the program cannot tell it is traced except by speed.

A span's self time is its duration minus the durations of the traced
spans it directly encloses; inclusive time counts only the outermost span
of each name, so recursion is not double counted.
"""

from __future__ import annotations

import sys
import time
import types

# module -> public functions recorded as spans
SPANS = {
    "coxeter": ["conjugacy_class", "minimal_length_elements"],
    "polyring": ["solve_linear", "determinant"],
    "hecke": ["mul", "m_sym", "is_central", "group_mul"],
    "center": [
        "gamma_element", "gamma_basis", "structure_constants", "expand_in_gamma",
        "class_sum_oracle", "verify_structure_constants",
        "verify_gamma_characterization", "verify_zero_specialization",
        "verify_elementary_sums",
    ],
    "universal": ["graded_table", "one_row_product_matrix"],
    "cli": ["export_table"],
}


class Tracer:
    def __init__(self):
        self.self_s: dict[str, float] = {}
        self.incl_s: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self.counts: dict[str, int] = {}
        self._stack: list[list] = []  # [name, start, time in direct children]
        self._active: dict[str, int] = {}
        self._seen: dict[str, set] = {}
        self.wrapped: dict[str, object] = {}  # qualified name -> original

    def bump(self, key: str, by: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + by

    def first_time(self, name: str, key) -> bool:
        seen = self._seen.setdefault(name, set())
        if key in seen:
            return False
        seen.add(key)
        return True

    def active(self, module: str) -> bool:
        return any(n.startswith(module + ".") and d for n, d in self._active.items())

    def span(self, name: str, fn, before=None, after=None):
        stack, active = self._stack, self._active
        self.calls.setdefault(name, 0)

        def wrapper(*args, **kwargs):
            if before is not None:
                before(self, args)
            self.calls[name] += 1
            active[name] = active.get(name, 0) + 1
            frame = [name, time.perf_counter(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = time.perf_counter() - frame[1]
                stack.pop()
                active[name] -= 1
                self.self_s[name] = self.self_s.get(name, 0.0) + dur - frame[2]
                if not active[name]:
                    self.incl_s[name] = self.incl_s.get(name, 0.0) + dur
                if stack:
                    stack[-1][2] += dur
            if after is not None:
                after(self, args, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper


def _conjugacy_after(tr: Tracer, args, result) -> None:
    if tr.first_time("coxeter.conjugacy_class", tuple(args)):
        tr.bump("coxeter.perms_enumerated", len(result))


def _gamma_before(tr: Tracer, args) -> None:
    if not tr.first_time("center.gamma_element", (tuple(args[0]), args[1])):
        tr.bump("center.gamma_element.repeat_calls")


def _struct_before(tr: Tracer, args) -> None:
    lam, mu, n = args
    if not tr.first_time("center.structure_constants", (tuple(lam), tuple(mu), n)):
        tr.bump("center.structure_constants.repeat_calls")
    if tr.active("universal"):
        tr.bump("universal.structure_constants.calls")
        tr.counts["universal.max_rank"] = max(tr.counts.get("universal.max_rank", 0), n)


def _verify_after(tr: Tracer, args, report) -> None:
    tr.bump("center.verify.checks", report.checks)
    tr.bump("center.verify.witnesses", len(report.witnesses))


HOOKS = {
    "coxeter.conjugacy_class": (None, _conjugacy_after),
    "center.gamma_element": (_gamma_before, None),
    "center.structure_constants": (_struct_before, None),
    "center.verify_structure_constants": (None, _verify_after),
    "center.verify_gamma_characterization": (None, _verify_after),
    "center.verify_zero_specialization": (None, _verify_after),
    "center.verify_elementary_sums": (None, _verify_after),
}


def _package_modules(package: types.ModuleType) -> list[types.ModuleType]:
    prefix = package.__name__ + "."
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (m is package or name.startswith(prefix))]


def _count_method(tr: Tracer, cls, attrs, key, terms_key=None) -> None:
    for attr in attrs:
        orig = cls.__dict__[attr]
        if terms_key:
            def method(self, *args, _orig=orig):
                tr.counts[key] += 1
                tr.counts[terms_key] += len(self.terms)
                return _orig(self, *args)
        else:
            def method(self, *args, _orig=orig):
                tr.counts[key] += 1
                return _orig(self, *args)
        setattr(cls, attr, method)
        tr.wrapped[f"{cls.__name__}.{attr}"] = orig
    tr.counts.setdefault(key, 0)
    if terms_key:
        tr.counts.setdefault(terms_key, 0)


def install(package: types.ModuleType) -> Tracer:
    """Wrap every binding of the SPANS functions in the imported package."""
    tr = Tracer()
    modules = _package_modules(package)
    for mod_name, names in SPANS.items():
        defining = sys.modules[f"{package.__name__}.{mod_name}"]
        for fname in names:
            orig = getattr(defining, fname)
            qual = f"{mod_name}.{fname}"
            wrapper = tr.span(qual, orig, *HOOKS.get(qual, (None, None)))
            tr.wrapped[qual] = orig
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, attr, wrapper)
    polyring = sys.modules[f"{package.__name__}.polyring"]
    hecke = sys.modules[f"{package.__name__}.hecke"]
    _count_method(tr, polyring.IntPoly, ["__mul__", "__rmul__"], "polyring.intpoly_mul.calls")
    _count_method(tr, polyring.IntPoly, ["__add__"], "polyring.intpoly_add.calls")
    _count_method(tr, hecke.HeckeElt, ["right_gen", "left_gen"], "hecke.gen_calls",
                  "hecke.gen_terms")
    return tr


def unwrapped_bindings(package: types.ModuleType, tr: Tracer) -> list[str]:
    """Module attributes that still hold an original the tracer replaced."""
    originals = {id(f): q for q, f in tr.wrapped.items()}
    out = []
    for mod in _package_modules(package):
        for attr, value in vars(mod).items():
            if id(value) in originals:
                out.append(f"{mod.__name__}.{attr} ({originals[id(value)]})")
        for cls in [v for v in vars(mod).values() if isinstance(v, type)]:
            for attr, value in vars(cls).items():
                if id(value) in originals:
                    out.append(f"{mod.__name__}.{cls.__name__}.{attr}")
    return out
