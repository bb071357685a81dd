"""STAT rule: byte-stable counter surfaces must never carry wall-clock.

``StatsReport.to_json()`` and ``ServiceStats.as_dict()`` are the
byte-stability contract: two identical runs must produce identical bytes,
which the API suite pins. Wall-clock lives on ``TimingReport`` — rendered,
exported, but never serialized into the counter JSON. This rule walks every
counter-serialization method (``to_dict`` / ``to_json`` / ``as_dict``
outside :mod:`repro.obs`) and flags any reference to a timing-named
attribute or to ``TimingReport`` itself, so a timing field cannot leak into
the stable surface without failing the build.
"""

from __future__ import annotations

import ast

from repro.lint.engine import FileContext, Rule, Violation

#: Method names that produce the byte-stable counter surface.
SURFACE_METHODS: tuple[str, ...] = ("to_dict", "to_json", "as_dict")

#: Name fragments that mark a value as wall-clock-derived. Matched against
#: ``_``-separated parts of attribute/variable names, so ``elapsed_seconds``
#: and ``worker_seconds`` hit while ``bytes_shipped`` does not.
TIMING_FRAGMENTS: frozenset[str] = frozenset(
    {"seconds", "elapsed", "timing", "wall", "duration", "perf"}
)

#: Packages whose serializers ARE the timing surface (exempt).
EXEMPT_PACKAGES: tuple[str, ...] = ("repro.obs",)


def _is_timing_name(name: str) -> bool:
    return any(part in TIMING_FRAGMENTS for part in name.lower().split("_"))


class StableCounterSurfaceRule(Rule):
    """STAT001 — timing values referenced inside a counter serializer."""

    rule_id = "STAT001"
    name = "byte-stable-stats-surface"
    rationale = (
        "to_json()/as_dict() must be byte-identical across identical "
        "runs; timing belongs on TimingReport, serialized separately."
    )

    def check_file(self, ctx: FileContext) -> list[Violation]:
        if ctx.module_under(*EXEMPT_PACKAGES):
            return []
        violations: list[Violation] = []
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            for item in node.body:
                if (
                    isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and item.name in SURFACE_METHODS
                ):
                    violations.extend(self._check_method(ctx, node, item))
        return violations

    def _check_method(
        self, ctx: FileContext, cls: ast.ClassDef, method: ast.FunctionDef
    ) -> list[Violation]:
        violations: list[Violation] = []
        for node in ast.walk(method):
            if isinstance(node, ast.Attribute) and _is_timing_name(node.attr):
                violations.append(
                    self.violation(
                        ctx,
                        node,
                        f"timing attribute .{node.attr} referenced in "
                        f"{cls.name}.{method.name}() (byte-stable counter "
                        f"surface)",
                    )
                )
            elif isinstance(node, ast.Name) and node.id == "TimingReport":
                violations.append(
                    self.violation(
                        ctx,
                        node,
                        f"TimingReport referenced in {cls.name}.{method.name}() "
                        f"(byte-stable counter surface)",
                    )
                )
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                # Dict keys are how fields actually enter the payload —
                # catch {"elapsed_seconds": ...} even via a local variable.
                if _is_timing_name(node.value) and node.value.isidentifier():
                    violations.append(
                        self.violation(
                            ctx,
                            node,
                            f"timing-named key {node.value!r} in "
                            f"{cls.name}.{method.name}() (byte-stable counter "
                            f"surface)",
                        )
                    )
        return violations
