#!/usr/bin/env python
"""Hand-rolled schema validation for the ``BENCH_*.json`` trajectory files.

No external jsonschema dependency: the schema is a small nested spec of
``(type, predicate)`` pairs and the walker reports *every* violation with
its JSON path, not just the first. CI runs this against both the committed
``BENCH_7.json`` and the fresh ``--smoke`` output, so a malformed or
hand-edited trajectory point fails the build.

Usage::

    python benchmarks/bench_schema.py BENCH_7.json [more.json ...]

Exit status 0 when every file validates, 1 otherwise.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Any, Callable, Optional

Check = Optional[Callable[[Any], bool]]

#: Leaf spec: (expected type(s), optional extra predicate, description).
_NON_NEGATIVE = (
    (int, float),
    lambda v: v >= 0 and v == v,  # NaN fails the self-equality check
    "a non-negative number",
)
_POSITIVE = ((int, float), lambda v: v > 0, "a positive number")
_COUNT = (int, lambda v: v >= 0 and not isinstance(v, bool), "a non-negative integer")
_RATE = ((int, float), lambda v: 0.0 <= v <= 1.0, "a rate in [0, 1]")
_BOOL = (bool, None, "a boolean")

#: The full document spec. Nested dicts are sub-objects; tuples are leaves.
BENCH_SCHEMA: dict[str, Any] = {
    "schema_version": (int, lambda v: v == 1, "schema_version 1"),
    "pr": (int, lambda v: v >= 1, "a PR number >= 1"),
    "mode": (str, lambda v: v in ("full", "smoke"), '"full" or "smoke"'),
    "scenario": {
        "n_worlds": _POSITIVE,
        "sweep_points": _POSITIVE,
    },
    "benchmarks": {
        "fresh_sweep": {
            "wall_seconds": _POSITIVE,
            "points": _POSITIVE,
            "n_worlds": _POSITIVE,
            "worlds_per_second": _POSITIVE,
        },
        "reuse_sweep": {
            "wall_seconds": _POSITIVE,
            "speedup_vs_fresh": _POSITIVE,
            "basis_hit_rate": _RATE,
            "exact_hits": _COUNT,
            "mapped_hits": _COUNT,
            "misses": _COUNT,
            "stats_memo_hit_rate": _RATE,
        },
        "batched_vs_loop": {
            "batched_seconds": _POSITIVE,
            "loop_seconds": _POSITIVE,
            "speedup": _POSITIVE,
            "parity": (bool, lambda v: v is True, "parity must be true"),
            "stages": {
                "batched": {
                    "querygen": _NON_NEGATIVE,
                    "sql": _NON_NEGATIVE,
                    "storage": _NON_NEGATIVE,
                    "aggregate": _NON_NEGATIVE,
                },
                "loop": {
                    "querygen": _NON_NEGATIVE,
                    "sql": _NON_NEGATIVE,
                    "storage": _NON_NEGATIVE,
                    "aggregate": _NON_NEGATIVE,
                },
            },
            "single_round": {
                "batched_seconds": _POSITIVE,
                "loop_seconds": _POSITIVE,
                "speedup": _POSITIVE,
            },
        },
        "result_cache": {
            "cold_seconds": _POSITIVE,
            "warm_seconds": _POSITIVE,
            "speedup": _POSITIVE,
            "hit_rate": _RATE,
        },
        "plan_cache": {
            "hits": _COUNT,
            "misses": _COUNT,
            "hit_rate": _RATE,
        },
        "adaptive_sweep": {
            "points": _POSITIVE,
            "n_worlds": _POSITIVE,
            "target_ci": _POSITIVE,
            "fixed_seconds": _POSITIVE,
            "adaptive_seconds": _POSITIVE,
            "worlds_budgeted": _COUNT,
            "worlds_spent": _COUNT,
            "worlds_saved": _COUNT,
            "saving_fraction": _RATE,
            "points_retired_early": _COUNT,
            "parity_ok": (bool, lambda v: v is True, "parity_ok must be true"),
        },
        "transport": {
            "n_worlds": _POSITIVE,
            "shards": _POSITIVE,
            "task_bytes_pickle_small": _COUNT,
            "task_bytes_pickle_large": _COUNT,
            "task_bytes_shm_small": _COUNT,
            "task_bytes_shm_large": _COUNT,
            "task_bytes_o1": (bool, lambda v: v is True, "task_bytes_o1 must be true"),
            "op_pickle_seconds": _POSITIVE,
            "op_shm_seconds": _POSITIVE,
            "op_speedup": _POSITIVE,
            "parity": (bool, lambda v: v is True, "parity must be true"),
            "e2e": {
                "cores": _POSITIVE,
                "n_worlds": _POSITIVE,
                "pickle_seconds": _POSITIVE,
                "shm_seconds": _POSITIVE,
                "speedup": _POSITIVE,
                "parity": (bool, lambda v: v is True, "parity must be true"),
            },
        },
    },
    "source_lines": _COUNT,
}

#: Sections newer harness versions emit that older committed trajectory
#: points (e.g. BENCH_7.json, pre-adaptive; BENCH_7/8/9 all predate the
#: top-level ``source_lines`` count) legitimately lack — plus the
#: historical ``transport`` section, which only BENCH_9.json carries (the
#: harness no longer emits it since the shared-memory shard transport was
#: removed). A missing optional section is fine; a present one is
#: validated in full.
OPTIONAL_SECTIONS = frozenset(
    {
        "source_lines",
        "benchmarks.adaptive_sweep",
        "benchmarks.batched_vs_loop.stages",
        "benchmarks.batched_vs_loop.single_round",
        "benchmarks.transport",
        "benchmarks.transport.e2e",
    }
)


def _walk(spec: dict[str, Any], payload: Any, path: str, errors: list[str]) -> None:
    if not isinstance(payload, dict):
        errors.append(f"{path or '$'}: expected an object, got {type(payload).__name__}")
        return
    for key in payload:
        if key not in spec:
            errors.append(f"{path}{key}: unknown key")
    for key, rule in spec.items():
        here = f"{path}{key}"
        if key not in payload:
            if here not in OPTIONAL_SECTIONS:
                errors.append(f"{here}: missing")
            continue
        value = payload[key]
        if isinstance(rule, dict):
            _walk(rule, value, here + ".", errors)
            continue
        expected, check, description = rule
        # bool is an int subclass; only accept it where bool is asked for.
        if isinstance(value, bool) and expected is not bool:
            errors.append(f"{here}: expected {description}, got a boolean")
            continue
        if not isinstance(value, expected):
            errors.append(
                f"{here}: expected {description}, got {type(value).__name__}"
            )
            continue
        if check is not None and not check(value):
            errors.append(f"{here}: expected {description}, got {value!r}")


def validate(document: Any) -> list[str]:
    """All schema violations in ``document`` (empty means valid)."""
    errors: list[str] = []
    _walk(BENCH_SCHEMA, document, "", errors)
    return errors


def validate_file(path: str) -> list[str]:
    try:
        document = json.loads(Path(path).read_text())
    except FileNotFoundError:
        return [f"{path}: file not found"]
    except json.JSONDecodeError as error:
        return [f"{path}: not valid JSON ({error})"]
    return validate(document)


def main(argv: Optional[list[str]] = None) -> int:
    paths = argv if argv is not None else sys.argv[1:]
    if not paths:
        print("usage: bench_schema.py BENCH_FILE.json [...]", file=sys.stderr)
        return 2
    status = 0
    for path in paths:
        errors = validate_file(path)
        if errors:
            status = 1
            for error in errors:
                print(f"error: {path}: {error}", file=sys.stderr)
        else:
            print(f"ok: {path}")
    return status


if __name__ == "__main__":
    raise SystemExit(main())
