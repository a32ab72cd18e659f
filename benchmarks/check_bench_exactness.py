"""Perf-smoke exactness gate over ``BENCH_evaluation.json``.

The benchmarks are informational (wall-clock ratios flake on shared
runners), but the *exactness* flags they record are correctness claims:
tape results bit-identical to the seed loop, extensional == intensional
Fractions across the conjecture suite, serving bit-for-float equal to
the single-threaded batch path.  This script walks the JSON and fails
(exit 1) if any flag whose name ends in ``_identical`` or starts with
``bit_identical`` — at any nesting depth — is false, so an exactness
regression can never land behind a green-but-ignored bench step.

    PYTHONPATH=src python benchmarks/check_bench_exactness.py \
        [path/to/BENCH_evaluation.json]
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

DEFAULT_PATH = Path(__file__).resolve().parents[1] / "BENCH_evaluation.json"

#: Flags that must be *present* (a silently dropped exactness claim is
#: as bad as a false one): the thread/process backend identity, the
#: deterministic-degradation identity and the grounded plan tapes'
#: identity with the plan interpreters, by dotted path.
REQUIRED_FLAGS = (
    "serving.backends_identical",
    "resilience.degraded_identical",
    "extensional.grounded_identical",
    "lifted.lifted_identical",
    "lifted.h_parity_identical",
    "lifted.serving_backends_identical",
    "lifted.grounded_identical",
    "replication.recovered_identical",
    "gateway.recovered_identical",
)


def is_exactness_flag(key: str) -> bool:
    return key.endswith("_identical") or key.startswith("bit_identical")


def collect_flags(node, prefix=""):
    """Yield ``(dotted_path, value)`` for every exactness flag in the
    document, at any nesting depth (dicts and lists)."""
    if isinstance(node, dict):
        for key, value in node.items():
            path = f"{prefix}.{key}" if prefix else str(key)
            if is_exactness_flag(str(key)):
                yield path, value
            else:
                yield from collect_flags(value, path)
    elif isinstance(node, list):
        for index, value in enumerate(node):
            yield from collect_flags(value, f"{prefix}[{index}]")


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    path = Path(argv[0]) if argv else DEFAULT_PATH
    if not path.exists():
        print(f"exactness gate: {path} not found", file=sys.stderr)
        return 1
    document = json.loads(path.read_text())
    flags = list(collect_flags(document))
    if not flags:
        print(
            f"exactness gate: no *_identical flags found in {path}",
            file=sys.stderr,
        )
        return 1
    failed = [(flag, value) for flag, value in flags if value is not True]
    present = {flag for flag, _ in flags}
    missing = [flag for flag in REQUIRED_FLAGS if flag not in present]
    for flag, value in sorted(flags):
        marker = "ok " if value is True else "FAIL"
        print(f"  [{marker}] {flag} = {value}")
    for flag in missing:
        print(f"  [MISS] {flag} (required, not recorded)")
    if missing:
        print(
            f"exactness gate: {len(missing)} required flags missing",
            file=sys.stderr,
        )
        return 1
    if failed:
        print(
            f"exactness gate: {len(failed)} of {len(flags)} flags not true",
            file=sys.stderr,
        )
        return 1
    print(f"exactness gate: all {len(flags)} flags true")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
