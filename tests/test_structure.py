"""Structural guards: mechanisms that must live in exactly one module.

Worker processes and shared-memory segments both have one owner,
:mod:`repro.parallel.shm` — its ``SharedMemoryExecutor`` is the only spawn
pool and its ``SharedSegment`` / ``SegmentLayout`` the only segment layer
and buffer format.  A second pool or a second transport elsewhere in the
package fails these tests.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import List

import repro

PACKAGE = Path(repro.__file__).resolve().parent
OWNER = "parallel/shm.py"

#: Names whose use starts worker processes.
_PROCESS_NAMES = {"ProcessPoolExecutor", "get_context"}


def _shared_memory_imports(tree: ast.AST) -> List[int]:
    """Line numbers of every import of ``multiprocessing.shared_memory``."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            if any(a.name.startswith("multiprocessing.shared_memory") for a in node.names):
                lines.append(node.lineno)
        elif isinstance(node, ast.ImportFrom):
            if node.module == "multiprocessing.shared_memory" or (
                node.module == "multiprocessing"
                and any(a.name == "shared_memory" for a in node.names)
            ):
                lines.append(node.lineno)
    return lines


def _process_pool_uses(tree: ast.AST) -> List[int]:
    """Line numbers that name a worker-process factory."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and node.id in _PROCESS_NAMES:
            lines.append(node.lineno)
        elif isinstance(node, ast.Attribute) and node.attr in _PROCESS_NAMES:
            lines.append(node.lineno)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            if any(a.name.split(".")[-1] in _PROCESS_NAMES for a in node.names):
                lines.append(node.lineno)
    return lines


def _offenders(finder) -> List[str]:
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        relative = path.relative_to(PACKAGE).as_posix()
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found.extend(f"{relative}:{line}" for line in finder(tree))
    return found


def test_only_shm_imports_shared_memory():
    offenders = _offenders(_shared_memory_imports)
    assert offenders, "the shared-memory layer itself must still import it"
    assert {o.split(":")[0] for o in offenders} == {OWNER}, offenders


def test_only_shm_creates_worker_processes():
    offenders = _offenders(_process_pool_uses)
    assert offenders, "the executor itself must still create its pool"
    assert {o.split(":")[0] for o in offenders} == {OWNER}, offenders
