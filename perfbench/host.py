"""Host stamp attached to every result: what machine produced a number."""

from __future__ import annotations

import os
import platform
import resource
from pathlib import Path


def _read(path: str) -> str | None:
    try:
        return Path(path).read_text().strip()
    except OSError:
        return None


def _cpu_model() -> str:
    text = _read("/proc/cpuinfo") or ""
    for line in text.splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or "unknown"


def _cache_sizes() -> dict[str, str]:
    sizes: dict[str, str] = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")) if base.is_dir() else ():
        level = _read(str(index / "level"))
        kind = _read(str(index / "type"))
        size = _read(str(index / "size"))
        if level in ("2", "3") and kind in ("Unified", "Data") and size:
            sizes[f"L{level}"] = size
    return sizes


def _git_commit(root: Path) -> str:
    head = _read(str(root / ".git" / "HEAD"))
    if head is None:
        return "unknown (not a git checkout)"
    if head.startswith("ref: "):
        ref = _read(str(root / ".git" / head[5:]))
        if ref:
            return ref
        packed = _read(str(root / ".git" / "packed-refs")) or ""
        for line in packed.splitlines():
            if line.endswith(head[5:]):
                return line.split()[0]
        return "unknown"
    return head


def host_stamp(
    root: Path, seed: int, cores: dict[str, int], usable: list[int]
) -> dict[str, object]:
    import numpy

    return {
        "cpu": _cpu_model(),
        "nproc": os.cpu_count(),
        "usable_cores": usable,
        "cache": _cache_sizes(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": _git_commit(root),
        "seed": seed,
        "pinned": cores,
    }


def usable_cores() -> list[int]:
    return sorted(os.sched_getaffinity(0))


def peak_rss_mb_self() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def pin(core: int) -> None:
    """Pin the calling process to one core."""
    os.sched_setaffinity(0, {core})
