"""Machine reference figures, provenance and memory preflight.

Probes run in their own process, one at a time, so their memory never
adds to a workload's:

    python3 perfbench/machine.py copy-bw --bytes N
    python3 perfbench/machine.py load-rss FILE.qtf4

Each prints one JSON line.  The copy probe counts bytes read plus bytes
written (the STREAM "copy" convention).
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

MIB = 1 << 20
_CACHE_DIR = Path("/sys/devices/system/cpu/cpu0/cache")
_SUFFIX = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}


def last_level_cache_bytes():
    """Size of the highest cache level the kernel reports, or None."""
    best = (0, None)
    for index in sorted(_CACHE_DIR.glob("index*")):
        try:
            level = int((index / "level").read_text())
            text = (index / "size").read_text().strip()
        except (OSError, ValueError):
            continue
        scale = _SUFFIX.get(text[-1:].upper(), 1)
        digits = text[:-1] if text[-1:].upper() in _SUFFIX else text
        if digits.isdigit() and level >= best[0]:
            best = (level, int(digits) * scale)
    return best[1]


def copy_array_bytes():
    """Bandwidth array size: four times the last-level cache (1 GiB if unknown)."""
    llc = last_level_cache_bytes()
    return 4 * llc if llc else 1 << 30


def available_bytes():
    """MemAvailable from /proc/meminfo, or None where it cannot be read."""
    try:
        with open("/proc/meminfo", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("MemAvailable:"):
                    return int(line.split()[1]) * 1024
    except (OSError, ValueError, IndexError):
        pass
    return None


def preflight(need_bytes, what):
    """Refuse to start work that would need more memory than is available.

    The machine has no swap, so running short ends in the OOM killer; a
    clear refusal is better.  Keeps 512 MiB in reserve.
    """
    avail = available_bytes()
    if avail is not None and avail < need_bytes + 512 * MIB:
        raise MemoryError(
            f"{what} needs about {need_bytes / MIB:.0f} MiB plus a 512 MiB reserve, "
            f"but only {avail / MIB:.0f} MiB is available; not starting")


def git_revision(root):
    """Commit of a git checkout at ``root``, read from .git; None elsewhere."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest(root):
    """sha256 over the qtfa sources, identifying the code that was measured."""
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "qtfa").glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def provenance(root):
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "QTF_THREADS": os.environ.get("QTF_THREADS"),
        "git_revision": git_revision(root),
        "source_digest": source_digest(root),
        "last_level_cache_bytes": last_level_cache_bytes(),
    }


def copy_bandwidth(nbytes, reps=5):
    import numpy as np

    src = np.ones(nbytes // 8)
    dst = np.empty_like(src)
    np.copyto(dst, src)  # fault in every page before timing
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        np.copyto(dst, src)
        times.append(time.perf_counter() - t0)
    return 2 * src.nbytes / statistics.median(times)


def load_rss_growth(path):
    """Growth of peak RSS, in MiB, while qtfa.load_field reads ``path``."""
    sys.path.insert(0, str(Path.cwd() / "src"))
    import qtfa

    before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    qtfa.load_field(path)
    return (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before) / 1024.0


def main(argv):
    if argv[:1] == ["copy-bw"] and len(argv) == 3 and argv[1] == "--bytes":
        nbytes = int(argv[2])
        print(json.dumps({"bytes_per_s": copy_bandwidth(nbytes), "array_bytes": nbytes}))
        return 0
    if argv[:1] == ["load-rss"] and len(argv) == 2:
        print(json.dumps({"rss_growth_mb": load_rss_growth(argv[1])}))
        return 0
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
