"""Peak memory of a fresh process serving a list of CLI requests.

    python3 bench/memprobe.py '[["2etb", "--input", "g.txt", "--format", "json"], ...]'

Imports twinblocks from the checkout's ``src/``, runs each request in turn
and prints one JSON line: how far the requests raised the process's peak
resident set size above its resident set size after the import, in KiB,
and, per request, its exit code and output digest.

The sizes are Linux's ``VmRSS`` and ``VmHWM`` of ``/proc/self/status``.
``getrusage``'s ``ru_maxrss`` will not do: a process started with
fork/vfork and exec inherits its parent's peak there.
"""
from __future__ import annotations

import gc
import json
import sys

from run import digest, import_package, request


def status_kb(field: str) -> int:
    """A ``kB`` field of ``/proc/self/status``, such as ``VmHWM``."""
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith(field + ":"):
                return int(line.split()[1])
    raise RuntimeError(f"/proc/self/status has no {field}")


def main() -> int:
    cli = import_package().cli
    argvs = json.loads(sys.argv[1])
    gc.collect()
    before = status_kb("VmRSS")
    runs = []
    for argv in argvs:
        _elapsed, rc, out = request(cli, argv)
        runs.append([rc, digest(out) if rc == 0 else f"exit {rc}"])
    print(json.dumps({"growth_kb": status_kb("VmHWM") - before, "runs": runs}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
