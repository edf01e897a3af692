"""Record the emit workload's known answers: the SHA-256 of every output it
can ask for, written to ``perfbench/digests.json``.

    python3 perfbench/record_digests.py

The table fixes the bytes of the commit it was recorded at; re-record it
only when a change to the output bytes is intended.
"""

from __future__ import annotations

import hashlib
import json
import tempfile
from pathlib import Path

import run
import workloads as wl


def main() -> None:
    mods = run.import_package()
    digests = {}
    with tempfile.TemporaryDirectory(dir=run.ROOT) as tmp:
        out = Path(tmp) / "out"
        for argv in wl.all_emit_argvs():
            code = wl.run_cli(mods, argv + ["--out", str(out)])
            if code != wl.EXIT_OK:
                raise SystemExit(f"{wl.emit_key(argv)}: exit {code}")
            digests[wl.emit_key(argv)] = hashlib.sha256(out.read_bytes()).hexdigest()
    wl.DIGESTS_PATH.write_text(json.dumps(digests, indent=0, sort_keys=True) + "\n",
                               encoding="utf-8")
    print(f"{len(digests)} digests -> {wl.DIGESTS_PATH}")


if __name__ == "__main__":
    main()
