"""Record ``golden.json``, the digests every benchmark pass compares to.

From the repository root:

    python3 perfbench/golden.py

Record only from a commit whose outputs are the reference: a pass
whose outputs differ from these digests fails its checks.
"""

from __future__ import annotations

import json
import shutil

from run import GOLDEN, OUT, import_program


def main() -> None:
    import_program()
    import workloads

    outdir = OUT / "golden"
    outdir.mkdir(parents=True, exist_ok=True)
    try:
        golden = workloads.record_golden(outdir)
    finally:
        shutil.rmtree(outdir, ignore_errors=True)
    GOLDEN.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {GOLDEN}")


if __name__ == "__main__":
    main()
