"""Write the reference outputs of every workload at the reference seed.

    python3 bench/make_reference.py

Runs each workload's CLI command once and stores its CSV and manifest under
``bench/reference/``, minus the manifest's wall-clock duration.  Regenerate
only when the output contract changes on purpose, and say why in the change.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from run import import_program


def main() -> int:
    import_program()
    from cavitychain.cli import main as cli_main
    from workloads import REFERENCE_DIR, REFERENCE_SEED, WORKLOADS

    REFERENCE_DIR.mkdir(exist_ok=True)
    for name, workload in WORKLOADS.items():
        invocation = workload.invocation(REFERENCE_SEED)
        config = REFERENCE_DIR / f"{name}.cfg"
        config.write_text(invocation.config)
        prefix = REFERENCE_DIR / name
        code = cli_main(invocation.argv(str(config), str(prefix)))
        config.unlink()
        if code != 0:
            print(f"{name}: command exited with {code}", file=sys.stderr)
            return 1
        manifest_path = Path(f"{prefix}.manifest.json")
        manifest = json.loads(manifest_path.read_text())
        del manifest["duration_seconds"]
        manifest_path.write_text(json.dumps(manifest, indent=2) + "\n")
        print(f"{name}: wrote {prefix}.csv")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
