"""Merge the outputs of full-size runs into the stored references.

Every full-size run writes `.bench_work/outputs/<workload>-seed<n>.json`
(input index -> output values).  This script folds them into
`benchmarks/refs/<workload>.json` (seed -> input index -> values), replacing the
entries of the seeds it finds.

    python3 benchmarks/update_refs.py
"""

import json
import re
from pathlib import Path

HERE = Path(__file__).resolve().parent
OUTPUTS = HERE.parent / ".bench_work" / "outputs"
REFS = HERE / "refs"


def main() -> None:
    REFS.mkdir(exist_ok=True)
    for path in sorted(OUTPUTS.glob("*-seed*.json")):
        m = re.fullmatch(r"(\w+)-seed(-?\d+)\.json", path.name)
        if not m:
            continue
        workload, seed = m.groups()
        ref_path = REFS / f"{workload}.json"
        refs = json.loads(ref_path.read_text()) if ref_path.is_file() else {}
        refs[seed] = json.loads(path.read_text())
        ref_path.write_text(json.dumps(refs, sort_keys=True, indent=1) + "\n")
        print(f"{ref_path.name}: seed {seed}, {len(refs[seed])} inputs")


if __name__ == "__main__":
    main()
