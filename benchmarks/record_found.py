"""Record which random points of the geometry workload the line search
certifies, so that later runs can require that they still are.

    python3 benchmarks/record_found.py

Membership and the search are invariant under the seeded symmetries the
workload applies, so one seed records the answer for every seed.  Writes
benchmarks/geometry_found.json.
"""

import json
import sys
from pathlib import Path

import inputs

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from boxlim import line_contains_nd, q  # noqa: E402


def main() -> None:
    found = []
    for kind, index, (x, y, z) in (
        item for item in inputs.geometry_pool(0) if item[0].startswith("nf")
    ):
        vx, vy, vz = (tuple(q(c) for c in v) for v in (x, y, z))
        if line_contains_nd(vx, vy, vz):
            found.append(index)
    record = {"structure_seed": inputs.STRUCTURE_SEED, "found_nf_indices": found}
    with open(HERE / "geometry_found.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    print(f"{len(found)} of the random points certified: {found}")


if __name__ == "__main__":
    main()
