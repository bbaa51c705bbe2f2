"""Write provenance.json: the machine, and each workload's parameters and
dataset digest.

    python3 perfbench/provenance.py [SEED]

The plan and init-bench workloads run on a fixed tower, so their digest
holds for every seed; build-76 draws its labels from the workload seed, so
its digest is recorded for SEED (default 0).
"""

import dataclasses
import json
import sys
from pathlib import Path

from run import SRC, WORKLOADS, provenance

sys.path.insert(0, str(SRC))

from dsplan.geomsim import build_dataset, generate_synthetic  # noqa: E402
from dsplan.model import dataset_content_digest  # noqa: E402


def main(argv) -> int:
    seed = int(argv[0]) if argv else 0
    doc = {"machine": provenance(), "workloads": {}}
    digests = {}
    for wl in WORKLOADS.values():
        tower = wl.tower(seed)
        key = json.dumps(tower, sort_keys=True)
        if key not in digests:
            digests[key] = dataset_content_digest(
                build_dataset(*generate_synthetic(**tower)))
        doc["workloads"][wl.name] = {
            "parameters": dataclasses.asdict(wl),
            "parts": wl.parts,
            "tower": tower,
            "dataset_content_digest": digests[key],
        }
    out = Path(__file__).with_name("provenance.json")
    out.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n",
                   encoding="utf-8")
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
