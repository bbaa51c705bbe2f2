"""Generate a screw tower with geomsim and save it as a dataset file.

    python3 perfbench/tower.py SRC_DIR OUT_FILE '{"n_layers": 7, ...}'

The JSON object holds the keyword arguments of ``generate_synthetic``.  The
benchmark runs this in a child process, so that the geomsim build does not
count toward the peak memory of the process it measures.
"""

import json
import sys


def main(argv) -> int:
    src, out, tower = argv
    sys.path.insert(0, src)
    from dsplan.geomsim import build_dataset, generate_synthetic
    from dsplan.model import save_dataset

    save_dataset(build_dataset(*generate_synthetic(**json.loads(tower))), out)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
