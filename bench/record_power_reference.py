"""Record the reference power curve that the sim-p100 output check compares against.

Runs every scenario of configs/power_p100.json serially with REPLICATIONS
replications and writes bench/power_reference.json: the rejection count at
each delta. The check treats these counts as a binomial sample of the true
power, so it tolerates any change that keeps the test's law, including a
different random stream. Run from the repository root:

    python3 bench/record_power_reference.py
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from twosample import config_from_dict, run_power_curve  # noqa: E402

REFERENCE_SEED = 20250819
REPLICATIONS = 2000
SIM_CONFIG = HERE.parent / "configs" / "power_p100.json"


def main():
    cells = []
    for item in json.loads(SIM_CONFIG.read_text()):
        config = config_from_dict(dict(item, replications=REPLICATIONS, seed=REFERENCE_SEED))
        for row in run_power_curve(config, threads=1):
            cells.append(
                {
                    "scenario_id": row.scenario_id,
                    "delta": row.delta,
                    "rejections": round(row.reject_frac * row.replications),
                    "replications": row.replications,
                }
            )
            print(f"{row.scenario_id} delta={row.delta}: reject_frac {row.reject_frac}")
    payload = {"seed": REFERENCE_SEED, "cells": cells}
    (HERE / "power_reference.json").write_text(json.dumps(payload, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
