"""Set-up probe: a fresh interpreter imports segdict and ingests a beat CSV
into a beat matrix, as `segdict run-experiment` does before it trains.

    python3 perfbench/probe.py BEATS.csv TARGET_LEN
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from segdict import build_beat_matrix, load_dataset  # noqa: E402

print(build_beat_matrix(load_dataset(sys.argv[1]), int(sys.argv[2])).count)
