"""Train the fixed cascade the `scan` workload runs on.

Run once from the repository root:

    python3 perfbench/make_cascade.py

It rebuilds the shipped synthetic corpus (seed 0: 400 positive windows and
900 pool images of 96x96, the `synth` CLI defaults), trains it with the
acceptance configuration (15 stages requested, min detection 0.999, max FP
0.5, at most 30 weak classifiers per stage, feature subsample 0.06, 300
negatives per stage, seed 7), and writes the cascade, its sha-256, and its
config and training log under perfbench/data/. The scan workload refuses
to run when the cascade's digest differs, so detection figures do not drift
when the trainer changes. Training takes about four minutes on two cores.
"""

from __future__ import annotations

import hashlib
import json
import sys
import time
from dataclasses import asdict
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

import numpy as np  # noqa: E402

from trapnode.cascade import cascade_to_json  # noqa: E402
from trapnode.synthetic import (synth_negative_images,  # noqa: E402
                                synth_positive_windows)
from trapnode.trainer import TrainConfig, train_cascade  # noqa: E402

CORPUS = {"seed": 0, "positives": 400, "negatives": 900, "neg_size": 96}
CONFIG = TrainConfig(num_stages=15, min_detection_rate=0.999, max_fp_rate=0.5,
                     max_weak_per_stage=30, feature_subsample=0.06,
                     negatives_per_stage=300, seed=7)


def main() -> int:
    rng = np.random.default_rng(CORPUS["seed"])
    pos = synth_positive_windows(CORPUS["positives"], rng)
    neg = synth_negative_images(CORPUS["negatives"], CORPUS["neg_size"],
                                CORPUS["neg_size"], rng)
    start = time.perf_counter()
    result = train_cascade(pos, neg, CONFIG)
    elapsed = time.perf_counter() - start
    text = cascade_to_json(result.cascade)
    digest = hashlib.sha256(text.encode("ascii")).hexdigest()
    data = BENCH_DIR / "data"
    (data / "bench_cascade.json").write_text(text, encoding="ascii")
    (data / "bench_cascade.sha256").write_text(
        f"{digest}  bench_cascade.json\n", encoding="ascii")
    meta = {
        "corpus": CORPUS,
        "train_config": asdict(CONFIG),
        "stages": len(result.cascade.stages),
        "weak_classifiers": result.cascade.num_weak(),
        "pool_exhausted": result.pool_exhausted,
        "train_log": result.log_text().splitlines(),
        "train_s_when_made": round(elapsed, 1),
    }
    (data / "bench_cascade_config.json").write_text(
        json.dumps(meta, indent=2) + "\n", encoding="ascii")
    print(f"{len(result.cascade.stages)} stages, {result.cascade.num_weak()} "
          f"weak classifiers, sha256 {digest}, {elapsed:.1f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
