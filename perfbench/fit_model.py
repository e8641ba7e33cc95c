"""Build step: fit the served pipeline and save it to ``argv[1]``.

Run by ``harness.ensure_model`` in its own process, with its own cache
directory, once per source tree.
"""

from __future__ import annotations

import sys

from harness import (
    SERVE_AUTOML,
    SERVE_DATASET,
    SERVE_FIT_SEED,
    SERVE_MAX_MODELS,
    SERVE_SCALE,
    use_source_tree,
)


def main(path: str) -> None:
    use_source_tree()
    from repro.data import load_dataset, split_dataset
    from repro.matching import EMPipeline
    from repro.persistence import save_model

    splits = split_dataset(load_dataset(SERVE_DATASET, scale=SERVE_SCALE))
    pipeline = EMPipeline(
        automl=SERVE_AUTOML, seed=SERVE_FIT_SEED, max_models=SERVE_MAX_MODELS
    )
    pipeline.fit(splits.train, splits.valid)
    save_model(pipeline, path)


if __name__ == "__main__":
    main(sys.argv[1])
