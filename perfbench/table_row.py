"""The ``table-row`` workload: one row of the paper's Table 3.

The row is computed in a child process exactly as
``ExperimentRunner.run_adapted_automl`` computes it: hybrid tokenizer +
ALBERT + mean adapter, pipelined with AutoSklearn, AutoGluon and H2O on
one structured dataset, with fresh caches. The child reports each
scored cell on its stdout; the parent times the process from launch,
reads its peak RSS when reaping it, and re-scores every cell against the
generator's ground truth with its own F1 code.

Run as ``python3 perfbench/table_row.py --child [--trace] [--setup-only]``
it is that child.
"""

from __future__ import annotations

import functools
import json
import os
import statistics
import subprocess
import sys
import time

from harness import (
    ROOT,
    BenchError,
    Workdir,
    child_env,
    dir_size,
    f1_score,
    phase_record,
    use_source_tree,
)
from layers import Ledger, embed_with_store

TABLE_DATASET = "S-FZ"
TABLE_SCALE = 0.02  # 450 pairs, the registry's minimum size
TABLE_MAX_MODELS = 2
TABLE_SYSTEMS = ("autosklearn", "autogluon", "h2o")
TABLE_TOKENIZER = "hybrid"
TABLE_EMBEDDER = "albert"
#: Processes that set up the row per run; ``setup_s`` is their median
#: (all but the last stop once the splits exist).
SETUP_LAUNCHES = 3


# ------------------------------------------------------------------ child


def _emit(**record) -> None:
    sys.stdout.write(json.dumps(record) + "\n")
    sys.stdout.flush()


def _instrument(ledger: Ledger | None, captured: list) -> None:
    """Wrap the layers' public functions in this process.

    Predictions of ``EMPipeline.predict`` are always captured (the
    parent re-scores them); timing wrappers are installed only when a
    ``ledger`` is given.
    """
    import repro.experiments.runner as runner_module
    from repro.adapter import TransformerEmbedder
    from repro.adapter.combiner import MeanCombiner
    from repro.adapter.tokenizer import HybridTokenizer
    from repro.automl.base import AutoMLSystem
    from repro.matching import EMPipeline

    predict = EMPipeline.predict

    def capture(self, dataset):
        labels = predict(self, dataset)
        captured.append(labels)
        return labels

    EMPipeline.predict = capture
    if ledger is None:
        return

    def timed(name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return ledger.timed(name, fn, *args, **kwargs)
        return wrapper

    runner_module.load_dataset = timed("data.generate", runner_module.load_dataset)
    runner_module.split_dataset = timed("data.split", runner_module.split_dataset)
    HybridTokenizer.sequences = timed("adapter.tokenize", HybridTokenizer.sequences)
    MeanCombiner.combine_dataset = timed("adapter.combine",
                                         MeanCombiner.combine_dataset)
    AutoMLSystem.predict_proba = timed("automl.predict_proba",
                                       AutoMLSystem.predict_proba)
    AutoMLSystem.predict = timed("automl.predict", AutoMLSystem.predict)
    embed_pairs = TransformerEmbedder.embed_pairs

    def embed(self, sequences, store=None):
        return embed_with_store(functools.partial(embed_pairs, self),
                                sequences, store, ledger)

    TransformerEmbedder.embed_pairs = embed
    fit = AutoMLSystem.fit

    def fit_timed(self, *args, **kwargs):
        result = ledger.timed(f"automl.fit.{self.name}", fit, self, *args,
                              **kwargs)
        ledger.counts[f"automl.candidates.{self.name}"] = len(
            self.report_.leaderboard)
        return result

    AutoMLSystem.fit = fit_timed


def child(trace: bool, setup_only: bool) -> None:
    use_source_tree()
    from repro.experiments.config import ExperimentConfig
    from repro.experiments.runner import ExperimentRunner

    ledger = Ledger() if trace else None
    captured: list = []
    _instrument(ledger, captured)
    runner = ExperimentRunner(
        ExperimentConfig(scale=TABLE_SCALE, max_models=TABLE_MAX_MODELS))
    runner.splits(TABLE_DATASET)
    _emit(event="setup")
    if setup_only:
        return
    for system in TABLE_SYSTEMS:
        result = runner.run_adapted_automl(
            system, TABLE_DATASET, TABLE_TOKENIZER, TABLE_EMBEDDER,
            budget_hours=1.0)
        _emit(event="cell", system=system, f1=result.f1,
              predictions=[int(v) for v in captured[-1]])
    if ledger is not None:
        _emit(event="layers", seconds=ledger.seconds, counts=ledger.counts)


# ----------------------------------------------------------------- parent


def _launch(work, tag: str, trace: bool, setup_only: bool):
    """Run one child; returns (events with arrival times, rss_mb, cache dir)."""
    args = [sys.executable, str(os.path.abspath(__file__)), "--child"]
    if trace:
        args.append("--trace")
    if setup_only:
        args.append("--setup-only")
    cache = work / f"{tag}-cache"
    log = (work / f"{tag}.log").open("wb")
    launched = time.perf_counter()
    proc = subprocess.Popen(args, cwd=ROOT, env=child_env(cache),
                            stdout=subprocess.PIPE, stderr=log)
    events = []
    try:
        for line in proc.stdout:
            arrived = time.perf_counter()
            try:
                event = json.loads(line)
            except ValueError:
                continue
            if isinstance(event, dict) and "event" in event:
                events.append((arrived - launched, event))
        _pid, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        if proc.returncode is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
        log.close()
    if proc.returncode != 0:
        tail = (work / f"{tag}.log").read_text()[-2000:]
        raise BenchError(f"table child exited {proc.returncode}:\n{tail}")
    return events, usage.ru_maxrss / 1024.0, cache


def _scored_row(tag: str, events, labels, trivial: float,
                failures: list[str]) -> dict:
    """Check one row child's cells; returns its setup_s, row_s, F1s, events."""
    by_kind: dict[str, list] = {}
    for at, event in events:
        by_kind.setdefault(event["event"], []).append((at, event))
    cells = by_kind.get("cell", [])
    if [e["system"] for _at, e in cells] != list(TABLE_SYSTEMS):
        raise BenchError("the table child did not score every cell")
    setup_s = by_kind["setup"][0][0]
    phase_record(f"setup-{tag}", 1, 0, setup_s=round(setup_s, 4))
    f1s = []
    for at, cell in cells:
        mine = f1_score(labels, cell["predictions"])
        ok = abs(100.0 * mine - cell["f1"]) <= 1e-9 and mine > trivial
        if not ok:
            failures.append(f"{cell['system']}: runner F1 {cell['f1']!r}, "
                            f"recomputed {100 * mine!r}, trivial {100 * trivial!r}")
        phase_record(f"{tag}:{cell['system']}", 1, 0, f1_checked=ok,
                     at_s=round(at, 3), f1=round(cell["f1"], 4))
        f1s.append(mine)
    return {"setup_s": setup_s, "row_s": cells[-1][0], "f1s": f1s,
            "by_kind": by_kind}


def run_table_row(seed: int, seconds: int, trace: bool) -> dict:
    """One run of ``table-row``.

    The row is the paper's fixed experiment on the registry dataset, so
    neither ``seed`` nor ``seconds`` changes the work; both are accepted
    for a uniform command line. The traced run computes the row twice,
    untraced and then traced, so the difference is the tracing overhead.
    """
    from repro.data import load_dataset, split_dataset

    splits = split_dataset(load_dataset(TABLE_DATASET, scale=TABLE_SCALE))
    labels = [int(v) for v in splits.test.labels]
    pairs = len(splits.train) + len(splits.valid) + len(splits.test)
    base_rate = sum(labels) / len(labels)
    trivial = 2 * base_rate / (1 + base_rate)
    failures: list[str] = []
    setups = []
    rows = {}
    with Workdir("table-row") as work:
        for k in range(0 if trace else SETUP_LAUNCHES - 1):
            events, _rss, _cache = _launch(work, f"setup{k}", False, True)
            setups.append(events[0][0])
            phase_record(f"setup{k}", 1, 0, setup_s=round(events[0][0], 4))
        for tag in ("row", "traced") if trace else ("row",):
            events, rss_mb, cache = _launch(work, tag, tag == "traced", False)
            rows[tag] = _scored_row(tag, events, labels, trivial, failures)
            rows[tag].update(rss_mb=rss_mb, disk=dir_size(cache))
    print(json.dumps({"check": "cell F1 == recomputed F1 > all-match F1",
                      "trivial_f1": round(trivial, 4)}), flush=True)
    row = rows["row"]
    setups.append(row["setup_s"])
    attempted = len(setups) + sum(len(r["f1s"]) for r in rows.values())
    if not trace:
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "latency_ms": (1000.0 * row["row_s"], "ms"),
            "pairs_per_s": (pairs / row["row_s"], "1/s"),
            "test_f1": (statistics.fmean(row["f1s"]), "ratio"),
            "rss_mb": (row["rss_mb"], "MB"),
        }
        return {"failures": failures, "attempted": attempted, "failed": 0,
                "metrics": metrics}
    traced = rows["traced"]
    layers = traced["by_kind"]["layers"][0][1]
    seconds_by, counts = layers["seconds"], layers["counts"]
    disk_files, disk_mb = traced["disk"]

    def row_ms(name: str) -> float:
        # One row is the workload's one operation: per-row = total.
        return 1000.0 * seconds_by.get(name, 0.0)

    metrics = {
        # The row runs no serving code and loads no saved model.
        "serving.overhead_ms": (0.0, "ms"),
        "serving.engine_p50_ms": (0.0, "ms"),
        "serving.requests_per_flush": (0, "count"),
        "serving.pairs_per_flush": (0, "count"),
        "serving.validate_ms": (0.0, "ms"),
        "persistence.load_s": (0.0, "s"),
        "adapter.tokenize_ms": (row_ms("adapter.tokenize"), "ms"),
        "adapter.embed_ms": (row_ms("adapter.embed"), "ms"),
        "adapter.combine_ms": (row_ms("adapter.combine"), "ms"),
        "entity_store.load_ms": (row_ms("entity_store.load"), "ms"),
        "entity_store.save_ms": (row_ms("entity_store.save"), "ms"),
        "automl.predict_proba_ms": (row_ms("automl.predict_proba"), "ms"),
        "automl.predict_ms": (row_ms("automl.predict"), "ms"),
        "trace.overhead_ms": (
            1000.0 * (traced["row_s"] - row["row_s"]), "ms"),
        "entity_store.hits": (counts.get("entity_store.hits", 0), "count"),
        "entity_store.misses": (counts.get("entity_store.misses", 0), "count"),
        "entity_store.writes": (counts.get("entity_store.writes", 0), "count"),
        "entity_store.disk_files": (disk_files, "count"),
        "entity_store.disk_mb": (disk_mb, "MB"),
        "data.generate_s": (seconds_by.get("data.generate", 0.0), "s"),
        "data.split_s": (seconds_by.get("data.split", 0.0), "s"),
    }
    for system in TABLE_SYSTEMS:
        metrics[f"automl.fit_s.{system}"] = (
            seconds_by.get(f"automl.fit.{system}", 0.0), "s")
    for system in TABLE_SYSTEMS:
        metrics[f"automl.candidates.{system}"] = (
            counts.get(f"automl.candidates.{system}", 0), "count")
    return {"failures": failures, "attempted": attempted, "failed": 0,
            "metrics": metrics}


if __name__ == "__main__":
    if "--child" not in sys.argv[1:]:
        raise SystemExit("run the benchmark through perfbench/run.py")
    child(trace="--trace" in sys.argv[1:],
          setup_only="--setup-only" in sys.argv[1:])
