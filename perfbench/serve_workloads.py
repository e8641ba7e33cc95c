"""The two serving workloads: ``serve-warm`` and ``serve-cold``.

Both start ``repro-em serve`` on the saved model as a separate process
and drive ``POST /match`` from this process over at most two
connections. ``serve-warm`` sends small requests in an open loop from a
pool the daemon encoded in a warm-up pass; ``serve-cold`` sends larger
requests in a closed loop, each pair built from entities the daemon has
never seen. The traced run replays the same request stream in-process,
layer by layer.
"""

from __future__ import annotations

import json
import os
import statistics
import time

import numpy as np

from harness import (
    SERVE_DATASET,
    SERVE_SCALE,
    BenchError,
    Daemon,
    Workdir,
    dir_size,
    drive,
    ensure_model,
    f1_score,
    latency_summary,
    lateness_summary,
    phase,
)
from layers import Ledger, embed_with_store
from table_row import TABLE_SYSTEMS

#: Daemon launches per run; ``setup_s`` is their median.
SETUP_LAUNCHES = 3

#: Pairs per request when the test split is sent whole: serve-warm's
#: warm-up pass and serve-cold's closing quality pass.
POOL_CHUNK = 15

# serve-warm
WARM_PAIRS_PER_REQUEST = 2
#: Requests/s of the measured phase: low enough that a slow phase of the
#: shared machine does not also build a queue.
WARM_RATE = 20.0
WARM_TAIL_WINDOW = 80  # requests per tail window: p87.5, median of windows
#: Offered rates, 8% apart from 10/s up to about 2000/s.
WARM_LADDER = tuple(round(10.0 * 1.08 ** k, 1) for k in range(70))
WARM_LADDER_START = 60.0  # the scan starts at the first rung at/above this
WARM_LADDER_REQUESTS = 150  # per rung; the tail is then p93.3
WARM_SETTLE_REQUESTS = 40  # at WARM_RATE, after warm-up, not measured
WARM_LIMIT_MS = 100.0  # on a rung's tail (p93.3 of 150)
WARM_LATENESS_GROWTH_MS = 25.0
WARM_LADDER_MISSES = 2  # consecutive failing rungs that end the ladder

# serve-cold
COLD_PAIRS_PER_REQUEST = 4
COLD_REQUESTS_PER_SECOND = 16  # request count = this x --seconds
COLD_TAIL_WINDOW = 64  # requests per tail window: p84.4, median of windows
COLD_DATA_SCALE = 1.0  # 946 pairs per generated batch
COLD_SEED_BASE = 1_000_003  # far from the training seed
COLD_CHECK_PAIRS = 32


# ----------------------------------------------------------------- inputs


def _entity_payload(entity: dict, schema) -> dict:
    payload = {}
    for attribute in schema.attributes:
        value = entity[attribute.name]
        if value is None or isinstance(value, (str, int, float)):
            payload[attribute.name] = value
        else:
            payload[attribute.name] = float(value)
    return payload


def _pairs_of(dataset) -> list[dict]:
    return [
        {"left": _entity_payload(p.left, dataset.schema),
         "right": _entity_payload(p.right, dataset.schema),
         "label": int(p.label)}
        for p in dataset
    ]


def _body(pairs: list[dict]) -> bytes:
    return json.dumps(
        {"pairs": [{"left": p["left"], "right": p["right"]} for p in pairs]}
    ).encode()


def pool_requests() -> tuple[list[dict], list[list[dict]]]:
    """The held-out test split of the served dataset: (pool, requests).

    The requests send the pool once, ``POOL_CHUNK`` pairs each; the F1
    of their served labels is the workload's ``test_f1``.
    """
    from repro.data import load_dataset, split_dataset

    pool = _pairs_of(split_dataset(
        load_dataset(SERVE_DATASET, scale=SERVE_SCALE)).test)
    return pool, [pool[i:i + POOL_CHUNK]
                  for i in range(0, len(pool), POOL_CHUNK)]


def warm_stream(pool: list[dict], seed: int, seconds: int) -> list[list[dict]]:
    """The measured requests of ``serve-warm``: the seed picks their pairs."""
    rng = np.random.default_rng([seed, 1])
    count = int(WARM_RATE * seconds)
    return [[pool[i] for i in rng.integers(0, len(pool),
                                          WARM_PAIRS_PER_REQUEST)]
            for _ in range(count)]


def answered_pairs(outcomes, requests: list[list[dict]]) -> int:
    """Pairs in the requests that were answered with 200."""
    return sum(len(requests[o.index]) for o in outcomes if o.ok)


def cold_inputs(seed: int, seconds: int, probes: int):
    """Fresh pairs for ``serve-cold``: ``probes`` set-up requests + the stream.

    Pairs come from the dataset generator under seeds derived from the
    workload seed (never the training seed). A pair is kept only if
    neither entity appeared before in this run, so every request reaches
    the daemon with entities it has never encoded.
    """
    from repro.data import load_dataset

    need = (probes + COLD_REQUESTS_PER_SECOND * seconds) * COLD_PAIRS_PER_REQUEST
    seen: set[str] = set()
    fresh: list[dict] = []
    batch = 0
    while len(fresh) < need:
        dataset = load_dataset(SERVE_DATASET, scale=COLD_DATA_SCALE,
                               seed=COLD_SEED_BASE + 1000 * seed + batch)
        batch += 1
        for pair in _pairs_of(dataset):
            keys = [json.dumps(pair[side], sort_keys=True)
                    for side in ("left", "right")]
            if any(k in seen for k in keys) or keys[0] == keys[1]:
                continue
            seen.update(keys)
            fresh.append(pair)
    fresh = fresh[:need]
    size = COLD_PAIRS_PER_REQUEST
    requests = [fresh[i:i + size] for i in range(0, need, size)]
    return requests[:probes], requests[probes:]


# ------------------------------------------------------------------ checks


class Served:
    """Every (pair, probability, label) the daemon answered."""

    def __init__(self) -> None:
        self.pairs: list[dict] = []
        self.probabilities: list[float] = []
        self.labels: list[int] = []

    def add(self, outcomes, requests: list[list[dict]]) -> None:
        for outcome in outcomes:
            if not outcome.ok:
                continue
            pairs = requests[outcome.index]
            probabilities = outcome.payload["probabilities"]
            labels = outcome.payload["labels"]
            if len(probabilities) != len(pairs) or len(labels) != len(pairs):
                raise BenchError("response cardinality does not match request")
            self.pairs.extend(pairs)
            self.probabilities.extend(probabilities)
            self.labels.extend(labels)


def served_f1(outcomes, requests: list[list[dict]]) -> float:
    """F1 of the served labels against the generator's ground truth."""
    labels: list[int] = []
    predicted: list[int] = []
    for outcome in outcomes:
        if outcome.ok:
            labels.extend(p["label"] for p in requests[outcome.index])
            predicted.extend(outcome.payload["labels"])
    return f1_score(labels, predicted)


def _dataset(pairs: list[dict]):
    from repro.data.benchmark import dataset_spec
    from repro.data.schema import EMDataset, PairRecord

    spec = dataset_spec(SERVE_DATASET)
    records = [PairRecord(i, dict(p["left"]), dict(p["right"]), p.get("label", 0))
               for i, p in enumerate(pairs)]
    return EMDataset(SERVE_DATASET, spec.make_generator().schema, records,
                     spec.dataset_type)


def check_served(model_path, served: Served, unique: list[dict],
                 failures: list[str], store_check: bool) -> None:
    """Served outputs against an offline ``EMPipeline.predict_proba``.

    ``unique`` holds the distinct pairs to recompute offline; every
    served answer for one of them must match it bit for bit, and every
    served label must be ``probability >= threshold``.
    """
    from repro.adapter import EMAdapter
    from repro.adapter.entity_store import clear_entity_store
    from repro.persistence import load_model

    pipeline = load_model(model_path)
    dataset = _dataset(unique)
    offline = pipeline.predict_proba(dataset)
    expected = {json.dumps([p["left"], p["right"]], sort_keys=True): float(v)
                for p, v in zip(unique, offline)}
    threshold = pipeline.automl.report_.threshold
    compared = 0
    for pair, probability, label in zip(served.pairs, served.probabilities,
                                        served.labels):
        if label != int(probability >= threshold):
            failures.append(f"served label {label} for p={probability!r} "
                            f"at threshold {threshold!r}")
            return
        key = json.dumps([pair["left"], pair["right"]], sort_keys=True)
        if key in expected:
            compared += 1
            if probability != expected[key]:
                failures.append(f"served p={probability!r} != offline "
                                f"{expected[key]!r}")
                return
    if compared == 0:
        failures.append("no served pair was compared with the offline model")
    print(json.dumps({"check": "served == offline predict_proba",
                      "pairs_compared": compared,
                      "labels_checked": len(served.labels)}), flush=True)
    if store_check:
        # The offline call above wrote the sample's records to this
        # process's store; a fresh store instance reads them back from
        # the disk tier, which must reproduce store-off features.
        clear_entity_store()
        parts = (pipeline.adapter.tokenizer, pipeline.adapter.embedder,
                 pipeline.adapter.combiner)
        on = EMAdapter(*parts, cache=False, entity_cache=True).transform(dataset)
        off = EMAdapter(*parts, cache=False, entity_cache=False).transform(dataset)
        if not np.array_equal(on, off):
            failures.append("store-on features differ from store-off features")
        print(json.dumps({"check": "store-on == store-off features",
                          "pairs": len(unique)}), flush=True)


# ---------------------------------------------------------------- phases


def _ready(model, workdir, first_bodies):
    """Launch a daemon and answer its first requests; (daemon, setup_s, outcomes)."""
    daemon = Daemon(model, workdir)
    try:
        outcomes, _ = drive(daemon.port, first_bodies, rate=None, connections=1)
    except BaseException:
        daemon.close()
        raise
    return daemon, time.perf_counter() - daemon.launched, outcomes


def _metrics_delta(before: dict, after: dict) -> dict:
    def counter(payload, name):
        return payload["counters"].get(name, 0)

    flushes = counter(after, "serving.batch.flushes") - counter(
        before, "serving.batch.flushes")
    pairs = counter(after, "serving.batch.fused_pairs") - counter(
        before, "serving.batch.fused_pairs")
    requests = counter(after, "serving.request.count") - counter(
        before, "serving.request.count")
    if flushes <= 0:
        raise BenchError("the daemon reported no batch flushes")
    return {"requests_per_flush": requests / flushes,
            "pairs_per_flush": pairs / flushes}


def _ladder(port: int, pool: list[dict], seed: int, served: Served) -> tuple[float, int]:
    """Find the top passing rung of the fixed rate ladder.

    The scan starts at the first rung at or above ``WARM_LADDER_START``
    and climbs until two consecutive rungs fail; if no rung passed
    it walks down from the start until one does. Returns the achieved
    request rate at the highest passing rung and the requests sent.
    """
    rng = np.random.default_rng([seed, 2])
    attempted = 0

    def rung(rate: float) -> tuple[bool, float]:
        nonlocal attempted
        requests = [[pool[i] for i in rng.integers(0, len(pool),
                                                   WARM_PAIRS_PER_REQUEST)]
                    for _ in range(WARM_LADDER_REQUESTS)]
        outcomes, wall = drive(port, [_body(r) for r in requests], rate=rate)
        served.add(outcomes, requests)
        attempted += len(outcomes)
        latency = latency_summary(outcomes)
        lateness = lateness_summary(outcomes)
        passed = (all(o.ok for o in outcomes)
                  and latency["tail_ms"] < WARM_LIMIT_MS
                  and lateness["growth_ms"] < WARM_LATENESS_GROWTH_MS)
        achieved = len(outcomes) / wall
        phase(f"ladder@{rate:g}", outcomes, passed=passed,
              achieved_rps=round(achieved, 2),
              p50_ms=round(latency["p50_ms"], 2),
              tail_ms=round(latency["tail_ms"], 2),
              lateness_growth_ms=round(lateness["growth_ms"], 2))
        return passed, achieved

    first = next(i for i, rate in enumerate(WARM_LADDER)
                 if rate >= WARM_LADDER_START)
    best, misses = None, 0
    for rate in WARM_LADDER[first:]:
        passed, achieved = rung(rate)
        if passed:
            best, misses = achieved, 0
        else:
            misses += 1
            if misses == WARM_LADDER_MISSES:
                break
    for rate in reversed(WARM_LADDER[:first] if best is None else ()):
        passed, achieved = rung(rate)
        if passed:
            best = achieved
            break
    if best is None:
        raise BenchError("no rung of the rate ladder met the latency limit")
    return best, attempted


def run_serving(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    """One run of ``serve-warm`` or ``serve-cold``."""
    warm = workload == "serve-warm"
    model = ensure_model()
    launches = 1 if trace else SETUP_LAUNCHES
    pool, pool_reqs = pool_requests()
    if warm:
        warmup = pool_reqs
        firsts = [warmup] * launches
        stream = warm_stream(pool, seed, seconds)
    else:
        probes, stream = cold_inputs(seed, seconds, launches)
        warmup = []
        firsts = [[probe] for probe in probes]
    bodies = [_body(r) for r in stream]
    served = Served()
    failures: list[str] = []
    attempted = failed = 0
    metrics: dict = {}
    with Workdir(workload) as work:
        os.environ["REPRO_CACHE_DIR"] = str(work / "client-cache")
        setups = []
        for k in range(launches):
            daemon, setup, outcomes = _ready(
                model, work / f"launch{k}", [_body(r) for r in firsts[k]])
            with daemon:
                setups.append(setup)
                served.add(outcomes, firsts[k])
                attempted += len(outcomes)
                failed += phase(f"setup{k}", outcomes,
                                setup_s=round(setup, 4))["failed"]
                if k < launches - 1:
                    continue
                quality = outcomes
                if warm:
                    settle = stream[:WARM_SETTLE_REQUESTS]
                    outcomes, _ = drive(daemon.port,
                                        [_body(r) for r in settle], WARM_RATE)
                    served.add(outcomes, settle)
                    attempted += len(outcomes)
                    failed += phase("settle", outcomes, **{
                        name: round(value, 3) for name, value in
                        latency_summary(outcomes).items()})["failed"]
                if warm and not trace:
                    max_rps, n = _ladder(daemon.port, pool, seed, served)
                    attempted += n
                    print(json.dumps({"max_rps": max_rps}), flush=True)
                before = daemon.metrics()
                outcomes, wall = drive(daemon.port, bodies,
                                       rate=WARM_RATE if warm else None)
                after = daemon.metrics()
                if not warm and not trace:
                    # serve-cold's quality pass: the test split, sent
                    # after measuring so it does not warm the store.
                    quality, _ = drive(daemon.port,
                                       [_body(r) for r in pool_reqs],
                                       rate=None, connections=1)
                    served.add(quality, pool_reqs)
                    attempted += len(quality)
                    failed += phase("quality", quality)["failed"]
            served.add(outcomes, stream)
            attempted += len(outcomes)
            latency = latency_summary(
                outcomes, WARM_TAIL_WINDOW if warm else COLD_TAIL_WINDOW)
            extra = {"seconds": round(wall, 3),
                     "served_f1": round(served_f1(outcomes, stream), 4), **{
                name: round(value, 3) if isinstance(value, float) else value
                for name, value in latency.items()}}
            if warm:
                extra["rate"] = WARM_RATE
                extra["lateness"] = {name: round(value, 3) for name, value in
                                     lateness_summary(outcomes).items()}
            failed += phase("measured", outcomes, **extra)["failed"]
            disk_files, disk_mb = dir_size(daemon.cache_dir)
        if warm:
            unique = pool
        else:
            step = max(1, len(stream) // COLD_CHECK_PAIRS)
            unique = [stream[i][0] for i in range(0, len(stream), step)]
            unique = unique[:COLD_CHECK_PAIRS]
        check_served(model, served, unique, failures, store_check=not warm)
        if trace:
            metrics = _trace_metrics(
                model, warmup, stream, outcomes, latency["p50_ms"],
                _metrics_delta(before, after), disk_files, disk_mb, work,
                failures)
        else:
            if warm:
                # The top rung's sustained rate.
                pairs_per_s = max_rps * WARM_PAIRS_PER_REQUEST
            else:
                pairs_per_s = answered_pairs(outcomes, stream) / wall
            metrics = {
                "setup_s": (statistics.median(setups), "s"),
                "latency_ms": (latency["p50_ms"], "ms"),
                "pairs_per_s": (pairs_per_s, "1/s"),
                # The served labels of the test split: warm-up on
                # serve-warm, the quality pass on serve-cold.
                "test_f1": (served_f1(quality, pool_reqs), "ratio"),
                "rss_mb": (daemon.rss_mb, "MB"),
            }
    return {"failures": failures,
            "attempted": attempted, "failed": failed, "metrics": metrics}


# ----------------------------------------------------------------- traced


def _trace_metrics(model, warmup, stream, outcomes, client_p50_ms,
                   flushes, disk_files, disk_mb, work, failures) -> dict:
    """Replay ``stream`` in-process, one layer call at a time.

    Each request goes once through an unwrapped ``MatchEngine.match_pairs``
    (its p50 is the in-process reference for ``serving.overhead_ms``) and
    once through the engine's public pieces with every layer timed. The
    two passes alternate request by request, so neither gains from
    running second. Warm, both share the warm store; cold, each has its
    own empty store and cache directory, so both miss.
    """
    from repro.adapter import EMAdapter
    from repro.adapter.entity_store import EntityStore, entity_store
    from repro.persistence import load_model
    from repro.serving import MatchEngine

    def cache_dir(tag: str) -> None:
        # The store resolves its disk tier from the environment per call.
        os.environ["REPRO_CACHE_DIR"] = str(work / f"replay-{tag}")

    start = time.perf_counter()
    pipeline = load_model(model)
    load_s = time.perf_counter() - start
    requests = [[{"left": p["left"], "right": p["right"]} for p in r]
                for r in stream]

    cache_dir("plain")
    engine = MatchEngine(model, SERVE_DATASET)
    for chunk in warmup:
        engine.match_pairs([{"left": p["left"], "right": p["right"]}
                            for p in chunk])
    tokenizer = pipeline.adapter.tokenizer
    embedder = pipeline.adapter.embedder
    combiner = pipeline.adapter.combiner
    automl = pipeline.automl
    reference = EMAdapter(tokenizer, embedder, combiner, cache=False,
                          entity_cache=True)
    ledger = Ledger()

    def plain_pass(pairs) -> float:
        t0 = time.perf_counter()
        engine.match_pairs(pairs)
        return time.perf_counter() - t0

    traced_store = entity_store() if warmup else EntityStore()

    def traced_pass(pairs, outcome) -> float:
        t0 = time.perf_counter()
        dataset = ledger.timed("serving.validate", engine.dataset_for, pairs)
        per_pair = ledger.timed(
            "adapter.tokenize",
            lambda: [tokenizer.sequences(p, dataset.schema) for p in dataset])
        positions = [[seqs[i] for seqs in per_pair]
                     for i in range(len(per_pair[0]))]
        vectors = [embed_with_store(embedder.embed_pairs, couples,
                                    traced_store, ledger)
                   for couples in positions]
        features = ledger.timed("adapter.combine", combiner.combine_dataset,
                                vectors)
        probabilities = ledger.timed("automl.predict_proba",
                                     automl.predict_proba, features)[:, 1]
        labels = ledger.timed("automl.predict", automl.predict, features)
        elapsed = time.perf_counter() - t0
        if not np.array_equal(features, reference.transform(dataset)):
            failures.append("replayed features differ from adapter.transform")
        elif (probabilities.tolist() != outcome.payload["probabilities"]
                or labels.tolist() != outcome.payload["labels"]):
            failures.append("replayed outputs differ from the served ones")
        return elapsed

    plain, traced = [], []
    for pairs, outcome in zip(requests, outcomes):
        cache_dir("plain")
        plain.append(plain_pass(pairs))
        cache_dir("traced")
        traced.append(traced_pass(pairs, outcome))
    traced_total = sum(traced)
    n = len(requests)
    per_request = {name: 1000.0 * ledger.seconds[name] / n for name in (
        "serving.validate", "adapter.tokenize", "adapter.embed",
        "entity_store.load", "entity_store.save", "adapter.combine",
        "automl.predict_proba", "automl.predict")}
    engine_p50_ms = 1000.0 * statistics.median(plain)
    print(json.dumps({"check": "replay == adapter.transform and served",
                      "requests": n}), flush=True)
    return {
        "serving.overhead_ms": (client_p50_ms - engine_p50_ms, "ms"),
        "serving.engine_p50_ms": (engine_p50_ms, "ms"),
        "serving.requests_per_flush": (flushes["requests_per_flush"], "count"),
        "serving.pairs_per_flush": (flushes["pairs_per_flush"], "count"),
        "serving.validate_ms": (per_request["serving.validate"], "ms"),
        "adapter.tokenize_ms": (per_request["adapter.tokenize"], "ms"),
        "adapter.embed_ms": (per_request["adapter.embed"], "ms"),
        "entity_store.load_ms": (per_request["entity_store.load"], "ms"),
        "entity_store.save_ms": (per_request["entity_store.save"], "ms"),
        "entity_store.hits": (ledger.counts["entity_store.hits"], "count"),
        "entity_store.misses": (ledger.counts["entity_store.misses"], "count"),
        "entity_store.writes": (ledger.counts["entity_store.writes"], "count"),
        "entity_store.disk_files": (disk_files, "count"),
        "entity_store.disk_mb": (disk_mb, "MB"),
        "adapter.combine_ms": (per_request["adapter.combine"], "ms"),
        "automl.predict_proba_ms": (per_request["automl.predict_proba"], "ms"),
        "automl.predict_ms": (per_request["automl.predict"], "ms"),
        "persistence.load_s": (load_s, "s"),
        "trace.overhead_ms": (1000.0 * (traced_total - sum(plain)) / n, "ms"),
        # Serving fits nothing and generates no data on its request path.
        "data.generate_s": (0.0, "s"),
        "data.split_s": (0.0, "s"),
        **{f"automl.fit_s.{system}": (0.0, "s") for system in TABLE_SYSTEMS},
        **{f"automl.candidates.{system}": (0, "count")
           for system in TABLE_SYSTEMS},
    }
