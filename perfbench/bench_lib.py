"""Pure helpers of the rdfsum benchmark: workload definitions, seeded request
generation, percentiles and the reduction of the bench binary's raw samples to the
metrics named in BENCHMARK.json. Everything here is deterministic and has no
side effects; run.py does the building, pinning and process handling."""

import math
import random
import re
import statistics

NS = "http://bsbm.example.org/"
PREFIX = "PREFIX b: <%s>" % NS

# name -> (BSBM triples, CPUs the run is pinned to). Products follow the
# generator's BsbmProductsForTriples (about 34 triples per product). Why
# each workload exists is in BENCHMARK.json and README.md.
WORKLOADS = {"point": (250_000, 1), "drain": (250_000, 1),
             "publish": (100_000, 1)}

# The BSBM generator's seed. The data is the same on every run, so runs
# with different --seed values differ only in their request lists, not in
# the size and shape of the data (README.md, "Noise").
DATA_SEED = 1

# Shares of one point round by kind (also the reads of a publish round).
# 10/20/30/40% keep every cumulative boundary between kinds at least 10
# points away from the 50th and the 95th percentile, whatever order the
# kinds' latencies take (see README.md, "Noise"). A round holds one
# snowflake per producer: 920 requests at 250k triples, 370 at 100k.
POINT_MIX = (("empty", 1), ("star", 2), ("chain", 3), ("snowflake", 4))

# Requests of one drain round by (kind, planner). The slowest class (the
# greedy snowflake) holds the top quarter, so the 95th percentile sits
# inside it; chains and stars hold the first two thirds, so the median
# sits among the stars.
DRAIN_MIX = (("d-chain", "naive", 2), ("d-chain", "greedy", 2),
             ("d-star", "naive", 2), ("d-star", "greedy", 2),
             ("d-snowflake", "naive", 1), ("d-snowflake", "greedy", 3))

E2E = ("setup_s", "ops_per_s", "p50_ms", "p95_ms", "first_row_ms",
       "rows_per_s", "cpu_ms_per_op", "peak_rss_mb", "publish_ms")

LAYERS = ("bench", "server", "query", "store", "io", "rdf", "summary")

PER_LAYER = (
    "server.parse_us", "server.plan_us", "server.exec_us",
    "server.outside_us", "server.plan_cache_hit_ratio",
    "server.plan_cache_hits", "server.plan_cache_misses",
    "server.ctx_switches_per_op", "server.reload_ms",
    "query.parse_us", "query.replan_us", "query.plan_us", "query.open_us",
    "query.first_row_us", "query.next_ns_per_row",
    "query.decode_ns_per_row", "query.work_per_row",
    "query.q_error_greedy", "query.q_error_summary",
    "store.freeze_ms", "store.sort_ms", "store.open_ms",
    "store.image_bytes_per_triple", "io.parse_ms", "rdf.dense_ms",
    "summary.mint_ms", "summary.estimator_ms", "summary.partition_ms",
    "summary.quotient_ms", "summary.edges", "trace.overhead_frac",
    "host.calib_ms",
) + tuple("self.%s_us_per_op" % layer for layer in LAYERS)

NAME_RE = re.compile(r"[A-Za-z0-9_.-]+")


def valid_name(name):
    """True when `name` fits the metric-name grammar [A-Za-z0-9_.-]+ (at
    most 64 characters, starting with a letter or a digit)."""
    return (len(name) <= 64 and NAME_RE.fullmatch(name) is not None
            and name[0].isalnum())


def products_for(triples):
    return max(1, triples // 34)


def producers_for(products):
    return products // 20 + 1


def _iri(local):
    return "<%s%s>" % (NS, local)


def point_query(kind, anchor):
    """One anchored BGP of `kind`; `anchor` numbers its producer (snowflake)
    or its product (every other kind)."""
    product = _iri("product/Product%d" % anchor)
    if kind == "snowflake":
        producer = _iri("producer/Producer%d" % anchor)
        return ("SELECT ?r ?price WHERE { ?r b:reviewFor ?p . "
                "?r b:reviewer ?x . ?x b:country ?c . ?o b:offerProduct ?p . "
                "?o b:price ?price . ?p b:producer %s }" % producer)
    if kind == "star":
        return ("SELECT ?l ?pr ?f WHERE { %s b:label ?l . %s b:producer ?pr "
                ". %s b:productFeature ?f }" % (product, product, product))
    if kind == "chain":
        return ("SELECT ?r ?x ?c WHERE { ?r b:reviewFor %s . "
                "?r b:reviewer ?x . ?x b:country ?c }" % product)
    if kind == "empty":  # reviews have no price: provably empty
        return ("SELECT ?x ?y WHERE { ?x b:reviewFor %s . ?x b:price ?y }"
                % product)
    raise ValueError("unknown point kind " + kind)


DRAIN_QUERIES = {
    "d-snowflake": "SELECT ?r ?price WHERE { ?r b:reviewFor ?p . "
                   "?r b:reviewer ?x . ?x b:country ?c . "
                   "?o b:offerProduct ?p . ?o b:price ?price }",
    "d-star": "SELECT ?p ?l ?f WHERE { ?p b:label ?l . ?p b:producer ?pr . "
              "?p b:productFeature ?f }",
    "d-chain": "SELECT ?r ?c WHERE { ?r b:reviewFor ?p . ?r b:reviewer ?x "
               ". ?x b:country ?c }",
}


DRAIN_FIRST = ("d-chain", "greedy", DRAIN_QUERIES["d-chain"])


def point_mix(rng, products):
    """A shuffled point round in the POINT_MIX shares whose snowflakes name
    every producer exactly once (the snowflake is the heavy kind, so its
    constants set the p95; covering all producers keeps that from hanging
    on which few the seed picks). Products are drawn at random. The first
    request, which every set-up and every publish times, is the snowflake
    of producer 0 on every seed, so those times do not hang on the seed."""
    producers = producers_for(products)
    per_snowflake = dict(POINT_MIX)["snowflake"]
    kinds = [k for k, n in POINT_MIX
             for _ in range(n * producers // per_snowflake)]
    rng.shuffle(kinds)
    first = kinds.index("snowflake")
    kinds[0], kinds[first] = kinds[first], kinds[0]
    anchors = list(range(1, producers))
    rng.shuffle(anchors)
    anchors.append(0)  # popped first
    reqs = []
    for k in kinds:
        anchor = anchors.pop() if k == "snowflake" else rng.randrange(products)
        reqs.append((k, "summary", point_query(k, anchor)))
    return reqs


def requests(workload, seed):
    """The request list of one round: (kind, planner, SPARQL) tuples, a pure
    function of (workload, seed)."""
    rng = random.Random("%s/%d" % (workload, seed))
    products = products_for(WORKLOADS[workload][0])
    if workload in ("point", "publish"):
        return point_mix(rng, products)
    if workload == "drain":
        reqs = [(k, planner, DRAIN_QUERIES[k])
                for k, planner, n in DRAIN_MIX for _ in range(n)]
        rng.shuffle(reqs)
        # The set-up times the first request: the same one on every seed.
        first = reqs.index(DRAIN_FIRST)
        reqs[0], reqs[first] = reqs[first], reqs[0]
        return reqs
    raise ValueError("unknown workload " + workload)


def request_file_text(reqs):
    return "".join("%s\t%s\t%s %s\n" % (k, planner, PREFIX, text)
                   for k, planner, text in reqs)


def percentile(samples, q, min_beyond=10):
    """Nearest-rank q-th percentile of `samples`, or None when fewer than
    `min_beyond` samples lie above it (the percentile is then not
    supported by the sample)."""
    if not samples:
        return None
    ordered = sorted(samples)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    if len(ordered) - rank < min_beyond:
        return None
    return ordered[rank - 1]


_SAMPLE_LISTS = ("errors", "setup_s", "publish_ms", "latency_ms",
                 "first_row_ms", "round_ops", "round_rows", "round_s",
                 "round_cpu_s", "round_calib_ms", "traced_round_ops",
                 "traced_round_s")


def merge_raw(raws):
    """Merges the raw results of the bench processes of one run: sample
    lists are concatenated, counts summed, per-process peaks kept as a list.
    Layer metrics come from traced runs, which use a single process."""
    merged = {key: [x for raw in raws for x in raw[key]]
              for key in _SAMPLE_LISTS}
    merged["ok"] = all(raw["ok"] for raw in raws)
    merged["attempted"] = sum(raw["attempted"] for raw in raws)
    merged["failed"] = sum(raw["failed"] for raw in raws)
    merged["peak_rss_mb"] = [raw["peak_rss_mb"] for raw in raws]
    for key in ("layers", "self_us_per_op", "not_measured"):
        merged[key] = raws[-1][key]
    return merged


def _rate(num, den):
    return [n / d for n, d in zip(num, den) if d > 0]


def end_to_end(raw):
    """The BENCHMARK.json end-to-end metrics from one untraced raw result.
    Raises ValueError when a metric is not supported by the samples."""
    lat = raw["latency_ms"]
    p50, p95 = percentile(lat, 50), percentile(lat, 95)
    if p95 is None:
        raise ValueError("p95_ms needs >= 10 samples beyond it; got %d "
                         "samples" % len(lat))
    ops, secs = raw["round_ops"], raw["round_s"]
    values = {
        "setup_s": statistics.median(raw["setup_s"]),
        "ops_per_s": statistics.median(_rate(ops, secs)),
        "p50_ms": p50,
        "p95_ms": p95,
        "first_row_ms": statistics.median(raw["first_row_ms"]),
        "rows_per_s": statistics.median(_rate(raw["round_rows"], secs)),
        "cpu_ms_per_op": statistics.median(
            _rate([c * 1e3 for c in raw["round_cpu_s"]], ops)),
        "peak_rss_mb": statistics.median(raw["peak_rss_mb"]),
        "publish_ms": statistics.median(raw["publish_ms"]),
    }
    units = {"setup_s": "s", "ops_per_s": "1/s", "rows_per_s": "1/s",
             "peak_rss_mb": "MiB"}
    return {k: {"value": values[k], "unit": units.get(k, "ms")} for k in E2E}


def per_layer(raw):
    """The per-layer metrics from one traced raw result."""
    values = dict(raw["layers"])
    for layer in LAYERS:
        values["self.%s_us_per_op" % layer] = (
            raw["self_us_per_op"].get(layer, 0.0))
    untraced = sum(raw["round_ops"]) / sum(raw["round_s"])
    traced = sum(raw["traced_round_ops"]) / sum(raw["traced_round_s"])
    values["trace.overhead_frac"] = 1.0 - traced / untraced
    values["host.calib_ms"] = statistics.median(raw["round_calib_ms"])
    missing = [k for k in PER_LAYER if k not in values]
    if missing:
        raise ValueError("per-layer metrics not produced: %s" % missing)
    return {k: {"value": values[k], "unit": layer_unit(k)}
            for k in PER_LAYER}


def layer_unit(name):
    for suffix, unit in (("_us_per_op", "us"), ("_ns_per_row", "ns"),
                         ("_us", "us"), ("_ms", "ms")):
        if name.endswith(suffix):
            return unit
    if name.endswith("_frac") or name.endswith("_ratio"):
        return "ratio"
    if name.endswith("_per_triple"):
        return "B"
    return "count"
