"""Seeded inputs for the stopbp benchmark: model files and CLI argv pools.

Each workload is a fixed-size pool of requests (argv lists for
``stopbp.cli.main``) that a single closed-loop client cycles through.  The
seed draws every model and argument; the pool's shape is stratified so that
its cost spread (small to large caps, cheap to heavy commands) is the same
for every seed, which keeps per-run medians comparable across seeds.

Every generated configuration passes two guards before anything runs:

* its dense kernel, (C(cap+k, k) + 1)^2 * 8 bytes, fits ``KERNEL_BUDGET``
  (stopbp itself bounds only the state count, not the bytes);
* Monte Carlo inputs are strictly subcritical (the simulator's memory has no
  bound on growing populations).
"""

from __future__ import annotations

import json
import math
import os
import random
from dataclasses import dataclass, field

import numpy as np

KERNEL_BUDGET = 256 * 2**20  # bytes of one dense kernel
MAX_DELTA = 0.8  # every generated model is at least this subcritical

M1 = {
    "laws": [[((0,), 0.7), ((2,), 0.3)]],
    "stopping_set": [(2,)],
}
M2 = {
    "laws": [
        [((0, 0), 0.5), ((0, 1), 0.3), ((2, 0), 0.2)],
        [((0, 0), 0.6), ((1, 0), 0.4)],
    ],
    "stopping_set": [(1, 0)],
}


class GuardError(ValueError):
    """A generated configuration breaks the memory or criticality guard."""


@dataclass
class Model:
    """An offspring law per type plus a stopping set, as plain tuples."""

    name: str
    laws: list  # per type: list of (counts tuple, probability)
    stopping_set: list  # list of counts tuples
    path: str = ""

    @property
    def k(self) -> int:
        return len(self.laws)

    def mean_matrix(self) -> np.ndarray:
        return np.array(
            [[sum(p * c[j] for c, p in law) for j in range(self.k)] for law in self.laws]
        )

    def delta(self) -> float:
        return float(max(abs(np.linalg.eigvals(self.mean_matrix()))))

    def write(self, directory: str) -> str:
        doc = {
            "version": 1,
            "types": [f"t{i + 1}" for i in range(self.k)],
            "offspring": [
                [{"counts": list(c), "p": p} for c, p in law] for law in self.laws
            ],
            "stopping_set": [list(s) for s in self.stopping_set],
        }
        self.path = os.path.join(directory, f"{self.name}.json")
        with open(self.path, "w") as fh:
            json.dump(doc, fh, indent=1)
        return self.path


@dataclass
class Request:
    """One CLI call plus what the checker needs to know about it."""

    kind: str  # probe | stop-prob | series | yaglom | verify | estimate
    argv: list
    model: Model
    params: dict = field(default_factory=dict)

    @property
    def key(self) -> tuple:
        """Identity of the computation; --workers does not change it."""
        argv = list(self.argv)
        if "--workers" in argv:
            i = argv.index("--workers")
            del argv[i: i + 2]
        return tuple(argv)


@dataclass
class Workload:
    name: str
    pool: list  # of Request, in the order the client sends them
    setup_model: Model  # answers the trivial classify request of setup_s


def kernel_bytes(k: int, cap: int) -> int:
    """Bytes of stopbp's dense one-step kernel on the capped space."""
    size = math.comb(cap + k, k) + 1
    return size * size * 8


def guard_kernel(k: int, cap: int):
    need = kernel_bytes(k, cap)
    if need > KERNEL_BUDGET:
        raise GuardError(
            f"k={k}, cap={cap} needs a {need / 2**20:.0f} MiB dense kernel, "
            f"over the {KERNEL_BUDGET / 2**20:.0f} MiB budget"
        )


def guard_subcritical(model: Model):
    delta = model.delta()
    if not delta < MAX_DELTA:
        raise GuardError(f"model {model.name} has delta={delta:.4g} >= {MAX_DELTA}")


def _label(counts) -> str:
    return "[" + ",".join(str(c) for c in counts) + "]"


def _normalise(law):
    """Scale a law to sum to one with the zero atom absorbing the rounding."""
    total = sum(p for _, p in law)
    law = [(c, p / total) for c, p in law]
    rest = math.fsum(p for c, p in law if any(c))
    return [(c, 1.0 - rest if not any(c) else p) for c, p in law]


# ---------------------------------------------------------------------------
# probe-k1: dense single-vector series propagation over a few thousand states

# (base cap, delta range) per cost class.  Within a class every request
# costs about the same: a series term costs a fixed Python overhead plus one
# dense pass over the cap^2 kernel, and there are about 1/log(1/delta) terms
# per start, so the cap shrinks as delta grows (``_equal_cost_cap``).  The
# large class is one configuration sent six times per pass: its block of
# samples holds both the median and the tail percentile whatever the number
# of passes.  The typical class spreads delta over 0.5..0.7, and m1 at cap
# 4000 (a 128 MB kernel) sets the peak memory.
PROBE_TYPICAL = (1100, (0.5, 0.7))
PROBE_LARGE = (2200, (0.58, 0.62))
TYPICAL_COUNT = 5
# cost of one series term ~ TERM_OVERHEAD + (cap / 1000)^2, in units of one
# dense pass over a 1000 x 1000 kernel (measured on a 2-core Xeon VM: 0.18 ms
# of Python per term, 0.19 ms per such pass)
TERM_OVERHEAD = 0.95
PROBE_PEAK_CAP = 4000


def _probe_law(rng: random.Random, delta: float):
    """One-type law on {0,1,2,3} children with mean exactly ``delta``."""
    w = [rng.uniform(0.2, 1.0) for _ in range(3)]
    mean_w = w[0] + 2 * w[1] + 3 * w[2]
    scale = delta / mean_w
    law = [((1,), w[0] * scale), ((2,), w[1] * scale), ((3,), w[2] * scale)]
    return _normalise([((0,), 1.0 - sum(p for _, p in law))] + law)


def _probe_request(rng: random.Random, model: Model, cap: int) -> Request:
    guard_kernel(1, cap)
    guard_subcritical(model)
    lo = rng.randint(60, 80)
    # partners reach hi / delta <= 2 hi, so hi <= cap / 4 keeps them far
    # inside the cap and the overflow bound negligible
    hi = int(cap * rng.uniform(0.18, 0.22))
    argv = ["probe", "--model", model.path, "--r", "[2]", "--n-grid", f"{lo}:{hi}:3",
            "--cap", str(cap)]
    return Request("probe", argv, model, {"cap": cap, "r": (2,), "tol": 1e-9})


def _equal_cost_cap(base: int, delta: float) -> int:
    """Cap at which a probe with this delta costs what one at ``base``, 0.6 does."""
    per_term = (TERM_OVERHEAD + (base / 1000) ** 2) * math.log(1 / delta) / math.log(1 / 0.6)
    return int(round(1000 * math.sqrt(max(per_term - TERM_OVERHEAD, 0.25))))


def probe_k1(seed: int, workdir: str) -> Workload:
    rng = random.Random(seed)

    def request(name, delta, base):
        model = Model(name, [_probe_law(rng, delta)], [(2,)])
        model.write(workdir)
        return _probe_request(rng, model, _equal_cost_cap(base, delta))

    base, (lo_d, hi_d) = PROBE_TYPICAL
    typical = [request(f"probe-{i}", lo_d + (hi_d - lo_d) * (i + rng.random()) / TYPICAL_COUNT,
                       base) for i in range(TYPICAL_COUNT)]  # one delta stratum each
    base, (lo_d, hi_d) = PROBE_LARGE
    large = request("probe-large", rng.uniform(lo_d, hi_d), base)
    m1 = Model("probe-m1", M1["laws"], M1["stopping_set"])
    m1.write(workdir)
    peak = _probe_request(rng, m1, PROBE_PEAK_CAP)
    pool = [large, typical[0], large, typical[1], large, peak, typical[2], large,
            typical[3], large, typical[4], large]
    return Workload("probe-k1", pool, _setup_model(workdir))


# ---------------------------------------------------------------------------
# routes-k2: the exact-engine routes on two-type models at caps 40..80

ROUTES_DELTA = (0.58, 0.62)
ROUTES_STOP_CANDIDATES = ((1, 0), (0, 1), (2, 0), (1, 1))
SMALL_K2_STARTS = ((0, 1), (1, 0), (0, 2), (1, 1), (2, 0), (0, 3), (2, 1), (1, 2))
# one pass: (command, model index, cap, horizon range, start).  Model 0 is
# m2; model i > 0 is a perturbation of m2 with i stopping states; a start of
# None is drawn by the seed.  The pass is built from cost bands so that both
# statistics fall inside a block of identical requests, whatever the seed
# and however load from outside inflates the neighbouring bands:
# * four light requests (cap 40) below and four costlier ones above a
#   series at cap 50 on m2 from a fixed start, sent four times per pass,
#   which holds the median;
# * the costliest request, a series at cap 80 on m2 from a fixed start, sent
#   once per pass and about 1.7 times as costly as any other, holds the tail.
ROUTES_PASS = (
    ("series", 0, 80, None, (1, 1)),
    ("stop-prob", 1, 40, (18, 22), None),
    ("series", 0, 50, None, (0, 2)),
    ("verify", 0, None, None, None),
    ("series", 2, 40, None, None),
    ("series", 0, 50, None, (0, 2)),
    ("yaglom", 3, 40, (35, 45), None),
    ("stop-prob", 2, 60, (24, 28), None),
    ("series", 0, 50, None, (0, 2)),
    ("yaglom", 3, 40, (28, 32), None),
    ("yaglom", 2, 70, (35, 45), None),
    ("series", 0, 50, None, (0, 2)),
)


def _perturbed_m2(rng: random.Random, name: str, stops: int) -> Model:
    """m2's support with jittered probabilities and ``stops`` stopping states."""
    while True:
        laws = [
            _normalise([(c, p * math.exp(rng.uniform(-0.25, 0.25))) for c, p in law])
            for law in M2["laws"]
        ]
        stop = sorted(rng.sample(ROUTES_STOP_CANDIDATES, stops), key=lambda s: (sum(s), s))
        model = Model(name, laws, stop)
        if ROUTES_DELTA[0] <= model.delta() <= ROUTES_DELTA[1]:
            return model


def _routes_request(rng: random.Random, command: str, model: Model, cap, horizon,
                    start) -> Request:
    if command == "verify":
        guard_kernel(2, 30)  # verify works at min(cap, 30) for k > 1
        return Request(command, ["verify", "--model", model.path], model, {})
    guard_kernel(2, cap)
    if command == "yaglom":
        j, t = rng.randint(1, 2), rng.randint(*horizon)
        argv = ["yaglom", "--model", model.path, "--j", str(j), "--t", str(t),
                "--cap", str(cap)]
        return Request(command, argv, model, {"cap": cap, "j": j, "t": t})
    n = start or rng.choice([s for s in SMALL_K2_STARTS if s not in model.stopping_set])
    r = rng.choice(model.stopping_set)
    argv = [command, "--model", model.path, "--n", _label(n), "--r", _label(r),
            "--cap", str(cap)]
    params = {"cap": cap, "n": n, "r": r, "tol": 1e-9}
    if command == "stop-prob":
        params["t"] = rng.randint(*horizon)
        argv += ["--t", str(params["t"])]
    return Request(command, argv, model, params)


def routes_k2(seed: int, workdir: str) -> Workload:
    rng = random.Random(seed)
    models = [Model("routes-m2", M2["laws"], M2["stopping_set"])]
    models += [_perturbed_m2(rng, f"routes-{i}", i) for i in range(1, 4)]
    for model in models:
        guard_subcritical(model)
        model.write(workdir)
    made = {}
    pool = []
    for slot in ROUTES_PASS:
        if slot not in made:
            command, index, cap, horizon, start = slot
            made[slot] = _routes_request(rng, command, models[index], cap, horizon, start)
        pool.append(made[slot])
    return Workload("routes-k2", pool, _setup_model(workdir))


# ---------------------------------------------------------------------------
# mc-k2: counter-based Monte Carlo, one and two worker threads

MC_REPS = 250_000
MC_WORKERS = (1, 2)
# the conditional law is estimated early enough that thousands of the
# trajectories survive, so its shares can be checked against the exact law
MC_HORIZON = {"absorption": (14, 18), "yaglom": (6, 10)}
# (model, what, start or source type, horizon, reps multiple); a horizon of
# None is drawn by the seed, which also draws every Monte Carlo seed, and
# every configuration is sent with each worker count.  The first is the
# costliest, with a fixed horizon and twice the reps: at one worker it costs
# about 1.7 times any other request, so the ten slowest requests of a run
# come from its block of samples, whatever the seed.
MC_CONFIGS = (
    ("m2", "absorption", (1, 1), 18, 2),
    ("m2", "absorption", (0, 2), None, 1),
    ("m2", "yaglom", 1, None, 1), ("m2", "yaglom", 2, None, 1),
    ("m1", "absorption", (3,), None, 1), ("m1", "absorption", (1,), None, 1),
    ("m1", "yaglom", 1, None, 1), ("m1", "yaglom", 1, None, 1),
)


def mc_k2(seed: int, workdir: str) -> Workload:
    rng = random.Random(seed)
    models = {"m1": Model("mc-m1", M1["laws"], M1["stopping_set"]),
              "m2": Model("mc-m2", M2["laws"], M2["stopping_set"])}
    for model in models.values():
        guard_subcritical(model)
        model.write(workdir)
    pool = []
    for name, what, arg, t, multiple in MC_CONFIGS:
        model = models[name]
        t = t or rng.randint(*MC_HORIZON[what])
        reps = multiple * MC_REPS
        argv = ["estimate", "--model", model.path, "--what", what, "--t", str(t),
                "--reps", str(reps), "--seed", str(rng.randrange(2**32))]
        params = {"t": t, "reps": reps, "what": what}
        if what == "absorption":
            r = model.stopping_set[0]
            argv += ["--n", _label(arg), "--r", _label(r)]
            params.update(n=arg, r=r)
        else:
            argv += ["--j", str(arg)]
            params["j"] = arg
        for workers in MC_WORKERS:
            pool.append(Request("estimate", argv + ["--workers", str(workers)], model,
                                dict(params, workers=workers)))
    return Workload("mc-k2", pool, _setup_model(workdir))


def _setup_model(workdir: str) -> Model:
    model = Model("setup-m2", M2["laws"], M2["stopping_set"])
    model.write(workdir)
    return model


WORKLOADS = {"probe-k1": probe_k1, "routes-k2": routes_k2, "mc-k2": mc_k2}
