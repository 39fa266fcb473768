"""Request cycles of the four workloads, generated from the workload seed.

Each workload is one fixed cycle of requests that the benchmark repeats in a
closed loop. The seed chooses culture probabilities, which orders carry zero
mass, and the per-request ``--seed`` values; it never chooses sizes (m, n,
support size, trials, samples), so the work per cycle is the same for every
seed and figures from different seeds are comparable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

import model

WORKLOADS = ("exact", "mc-deep", "mc-wide", "limit")

# Sign patterns of the expected margins for pairs (0,1), (0,2), (1,2), in the
# row order of the three-candidate classification table.
TABLE1_SIGNS = (
    (0, 0, 0), (0, 0, 1), (0, 0, -1), (0, 1, 0), (0, -1, 0), (0, 1, -1),
    (0, 1, 1), (0, -1, 1), (0, -1, -1), (1, 0, 1), (1, 1, 0), (1, 0, -1),
    (1, -1, 0), (1, 1, 1), (1, -1, -1), (1, 1, -1), (1, -1, 1), (1, 0, 0),
    (-1, 0, 0), (-1, 0, 1), (-1, 0, -1), (-1, 1, 0), (-1, 1, 1), (-1, 1, -1),
    (-1, -1, 0), (-1, -1, 1), (-1, -1, -1),
)

MC_DEEP_TRIALS = 100_000
MC_WIDE_TRIALS = {6: 2_000, 7: 600, 8: 150}
LIMIT_SAMPLES = 200_000
AUDIT_SAMPLES = 100_000


@dataclass(frozen=True)
class Request:
    """One CLI request and what the oracle needs to know about it."""

    command: str
    argv: tuple[str, ...]
    culture: str | None = None  # key into Workload.cultures
    m: int | None = None
    ns: tuple[int, ...] = ()
    mode: str = "strong"
    count: int | None = None  # trials (mc) or samples (limit, audit)
    seed: int | None = None
    pattern: int | None = None  # table row of an m=3 sign-pattern culture


@dataclass
class Workload:
    name: str
    requests: list[Request] = field(default_factory=list)
    files: dict[str, str] = field(default_factory=dict)  # relative path -> text
    cultures: dict[str, np.ndarray] = field(default_factory=dict)
    warmup: list[tuple[str, ...]] = field(default_factory=list)


class _Builder:
    def __init__(self, name: str, seed: int):
        self.rng = np.random.default_rng([seed, WORKLOADS.index(name)])
        self.w = Workload(name)

    def seed(self) -> int:
        return int(self.rng.integers(0, 2**32))

    def named(self, kind: str, m: int) -> tuple[str, tuple[str, ...]]:
        key = f"{kind}:{m}"
        self.w.cultures[key] = model.uniform(m) if kind == "ic" else model.cyclic(m)
        return key, ("--culture", kind, "--m", str(m))

    def file(self, path: str, probs: np.ndarray, m: int, prefix: str = "") -> tuple[str, tuple[str, ...]]:
        write = model.to_csv if path.endswith(".csv") else model.to_json
        self.w.files[path] = write(probs, m)
        self.w.cultures[path] = probs
        return path, ("--culture", prefix + path)

    def add(self, command: str, culture, m: int | None, extra: tuple[str, ...] = (), **fields) -> None:
        key, culture_args = culture if culture else (None, ())
        argv = (command,) + culture_args + extra
        self.w.requests.append(Request(command, argv, key, m, **fields))


def build(name: str, seed: int) -> Workload:
    """The request cycle, input files and cultures of a workload."""
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
    b = _Builder(name, seed)
    {"exact": _exact, "mc-deep": _mc_deep, "mc-wide": _mc_wide, "limit": _limit}[name](b)
    b.w.requests = _spread(b.w.requests)
    return b.w


def _spread(requests: list[Request]) -> list[Request]:
    """Reorder the cycle by a golden-ratio stride.

    Requests listed together, such as the heavy ones that set p90, end up
    spread evenly over the cycle, so their latencies sample the whole run.
    """
    c = len(requests)
    stride = next(s for s in range(max(1, round(c / 1.618)), c + 1) if math.gcd(s, c) == 1)
    return [requests[(i * stride) % c] for i in range(c)]


# A run's p50 and p90 are percentiles over the cycle's N requests of each
# request's median latency (run.median_per_request). Each workload places a
# cluster of requests of one shape, and so of about one cost, around the
# ranks (N-1)/2 and 0.9 (N-1) of its cycle, so that noise which reorders
# neighbouring requests does not move either percentile.


def _exact(b: _Builder) -> None:
    def exact(culture, m: int, n: int, mode: str) -> None:
        b.add("exact", culture, m, ("--n", str(n), "--mode", mode), ns=(n,), mode=mode)

    ic3, ic4 = b.named("ic", 3), b.named("ic", 4)
    dense3 = b.file("cultures/dense3.json", model.dense(b.rng, 3), 3)
    dense3_csv = b.file("cultures/dense3.csv", model.dense(b.rng, 3), 3)
    dense3b = b.file("cultures/dense3b.json", model.dense(b.rng, 3), 3)
    dense3c = b.file("cultures/dense3c.csv", model.dense(b.rng, 3), 3)
    sparse3 = b.file("cultures/sparse3.json", model.sparse(b.rng, 3, 4), 3)
    dense4 = b.file("cultures/dense4.json", model.dense(b.rng, 4), 4)
    sparse4 = b.file("cultures/sparse4.csv", model.sparse(b.rng, 4, 8), 4)
    sparse16 = [
        b.file(path, model.sparse(b.rng, 4, 16), 4)
        for path in ("cultures/sparse4b.json", "cultures/sparse4c.csv", "cultures/sparse4d.json")
    ]
    cyc4, cyc5 = b.named("cyclic", 4), b.named("cyclic", 5)
    # 35 requests. Thirteen cheap ones (below 30 ms), then nine m=3, n=9
    # requests on full-support cultures (2002 compositions each, about 45 ms)
    # at ranks 13-21 around the median rank 17.
    for culture, m, n, mode in (
        (ic3, 3, 5, "strong"), (ic3, 3, 6, "weak"), (ic3, 3, 7, "weak"),
        (dense3_csv, 3, 6, "strong"), (dense3, 3, 7, "strong"), (dense3_csv, 3, 8, "weak"),
        (sparse3, 3, 7, "strong"), (sparse3, 3, 13, "strong"), (sparse3, 3, 17, "strong"),
        (sparse3, 3, 22, "weak"), (sparse3, 3, 25, "strong"),
        (sparse4, 4, 5, "strong"), (cyc4, 4, 21, "strong"),
    ):
        exact(culture, m, n, mode)
    for culture in (ic3, dense3, dense3_csv, dense3b):
        for mode in ("strong", "weak"):
            exact(culture, 3, 9, mode)
    exact(dense3c, 3, 9, "strong")
    # Six requests of 70-170 ms at ranks 22-27, then six m=4, n=4 requests on
    # 16-order supports (3876 compositions each) at ranks 28-33 around the
    # p90 rank 31, and the m=5 cyclic culture at n=31 on top.
    for culture, m, n, mode in (
        (dense3, 3, 11, "strong"), (ic3, 3, 12, "weak"), (ic4, 4, 3, "strong"),
        (dense4, 4, 3, "weak"), (sparse4, 4, 7, "weak"), (cyc5, 5, 21, "strong"),
    ):
        exact(culture, m, n, mode)
    for culture in sparse16:
        for mode in ("strong", "weak"):
            exact(culture, 4, 4, mode)
    exact(cyc5, 5, 31, "strong")
    b.w.warmup = [("exact", "--culture", "ic", "--m", str(m), "--n", "2") for m in (3, 4, 5)]


def _mc(b: _Builder, culture, m: int, ns: tuple[int, ...], trials: int, mode: str = "strong") -> None:
    seed = b.seed()
    extra = ("--n", ",".join(map(str, ns)), "--trials", str(trials), "--seed", str(seed), "--mode", mode)
    b.add("mc", culture, m, extra, ns=tuple(sorted(ns)), mode=mode, count=trials, seed=seed)


def _mc_deep(b: _Builder) -> None:
    ic3, ic4 = b.named("ic", 3), b.named("ic", 4)
    dense3 = b.file("cultures/dense3.json", model.dense(b.rng, 3), 3)
    dense3_csv = b.file("cultures/dense3b.csv", model.dense(b.rng, 3), 3)
    dense4 = b.file("cultures/dense4.json", model.dense(b.rng, 4), 4)
    dense4_csv = b.file("cultures/dense4b.csv", model.dense(b.rng, 4), 4)
    t = MC_DEEP_TRIALS
    # 25 requests: the eighteen m=3 requests of 40-95 ms hold the median rank
    # 12; the three-n m=3 list and the six m=4 requests hold the top, with
    # the m=4 ones of 200-350 ms at ranks 19-23 around the p90 rank 22.
    # Requests with n <= 25 are checked against exact values.
    for culture, ns, mode in (
        (ic3, (101,), "strong"), (ic3, (1001,), "strong"), (ic3, (101, 1001, 5001), "strong"),
        (ic3, (15,), "strong"), (ic3, (24,), "weak"),
        (dense3, (201,), "strong"), (dense3, (11,), "strong"), (dense3, (25, 501), "strong"),
        (dense3, (3001,), "weak"), (dense3_csv, (2001,), "strong"), (dense3_csv, (20,), "weak"),
        (dense3_csv, (751,), "strong"), (dense3_csv, (4001,), "strong"),
        (ic3, (301,), "strong"), (ic3, (1501,), "strong"), (dense3, (101,), "weak"),
        (dense3, (601,), "strong"), (dense3_csv, (401,), "strong"), (dense3_csv, (1201,), "strong"),
    ):
        _mc(b, culture, 3, ns, t, mode)
    for culture, ns, mode in (
        (ic4, (101,), "strong"), (ic4, (1001,), "strong"), (ic4, (401, 4001), "strong"),
        (dense4, (301,), "strong"), (dense4_csv, (3001,), "weak"), (dense4_csv, (1501,), "strong"),
    ):
        _mc(b, culture, 4, ns, t, mode)
    b.w.warmup = [("mc", "--culture", "ic", "--m", str(m), "--n", "3", "--trials", "10") for m in (3, 4)]


def _mc_wide(b: _Builder) -> None:
    ic6, cyc6 = b.named("ic", 6), b.named("cyclic", 6)
    sparse6a = b.file("cultures/sparse6a.json", model.sparse(b.rng, 6, 24), 6)
    sparse6b = b.file("cultures/sparse6b.csv", model.sparse(b.rng, 6, 24), 6)
    sparse6c = b.file("cultures/sparse6c.json", model.sparse(b.rng, 6, 48), 6)
    # 25 requests, n < m! everywhere; the sparse supports sit on both sides of
    # n. Nine cheap m=6 requests on cyclic and sparse cultures, then seven
    # uniform m=6 requests of one shape around the median rank 12.
    for culture, ns in (
        (cyc6, (25,)), (cyc6, (11, 41)), (cyc6, (51,)),
        (sparse6a, (11,)), (sparse6a, (21,)), (sparse6b, (41,)), (sparse6b, (15,)),
        (sparse6c, (15, 61)), (sparse6c, (41,)),
    ):
        _mc(b, culture, 6, ns, MC_WIDE_TRIALS[6])
    for n in (11, 21, 31, 41, 51, 71, 101):
        _mc(b, ic6, 6, (n,), MC_WIDE_TRIALS[6])
    # Four m=7 and m=8 requests of 100-200 ms, then four uniform m=8 requests
    # of one shape around the p90 rank 22, and the m=8 random sparse culture,
    # whose 40320-row CSV makes it the heaviest.
    for culture, m, ns in (
        (b.named("cyclic", 7), 7, (35,)), (b.file("cultures/sparse7.csv", model.sparse(b.rng, 7, 40), 7), 7, (21,)),
        (b.named("ic", 7), 7, (51,)), (b.named("cyclic", 8), 8, (61,)),
    ):
        _mc(b, culture, m, ns, MC_WIDE_TRIALS[m])
    ic8 = b.named("ic", 8)
    for n in (31, 51, 75, 101):
        _mc(b, ic8, 8, (n,), MC_WIDE_TRIALS[8])
    _mc(b, b.file("cultures/sparse8.csv", model.sparse(b.rng, 8, 60), 8), 8, (31,), MC_WIDE_TRIALS[8])
    b.w.warmup = [("mc", "--culture", "ic", "--m", str(m), "--n", "3", "--trials", "2") for m in (6, 7, 8)]


def _limit(b: _Builder) -> None:
    def limit(culture, m: int, samples: int | None = None, pattern: int | None = None) -> None:
        extra, seed = (), None
        if samples is not None:
            seed = b.seed()
            extra = ("--samples", str(samples), "--seed", str(seed))
        b.add("limit", culture, m, extra, count=samples, seed=seed, pattern=pattern)

    # 75 requests. The 64 cheap ones (closed forms, quadrature, the 27 sign
    # patterns, ic-curve, min-table and the m=3-4 dual cultures, all below
    # 25 ms) hold the median rank 37.
    for m in range(3, 9):
        limit(b.named("ic", m), m)
    for number, signs in enumerate(TABLE1_SIGNS, start=1):
        culture = b.file(f"cultures/pattern{number:02d}.json", model.sign_pattern(b.rng, signs), 3)
        limit(culture, 3, pattern=number)
        b.add("classify", culture, 3, pattern=number)
    # Balanced (dual) cultures: closed forms up to m=4, Monte Carlo orthants
    # of dimension m-1 >= 4 above. The five m=5 ones and the two audits, of
    # about 100 ms each, sit at ranks 64-70 around the p90 rank 67; the m=6-8
    # ones are the four heaviest.
    for k, m in enumerate((3, 4, 5, 5, 5, 5, 5, 6, 6, 7, 8)):
        path = f"cultures/dual{k:02d}_m{m}.json"
        limit(b.file(path, model.dual(b.rng, m), m, prefix="dc:"), m, samples=LIMIT_SAMPLES)
    audit_seed = b.seed()
    for _ in range(2):
        b.add("audit", None, None, ("--samples", str(AUDIT_SAMPLES), "--seed", str(audit_seed)),
              count=AUDIT_SAMPLES, seed=audit_seed)
    b.add("ic-curve", None, None, ("--m", "2-10"), ns=tuple(range(2, 11)))
    b.add("min-table", None, None, ("--m", "3,4,5,8", "--n", "3-20,51,101"))
    b.w.warmup = [("limit", "--culture", "ic", "--m", str(m)) for m in range(3, 9)] + [
        ("audit", "--samples", "10"),
    ]


def census(w: Workload) -> dict:
    """Input properties that later performance claims can be tied to."""
    with_culture = [r for r in w.requests if r.culture is not None]
    evaluations = [(r, n) for r in with_culture for n in r.ns]
    support = {key: int(np.count_nonzero(p)) for key, p in w.cultures.items()}
    commands: dict[str, int] = {}
    for r in w.requests:
        commands[r.command] = commands.get(r.command, 0) + 1
    exact = [r for r in w.requests if r.command == "exact"]
    return {
        "requests_per_cycle": len(w.requests),
        "commands": commands,
        "n_below_support_share": (
            sum(n < support[r.culture] for r, n in evaluations) / len(evaluations) if evaluations else None
        ),
        "mean_support_share": (
            float(np.mean([support[r.culture] / math.factorial(r.m) for r in with_culture]))
            if with_culture else None
        ),
        "exact_m4_share": sum(r.m == 4 for r in exact) / len(exact) if exact else None,
    }
