"""Spans around the calls one condorcet module makes into another.

The tracer replaces the named attributes of the importing modules with
timing wrappers while it is installed and restores them afterwards; it edits
no file of the package. A boundary whose name no longer exists (say, after a
refactor) is reported as absent instead of failing the run.
"""

from __future__ import annotations

import importlib
import inspect
import math
import time

# (importing module, attribute, layer of the callee)
BOUNDARIES = (
    ("cli", "load_culture_file", "culture"),
    ("cli", "impartial_culture", "culture"),
    ("cli", "cyclic_minimizer_culture", "culture"),
    ("cli", "is_dual_culture", "culture"),
    ("cli", "exact_winner_probability", "exact"),
    ("cli", "minimum_table", "exact"),
    ("cli", "mc_convergence_sweep", "montecarlo"),
    ("cli", "limiting_probability", "asymptotic"),
    ("cli", "classify_m3", "asymptotic"),
    ("cli", "ic_curve", "asymptotic"),
    ("cli", "audit_table1", "asymptotic"),
    ("montecarlo", "mc_winner_probability", "montecarlo"),
    ("asymptotic", "orthant_zero_probability", "orthant"),
    ("asymptotic", "orthant_mc", "orthant"),
    ("asymptotic", "equicorrelated_orthant", "orthant"),
    ("orthant", "orthant_mc", "orthant"),
    ("orthant", "equicorrelated_orthant", "orthant"),
)
LAYER = {f"{module}.{attr}": layer for module, attr, layer in BOUNDARIES} | {"cli.main": "cli"}
ROOT_SPAN = "cli.main"
_WORK_UNIT_KEYS = ("work_units", "states", "compositions")


def _exact_info(bound, result) -> dict:
    detail = result.detail
    units = next(detail[k] for k in _WORK_UNIT_KEYS if k in detail)
    return {"work_units": units, "total_mass": detail["total_mass"]}


def _mc_info(bound, result) -> dict:
    culture = bound.arguments["culture"]
    return {
        "trials": bound.arguments["config"].trials,
        "orders": math.factorial(culture.m),
        "support": int((culture.probs > 0).sum()),
    }


def _orthant_mc_info(bound, result) -> dict:
    samples = bound.arguments.get("samples", bound.signature.parameters["samples"].default)
    return {"samples": samples, "stderr": result[1]}


_OBSERVERS = {
    "cli.exact_winner_probability": _exact_info,
    "montecarlo.mc_winner_probability": _mc_info,
    "asymptotic.orthant_mc": _orthant_mc_info,
    "orthant.orthant_mc": _orthant_mc_info,
}


class Tracer:
    """In-memory spans: [name, start, end, parent index, request id, info]."""

    def __init__(self):
        self.spans: list[list] = []
        self.absent: list[str] = []
        self.unobserved: set[str] = set()
        self._stack: list[int] = []
        self._request = -1
        self._saved: list[tuple[object, str, object]] = []

    def install(self) -> None:
        for module_name, attr, _ in BOUNDARIES:
            module = importlib.import_module(f"condorcet.{module_name}")
            fn = getattr(module, attr, None)
            if not callable(fn):
                self.absent.append(f"{module_name}.{attr}")
                continue
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(f"{module_name}.{attr}", fn))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    def request(self, request_id: int, fn, *args):
        """Run one request as a root span."""
        self._request = request_id
        return self._span(ROOT_SPAN, fn, args, {}, None)

    def _wrap(self, name: str, fn):
        observe = _OBSERVERS.get(name)
        signature = inspect.signature(fn) if observe else None

        def traced(*args, **kwargs):
            return self._span(name, fn, args, kwargs, observe and (observe, signature))

        traced.__wrapped__ = fn
        return traced

    def _span(self, name, fn, args, kwargs, observer):
        index = len(self.spans)
        record = [name, 0.0, 0.0, self._stack[-1] if self._stack else None, self._request, None]
        self.spans.append(record)
        self._stack.append(index)
        record[1] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()
        if observer is not None:
            observe, signature = observer
            try:
                record[5] = observe(signature.bind(*args, **kwargs), result)
            except (AttributeError, KeyError, TypeError, IndexError, StopIteration):
                self.unobserved.add(name)
        return result


def layer_metrics(spans: list[list], tail_latency: float) -> dict[str, float]:
    """Per-layer metrics from the spans of a traced run.

    Times and call counts are per request (``/req``), work counts per call,
    rates over the time spent in the layer. ``tail.*`` shares are taken over
    the requests whose root span lasts at least ``tail_latency``.
    """
    roots = [i for i, s in enumerate(spans) if s[0] == ROOT_SPAN]
    n_req = max(len(roots), 1)
    child_time = [0.0] * len(spans)
    for s in spans:
        if s[3] is not None:
            child_time[s[3]] += s[2] - s[1]

    def named(*names):
        return [(i, s) for i, s in enumerate(spans) if s[0] in names]

    def busy(items):
        return sum(s[2] - s[1] for _, s in items)

    def self_time(items):
        return sum(s[2] - s[1] - child_time[i] for i, s in items)

    def infos(items, key):
        return [s[5][key] for _, s in items if s[5] is not None]

    def rate(work, seconds):
        return work / seconds if seconds > 0 else 0.0

    def mean(values):
        return sum(values) / len(values) if values else 0.0

    culture = [(i, s) for i, s in enumerate(spans) if LAYER.get(s[0]) == "culture"]
    exact = named("cli.exact_winner_probability")
    sweep = named("cli.mc_convergence_sweep")
    mc = named("montecarlo.mc_winner_probability")
    limit = named("cli.limiting_probability")
    audit = named("cli.audit_table1")
    omc = named("asymptotic.orthant_mc", "orthant.orthant_mc")
    quad = named("asymptotic.equicorrelated_orthant", "orthant.equicorrelated_orthant")
    trials = infos(mc, "trials")
    draws = [i["trials"] * i["orders"] for _, s in mc if (i := s[5]) is not None]
    useful = [i["trials"] * i["support"] for _, s in mc if (i := s[5]) is not None]
    units = infos(exact, "work_units")
    samples = infos(omc, "samples")
    out = {
        "cli.requests": float(len(roots)),
        "cli.self_s": self_time([(i, spans[i]) for i in roots]) / n_req,
        "culture.load.calls": len(culture) / n_req,
        "culture.load.busy_s": busy(culture) / n_req,
        "exact.calls": len(exact) / n_req,
        "exact.busy_s": busy(exact) / n_req,
        "exact.work_units": mean(units),
        "exact.work_units_per_s": rate(sum(units), busy(exact)),
        "exact.mass_drift_max": max((abs(x - 1.0) for x in infos(exact, "total_mass")), default=0.0),
        "montecarlo.calls": len(mc) / n_req,
        "montecarlo.busy_s": busy(sweep) / n_req,
        "montecarlo.trials": mean(trials),
        "montecarlo.trials_per_s": rate(sum(trials), busy(mc)),
        "montecarlo.category_draws": mean(draws),
        "montecarlo.useful_category_share": rate(sum(useful), sum(draws)),
        "asymptotic.limit.calls": len(limit) / n_req,
        "asymptotic.limit.busy_s": busy(limit) / n_req,
        "asymptotic.limit.self_s": self_time(limit) / n_req,
        "asymptotic.audit.busy_s": busy(audit) / n_req,
        "asymptotic.audit.self_s": self_time(audit) / n_req,
        "asymptotic.classify.calls": len(named("cli.classify_m3")) / n_req,
        "orthant.mc.calls": len(omc) / n_req,
        "orthant.mc.samples": mean(samples),
        "orthant.mc.busy_s": busy(omc) / n_req,
        "orthant.mc.samples_per_s": rate(sum(samples), busy(omc)),
        "orthant.quad.calls": len(quad) / n_req,
        "orthant.quad.busy_s": busy(quad) / n_req,
        "orthant.max_stderr": max(infos(omc, "stderr"), default=0.0),
        "trace.request_s": busy([(i, spans[i]) for i in roots]) / n_req,
    }
    out.update(_tail_shares(spans, roots, child_time, tail_latency))
    return out


def _tail_shares(spans, roots, child_time, tail_latency) -> dict[str, float]:
    tail = {spans[i][4] for i in roots if spans[i][2] - spans[i][1] >= tail_latency}
    total = sum(spans[i][2] - spans[i][1] for i in roots if spans[i][4] in tail)
    time_in = dict.fromkeys(("cli_self", "culture", "exact", "montecarlo", "asymptotic_self", "orthant"), 0.0)
    for i, s in enumerate(spans):
        if s[4] not in tail:
            continue
        layer = LAYER.get(s[0])
        parent_layer = LAYER.get(spans[s[3]][0]) if s[3] is not None else None
        if layer == "cli":
            time_in["cli_self"] += s[2] - s[1] - child_time[i]
        elif layer == "asymptotic":
            time_in["asymptotic_self"] += s[2] - s[1] - child_time[i]
        elif layer in time_in and parent_layer != layer:
            time_in[layer] += s[2] - s[1]
    return {f"tail.{k}_share": (v / total if total > 0 else 0.0) for k, v in time_in.items()}
