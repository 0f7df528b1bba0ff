"""Closed-loop runner: one process, one thread, one client.

The client sends its next op when the last one returns.  A run is made of
whole blocks, so every run holds each op class in the same share; it ends
at the first block boundary after ``seconds`` of busy time.

``--trace 0`` installs nothing and reports the end-to-end metrics.
``--trace 1`` alternates an untraced and a traced pass over the same fixed
ops (the first ``TRACE_BLOCKS`` blocks) and reports the per-layer metrics;
their counts repeat exactly for a seed.
"""

from __future__ import annotations

import gc
import os
import resource
import shutil
import statistics
import sys
import time

import tracing
import workloads

_clock = time.perf_counter
TAIL_BEYOND = 10  # samples the tail percentile must leave above it
SETUP_REPS = 3  # set-ups per end-to-end run; setup_s is their median


def _metric(value, unit):
    return {"value": value, "unit": unit}


class _Tally:
    """Latencies and failures of the ops attempted so far."""

    def __init__(self):
        self.latencies: list[tuple[float, str]] = []
        self.failed = 0
        self.failures: list[str] = []
        self.problems: list[str] = []  # failed checks not tied to one op

    def attempt(self, op) -> float:
        start = _clock()
        try:
            out = op.run()
        except Exception as exc:  # an op that raises is a failed op; the run goes on
            busy = _clock() - start
            self._fail(op, f"{type(exc).__name__}: {exc}")
        else:
            busy = _clock() - start
            try:
                ok = op.check(out)
            except Exception as exc:  # malformed output counts as wrong output
                ok = False
                out = f"{type(exc).__name__}: {exc}"
            if not ok:
                self._fail(op, f"wrong output {_describe(out)}")
        self.latencies.append((busy, op.cls))
        return busy

    def _fail(self, op, why):
        self.failed += 1
        if len(self.failures) < 5:
            self.failures.append(f"{op.cls}: {why}")

    @property
    def attempted(self):
        return len(self.latencies)


def _describe(out) -> str:
    try:
        text = repr(out)
    except ValueError:  # an int beyond the int-str digit cap
        text = f"<{type(out).__name__}>"
    return text[:200]


def _tail(latencies):
    """(value, percentile, n) of the highest percentile with TAIL_BEYOND samples above it."""
    ordered = sorted(latencies)
    n = len(ordered)
    index = max(n - TAIL_BEYOND - 1, 0)
    return ordered[index], 100.0 * (index + 1) / n, n


def _setup(name, seed, work_dir, reps):
    """Generate the inputs, then prepare them reps times; last blocks and median time.

    Only ``prepare`` is timed: drawing the inputs is the harness's own work.
    Each repetition writes into a fresh directory: on some file systems
    truncating or unlinking a file just written costs tens of milliseconds,
    which would otherwise land in the measured set-up.
    """
    inputs = workloads.generate(name, seed)
    times, blocks = [], None
    for rep in range(reps):
        rep_dir = os.path.join(work_dir, f"rep{rep}")
        start = _clock()
        blocks = workloads.prepare(name, inputs, rep_dir)
        times.append(_clock() - start)
    return blocks, statistics.median(times)


def _timed(blocks, seconds, tally):
    busy, b = 0.0, 0
    while True:
        for op in blocks[b % len(blocks)]:
            busy += tally.attempt(op)
        b += 1
        if busy >= seconds:
            return busy


def _end_to_end(seed, blocks, seconds, setup_s, tally, lines):
    busy = _timed(blocks, seconds, tally)
    ratio, probe_ok = workloads.code_bits_ratio(seed)
    if not probe_ok:
        tally.problems.append("size probe: the crt oracle disagrees with the code")
    lat = [t for t, _ in tally.latencies]
    p50 = statistics.median(lat)
    (tail, tail_cls), tail_pct, n = _tail(tally.latencies)
    median_cls = sorted(tally.latencies)[(n - 1) // 2][1]
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    lines += [
        f"latency_p50_ms   {p50 * 1e3:.4f}  (median op class: {median_cls})",
        f"latency_tail_ms  {tail * 1e3:.4f}  at p{tail_pct:.2f} of n={n}, "
        f"{min(TAIL_BEYOND, n - 1)} samples beyond (op class: {tail_cls})",
        f"busy {busy:.3f} s, error_rate {tally.failed / tally.attempted:.6f}",
    ]
    return {
        "ops_per_s": _metric((tally.attempted - tally.failed) / busy, "1/s"),
        "latency_p50_ms": _metric(p50 * 1e3, "ms"),
        "latency_tail_ms": _metric(tail * 1e3, "ms"),
        "code_bits_ratio": _metric(ratio, "ratio"),
        "setup_s": _metric(setup_s, "s"),
        "peak_rss_mb": _metric(peak_mb, "MB"),
    }


def _pass(ops, tally, tracer=None):
    busy = 0.0
    for op_id, op in enumerate(ops):
        if tracer is None:
            busy += tally.attempt(op)
            continue
        tracer.op_id = op_id
        busy += tracer.call(f"op.{op.cls}", tally.attempt, op)
    return busy


def _per_layer(name, ops, seconds, tally, spans_path, lines):
    untraced, traced, counts, self_totals, first = [], [], None, [], None
    while not traced or sum(untraced) + sum(traced) < seconds:
        untraced.append(_pass(ops, tally))
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced.append(_pass(ops, tally, tracer))
        finally:
            tracer.remove()
        calls, self_s = tracing.self_times(tracer.spans)
        pass_counts = (calls, tracer.lt_calls, tracer.assignments)
        if counts is None:
            counts, first = pass_counts, tracer
        elif pass_counts != counts:
            tally.problems.append("trace: span counts differ between passes")
        self_totals.append(self_s)
    tracing.write_spans(first.spans, spans_path)
    calls, lt_calls, assignments = counts
    spans = first.spans

    def ratio(num, den):
        return num / den if den else 0.0

    metrics = {}
    for span in tracing.SPAN_NAMES + tracing.RUN_AXIOM_SPANS:
        metrics[f"{span}.calls"] = _metric(calls[span], "count")
        metrics[f"{span}.self_s"] = _metric(statistics.median(s[span] for s in self_totals), "s")
    for model in tracing.MODEL_NAMES:
        metrics[f"models.{model}.assignments"] = _metric(assignments[model], "count")
    metrics["models.polynat.lt.calls"] = _metric(lt_calls, "count")
    metrics["codec.isqrt_per_append"] = _metric(ratio(
        tracing.count_within(spans, "codec.isqrt", "codec.seq_append"), calls["codec.seq_append"]), "ratio")
    metrics["codec.unpair_per_decode"] = _metric(ratio(
        tracing.count_within(spans, "codec.unpair", "codec.seq_decode"), calls["codec.seq_decode"]), "ratio")
    metrics["witness.divisor_product_per_cert"] = _metric(ratio(
        tracing.count_within(spans, "witness.divisor_product", "witness.product_inverse"),
        calls["witness.product_inverse"]), "ratio")
    coded = [op.w_bits for op in ops if op.w_bits]
    metrics["codec.w_bits_mean"] = _metric(statistics.fmean(coded) if coded else 0.0, "bits")
    overheads = [t / u for t, u in zip(traced, untraced)]
    metrics["trace_overhead"] = _metric(statistics.median(overheads), "ratio")
    if name == "build":
        ks = [op.k for op in ops]
        lines.append(f"isqrt_per_append expected sum(2k-1)/sum(k) = "
                     f"{sum(2 * k - 1 for k in ks) / sum(ks):.6f}")
    lines.append(f"{len(traced)} untraced/traced pass pairs of {len(ops)} ops; "
                 f"{len(spans)} spans written to {spans_path}")
    return metrics


def run(name, seed, seconds, trace, root):
    """Run one workload; returns (result dict, human-readable lines)."""
    out_dir = os.path.join(root, ".bench_out")
    work_dir = os.path.join(out_dir, f"{name}-{os.getpid()}")
    cap_before = sys.get_int_max_str_digits()
    lines = [f"workload {name} seed {seed} trace {trace}"]
    tally = _Tally()
    os.makedirs(out_dir, exist_ok=True)
    try:
        blocks, setup_s = _setup(name, seed, work_dir, 1 if trace else SETUP_REPS)
        # The collector would otherwise rescan the harness's own inputs and
        # ops in every full collection during the run, a cost the library
        # does not have outside the benchmark.
        gc.collect()
        gc.freeze()
        if trace:
            ops = [op for block in blocks[:workloads.TRACE_BLOCKS[name]] for op in block]
            spans_path = os.path.join(out_dir, f"spans-{name}-seed{seed}.tsv")
            metrics = _per_layer(name, ops, seconds, tally, spans_path, lines)
        else:
            metrics = _end_to_end(seed, blocks, seconds, setup_s, tally, lines)
        drift = sys.get_int_max_str_digits() - cap_before
    finally:
        gc.unfreeze()
        sys.set_int_max_str_digits(cap_before)
        shutil.rmtree(work_dir, ignore_errors=True)
    if trace:
        metrics["decimal.int_max_str_digits_drift"] = _metric(drift, "digits")
    lines.append(f"int_max_str_digits drift {drift} (restored to {cap_before})")
    lines += [f"FAILED {f}" for f in tally.failures + tally.problems]
    result = {"correct": tally.failed == 0 and not tally.problems, "attempted": tally.attempted,
              "failed": tally.failed, "metrics": metrics}
    return result, lines
