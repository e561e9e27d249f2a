"""Timing, failure bookkeeping, answer checks and tracing for one run.

Every call into the package goes through `Runner.call`, which times it,
records an exception as a failed operation (with the input's name and the
exception type) and, when a `Tracer` is attached, records a span.  Answer
checks run inside `Runner.untimed()` so that they stay out of `wall_s`.
All durations are taken on `hostclock`, which runs at a fixed reference
speed of the CPU.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from contextlib import contextmanager
from statistics import median

import hostclock

FAILED = object()  # result of a call that raised


class Tracer:
    """Spans kept in memory: [name, start_ns, end_ns, parent index, input].

    Also sums seconds and calls per span name (and per `tag`ged name), and
    keeps named counters."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.totals: dict[str, list] = {}
        self.counters: dict[str, float] = {}

    def open(self, name: str, input_id: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, int(hostclock.now() * 1e9), 0, parent, input_id])
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def close(self, sid: int, tag: str | None = None) -> None:
        span = self.spans[sid]
        span[2] = int(hostclock.now() * 1e9)
        self._stack.pop()
        seconds = (span[2] - span[1]) / 1e9
        for key in (span[0], f"{span[0]}.{tag}" if tag else None):
            if key:
                total = self.totals.setdefault(key, [0.0, 0])
                total[0] += seconds
                total[1] += 1

    def count(self, name: str, value: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + value

    def self_seconds(self) -> dict[str, float]:
        """Per layer (the span name up to its first dot): span time minus
        the time its child spans cover."""
        child = [0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = {}
        for (name, start, end, _, _), covered in zip(self.spans, child):
            layer = name.split(".", 1)[0]
            out[layer] = out.get(layer, 0.0) + (end - start - covered) / 1e9
        return out

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(
                {
                    "fields": ["name", "start_ns", "end_ns", "parent", "input"],
                    "spans": self.spans,
                    "counters": self.counters,
                },
                fh,
            )


class Runner:
    """Runs the operations of one pass and keeps what the output needs."""

    def __init__(self, root: str, tracer: Tracer | None = None):
        self.root = root
        self.tracer = tracer
        self.attempted = 0
        self.failures: list[dict] = []
        self.wrong: list[str] = []
        self.busy = 0.0  # seconds spent inside calls
        self.cli_seconds: list[float] = []
        self.class_seconds: list[float] = []
        self._paused = 0.0
        self._env = dict(os.environ)
        self._env.pop("MONOALG_BOUND", None)
        src = os.path.join(root, "src")
        self._env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, self._env.get("PYTHONPATH")) if p
        )

    # -- calls ------------------------------------------------------------

    def call(self, name, input_id, fn, *args, answers=(), tag=None, **kwargs):
        """fn(*args, **kwargs), timed.  Exceptions listed in `answers` are
        answers (returned as the exception object); any other exception is
        a failed operation and gives FAILED."""
        self.attempted += 1
        sid = self.tracer.open(name, input_id) if self.tracer else -1
        t0 = hostclock.now()
        try:
            result = fn(*args, **kwargs)
        except answers as exc:
            result = exc
        except Exception as exc:  # the benchmark counts every raise as a failure
            result = FAILED
            self.failures.append({"op": name, "input": input_id, "error": type(exc).__name__})
        finally:
            self.busy += hostclock.now() - t0
            if self.tracer:
                self.tracer.close(sid, tag)
        return result

    def cli(self, verb, input_id, args, codes):
        """Run `python -m monoalg.cli` once; returns (exit code, stdout,
        stderr), or None when it timed out, printed a traceback or exited
        with a code outside `codes`."""
        name = f"cli.{verb}"
        self.attempted += 1
        sid = self.tracer.open(name, input_id) if self.tracer else -1
        t0 = hostclock.now()
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "monoalg.cli", *args],
                cwd=self.root, env=self._env, capture_output=True, text=True, timeout=120,
            )
            error = None
            if "Traceback" in proc.stderr:
                error = proc.stderr.strip().splitlines()[-1].split(":", 1)[0]
            elif proc.returncode not in codes:
                error = f"exit {proc.returncode}"
        except subprocess.TimeoutExpired:
            proc, error = None, "TimeoutExpired"
        finally:
            dt = hostclock.now() - t0
            self.busy += dt
            self.cli_seconds.append(dt)
            if self.tracer:
                self.tracer.close(sid)
        if error:
            self.failures.append({"op": name, "input": input_id, "error": error})
            return None
        return proc.returncode, proc.stdout, proc.stderr

    def cli_json(self, verb, input_id, args, codes):
        """`cli` with --json: the parsed output, or None when the call failed."""
        out = self.cli(verb, input_id, [*args, "--json"], codes)
        if out is None:
            return None
        with self.untimed():
            try:
                return json.loads(out[1])
            except ValueError:
                self.wrong.append(f"cli {verb} on {input_id}: output is not JSON")
                return None

    @contextmanager
    def group(self, name, input_id):
        """A span around several calls (its self time is the benchmark's)."""
        sid = self.tracer.open(name, input_id) if self.tracer else -1
        try:
            yield
        finally:
            if self.tracer:
                self.tracer.close(sid)

    def count(self, name, value=1):
        if self.tracer:
            self.tracer.count(name, value)

    # -- checks -------------------------------------------------------------

    @contextmanager
    def untimed(self):
        t0 = hostclock.now()
        try:
            yield
        finally:
            self._paused += hostclock.now() - t0

    def expect(self, ok: bool, what: str) -> None:
        if not ok:
            self.wrong.append(what)

    def expect_result(self, result, expected, what: str) -> None:
        """A failed call is already counted; any other result must equal
        `expected`."""
        if result is not FAILED and result != expected:
            self.wrong.append(f"{what}: got {result!r:.200}, expected {expected!r:.200}")

    # -- passes -------------------------------------------------------------

    def timed_pass(self, body) -> float:
        """Run body(self); returns its wall time minus the untimed checks."""
        paused0 = self._paused
        t0 = hostclock.now()
        body(self)
        return hostclock.now() - t0 - (self._paused - paused0)


class Spread:
    """Runs `calls` at evenly spaced points of a pass: call `step` at each of
    `steps` points, then `finish`.  The host's CPU speed drifts over tens of
    seconds, so calls bunched at one end of a pass would all sample the same
    stretch of it."""

    def __init__(self, calls, steps: int):
        self._calls, self._steps, self._step, self._done = list(calls), steps, 0, 0

    def step(self) -> None:
        self._step += 1
        self._run_until(len(self._calls) * self._step // self._steps)

    def finish(self) -> None:
        self._run_until(len(self._calls))

    def _run_until(self, k: int) -> None:
        while self._done < min(k, len(self._calls)):
            self._done += 1
            self._calls[self._done - 1]()


def interleave(*lists) -> list:
    """The items of all lists, each list's items spread evenly over the
    result."""
    keyed = sorted(((i + 0.5) / len(items), k, i) for k, items in enumerate(lists) for i in range(len(items)))
    return [lists[k][i] for _, k, i in keyed]


def tail(samples):
    """Highest percentile value with at least ten samples beyond it."""
    s = sorted(samples)
    return s[len(s) - 11] if len(s) > 10 else None


def p50(samples):
    return median(samples) if samples else None
