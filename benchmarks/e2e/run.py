"""End-to-end benchmark: the paper's §3.3 view traffic over the wire.

    python3 benchmarks/e2e/run.py --workload point_oneshot --seed 1
    python3 benchmarks/e2e/run.py --workload point_oneshot --trace 1
    python3 benchmarks/e2e/run.py --repeat 3 --out base.json
    python3 benchmarks/e2e/run.py compare base.json change.json

A run starts the program under test (``server.py``) as its own process,
drives one workload over TCP from two closed-loop client threads, checks
every reply, and prints the metrics named in ``BENCHMARK.json``; the
last line of standard output is one JSON object.  Untraced runs then
kill the server with SIGKILL, recover its WAL to check that
acknowledged writes survived, and time two more server set-ups for
``setup_s``.  ``--trace 1`` runs the workload untraced
and then traced, for half of ``--seconds`` each, and prints the
per-layer metrics instead.  README.md describes the workloads and
metrics.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import random
import select
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from time import monotonic_ns

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
WORK = HERE / ".work"
SPEC = ROOT / "BENCHMARK.json"

sys.path.insert(0, str(SRC))
try:
    from repro.client import Client
    from repro.errors import ReproError
    from repro.server import recover
except ImportError as exc:
    sys.exit(f"run.py: cannot import the program under test from {SRC}: "
             f"{exc}")

import tracing  # noqa: E402  (this directory, after the program's imports)

CLIENTS = 2
WARMUP_S = 2.0
SERVER_START_S = 120.0
#: Server launches timed per untraced run; ``setup_s`` is their mean.
SETUPS = 3
#: point_oneshot's share of reads; the rest are view updates.
READ_SHARE = 0.8
ZIPF_S = 1.0
SCAN_FN = ("fn S => size(filter(fn o => query(fn v => v.Salary > 2100, o), "
           "S))")


def view(k: int) -> str:
    """The §3.3 view of employee ``e<k>``."""
    return (f"(e{k} as fn x => [Name = x.Name, Income = x.Salary, "
            f"Bonus := extract(x, Bonus)])")


def read_src(k: int) -> str:
    return f"query(fn v => v.Income, {view(k)})"


def write_src(k: int, bonus: int) -> str:
    return f"query(fn v => update(v, Bonus, {bonus}), {view(k)})"


def scan_expected(employees: int) -> int:
    """How many ``e<k>`` have ``Salary = 2000 + k > 2100``."""
    return max(0, employees - 101)


@dataclass(frozen=True)
class Workload:
    employees: int
    #: The op each client thread loops on: ``point``, ``txn`` or ``scan``.
    roles: tuple[str, str]


WORKLOADS = {
    "point_oneshot": Workload(64, ("point", "point")),
    "txn_update": Workload(64, ("txn", "txn")),
    "scan_filter": Workload(500, ("scan", "scan")),
    "scan_vs_update": Workload(500, ("scan", "txn")),
}


def unit(metric: str) -> str:
    if metric.endswith("_us"):
        return "us"
    if metric.endswith("_ms"):
        return "ms"
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_mb"):
        return "MB"
    if metric.endswith("_rps"):
        return "ops/s"
    if metric.endswith("bytes_per_write"):
        return "bytes"
    if "_per_" in metric or metric.endswith("samples"):
        return "count"
    return "ratio"


def percentile(sorted_values: list, q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


# -- the load generator -------------------------------------------------------

class WrongResult(Exception):
    """A reply that differs from what the catalog must hold."""


class Traffic:
    """What both client threads of one phase share: the measurement
    window and the statement texts sent so far."""

    def __init__(self, t0: int, t1: int):
        self.t0 = t0
        self.t1 = t1
        self._lock = threading.Lock()
        self._seen: set[str] = set()
        self.texts = 0
        self.repeats = 0

    def sent(self, src: str) -> None:
        with self._lock:
            if monotonic_ns() >= self.t0:
                self.texts += 1
                self.repeats += src in self._seen
            self._seen.add(src)


class Loop:
    """One closed-loop client thread and what it observed."""

    def __init__(self, index: int, role: str, rng: random.Random,
                 employees: int, hot: list[int], traffic: Traffic):
        self.index = index
        self.rng = rng
        self.employees = employees
        self.hot = hot
        self.zipf = list(itertools.accumulate(
            1 / rank ** ZIPF_S for rank in range(1, employees + 1)))
        self.traffic = traffic
        self.op = getattr(self, role)
        #: (end, latency, is_write, is_oneshot) per completed op, in ns.
        self.ops: list[tuple[int, int, bool, bool]] = []
        self.failed: list[tuple[int, str]] = []  # (end, reason) per failure
        self.wrong: list[str] = []
        self.acked: dict[int, int] = {}  # key -> last acknowledged Bonus
        self.touched: set[int] = set()  # keys of committed transactions
        self.error: BaseException | None = None

    def point(self, client) -> tuple[bool, bool]:
        rng = self.rng
        if rng.random() < READ_SHARE:
            k = rng.randrange(self.employees)
            src = read_src(k)
            self.traffic.sent(src)
            self.expect(client.eval_py(src), 2000 + k, f"e{k}.Income")
            return False, True
        # Client i writes only keys ≡ i (mod 2), so the last value it
        # acknowledged per key is the value a durable catalog must hold.
        k = rng.randrange(self.index, self.employees, CLIENTS)
        bonus = rng.randrange(1, 1 << 30)
        src = write_src(k, bonus)
        self.traffic.sent(src)
        client.exec(src)
        self.acked[k] = bonus
        return True, True

    def txn(self, client) -> tuple[bool, bool]:
        k = self.rng.choices(self.hot, cum_weights=self.zipf)[0]
        src = read_src(k)

        def body(txn):
            self.traffic.sent(src)
            income = txn.eval_py(src)
            self.expect(income, 2000 + k, f"e{k}.Income")
            txn.update_object(f"e{k}", "Bonus", 3 * income)

        client.run(body)
        self.touched.add(k)
        return True, False

    def scan(self, client) -> tuple[bool, bool]:
        self.traffic.sent(SCAN_FN)
        self.expect(client.query("Emp", SCAN_FN),
                    scan_expected(self.employees), "the Emp scan")
        return False, True

    @staticmethod
    def expect(got, want, what: str) -> None:
        if got != want:
            raise WrongResult(f"{what} read {got!r}, expected {want!r}")

    def main(self, host: str, port: int, stop: threading.Event) -> None:
        try:
            with Client(host, port, pool_size=1) as client:
                while not stop.is_set():
                    start = monotonic_ns()
                    try:
                        is_write, oneshot = self.op(client)
                    except WrongResult as exc:
                        self.wrong.append(str(exc))
                        self.failed.append((monotonic_ns(), str(exc)))
                        continue
                    except (ReproError, OSError) as exc:
                        self.failed.append((monotonic_ns(), repr(exc)))
                        continue
                    end = monotonic_ns()
                    self.ops.append((end, end - start, is_write, oneshot))
        except Exception as exc:  # re-raised by the main thread
            self.error = exc


class ServerProcess:
    """``server.py`` as a child process over a fresh catalog."""

    def __init__(self, workdir: Path, employees: int, trace: bool):
        self.workdir = workdir
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir(parents=True)
        cmd = [sys.executable, str(HERE / "server.py"), "--workdir",
               str(workdir), "--employees", str(employees)]
        if trace:
            cmd.append("--trace")
        self.log = open(workdir / "server.log", "wb")
        started = time.monotonic()
        self.proc = subprocess.Popen(
            cmd, cwd=ROOT, env=dict(os.environ, PYTHONPATH=str(SRC)),
            stdout=subprocess.PIPE, stderr=self.log)
        try:
            self.host, self.port = self._await_ready()
            with Client(self.host, self.port, pool_size=1) as client:
                client.ping()
        except BaseException:
            self.kill()
            raise
        #: Seconds from launch through population to the first ping reply.
        self.setup_s = time.monotonic() - started

    def _await_ready(self) -> tuple[str, int]:
        deadline = time.monotonic() + SERVER_START_S
        while True:
            readable, _, _ = select.select(
                [self.proc.stdout], [], [],
                max(0.0, deadline - time.monotonic()))
            if not readable:
                raise RuntimeError(f"the server did not start within "
                                   f"{SERVER_START_S:.0f} s; see "
                                   f"{self.workdir / 'server.log'}")
            line = self.proc.stdout.readline().decode()
            if not line:
                raise RuntimeError(f"the server exited with code "
                                   f"{self.proc.wait()}; see "
                                   f"{self.workdir / 'server.log'}")
            if line.startswith("ready "):
                _, host, port = line.split()
                return host, int(port)

    def peak_rss_mb(self) -> float:
        status = Path(f"/proc/{self.proc.pid}/status").read_text()
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
        raise RuntimeError("no VmHWM line in /proc/<pid>/status")

    def stop(self) -> None:
        """SIGTERM, then wait for the server to write its spans and exit."""
        self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.wait(timeout=60)
        finally:
            self.kill()

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self.proc.stdout.close()
        self.log.close()


@dataclass
class Phase:
    """One measured stretch of traffic against one server."""

    loops: list[Loop]
    traffic: Traffic
    setup_s: float
    rss_mb: float
    wal: Path
    wal_bytes: int
    spans: list | None

    def ops(self) -> list[tuple[int, int, bool, bool]]:
        """Ops completed inside the measurement window."""
        t0, t1 = self.traffic.t0, self.traffic.t1
        return [op for loop in self.loops for op in loop.ops
                if t0 <= op[0] < t1]

    def failed(self) -> list[str]:
        """Why each op that failed inside the window failed."""
        t0, t1 = self.traffic.t0, self.traffic.t1
        return [reason for loop in self.loops for end, reason in loop.failed
                if t0 <= end < t1]

    def wrong(self) -> list[str]:
        return [msg for loop in self.loops for msg in loop.wrong]


def run_phase(name: str, seed: int, seconds: float, trace: bool) -> Phase:
    """Set a server up and drive ``name`` against it for a warm-up and
    then ``seconds``."""
    workload = WORKLOADS[name]
    workdir = WORK / name / ("traced" if trace else "untraced")
    server = None
    client_tracer = undo = None
    try:
        server = ServerProcess(workdir, workload.employees, trace)
        if trace:
            client_tracer = tracing.Tracer(first_id=1 << 40)
            undo = tracing.install_client(client_tracer)
        shared = random.Random(f"{seed}:{name}")
        hot = list(range(workload.employees))
        shared.shuffle(hot)  # Zipf rank order, the same for both clients
        now = monotonic_ns()
        t0 = now + int(min(WARMUP_S, seconds / 5) * 1e9)
        traffic = Traffic(t0, t0 + int(seconds * 1e9))
        loops = [Loop(i, role, random.Random(f"{seed}:{name}:{i}"),
                      workload.employees, hot, traffic)
                 for i, role in enumerate(workload.roles)]
        stop = threading.Event()
        threads = [threading.Thread(target=loop.main,
                                    args=(server.host, server.port, stop),
                                    name=f"e2e-client-{loop.index}")
                   for loop in loops]
        for thread in threads:
            thread.start()
        try:
            wal = workdir / "db.wal"
            time.sleep(max(0.0, (traffic.t0 - monotonic_ns()) / 1e9))
            wal_start = wal.stat().st_size
            time.sleep(max(0.0, (traffic.t1 - monotonic_ns()) / 1e9))
            wal_bytes = wal.stat().st_size - wal_start
        finally:
            stop.set()
            for thread in threads:
                thread.join(timeout=60)
        if any(thread.is_alive() for thread in threads):
            raise RuntimeError("a client thread did not stop within 60 s")
        for loop in loops:
            if loop.error is not None:
                raise loop.error
        rss_mb = server.peak_rss_mb()
        spans = None
        if trace:
            server.stop()
            spans = tracing.load(workdir / "spans.jsonl") + client_tracer.spans
        else:
            server.kill()  # SIGKILL: the durability check recovers the WAL
        return Phase(loops, traffic, server.setup_s, rss_mb, wal, wal_bytes,
                     spans)
    finally:
        if undo is not None:
            undo()
        if server is not None:
            server.kill()


def relaunch_setup_s(name: str) -> float:
    """Set a fresh server up for ``name``, stop it, and return its
    ``setup_s``."""
    server = ServerProcess(WORK / name / "setup", WORKLOADS[name].employees,
                           trace=False)
    server.kill()
    return server.setup_s


# -- checks and metrics -------------------------------------------------------

def durability(name: str, phase: Phase) -> tuple[float | None, list[str]]:
    """Recover the killed server's WAL and compare it with what the
    clients were told: the share of acknowledged writes that survived,
    or None for a workload that writes nothing, and any problems."""
    employees = WORKLOADS[name].employees
    catalog, _report = recover(str(phase.wal))
    try:
        problems = []
        scan = catalog.query("Emp", SCAN_FN)
        if scan != scan_expected(employees):
            problems.append(f"the recovered Emp scan read {scan!r}")
        expected: dict[int, int] = {}
        for loop in phase.loops:
            expected.update(loop.acked)
            expected.update({k: 3 * (2000 + k) for k in loop.touched})
        if not expected:
            return None, problems
        durable = sum(
            catalog.session.eval_py(f"query(fn x => x.Bonus, e{k})") == v
            for k, v in expected.items())
        return durable / len(expected), problems
    finally:
        catalog.wal.close()


def latency_metrics(ops, prefix: str = "") -> dict:
    latencies = sorted(op[1] / 1e6 for op in ops)
    if not latencies:
        return {}
    return {f"{prefix}p50_ms": percentile(latencies, 0.50),
            f"{prefix}p95_ms": percentile(latencies, 0.95),
            f"{prefix}p99_ms": percentile(latencies, 0.99),
            f"{prefix}samples": len(latencies)}


def outcome(ops: list, failed: list[str], problems: list[str],
            metrics: dict) -> dict:
    notes = sorted(set(failed))[:3]
    if len(ops) < 1000:
        notes.append(f"only {len(ops)} ops: a p99 needs 1000")
    return {"correct": not problems, "attempted": len(ops) + len(failed),
            "failed": len(failed), "metrics": metrics, "problems": problems,
            "notes": notes}


def untraced_run(name: str, seed: int, seconds: float) -> dict:
    phase = run_phase(name, seed, seconds, trace=False)
    ops = phase.ops()
    failed = phase.failed()
    problems = phase.wrong()
    share, lost = durability(name, phase)
    problems += lost
    if "txn" in WORKLOADS[name].roles and share != 1.0:
        problems.append(f"only {share} of committed transactions survived "
                        "SIGKILL and recovery")
    # The host has slow episodes lasting seconds, so the other set-ups
    # are timed after the window rather than back to back with the
    # first.  A single launch runs either in one or outside it, so the
    # median of a few launches jumps between two levels; their mean
    # moves with the share of slow launches.
    setup_s = [phase.setup_s] + [relaunch_setup_s(name)
                                 for _ in range(SETUPS - 1)]
    metrics = {"throughput_rps": len(ops) / seconds,
               **latency_metrics(ops),
               "setup_s": statistics.fmean(setup_s),
               "server_peak_rss_mb": phase.rss_mb}
    metrics.update(latency_metrics([op for op in ops if not op[2]], "read_"))
    metrics.update(latency_metrics([op for op in ops if op[2]], "write_"))
    metrics["error_rate"] = len(failed) / max(1, len(ops) + len(failed))
    if share is not None:
        metrics["durable_write_share"] = share
    return outcome(ops, failed, problems, metrics)


def traced_run(name: str, seed: int, seconds: float) -> dict:
    plain = run_phase(name, seed, seconds / 2, trace=False)
    traced = run_phase(name, seed, seconds / 2, trace=True)
    ops = traced.ops()
    metrics = tracing.layer_metrics(
        traced.spans, traced.traffic.t0, traced.traffic.t1, ops=len(ops),
        writes=sum(op[2] for op in ops),
        latency_ns=sum(op[1] for op in ops),
        oneshot_latency_ns=sum(op[1] for op in ops if op[3]),
        wal_bytes=traced.wal_bytes)
    metrics["frontend.repeat_share"] = (traced.traffic.repeats
                                        / traced.traffic.texts)
    metrics["trace.overhead"] = 1 - len(ops) / len(plain.ops())
    return outcome(ops, traced.failed(), plain.wrong() + traced.wrong(),
                   metrics)


def one_run(name: str, seed: int, seconds: float, trace: bool) -> dict:
    result = (traced_run(name, seed, seconds) if trace
              else untraced_run(name, seed, seconds))
    result.update(workload=name, seed=seed, seconds=seconds, trace=int(trace))
    return result


def render(result: dict) -> str:
    mode = "traced" if result["trace"] else "untraced"
    lines = [f"{result['workload']}  seed {result['seed']}  {mode}  "
             f"{result['seconds']:g} s  attempted {result['attempted']}  "
             f"failed {result['failed']}  "
             f"correct {str(result['correct']).lower()}"]
    for metric, value in result["metrics"].items():
        shown = "n/a" if value is None else f"{value:.6g}"
        lines.append(f"  {metric:32} {shown:>12} {unit(metric)}")
    lines += [f"  problem: {problem}" for problem in result["problems"]]
    lines += [f"  note: {note}" for note in result["notes"]]
    return "\n".join(lines)


def contract_line(result: dict, spec: dict) -> str:
    """The last output line: the metrics BENCHMARK.json names."""
    names = [m["name"] for m in
             spec["per_layer" if result["trace"] else "end_to_end"]]
    return json.dumps({
        "correct": result["correct"], "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": result["metrics"][name],
                           "unit": unit(name)} for name in names}})


# -- repeat and compare -------------------------------------------------------

def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def summarize(results: list[dict]) -> dict:
    """Median and quartiles of each metric, per workload."""
    summary: dict = {}
    for result in results:
        rows = summary.setdefault(result["workload"], {})
        for metric, value in result["metrics"].items():
            if value is not None:
                rows.setdefault(metric, []).append(value)
    return {workload: {metric: dict(zip(("q1", "median", "q3"),
                                        quartiles(values)), n=len(values))
                       for metric, values in rows.items()}
            for workload, rows in summary.items()}


def spread(values: list[float]) -> float:
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / abs(median) if median else 0.0


def verdict(base: list[float], change: list[float], better: str,
            bound: float) -> str:
    """The choosing-metrics rule for one metric × workload pair."""
    sign = 1 if better == "higher" else -1
    base_median = statistics.median(base)
    gain = sign * (statistics.median(change) - base_median) / abs(base_median)
    if max(spread(base), spread(change)) > bound:
        if all(sign * c > sign * b for c in change for b in base):
            return "improved"
        return "unresolved"
    if gain > bound:
        return "improved"
    if gain < -bound:
        return "worse"
    return "unchanged"


def compare(argv: list[str], spec: dict) -> int:
    parser = argparse.ArgumentParser(
        prog="run.py compare",
        description="Apply BENCHMARK.json's bounds to two result files "
                    "written by --out.")
    parser.add_argument("base", type=Path)
    parser.add_argument("change", type=Path)
    args = parser.parse_args(argv)
    base = json.loads(args.base.read_text())["runs"]
    change = json.loads(args.change.read_text())["runs"]
    bounded = {m["name"]: m for m in spec["end_to_end"]}
    worse = False
    for workload in [w["name"] for w in spec["workloads"]]:
        for metric in sorted({m for run in base.get(workload, [])
                              for m in run["metrics"]}):
            a = [run["metrics"][metric] for run in base.get(workload, [])
                 if run["metrics"].get(metric) is not None]
            b = [run["metrics"][metric] for run in change.get(workload, [])
                 if run["metrics"].get(metric) is not None]
            if not a or not b:
                continue
            # read_p95_ms and write_p95_ms take p95_ms's bound, and so on.
            rule = bounded.get(metric) or bounded.get(
                metric.removeprefix("read_").removeprefix("write_"))
            finding = ("no bound" if rule is None
                       else verdict(a, b, rule["better"], rule["bound"]))
            worse |= finding == "worse"
            median_a, median_b = statistics.median(a), statistics.median(b)
            delta = (median_b - median_a) / abs(median_a) if median_a else 0.0
            print(f"{workload:15} {metric:32} {median_a:>12.6g} -> "
                  f"{median_b:<12.6g} {delta:+8.1%}  spread "
                  f"{spread(a):.1%}/{spread(b):.1%}  {finding}")
    return 1 if worse else 0


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    spec = json.loads(SPEC.read_text())
    if argv[:1] == ["compare"]:
        return compare(argv[1:], spec)
    parser = argparse.ArgumentParser(
        description="End-to-end wire benchmark; see README.md.")
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"],
                        default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"],
                        help="measured seconds per run (default: "
                             "BENCHMARK.json's run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), nargs="?",
                        const=1, default=0,
                        help="1: print per-layer metrics from a traced run")
    parser.add_argument("--repeat", type=int, default=1,
                        help="runs per workload, all with the same seed")
    parser.add_argument("--out", type=Path,
                        help="write every run's metrics here as JSON "
                             "(for compare)")
    args = parser.parse_args(argv)
    if args.seconds <= 0 or args.repeat < 1:
        parser.error("--seconds and --repeat must be positive")

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = []
    for name, _ in itertools.product(names, range(args.repeat)):
        result = one_run(name, args.seed, args.seconds, bool(args.trace))
        results.append(result)
        print(render(result), flush=True)
    if args.out is not None:
        runs: dict = {}
        for result in results:
            runs.setdefault(result["workload"], []).append(result)
        args.out.write_text(json.dumps({"runs": runs}, indent=1) + "\n")
    correct = all(result["correct"] for result in results)
    if len(results) == 1:
        print(contract_line(results[0], spec))
    else:
        summary = summarize(results)
        for workload, rows in summary.items():
            for metric, row in rows.items():
                print(f"{workload:15} {metric:32} median {row['median']:<12.6g}"
                      f" q1 {row['q1']:<12.6g} q3 {row['q3']:<12.6g} "
                      f"n {row['n']}")
        print(json.dumps({"correct": correct, "summary": summary}))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
