"""service_http: live traffic to ``repro jobs serve --http``.

The server runs as its own process with ``--workers 2`` on a copy of a
store that already holds ~2000 historical *done* jobs.  Two client
threads drive it as a closed loop for ``--seconds``, or up to a quarter
longer until each has completed 50 fresh jobs.  Each job is a kmb route of ``term1``
at 0.22 on XC3000, W=6, with a distinct synthesis seed.  Every 4th
submission repeats one of the client's earlier circuits, so dedupe
adoption (read and re-verify) runs beside fresh routes.  Clients wait
on the SSE stream, fetch the result, then ``GET /v1/metrics``.

The historical store is built once per source tree through the public
API: one routed circuit, resubmitted until dedupe has made ~2000 done
jobs, each with its own result file.
"""

from __future__ import annotations

import hashlib
import os
import random
import re
import select
import shutil
import signal
import subprocess
import sys
import threading
import time

from common import (
    Gate, HERE, ROOT, SRC, WORK, median, p90, pinned_signature,
    report_unpinned, scaled_call, signature_matches,
)

CIRCUIT = "term1"
FRACTION, TINY_FRACTION = 0.22, 0.1
FAMILY, WIDTH = "xc3000", 6
CONFIG = {"algorithm": "kmb"}
CLIENTS, WORKERS = 2, 2
REPEAT_EVERY = 4
HISTORY_JOBS, TINY_HISTORY_JOBS = 2000, 20
HISTORY_SEED = 7
#: the first fresh jobs of each client make up the quality signature
QUALITY_JOBS, TINY_QUALITY_JOBS = 20, 2
SETUP_REPEATS = 5
#: a client cannot finish a fresh job faster than this (sizes the pool)
MIN_JOB_S = 0.2
#: fresh jobs each client completes, time allowing, so that the p90 of
#: a run's fresh-job latencies has at least 10 samples above it
MIN_FRESH = 50
#: to complete them, a run may go on past ``--seconds`` by this share
EXTEND_SHARE = 0.25
#: the server's SSE hub polls job status this often (ServiceHTTP's
#: ``sse_poll_s``); clients subscribe after a random part of it, so the
#: poll phase is not locked to when each job started
SSE_POLL_S = 0.2

_LISTENING = re.compile(rb"http: listening on (\S+):(\d+)")


def job_circuit(tiny, seed):
    from repro.fpga import circuit_spec, scaled_spec, synthesize_circuit

    fraction = TINY_FRACTION if tiny else FRACTION
    return synthesize_circuit(
        scaled_spec(circuit_spec(CIRCUIT), fraction), seed=seed
    )


def job_config():
    from repro.router import RouterConfig

    return RouterConfig(**CONFIG)


def _source_digest():
    digest = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def history_store(tiny):
    """The pristine historical store for this source tree (built once)."""
    jobs = TINY_HISTORY_JOBS if tiny else HISTORY_JOBS
    final = WORK / f"history-{jobs}-{_source_digest()}"
    if final.is_dir():
        return final
    from repro.service import RoutingService

    tmp = WORK / f"{final.name}.tmp{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    service = RoutingService(str(tmp))
    circuit = job_circuit(tiny, HISTORY_SEED)
    for _ in range(jobs):
        record = service.submit(
            circuit, config=job_config(), family=FAMILY, width=WIDTH
        )
        if record.state != "done":
            service.run_until_idle()
    states = {r["state"] for r in service.jobs()}
    if states != {"done"}:
        raise RuntimeError(f"history build left jobs in states {states}")
    try:
        os.rename(tmp, final)
    except OSError:  # a concurrent run built it first
        shutil.rmtree(tmp, ignore_errors=True)
    return final


class Server:
    """One ``repro jobs serve --http`` process on the store at ``root``."""

    def __init__(self, root, log_path, spans=None):
        self.root = root
        serve = ["jobs", "serve", "--root", str(self.root),
                 "--http", "127.0.0.1:0", "--workers", str(WORKERS)]
        if spans is None:
            cmd = [sys.executable, "-m", "repro", *serve]
        else:
            cmd = [sys.executable, str(HERE / "serve_traced.py"), str(spans), *serve]
        env = dict(os.environ, PYTHONPATH=str(SRC))
        self.log = open(log_path, "wb")
        self.proc = subprocess.Popen(
            cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=self.log
        )
        try:
            host, port = self._wait_listening(timeout=120)
        except BaseException:
            self.stop()
            raise
        self.url = f"http://{host}:{port}"

    def _wait_listening(self, timeout):
        fd = self.proc.stdout.fileno()
        deadline = time.monotonic() + timeout
        seen = b""
        while True:
            left = deadline - time.monotonic()
            if left <= 0 or not select.select([fd], [], [], left)[0]:
                raise RuntimeError("server did not start listening")
            chunk = os.read(fd, 4096)
            if not chunk:
                raise RuntimeError(f"server exited early; see {self.log.name}")
            seen += chunk
            match = _LISTENING.search(seen)
            if match:
                return match.group(1).decode(), int(match.group(2))

    def peak_rss_mb(self):
        with open(f"/proc/{self.proc.pid}/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        return 0.0

    def stop(self):
        """SIGTERM (graceful drain), then wait; kill if it hangs."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()
        self.log.close()


class Client(threading.Thread):
    """One closed-loop client: submit, wait on SSE, fetch, GET metrics."""

    def __init__(self, index, url, fresh, seed, deadline, min_fresh, cutoff):
        super().__init__(name=f"client-{index}", daemon=True)
        self.index, self.url, self.fresh = index, url, fresh
        self.rng = random.Random(seed * 1000 + index)
        self.deadline, self.min_fresh, self.cutoff = deadline, min_fresh, cutoff
        self.ops = []
        self.metrics_get_s = []
        self.error = None

    def _more(self, fresh_done):
        """Until the deadline; past it, until ``min_fresh`` or the cutoff."""
        now = time.perf_counter()
        return now < self.deadline or (
            fresh_done < self.min_fresh and now < self.cutoff
        )

    def run(self):
        from repro.service import ServiceClient
        from repro.service.store import TERMINAL_STATES

        client = ServiceClient(self.url, timeout_s=120)
        routed = []  # indices of fresh circuits that finished
        count = next_fresh = 0
        try:
            while self._more(next_fresh):
                repeat = count % REPEAT_EVERY == REPEAT_EVERY - 1 and routed
                if repeat:
                    k = self.rng.choice(routed)
                else:
                    k, next_fresh = next_fresh, next_fresh + 1
                    if k >= len(self.fresh):
                        raise RuntimeError("fresh circuit pool exhausted")
                count += 1
                op = {"repeat": bool(repeat), "circuit": k}
                t0 = time.perf_counter()
                record = client.submit(
                    self.fresh[k][1], config=CONFIG, family=FAMILY,
                    width=WIDTH, tenant=f"bench-{self.index}",
                )
                op["submit_s"] = time.perf_counter() - t0
                op["job"] = record["job_id"]
                if record["state"] not in TERMINAL_STATES:
                    time.sleep(self.rng.uniform(0.0, SSE_POLL_S))
                    for event, data, _ in client.events(
                        record["job_id"], heartbeats=False
                    ):
                        if event == "state":
                            record = data
                op["seen_at"] = time.time()
                t2 = time.perf_counter()
                op["record"] = record
                if record["state"] == "done":
                    op["result"] = client.result(record["job_id"])
                t3 = time.perf_counter()
                op["fetch_s"] = t3 - t2
                op["latency_s"] = t3 - t0
                op["end"] = t3
                self.ops.append(op)
                if not repeat and record["state"] == "done":
                    routed.append(k)
                client.metrics()
                self.metrics_get_s.append(time.perf_counter() - t3)
        except Exception as exc:  # reported by the gate, never dropped
            self.error = exc


def fresh_circuits(tiny, seed, circuit_seed, index, count):
    """One client's fresh circuits as (circuit, wire dict) pairs.

    The first ones are the quality probe: drawn from ``circuit_seed``,
    so their pinned signature holds whatever the traffic seed.  The
    rest are drawn from the workload ``seed``.  Synthesis seeds are
    distinct per seed, client and job.
    """
    from repro.io import circuit_to_dict

    probe = TINY_QUALITY_JOBS if tiny else QUALITY_JOBS
    out = []
    for j in range(count):
        if j < probe:
            synth = 2_000_000 + circuit_seed * 100_000 + index * 10_000 + j
        else:
            synth = 1_000_000 + seed * 100_000 + index * 10_000 + j
        circuit = job_circuit(tiny, synth)
        out.append((circuit, circuit_to_dict(circuit)))
    return out


def traffic(server, pools, seed, seconds, tiny):
    """Run the closed loop for ``seconds``; returns (clients, busy seconds).

    Past ``seconds``, a client that has not completed :data:`MIN_FRESH`
    fresh jobs goes on until it has, for at most ``EXTEND_SHARE`` more.
    """
    start = time.perf_counter()
    min_fresh = 0 if tiny else MIN_FRESH
    cutoff = start + seconds * (1 + EXTEND_SHARE)
    clients = [
        Client(i, server.url, pools[i], seed, start + seconds, min_fresh, cutoff)
        for i in range(CLIENTS)
    ]
    for c in clients:
        c.start()
    for c in clients:
        c.join(timeout=cutoff - time.perf_counter() + 150)
        if c.is_alive():
            raise RuntimeError(f"{c.name} did not finish")
    busy = max((op["end"] for c in clients for op in c.ops), default=start) - start
    return clients, busy


def check_ops(clients, pools, gate, tiny):
    """Certify every result; returns (fresh ops, repeat ops, quality sig)."""
    from repro.fpga import xc3000
    from repro.router import critical_path_delay
    from repro.validate import verify_result

    fresh, repeats, quality = [], [], []
    quality_jobs = TINY_QUALITY_JOBS if tiny else QUALITY_JOBS
    for client in clients:
        if client.error is not None:
            gate.check(False, f"{client.name}: {client.error!r}")
        by_circuit = {}
        for op in client.ops:
            record, result = op["record"], op.get("result")
            circuit = pools[client.index][op["circuit"]][0]
            problems = []
            if record["state"] != "done" or not record.get("verified"):
                problems.append(f"state {record['state']} verified={record.get('verified')}")
            elif op["repeat"]:
                donor = by_circuit.get(op["circuit"])
                if donor is None or (
                    result.total_wirelength != donor.total_wirelength
                    or result.channel_width != donor.channel_width
                ):
                    problems.append("dedupe result differs from the routed one")
            else:
                arch = xc3000(circuit.rows, circuit.cols, result.channel_width)
                report = verify_result(result, circuit, arch, job_config(), level="full")
                problems.extend(d.render() for d in report.errors)
                by_circuit[op["circuit"]] = result
                if op["circuit"] < quality_jobs and not report.errors:
                    trees = {r.name: r.tree() for r in result.routes}
                    nets = {n.name: n.to_graph_net() for n in circuit.nets}
                    quality.append((
                        result.channel_width, result.total_wirelength,
                        critical_path_delay(trees, nets),
                    ))
            gate.check(not problems, f"{op['job']}: {'; '.join(problems)}")
            if not problems:
                (repeats if op["repeat"] else fresh).append(op)
    sig = None
    if len(quality) == CLIENTS * quality_jobs:
        sig = {
            "channel_width": max(q[0] for q in quality),
            "total_wirelength": round(sum(q[1] for q in quality) / len(quality), 6),
            "critical_path_delay": round(sum(q[2] for q in quality) / len(quality), 6),
        }
    if sig is None:
        gate.check(False, f"only {len(quality)} quality jobs finished")
    return fresh, repeats, sig


def run(name, args):
    """Run the service workload; returns (gate, metrics, report)."""
    tiny, seed, seconds = args.tiny, args.seed, args.seconds
    WORK.mkdir(exist_ok=True)
    history = history_store(tiny)
    run_dir = WORK / f"service-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir()
    gate = Gate()
    try:
        pool_size = max(int(seconds / MIN_JOB_S), MIN_FRESH) + QUALITY_JOBS
        pools = [
            fresh_circuits(tiny, seed, args.circuit_seed, i, pool_size)
            for i in range(CLIENTS)
        ]
        expected = None if tiny else pinned_signature(name, args.circuit_seed)
        # starting and stopping an idle server leaves the store as it was,
        # so every set-up (and then the traffic) uses one copy
        store = run_dir / "store"
        shutil.copytree(history, store)
        # set-up: spawn until the server accepts requests (import, journal
        # replay, recovery), scaled to the reference host
        ready = []
        for i in range(SETUP_REPEATS):
            server, ready_s = scaled_call(Server, store, run_dir / f"server-{i}.log")
            ready.append(ready_s)
            if i + 1 < SETUP_REPEATS:
                server.stop()
        setup_s = median(ready)
        try:
            clients, busy = traffic(server, pools, seed, seconds, tiny)
            peak = server.peak_rss_mb()
        finally:
            server.stop()
        fresh, repeats, sig = check_ops(clients, pools, gate, tiny)
        if expected is not None and sig is not None:
            gate.check(signature_matches(sig, expected),
                       f"quality signature {sig} != expected {expected}")
        elif sig is not None and not tiny:
            report_unpinned(name, args.circuit_seed, sig)
        if args.trace:
            return gate, *traced(
                run_dir, history, pools, args, gate, fresh, repeats, sig,
                setup_s,
            )
        latencies = [op["latency_s"] for op in fresh]
        if len(latencies) < 100 and not tiny:
            print(f"perfbench: only {len(latencies)} fresh jobs; p90 rests "
                  f"on fewer than 10 samples above it", file=sys.stderr)
        metrics = {
            "setup_s": setup_s,
            "peak_rss_mb": peak,
            "verified_frac": gate.verified_frac(),
            "latency_s": median(latencies),
            "latency_p90_s": p90(latencies),
            "ops_per_min": 60.0 * (len(fresh) + len(repeats)) / busy,
            **quality_metrics(sig),
        }
        return gate, metrics, None
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def quality_metrics(sig):
    keys = ("total_wirelength", "critical_path_delay", "channel_width")
    return {k: sig[k] if sig else 0.0 for k in keys}


def traced(run_dir, history, pools, args, gate, untraced_fresh, untraced_repeats,
           sig, setup_s):
    """Traffic against a server whose layers record spans; per-job split.

    Runs after the untraced phase, whose fresh-job p50 latency is the
    reference for the tracing overhead and whose dedupe jobs give
    ``http.dedupe_latency_s``.
    """
    from layers import layer_metrics, load, span_totals
    from repro.service import read_journal

    spans_path = run_dir / "spans.json"
    store = run_dir / "traced-store"
    shutil.copytree(history, store)
    server = Server(store, run_dir / "traced-server.log", spans=spans_path)
    try:
        clients, _ = traffic(server, pools, args.seed, args.seconds, args.tiny)
    finally:
        server.stop()
    fresh, _, _ = check_ops(clients, pools, gate, args.tiny)
    spans, counts = load(spans_path)
    events, _ = read_journal(str(server.root / "journal.jsonl"))
    jobs = job_breakdown(fresh, spans, events)

    totals = span_totals(spans)
    per_layer = layer_metrics(totals, counts)
    untraced_p50 = median([op["latency_s"] for op in untraced_fresh])
    per_layer.update({
        "supervisor.queue_wait_s": median([j["queue_wait"] for j in jobs]),
        "supervisor.run_s": median([j["run"] for j in jobs]),
        "http.notify_lag_s": median([j["notify"] for j in jobs]),
        "http.rtt_s": median([j["submit_http"] for j in jobs]),
        "http.metrics_get_s": median([s for c in clients for s in c.metrics_get_s]),
        "http.dedupe_latency_s": median([op["latency_s"] for op in untraced_repeats]),
        "trace.unattributed_s": median([j["run_other"] for j in jobs]),
        "trace.overhead_frac": median([j["latency"] for j in jobs]) / untraced_p50 - 1.0,
    })
    report = {
        "workload": "service_http",
        "setup_s": setup_s,
        "op": "fresh job, submit to fetched verified result",
        "untraced_latency_p50_s": untraced_p50,
        "traced_jobs": len(jobs),
        "spans": totals,
        "counts": dict(counts),
        "jobs": jobs,
        "signature": sig,
    }
    return per_layer, report


def job_breakdown(fresh, spans, events):
    """Split each fresh job's latency into consecutive segments.

    Client clocks and journal ``at`` stamps share the host's wall clock:
    submit (client send to journaled ``submitted``), queue wait (to
    ``running``), run (to ``done``), notification (to the SSE terminal
    state), fetch (the result GET).  The run segment is split further
    by the job's own spans.
    """
    at = {}
    for event in events:
        if event.get("type") == "submitted":
            at.setdefault(event["job"], {})["submitted"] = event["at"]
        elif event.get("type") == "transition" and event.get("to") in ("running", "done"):
            at.setdefault(event["job"], {}).setdefault(event["to"], event["at"])
    by_job = {}
    for _, _, name, start, end, job, _ in spans:
        if job is not None:
            row = by_job.setdefault(job, {})
            row[name] = row.get(name, 0.0) + end - start
    jobs = []
    for op in fresh:
        stamps = at.get(op["job"], {})
        if not {"submitted", "running", "done"} <= set(stamps):
            continue
        own = by_job.get(op["job"], {})
        sent_at = op["seen_at"] - (op["latency_s"] - op["fetch_s"])
        run = stamps["done"] - stamps["running"]
        route = own.get("engine.route", 0.0) - own.get("engine.checkpoint.save", 0.0)
        verify = own.get("validate.verify", 0.0)
        checkpoint = own.get("engine.checkpoint.save", 0.0)
        journal = own.get("journal.append", 0.0)
        jobs.append({
            "job": op["job"],
            "latency": op["latency_s"],
            "submit": stamps["submitted"] - sent_at,
            "submit_http": op["submit_s"] - own.get("api.submit", 0.0),
            "queue_wait": stamps["running"] - stamps["submitted"],
            "run": run,
            "route": route,
            "verify": verify,
            "checkpoint": checkpoint,
            "journal_fsync": journal,
            "run_other": run - route - verify - checkpoint,
            "notify": op["seen_at"] - stamps["done"],
            "fetch": op["fetch_s"],
        })
    return jobs
