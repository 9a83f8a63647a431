#!/usr/bin/env python3
"""TrillionG benchmark: gen_cli and serve_cli end to end, and per-layer probes.

    python3 tgbench/run.py --workload gen_adj6_1w --seed 1 --seconds 10 --trace 0
    python3 tgbench/run.py --selftest

Run from the root of a checkout. The first run builds the program with the
repository's own CMake build (gen_cli, serve_cli) and the benchmark's tools
(tgbench/CMakeLists.txt) into .bench_build/; later runs rebuild only what
changed. Every file a run writes lives under .bench_build/run/ and is deleted
as soon as it has been checked, so output pages never reach the disk.

--trace 0 measures the workload end to end and prints the end-to-end
metrics. Before each operation it runs tgb_probe, a fixed reference kernel,
and scales the operation's time by PROBE_NOMINAL_S over the probe's time, so
that the shared host's own changes of speed cancel out. --trace 1 instead runs the per-layer probes (tgb_layers), a short
serve session with client-side spans and the profiler-overhead pair, and
prints the per-layer metrics; its spans are written to .bench_build/run/.
The last line of stdout is one JSON object: correct, attempted, failed,
metrics. See tgbench/README.md for the workloads and metrics.
"""

import argparse
import json
import os
import pty
import random
import shutil
import socket
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
BUILD = ROOT / ".bench_build"
RUN_DIR = BUILD / "run"
REPO_BUILD = BUILD / "repo"
TOOLS_BUILD = BUILD / "tools"
GEN_CLI = REPO_BUILD / "examples" / "gen_cli"
SERVE_CLI = REPO_BUILD / "examples" / "serve_cli"
CHECK = TOOLS_BUILD / "tgb_check"
LAYERS = TOOLS_BUILD / "tgb_layers"
PROBE = TOOLS_BUILD / "tgb_probe"

# Reported times are scaled to a host on which one tgb_probe pass takes this
# long (about its best time on the reference host of tgbench/README.md).
PROBE_NOMINAL_S = 0.2
# A probe runs before an operation once this much measured time has passed
# since the last one; each operation is scaled by the latest probe.
PROBE_EVERY_S = 1.0

# Graph500 seed matrix and edge factor; every graph here uses them.
SEED_MATRIX = ("0.57", "0.19", "0.19", "0.05")
EDGE_FACTOR = 16
FORMATS = ("tsv", "adj6", "csr6")

# gen_cli workloads: one large graph per launch, relaunched for the run. A
# round launches each listed format once.
GEN_WORKLOADS = {
    "gen_adj6_1w": {"formats": ("adj6",), "workers": 1, "scale": 21},
    "gen_tsv_csr6_2w": {"formats": ("tsv", "csr6"), "workers": 2, "scale": 21},
}
# serve_cli workload: a closed loop of two client connections. A round asks
# for nine new graphs (scales 16-18 x three formats), then for the same nine
# again, which the whole-graph cache serves.
SERVE_WORKLOADS = {"serve_mix"}
SERVE_SCALES = (16, 17, 18)
SERVE_WORKERS = 2
CLIENTS = 2
# serve_cli's resident set keeps growing while the whole-graph cache fills,
# so its peak is read after a fixed number of rounds, not at the run's end.
RSS_ROUNDS = 6
# Shapes the probes use for the serve workloads' traced run.
SERVE_PROBE = {"formats": ("adj6",), "workers": 2, "scale": 17}


class BenchError(Exception):
    """A fault that stops the run without a result line."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


# ---------------------------------------------------------------- build ---

def build():
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        raise BenchError(f"{ROOT} is not a TrillionG checkout (no CMakeLists.txt or src/)")
    BUILD.mkdir(exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (REPO_BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(ROOT), "-B", str(REPO_BUILD),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(REPO_BUILD), "-j", jobs,
                  "--target", "gen_cli", "serve_cli"])
    if not (TOOLS_BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH), "-B", str(TOOLS_BUILD),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo",
                      f"-DTG_REPO_BUILD={REPO_BUILD}"])
    steps.append(["cmake", "--build", str(TOOLS_BUILD), "-j", jobs])
    with open(BUILD / "build.log", "a") as out:
        for cmd in steps:
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT).returncode != 0:
                raise BenchError(f"build step failed: {' '.join(cmd)} (see {BUILD / 'build.log'})")


# ------------------------------------------------------------ processes ---

def run_measured(cmd, mark=b"generating scale"):
    """Runs cmd to completion. Returns (exit code, wall seconds, output, peak
    RSS MB, seconds from launch until `mark` was printed). The output goes to
    a pseudo-terminal, so the program line-buffers it and each line arrives
    when it is printed."""
    master, slave = pty.openpty()
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdin=subprocess.DEVNULL, stdout=slave, stderr=slave, cwd=ROOT)
    os.close(slave)
    out, t_mark = bytearray(), None
    while True:
        try:
            chunk = os.read(master, 1 << 16)
        except OSError:  # EIO: the program closed its end
            break
        if not chunk:
            break
        out += chunk
        if t_mark is None and mark in out:
            t_mark = time.perf_counter() - t0
    os.close(master)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return (proc.returncode, wall, out.decode(errors="replace"), usage.ru_maxrss / 1024.0,
            t_mark)


def tool_json(cmd):
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, cwd=ROOT)
    try:
        return json.loads(proc.stdout.decode().strip().splitlines()[-1])
    except (ValueError, IndexError):
        raise BenchError(f"{cmd[0]} gave no JSON: {proc.stderr.decode()[-400:]}")


def shard_paths(prefix, workers, fmt):
    return [f"{prefix}.w{w}.{fmt}" for w in range(workers)]


def remove(paths):
    for p in paths:
        try:
            os.remove(p)
        except FileNotFoundError:
            pass


def gen_cmd(fmt, workers, scale, graph_seed, prefix, extra=()):
    return [str(GEN_CLI), f"--scale={scale}", f"--edge_factor={EDGE_FACTOR}",
            f"--workers={workers}", f"--format={fmt}", f"--seed={graph_seed}",
            f"--out={prefix}", *extra]


def gen_launch(fmt, workers, scale, graph_seed, prefix, extra=()):
    """One gen_cli run: dict with wall, edges, generate seconds, RSS, files."""
    rc, wall, out, rss, t_start = run_measured(
        gen_cmd(fmt, workers, scale, graph_seed, prefix, extra))
    done = [line for line in out.splitlines() if line.startswith("done: ")]
    if rc != 0 or not done or t_start is None:
        return None
    # "done: N edges, S scopes, d_max=D in W s (partition P s, generate G s)"
    words = done[0].replace("(", " ").replace(")", " ").replace(",", " ").split()
    edges = int(words[1])
    partition_s = float(words[words.index("partition") + 1])
    # Set-up: launch until generation starts. gen_cli prints its "generating"
    # line just before partitioning, which precedes the generate phase.
    return {"wall": wall, "edges": edges, "setup_s": t_start + partition_s, "rss_mb": rss,
            "files": shard_paths(prefix, workers, fmt)}


def check_files(fmt, scale, files):
    return tool_json([str(CHECK), "check", fmt, str(scale), str(EDGE_FACTOR),
                      *SEED_MATRIX, *files])


def byte_hash(files):
    out = subprocess.run([str(CHECK), "hash", *files], stdout=subprocess.PIPE, cwd=ROOT)
    return out.stdout.decode().strip() if out.returncode == 0 else None


class HostProbe:
    """tgb_probe passes interleaved with a run's operations. The probe's code
    never changes, so its time says how fast the host runs at that moment."""

    def __init__(self):
        self.times = []
        self.last = None

    def before(self, measured):
        """Called before each operation with the measured seconds so far.
        Returns the factor that scales the operation's times."""
        if self.last is None or measured - self.last >= PROBE_EVERY_S:
            self.times.append(float(tool_json([str(PROBE)])["seconds"]))
            self.last = measured
        return PROBE_NOMINAL_S / self.times[-1]


# ---------------------------------------------------------------- spans ---

class Spans:
    """Client-side spans (name, start, end, parent, count), kept in memory
    and written to a JSON file at the end of a traced run."""

    def __init__(self, enabled):
        self.enabled = enabled
        self.items = []
        self.lock = threading.Lock()

    def add(self, name, start, end, parent=-1, count=0):
        if not self.enabled:
            return -1
        with self.lock:
            self.items.append({"name": name, "start_s": start, "end_s": end,
                               "parent": parent, "count": count})
            return len(self.items) - 1

    def write(self, path):
        children = {}
        for item in self.items:
            if item["parent"] >= 0:
                children[item["parent"]] = children.get(item["parent"], 0.0) + (
                    item["end_s"] - item["start_s"])
        rows = []
        for i, item in enumerate(self.items):
            dur = item["end_s"] - item["start_s"]
            rows.append({"id": i, **item, "duration_s": dur,
                         "self_s": dur - children.get(i, 0.0)})
        Path(path).write_text(json.dumps(rows, indent=1))


# ---------------------------------------------------------- gen workloads ---

def graph_seed_for(seed, salt=0):
    return random.Random(seed * 1000003 + salt).randrange(1, 1 << 31)


def run_gen(name, seed, seconds):
    spec = GEN_WORKLOADS[name]
    workers, scale = spec["workers"], spec["scale"]
    gseed = graph_seed_for(seed)
    probe = HostProbe()
    scaled, raw, refs, rss = {}, {}, {}, {}
    setup_s, attempted, failed, correct = None, 0, 0, True
    measured, rounds = 0.0, 0
    # One launch per operation, a round per format list. The run repeats the
    # same graph, so every launch after a format's first is checked against
    # that first one byte for byte.
    while (measured < seconds or rounds < 3) and failed < 3:
        rounds += 1
        for fmt in spec["formats"]:
            factor = probe.before(measured)
            prefix = str(RUN_DIR / f"{name}.{fmt}")
            attempted += 1
            result = gen_launch(fmt, workers, scale, gseed, prefix)
            if result is None:
                failed += 1
                remove(shard_paths(prefix, workers, fmt))
                continue
            measured += result["wall"]
            if setup_s is None:
                setup_s = result["setup_s"] * factor
            if fmt not in refs:
                report = check_files(fmt, scale, result["files"])
                if not report.get("ok") or report.get("edges") != result["edges"]:
                    log(f"check failed: {json.dumps(report)}")
                    correct = False
                refs[fmt] = report
            elif byte_hash(result["files"]) != refs[fmt].get("byte_hash"):
                log(f"{fmt} output differs between launches of the same config")
                correct = False
            remove(result["files"])
            rss.setdefault(fmt, []).append(result["rss_mb"])
            raw.setdefault(fmt, []).append(result["wall"])
            scaled.setdefault(fmt, []).append((result["wall"] * factor, result["edges"]))

    if len(scaled) != len(spec["formats"]):
        raise BenchError("no gen_cli launch completed for some format")
    # Every format of one config must hold the same edge multiset.
    if len({refs[f].get("multiset_hash") for f in spec["formats"]}) != 1:
        log(f"formats of one config differ: {json.dumps(refs)}")
        correct = False

    # Median scaled launch per format. A launch and the probe just before it
    # see the same state of the host, so their ratio holds still while the
    # host's speed drifts.
    walls = [statistics.median(w for w, _ in scaled[f]) for f in spec["formats"]]
    edges = sum(scaled[f][0][1] for f in spec["formats"])
    for fmt, walls_raw in raw.items():
        log(f"{name}: {fmt}: {len(walls_raw)} launches, raw wall median "
            f"{statistics.median(walls_raw):.3f} s, min {min(walls_raw):.3f} s")
    log(f"{name}: probe median {statistics.median(probe.times):.4f} s of {len(probe.times)}")
    metrics = {
        "medges_per_s": (edges / sum(walls) / 1e6, "Medges/s"),
        "latency_ms": (statistics.mean(walls) * 1e3, "ms"),
        # Peak RSS of a typical launch of the hungriest format: with two
        # workers it depends on how many chunks wait for in-order commit,
        # which varies with timing.
        "peak_rss_mb": (max(statistics.median(v) for v in rss.values()), "MB"),
        "setup_s": (setup_s, "s"),
    }
    return correct, attempted, failed, metrics


# -------------------------------------------------------- serve workloads ---

class Daemon:
    """serve_cli with two generation threads; stopped with SIGTERM (drain)."""

    def __init__(self):
        work = RUN_DIR / "serve_work"
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        self.t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            [str(SERVE_CLI), "--port=0", f"--worker_threads={SERVE_WORKERS}",
             "--max_concurrent=2", f"--work_dir={work}"],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, cwd=ROOT)
        self.rss_mb = 0.0
        try:
            line = self.proc.stdout.readline().decode()
            if "127.0.0.1:" not in line:
                raise BenchError(f"serve_cli did not start: {line!r}")
            self.port = int(line.split("127.0.0.1:")[1].split("/")[0])
            while True:
                try:
                    status, _, _, _ = http(self.port, "GET", "/healthz")
                    if status == 200:
                        break
                except OSError:
                    pass
                if time.perf_counter() - self.t0 > 30:
                    raise BenchError("serve_cli did not answer /healthz")
                time.sleep(0.0005)
            self.setup_s = time.perf_counter() - self.t0
        except BaseException:
            self.stop()
            raise

    def peak_rss_mb(self):
        """The daemon's peak resident set so far (VmHWM)."""
        for line in Path(f"/proc/{self.proc.pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise BenchError("no VmHWM in the daemon's status")

    def report(self):
        status, _, body, _ = http(self.port, "GET", "/report.json")
        return json.loads(body) if status == 200 else {}

    def stop(self):
        if self.proc.returncode is not None:
            return
        self.proc.terminate()
        self.proc.stdout.read()
        _, status, usage = os.wait4(self.proc.pid, 0)
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        self.proc.stdout.close()
        self.rss_mb = usage.ru_maxrss / 1024.0


def dechunk(data, pos=0):
    view, out = memoryview(data), []
    while True:
        eol = data.index(b"\r\n", pos)
        size = int(bytes(data[pos:eol]).split(b";")[0], 16)
        pos = eol + 2
        if size == 0:
            return b"".join(out)
        out.append(view[pos:pos + size])
        pos += size + 2


_recv = threading.local()


def fetch(port, method, path, body=b""):
    """One request on a fresh connection (Connection: close). Returns the raw
    response and (t_send, t_first_byte, t_last_byte). The reply is received
    into a buffer the thread keeps, so that receiving allocates nothing and
    a client holds Python's interpreter lock as little as possible."""
    buf = getattr(_recv, "buf", None)
    if buf is None:
        buf = _recv.buf = bytearray(1 << 20)
    sock = socket.create_connection(("127.0.0.1", port), timeout=120)
    try:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        head = (f"{method} {path} HTTP/1.1\r\nHost: 127.0.0.1\r\n"
                f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n"
                "Connection: close\r\n\r\n").encode()
        size = 0
        t_send = time.perf_counter()
        sock.sendall(head + body)
        t_first = None
        while True:
            if size == len(buf):
                grown = bytearray(2 * len(buf))
                grown[:size] = buf
                buf = _recv.buf = grown
            n = sock.recv_into(memoryview(buf)[size:])
            if n == 0:
                break
            if t_first is None:
                t_first = time.perf_counter()
            size += n
        t_last = time.perf_counter()
    finally:
        sock.close()
    return bytes(memoryview(buf)[:size]), (t_send, t_first or t_last, t_last)


def parse_response(raw):
    """(status, headers, payload) of a raw HTTP/1.1 response."""
    header_end = raw.find(b"\r\n\r\n")
    if header_end < 0:
        raise ValueError("truncated HTTP response")
    lines = raw[:header_end].decode(errors="replace").split("\r\n")
    status = int(lines[0].split()[1])
    headers = {}
    for line in lines[1:]:
        key, _, value = line.partition(":")
        headers[key.strip().lower()] = value.strip()
    if headers.get("transfer-encoding") == "chunked":
        return status, headers, dechunk(raw, header_end + 4)
    return status, headers, raw[header_end + 4:]


def http(port, method, path, body=b""):
    """Returns (status, headers, body, (t_send, t_first_byte, t_last_byte))."""
    raw, times = fetch(port, method, path, body)
    return (*parse_response(raw), times)


def request_body(tenant, scale, fmt, graph_seed):
    return json.dumps({"tenant": tenant, "scale": scale, "format": fmt,
                       "workers": SERVE_WORKERS, "seed": graph_seed}).encode()


def shapes(base_seed, seeds, count):
    """The request cycle: scale varies fastest, then format; nine shapes.
    `seeds` picks each request's graph seed: "distinct" (every request a new
    graph) or "per_scale" (the three formats of one scale share a graph,
    hence its plan and prefix tables)."""
    out = []
    for i in range(count):
        scale = SERVE_SCALES[i % 3]
        fmt = FORMATS[(i // 3) % 3]
        offset = {"distinct": i, "per_scale": scale}[seeds]
        out.append((scale, fmt, base_seed + offset))
    return out


def closed_loop(port, plan, spans, keep):
    """Two clients take requests in plan order, each waiting for its reply.
    Returns one record per request, in plan order, and the wall time. The
    replies are parsed and checked after the last one has arrived, so that
    neither client waits for the other's checks."""
    raws = [None] * len(plan)
    next_index = [0]
    lock = threading.Lock()
    t_start = time.perf_counter()

    def client(cid):
        while True:
            with lock:
                i = next_index[0]
                if i >= len(plan):
                    return
                next_index[0] += 1
            scale, fmt, gseed = plan[i]
            try:
                raws[i] = fetch(port, "POST", "/generate",
                                request_body(f"c{cid}", scale, fmt, gseed))
            except OSError as e:  # refused or reset
                raws[i] = e

    threads = [threading.Thread(target=client, args=(c,)) for c in range(CLIENTS)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    wall = time.perf_counter() - t_start

    records, errors = [], []
    for (scale, fmt, gseed), raw in zip(plan, raws):
        try:
            if isinstance(raw, OSError):
                raise raw
            (status, headers, payload), (t0, t1, t2) = parse_response(raw[0]), raw[1]
        except (OSError, ValueError) as e:  # failed or malformed reply
            errors.append(str(e))
            status, headers, payload, (t0, t1, t2) = 0, {}, b"", (0, 0, 0)
        rec = {"scale": scale, "format": fmt, "seed": gseed, "status": status,
               "cache": headers.get("x-tg-cache", ""), "bytes": len(payload),
               "latency": t2 - t0, "ttfb": t1 - t0, "stream": t2 - t1}
        shape = (scale, fmt, gseed)
        if shape in keep and keep[shape] is None:
            keep[shape] = payload
        rec["payload_ok"] = shape not in keep or keep[shape] == payload
        parent = spans.add("serve.request", t0, t2, count=len(payload))
        spans.add(f"serve.{rec['cache'] or 'error'}.ttfb", t0, t1, parent)
        spans.add(f"serve.{rec['cache'] or 'error'}.stream", t1, t2, parent)
        records.append(rec)
    for e in errors[:3]:
        log(f"request error: {e}")
    return records, wall


def matches_gen_cli(scale, fmt, gseed, payload, tag):
    """A serve response must equal gen_cli's shards for the same config, and
    those shards must pass the independent checks."""
    prefix = str(RUN_DIR / f"serve_ref.{tag}")
    result = gen_launch(fmt, SERVE_WORKERS, scale, gseed, prefix)
    if result is None:
        return False
    data = b"".join(Path(f).read_bytes() for f in result["files"])
    report = check_files(fmt, scale, result["files"])
    remove(result["files"])
    if not report.get("ok"):
        log(f"check failed on gen_cli output: {json.dumps(report)}")
    if data != payload:
        log(f"serve response differs from gen_cli output: scale {scale} {fmt} seed {gseed}")
    return bool(report.get("ok")) and data == payload


def run_serve(name, seed, seconds, spans):
    base = graph_seed_for(seed)
    correct = True
    probe = HostProbe()
    setup_factor = probe.before(0.0)
    daemon = Daemon()
    timed, measured, scaled_wall, rounds, rss_mb = [], 0.0, 0.0, 0, None
    first = {}  # round 0's payloads, compared with gen_cli below
    try:
        # Whole rounds until `seconds` of them have passed. A round asks for
        # nine new graphs, then, once both clients are idle, for the same
        # nine again: each hit must equal its miss byte for byte. The probe
        # runs between rounds, while no request is in flight.
        while measured < seconds:
            factor = probe.before(measured)
            plan = shapes(base + 9 * rounds, "distinct", 9)
            keep = {shape: None for shape in plan}
            for expect in ("miss", "hit"):
                records, wall = closed_loop(daemon.port, plan, spans, keep)
                for r in records:
                    r["expect"] = expect
                    r["scaled_latency"] = r["latency"] * factor
                timed += records
                measured += wall
                scaled_wall += wall * factor
            if rounds == 0:
                first = keep
            rounds += 1
            if rounds == RSS_ROUNDS:
                rss_mb = daemon.peak_rss_mb()
    finally:
        daemon.stop()
    failed = sum(1 for r in timed if r["status"] != 200)
    if any(r["status"] == 200 and (r["cache"] != r["expect"] or not r["payload_ok"])
           for r in timed):
        log("a response was not the expected cache kind or differs from its first copy")
        correct = False
    for i, shape in enumerate(s for s in first if first[s] is not None and s[0] == 16):
        correct = matches_gen_cli(*shape, first[shape], f"{name}.{i}") and correct
    ok = [r for r in timed if r["status"] == 200]
    if not ok:
        raise BenchError("no request completed")
    edges = sum(EDGE_FACTOR << r["scale"] for r in ok)
    # Median scaled latency of each request shape and cache kind, averaged
    # over the eighteen: one median over all requests would sit on a boundary
    # between two of them.
    by_shape = {}
    for r in ok:
        by_shape.setdefault((r["scale"], r["format"], r["cache"]), []).append(
            r["scaled_latency"])
    latency = statistics.mean(statistics.median(v) for v in by_shape.values())
    for kind in ("miss", "hit"):
        raw = [r["latency"] for r in ok if r["cache"] == kind]
        if raw:
            log(f"{name}: {kind}: raw median latency {statistics.median(raw) * 1e3:.2f} ms "
                f"over {len(raw)} requests")
    log(f"{name}: {len(timed)} requests in {rounds} rounds, {measured:.2f} s; probe median "
        f"{statistics.median(probe.times):.4f} s of {len(probe.times)}")
    metrics = {
        "medges_per_s": (edges / scaled_wall / 1e6, "Medges/s"),
        "latency_ms": (latency * 1e3, "ms"),
        "peak_rss_mb": (rss_mb if rss_mb is not None else daemon.rss_mb, "MB"),
        "setup_s": (daemon.setup_s * setup_factor, "s"),
    }
    return correct, len(timed), failed, metrics


# ---------------------------------------------------------- traced run ---

def serve_probe_session(seed, spans):
    """Nine graphs requested twice (miss, then hit) by two clients; the
    client spans and the daemon's own report give the serve layers."""
    base = graph_seed_for(seed, salt=7)
    plan = shapes(base, "per_scale", 18)
    keep = {shape: None for shape in plan[:9]}
    daemon = Daemon()
    try:
        first, _ = closed_loop(daemon.port, plan[:9], spans, keep)
        second, _ = closed_loop(daemon.port, plan[9:], spans, keep)
        report = daemon.report()
    finally:
        daemon.stop()
    records = first + second
    correct = all(r["status"] == 200 and r["payload_ok"] for r in records)
    correct = correct and all(r["cache"] == "miss" for r in first)
    correct = correct and all(r["cache"] == "hit" for r in second)
    counters = report.get("counters", {})
    wait = report.get("histograms", {}).get("serve.queue_wait_ms", {})
    misses = counters.get("serve.cache_misses", 0)
    hits = counters.get("serve.cache_hits", 0)
    miss = [r for r in records if r["cache"] == "miss"]
    hit = [r for r in records if r["cache"] == "hit"]
    med = lambda rs, key: statistics.median(r[key] for r in rs) * 1e3 if rs else 0.0
    metrics = {
        "serve.miss.ttfb_ms": med(miss, "ttfb"),
        "serve.hit.ttfb_ms": med(hit, "ttfb"),
        "serve.miss.stream_ms": med(miss, "stream"),
        "serve.queue_wait_ms": wait.get("sum", 0) / wait["count"] if wait.get("count") else 0.0,
        "serve.cache.graph_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "serve.cache.plan_hits": misses - counters.get("serve.cache.plan_builds", 0),
        "serve.cache.table_hits": misses - counters.get("serve.cache.table_builds", 0),
    }
    return correct, len(records), sum(1 for r in records if r["status"] != 200), metrics


def profiler_overhead(spec, seed, spans):
    """gen_cli with the 99 Hz profiler against the same run without it, best
    of two each, interleaved. Output must not change with profiling on."""
    fmt, workers, scale = spec["formats"][0], spec["workers"], spec["scale"]
    gseed = graph_seed_for(seed, salt=11)
    prefix = str(RUN_DIR / "prof.out")
    best = {False: None, True: None}
    hashes = set()
    attempted = failed = 0
    for _ in range(2):
        for profiled in (False, True):
            extra = [f"--profile={RUN_DIR / 'prof.folded'}"] if profiled else []
            attempted += 1
            t0 = time.perf_counter()
            result = gen_launch(fmt, workers, scale, gseed, prefix, extra)
            if result is None:
                failed += 1
                continue
            spans.add("gen_cli.profiled" if profiled else "gen_cli", t0, time.perf_counter(),
                      count=result["edges"])
            hashes.add(byte_hash(result["files"]))
            remove(result["files"])
            if best[profiled] is None or result["wall"] < best[profiled]:
                best[profiled] = result["wall"]
    remove([RUN_DIR / "prof.folded"])
    overhead = (best[True] / best[False] - 1.0) * 100.0 if best[True] and best[False] else 0.0
    return len(hashes) == 1 and None not in hashes, attempted, failed, overhead


def run_traced(name, seed):
    spec = GEN_WORKLOADS.get(name, SERVE_PROBE)
    spans = Spans(True)
    metrics = {}
    t0 = time.perf_counter()
    layers = tool_json([str(LAYERS), f"--scale={spec['scale']}", f"--edge_factor={EDGE_FACTOR}",
                        f"--seed={graph_seed_for(seed)}", f"--workers={spec['workers']}",
                        f"--format={spec['formats'][0]}", f"--dir={RUN_DIR}"])
    spans.add("tgb_layers", t0, time.perf_counter())
    layers.pop("_checksum", None)
    metrics.update(layers)
    correct, attempted, failed, serve_metrics = serve_probe_session(seed, spans)
    metrics.update(serve_metrics)
    prof_ok, prof_attempted, prof_failed, overhead = profiler_overhead(spec, seed, spans)
    metrics["prof.overhead_pct"] = overhead
    spans.write(RUN_DIR / f"spans.{name}.client.json")
    units = per_layer_units()
    return (correct and prof_ok, attempted + prof_attempted + 1, failed + prof_failed,
            {k: (v, units[k]) for k, v in metrics.items() if k in units})


def per_layer_units():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


# -------------------------------------------------------------- selftest ---

def selftest():
    """Shows that each output check rejects a corrupted input."""
    ok = True
    for fmt in FORMATS:
        prefix = str(RUN_DIR / f"selftest.{fmt}")
        result = gen_launch(fmt, 2, 14, 3, prefix)
        if result is None:
            raise BenchError("gen_cli failed")
        report = tool_json([str(CHECK), "selftest", fmt, "14", str(EDGE_FACTOR),
                            *SEED_MATRIX, *result["files"]])
        print(json.dumps({"format": fmt, **report}))
        ok = ok and report.get("ok", False)
        data = b"".join(Path(f).read_bytes() for f in result["files"])
        remove(result["files"])
        # The payload comparisons (hit == miss, serve == gen_cli) are byte
        # equality: one flipped byte must make them differ.
        corrupt = bytearray(data)
        corrupt[len(corrupt) // 2] ^= 0x01
        caught = bytes(corrupt) != data
        print(json.dumps({"format": fmt, "payload_equality_flipped_byte":
                          "rejected" if caught else "MISSED"}))
        ok = ok and caught
    return ok


# ------------------------------------------------------------------ main ---

def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(set(GEN_WORKLOADS) | SERVE_WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")
    try:
        build()
        shutil.rmtree(RUN_DIR, ignore_errors=True)
        RUN_DIR.mkdir(parents=True)
        if args.selftest:
            return 0 if selftest() else 1
        if args.trace:
            correct, attempted, failed, metrics = run_traced(args.workload, args.seed)
        elif args.workload in GEN_WORKLOADS:
            correct, attempted, failed, metrics = run_gen(args.workload, args.seed, args.seconds)
        else:
            correct, attempted, failed, metrics = run_serve(
                args.workload, args.seed, args.seconds, Spans(False))
    except BenchError as e:
        log(f"benchmark error: {e}")
        return 2
    print(json.dumps({"correct": bool(correct), "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
