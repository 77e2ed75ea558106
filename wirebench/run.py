#!/usr/bin/env python3
"""Wire-level benchmark of the zoomie debug server.

Builds zoomie_server and the wirebench driver from this checkout's
sources (Release, under $CARGO_TARGET_DIR or .bench_build), spawns
the server at its default scheduler settings on an ephemeral loopback
port, and drives it with four closed-loop protocol-v2 clients through
the bringup, simulate and inspect phases. Every reply is checked.
The last line of stdout is one JSON result; everything else goes to
stderr, starting with the run record header.

    python3 wirebench/run.py --workload bringup --seed 7 --seconds 30 --trace 0

--trace 1 runs the wire phases once more and then the in-process
replay of the same seeded inputs, and reports the per-layer metrics
instead. See wirebench/README.md.
"""

import argparse
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
PHASES = ("bringup", "simulate", "inspect")
WORKLOADS = ("bringup", "simulate")
SERVER_FLAGS = ["--listen", "0"]
SETUP_REPS = 9


class Failure(Exception):
    """The run cannot produce numbers."""


def log(message):
    print("wirebench: " + message, file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    return os.path.join(os.path.abspath(base), "wirebench")


def run_logged(cmd):
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout[-6000:])
        raise Failure("failed: " + " ".join(cmd))


def build(bdir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise Failure("no zoomie sources next to " + HERE)
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        run_logged(["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"])
    run_logged(["cmake", "--build", bdir, "-j", "4", "--target", "zoomie_server", "wirebench"])


def source_digest():
    """Commit when the checkout is a git tree, else a hash of the sources."""
    try:
        if os.path.isdir(os.path.join(ROOT, ".git")):
            return subprocess.check_output(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                           text=True, stderr=subprocess.DEVNULL).strip()
    except (OSError, subprocess.CalledProcessError):
        pass
    digest = hashlib.sha1()
    for top in ("src", "examples", "wirebench"):
        for base, dirs, files in os.walk(os.path.join(ROOT, top)):
            dirs.sort()
            for name in sorted(files):
                path = os.path.join(base, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "sources-" + digest.hexdigest()[:16]


class Server:
    """zoomie_server on an ephemeral port read back from its banner."""

    def __init__(self, binary):
        self.proc = subprocess.Popen([binary] + SERVER_FLAGS, stdin=subprocess.DEVNULL,
                                     stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                                     text=True)
        self.port = None
        self.tail = []
        self._ready = threading.Event()
        self._drain = threading.Thread(target=self._read_stderr, daemon=True)
        self._drain.start()
        if not self._ready.wait(30) or self.port is None:
            self.stop()
            raise Failure("server gave no port: " + "".join(self.tail))

    def _read_stderr(self):
        for line in self.proc.stderr:
            if self.port is None and "listening on " in line:
                address = line.split("listening on ", 1)[1].split()[0]
                self.port = int(address.rsplit(":", 1)[1])
                self._ready.set()
            self.tail = (self.tail + [line])[-20:]
        self._ready.set()

    def check_alive(self):
        if self.proc.poll() is not None:
            raise Failure("zoomie_server exited mid-run (code %s): %s"
                          % (self.proc.returncode, "".join(self.tail)))

    def peak_rss_mb(self):
        with open("/proc/%d/status" % self.proc.pid) as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise Failure("no VmHWM for the server")

    def stop(self):
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self._drain.join(10)


def phase_seconds(workload, seconds):
    """Shares of the run per phase. The engine rates drift most with the
    host, so simulate always gets the largest share; bringup and inspect
    never get less than a quarter."""
    if workload == "simulate":
        share = {"bringup": 0.25, "simulate": 0.5, "inspect": 0.25}
    else:
        share = {"bringup": 0.3, "simulate": 0.45, "inspect": 0.25}
    return {p: seconds * share[p] for p in PHASES}


def run_wire(binary, client, seed, phases, reps):
    """Set up `reps` times (spawn, connect, open), then run the phases."""
    setups = []
    for rep in range(reps):
        final = rep == reps - 1
        start = time.monotonic()
        server = Server(binary)
        proc = None
        try:
            cmd = [client, "client", "--port", str(server.port), "--seed", str(seed),
                   "--bringup-s", "%.3f" % phases["bringup"],
                   "--simulate-s", "%.3f" % phases["simulate"],
                   "--inspect-s", "%.3f" % phases["inspect"]]
            if not final:
                cmd.append("--setup-only")
            proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
            if proc.stdout.readline().strip() != "setup-done":
                proc.wait()
                server.check_alive()
                raise Failure("client set-up failed")
            setups.append(time.monotonic() - start)
            out = proc.stdout.read()
            if proc.wait() != 0:
                raise Failure("client exited with %d" % proc.returncode)
            server.check_alive()
            if final:
                result = json.loads(out.strip().splitlines()[-1])
                result["setup_s"] = statistics.median(setups)
                result["setup_samples"] = setups
                result["server_rss_mb"] = server.peak_rss_mb()
                return result
        finally:
            if proc is not None and proc.poll() is None:
                proc.kill()
                proc.wait()
            server.stop()


def end_to_end(wire):
    b, s, i = wire["bringup"], wire["simulate"], wire["inspect"]
    attempted = wire["attempted"]
    return {
        "setup_s": (wire["setup_s"], "s"),
        "ops_ok_frac": (1.0 - wire["failed"] / attempted, "ratio"),
        "server_rss_mb": (wire["server_rss_mb"], "MB"),
        "open_source_ms_p50": (b["open_source"]["p50"], "ms"),
        "sessions_per_s": (b["sessions"] / b["seconds"], "1/s"),
        "read_ms_p50": (i["read"]["p50"], "ms"),
        "write_ms_p50": (i["write"]["p50"], "ms"),
        "stop_ms_p50": (i["stop"]["p50"], "ms"),
        "trace_ms_p50": (i["trace"]["p50"], "ms"),
        "cmd_ms_p95": (i["all"]["p95"], "ms"),
    }


def sample_counts(wire):
    """The sample count behind every percentile, for the run record."""
    b, s, i = wire["bringup"], wire["simulate"], wire["inspect"]
    counts = {"setup_s": len(wire["setup_samples"]),
              "open_source_ms": b["open_source"]["n"], "first_stop_ms": b["first_stop"]["n"],
              "cmd_ms": i["all"]["n"]}
    for cls in ("read", "write", "stop", "trace"):
        counts[cls + "_ms"] = i[cls]["n"]
    for group in ("fabric", "sim", "jit", "jit_mixed"):
        counts["run_ms." + group] = s[group]["run_ms"]["n"]
    return counts


def per_layer(wire, replay):
    m = dict(replay["metrics"])
    b, s, i = wire["bringup"], wire["simulate"], wire["inspect"]
    hl = "rdp.handle_line_us."
    m["rdp.wire_ms.open_source"] = b["open_source"]["p50"] - m[hl + "open_source"] / 1000
    for cls in ("read", "write", "stop", "trace"):
        m["rdp.wire_ms." + cls] = i[cls]["p50"] - m[hl + cls] / 1000
    engine = {"fabric": "fpga", "sim": "sim", "jit": "jit", "jit_mixed": "jit"}
    for group, layer in engine.items():
        solo_ms = s[group]["run_cycles"] * m[layer + ".ns_per_cycle"] / 1e6
        m["rdp.queue_wait_ms." + group] = s[group]["run_ms"]["p50"] - solo_ms
    m["bringup.repeat_share"] = b["repeats"] / b["uploads"]
    m["first_stop_ms_p50"] = b["first_stop"]["p50"]
    m["first_stop_ms_p95"] = b["first_stop"]["p95"]
    for group in ("fabric", "sim", "jit", "jit_mixed"):
        m["cycles_per_s_" + group] = s[group]["cycles_per_s"]
    # Fairness: a jit client's rate next to fabric and sim clients over
    # its rate among jit clients only.
    m["jit_mixed_share"] = ((s["jit_mixed"]["cycles_per_s"] / s["jit_mixed"]["clients"])
                            / (s["jit"]["cycles_per_s"] / s["jit"]["clients"]))
    return m


def layer_unit(name):
    """Per-layer units follow from the metric names."""
    if name.startswith("cycles_per_s"):
        return "cycles/s"
    if "_ms_p" in name:
        return "ms"
    parts = name.split(".")
    for part in parts:
        for suffix, unit in (("_us", "us"), ("_ms", "ms"), ("_s", "s"),
                             ("_per_cycle", "ns/cycle"), ("_ratio", "ratio"),
                             ("_frac", "ratio"), ("_share", "ratio"), ("_bytes", "bytes")):
            if part.endswith(suffix):
                return unit
    return "count" if parts[-1] == "cells" else "words"


def check_determinism(bdir, seed, counts):
    """Simulated-hardware counts must repeat exactly at a seed."""
    path = os.path.join(bdir, "counts", "seed-%d.json" % seed)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    if os.path.exists(path):
        with open(path) as f:
            before = json.load(f)
        if before != counts:
            log("DETERMINISM: simulated-hardware counts differ from an earlier run "
                "at seed %d (%s)" % (seed, path))
            return False
        return True
    with open(path, "w") as f:
        json.dump(counts, f)
    return True


def metric_block(values):
    return {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    bdir = build_dir()
    build(bdir)
    server_bin = os.path.join(bdir, "zoomie_server")
    client_bin = os.path.join(bdir, "wirebench")
    info = json.loads(subprocess.check_output([client_bin, "info"], text=True))
    header = {"sha": source_digest(), "build_type": info["build_type"],
              "compiler": info["compiler"], "nproc": os.cpu_count(),
              "server_flags": SERVER_FLAGS, "workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace}
    log("record " + json.dumps(header))

    if subprocess.run([client_bin, "selfcheck", "--seed", str(args.seed)]).returncode != 0:
        raise Failure("generated uploads failed the self-check")

    phases = phase_seconds(args.workload, args.seconds)
    wire = run_wire(server_bin, client_bin, args.seed, phases,
                    SETUP_REPS if args.trace == 0 else 1)
    for error in wire["errors"]:
        log("failed operation: " + error)
    attempted, failed = wire["attempted"], wire["failed"]
    correct = failed == 0

    if args.trace == 0:
        log("samples " + json.dumps(sample_counts(wire)))
        metrics = metric_block(end_to_end(wire))
    else:
        trace_dir = os.path.join(bdir, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        spans = os.path.join(trace_dir, "%s-seed%d.json" % (args.workload, args.seed))
        out = subprocess.run([client_bin, "replay", "--seed", str(args.seed), "--spans", spans],
                             stdout=subprocess.PIPE, text=True)
        if out.returncode != 0:
            raise Failure("replay exited with %d" % out.returncode)
        replay = json.loads(out.stdout.strip().splitlines()[-1])
        for error in replay["errors"]:
            log("replay: " + error)
        log("spans written to " + spans)
        attempted += replay["attempted"]
        failed += replay["failed"]
        correct = correct and replay["correct"] and check_determinism(bdir, args.seed, replay["counts"])
        metrics = {name: {"value": value, "unit": layer_unit(name)}
                   for name, value in sorted(per_layer(wire, replay).items())}

    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


if __name__ == "__main__":
    # A terminated run still stops its server and client (finally blocks).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    try:
        main()
    except Failure as failure:
        log("FAILED: %s" % failure)
        sys.exit(1)
