"""Benchmark of the ``bgg`` command, end to end and layer by layer.

Usage, from the repository root (see README.md):

  python3 bench/run.py --workload deep_jets --seed 1 --seconds 20 --trace 0
  python3 bench/run.py --workload all              # every workload, one table

Each case is one fresh, single-threaded ``python3`` process that calls the
public CLI entry ``artifact.bggcli.main`` on the ``src/`` tree next to this
directory (see ``case.py``). Cases run one at a time (closed loop, one
client). A pass runs every case of the workload once, in an order drawn from
``--seed``; the seed changes nothing else. A run repeats whole passes until
``--seconds`` have elapsed.

Every case's ``--emit json`` output is checked against ``reference/``: the
case fails when its exit status is not 0, stderr holds a traceback, a key or
value present in the reference differs (keys the reference lacks are
ignored), or a ``verify`` entry is not ``pass``.

Times are scaled to a reference host speed, measured inside each case
process by its sampler (see ``case.py``); the unscaled sums are printed too.
``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``, each a
sum over cases of the case's median over passes:

* ``wall_s``: wall time of the case process, spawn to exit.
* ``cpu_s``: its user+sys CPU.
* ``peak_rss_mb``: its max-RSS; the largest over cases, not summed.
* ``setup_s``: the time from spawn until ``artifact.bggcli`` is imported and
  the job parsed, in set-up-only processes and in the case runs.

``--trace 1`` runs the same passes with spans around each layer's public
functions (see ``tracer.py``) and reports the per-layer metrics. Its
``trace.wall_s`` is the traced ``wall_s``; the tracing overhead is that minus
the untraced ``wall_s``, which ``--workload all --trace 1`` prints.

The last line of stdout is the result object; the lines above it are a row
per case run, the metrics with units, and the provenance (scalar backend,
Python, CPU count, git commit, and the sizes that drive cost). Results taken
with different scalar backends are not comparable.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
CASE = BENCH / "case.py"
REFERENCE = BENCH / "reference"
SPEC = ROOT / "BENCHMARK.json"

# (algebra, crossed nodes, weight, command)
Case = tuple[str, str, str, str]

WORKLOADS: dict[str, list[Case]] = {
    # few sources, deep semi-holonomic jets; G2 (1,0) also leaves 2 of 5 sources partial
    "deep_jets": [("A3", "1,3", "1,0,0", "verify"), ("G2", "1", "1,0", "verify")],
    # 34 sources with small jets: per-source certification and generation
    "many_sources": [("A3", "1,2,3", "0,0,0", "verify"), ("A3", "1,2", "0,0,0", "verify")],
    # no jets: cochain build, Hodge split and the identity battery
    "cohomology": [("G2", "1", "1,1", "cohomology"), ("A4", "2", "1,0,0,1", "cohomology")],
}

SETUP_PROBES = 2  # set-up-only processes per case and pass
# Times are rescaled to the host speed at which the case process's sampler
# chunk (see case.py) takes CHUNK_REF_S on average.
CHUNK_REF_S = 160e-6
TRACEBACK = "Traceback (most recent call last)"
# environment of every case process: the checkout's package, fixed hash seed
CASE_ENV = {**os.environ, "PYTHONPATH": str(SRC), "PYTHONHASHSEED": "0"}


class BenchError(Exception):
    """The benchmark cannot run here (as opposed to a case failing its check)."""


def case_id(case: Case) -> str:
    return "_".join(part.replace(",", "-") for part in case)


def case_label(case: Case) -> str:
    alg, cross, weight, cmd = case
    return f"{alg} {{{cross}}} ({weight}) {cmd}"


def load_references(cases: list[Case]) -> dict[Case, dict]:
    refs = {}
    for case in cases:
        path = REFERENCE / f"{case_id(case)}.json"
        try:
            refs[case] = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:
            raise BenchError(f"cannot read reference {path}: {exc}") from exc
    return refs


def _drain(stream, sink: dict, key: str) -> None:
    with stream:
        sink[key] = stream.read()


def spawn(case: Case, mode: str) -> dict:
    """Run one case process in ``mode`` (see case.py) and measure it from outside."""
    argv = ["--algebra", case[0], "--cross", case[1], "--weight", case[2], case[3],
            "--emit", "json"]
    r, w = os.pipe()
    t0 = time.monotonic()
    try:
        proc = subprocess.Popen(
            [sys.executable, str(CASE), str(w), mode, *argv],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, pass_fds=(w,),
            cwd=ROOT, env=CASE_ENV,
        )
    except OSError:
        os.close(r)
        raise
    finally:
        os.close(w)
    data: dict[str, bytes] = {}
    readers = [
        threading.Thread(target=_drain, args=(stream, data, key))
        for key, stream in (("out", proc.stdout), ("err", proc.stderr),
                            ("side", os.fdopen(r, "rb")))
    ]
    for t in readers:
        t.start()
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.monotonic() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    for t in readers:
        t.join()
    try:
        side = json.loads(data["side"])
    except ValueError:
        side = None
    return {
        "case": case,
        "rc": proc.returncode,
        "stdout": data["out"].decode("utf-8", "replace"),
        "stderr": data["err"].decode("utf-8", "replace"),
        "side": side,
        "wall": wall,
        "cpu": usage.ru_utime + usage.ru_stime,
        "rss_mb": usage.ru_maxrss / 1024,
        "setup": side["ready"] - t0 if side else None,
        "scale": CHUNK_REF_S / side["chunk_s"] if side and side["chunk_s"] else 1.0,
    }


def _agrees(ref, out) -> bool:
    """Every key and value of ``ref`` is present in ``out``; extra keys are ignored."""
    if isinstance(ref, dict):
        return isinstance(out, dict) and all(
            k in out and _agrees(v, out[k]) for k, v in ref.items()
        )
    if isinstance(ref, list):
        return (isinstance(out, list) and len(ref) == len(out)
                and all(map(_agrees, ref, out)))
    return ref == out


def failure(res: dict, reference: dict) -> str | None:
    """Why a case run fails the correctness gate, or None when it passes."""
    if res["rc"] != 0:
        return f"exit status {res['rc']}"
    if TRACEBACK in res["stderr"]:
        return "traceback on stderr"
    side = res["side"]
    if side is None:
        return "no report from the case process"
    if not side["artifact"].startswith(str(SRC / "artifact")):
        return f"artifact imported from {side['artifact']}"
    try:
        out = json.loads(res["stdout"])
    except ValueError:
        return "stdout is not JSON"
    if not _agrees(reference, out):
        return "output differs from the reference"
    failing = sorted(k for k, v in out["verify"].items() if v != "pass")
    if failing:
        return "verify entries not passing: " + ", ".join(failing)
    return None


def layer_values(results: list[dict]) -> dict[str, float]:
    """Per-layer metrics of traced case runs: counts and rescaled seconds
    summed, sizes maximised."""
    sides = [{"spans": {}, "sizes": {}, **(r["side"] or {})} for r in results]
    vals: dict[str, float] = {}
    for name in tracer.SPANS:
        stats = [s["spans"].get(name, {}) for s in sides]
        vals[f"{name}.calls"] = sum(st.get("calls", 0) for st in stats)
        for stat in ("s", "self_s"):
            vals[f"{name}.{stat}"] = sum(
                st.get(stat, 0) * r["scale"] for st, r in zip(stats, results)
            )
    vals["jetcalc.semiholonomic.max_dim"] = max(
        s["sizes"].get("jbar_max_dim", 0) for s in sides
    )
    vals["hodge.chain_dim.max"] = max(
        max(s["sizes"].get("chain_dims") or [0]) for s in sides
    )
    vals["bggcore.sources_built"] = vals["bggcore.bgg_operator.calls"]
    vals["bggcore.sources_partial"] = sum(s["sizes"].get("partial", 0) for s in sides)
    vals["trace.wall_s"] = sum(r["wall"] * r["scale"] for r in results)
    return vals


def load_spec() -> dict:
    return json.loads(SPEC.read_text(encoding="utf-8"))


def metric_specs(trace: bool) -> list[dict]:
    """The metrics BENCHMARK.json names for this kind of run."""
    return load_spec()["per_layer" if trace else "end_to_end"]


def git_commit() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        )
    except OSError:
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def _row(res: dict, pass_no: int, why: str | None) -> str:
    sizes = (res["side"] or {}).get("sizes", {})
    setup = f"{res['setup']:.3f}" if res["setup"] is not None else "-"
    return (f"{case_label(res['case']):<30} pass {pass_no:<2} wall {res['wall']:7.3f} s"
            f"  cpu {res['cpu']:7.3f} s  rss {res['rss_mb']:6.1f} MB  setup {setup} s"
            f"  scale {res['scale']:.3f}  chain dims {sizes.get('chain_dims')}"
            f"  jbar max {sizes.get('jbar_max_dim')}  {why or 'ok'}")


def _sum_of_medians(runs: dict[Case, list], value) -> float:
    return sum(statistics.median(map(value, rs)) for rs in runs.values())


def benchmark(cases: list[Case], seed: int, seconds: float, trace: bool,
              references: dict[Case, dict]) -> dict:
    """Run the cases; print a row per case run and return the result object."""
    order = list(cases)
    random.Random(seed).shuffle(order)
    mode = "trace" if trace else "run"
    runs: dict[Case, list[dict]] = {case: [] for case in order}
    setups: dict[Case, list[float]] = {case: [] for case in order}
    raw_setups: dict[Case, list[float]] = {case: [] for case in order}
    passes = failed = 0
    start = time.monotonic()
    while passes == 0 or time.monotonic() - start < seconds:
        passes += 1
        for case in order:
            probes = [] if trace else [spawn(case, "setup") for _ in range(SETUP_PROBES)]
            for probe in probes:
                if probe["rc"] != 0 or probe["setup"] is None:
                    raise BenchError(
                        f"set-up of {case_label(case)} failed: {probe['stderr'][-2000:]}"
                    )
            res = spawn(case, mode)
            for r in [*probes, res]:
                if r["setup"] is not None:
                    raw_setups[case].append(r["setup"])
                    setups[case].append(r["setup"] * r["scale"])
            why = failure(res, references[case])
            failed += why is not None
            print(_row(res, passes, why), flush=True)
            if trace:
                print(json.dumps({"case": case_id(case), "pass": passes,
                                  "layers": layer_values([res])}), flush=True)
            runs[case].append(res)

    if trace:
        per_pass = [layer_values([runs[c][k] for c in order]) for k in range(passes)]
        values = {k: statistics.median(p[k] for p in per_pass) for k in per_pass[0]}
    else:
        values = {
            "wall_s": _sum_of_medians(runs, lambda r: r["wall"] * r["scale"]),
            "cpu_s": _sum_of_medians(runs, lambda r: r["cpu"] * r["scale"]),
            "peak_rss_mb": max(
                statistics.median(r["rss_mb"] for r in rs) for rs in runs.values()
            ),
            "setup_s": sum(map(statistics.median, setups.values())),
        }
    metrics = {}
    for m in metric_specs(trace):
        if m["name"] not in values:
            raise BenchError(f"BENCHMARK.json names {m['name']}, which is not measured")
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}

    sides = [r["side"] for rs in runs.values() for r in rs if r["side"]]
    chunks = [s["chunk_s"] for s in sides if s["chunk_s"]]
    provenance = {
        "backend": sides[0]["backend"] if sides else "unknown",
        "python": sides[0]["python"] if sides else "unknown",
        "nproc": os.cpu_count(),
        "commit": git_commit(),
        "seed": seed,
        "order": [case_id(c) for c in order],
        "passes": passes,
        "chunk_s": statistics.median(chunks) if chunks else None,
        "raw": {
            "wall_s": _sum_of_medians(runs, lambda r: r["wall"]),
            "cpu_s": _sum_of_medians(runs, lambda r: r["cpu"]),
            "setup_s": sum(map(statistics.median, raw_setups.values())),
        },
        "sizes": {case_id(c): (rs[0]["side"] or {}).get("sizes") for c, rs in runs.items()},
    }
    return {
        "correct": failed == 0,
        "attempted": passes * len(order),
        "failed": failed,
        "metrics": metrics,
        "provenance": provenance,
    }


def print_metrics(title: str, result: dict) -> None:
    print(f"{title}  (backend {result['provenance']['backend']}; "
          f"compare only with results from the same backend)")
    for name, m in result["metrics"].items():
        print(f"  {name:<45} {m['value']:>14.6f} {m['unit']}")
    print(f"  {'fail_ratio':<45} {result['failed'] / result['attempted']:>14.6f} "
          f"failed/attempted ({result['failed']}/{result['attempted']})")
    prov = result["provenance"]
    print("  times above are at reference host speed; unscaled: "
          + "  ".join(f"{k} {v:.3f} s" for k, v in prov["raw"].items())
          + f"  (sampler chunk {(prov['chunk_s'] or 0) * 1e6:.1f} us, reference "
          f"{CHUNK_REF_S * 1e6:.0f} us)")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=load_spec()["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        if not (SRC / "artifact" / "bggcli.py").is_file():
            raise BenchError(f"no package source at {SRC / 'artifact'}")
        results: dict[str, dict] = {}
        for name in names:
            cases = WORKLOADS[name]
            refs = load_references(cases)
            runs = [False, True] if args.workload == "all" and args.trace else [bool(args.trace)]
            for trace in runs:
                res = benchmark(cases, args.seed, args.seconds, trace, refs)
                results[f"{name}.trace" if trace and len(runs) > 1 else name] = res
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    for key, res in results.items():
        print_metrics(key, res)
        print(json.dumps({"provenance": {key: res["provenance"]}}))
    if args.workload != "all":
        final = {k: results[names[0]][k] for k in ("correct", "attempted", "failed", "metrics")}
    else:
        metrics = {
            f"{key}.{m}": v for key, res in results.items() for m, v in res["metrics"].items()
        }
        for name in names:
            if f"{name}.trace" in results:
                overhead = (results[f"{name}.trace"]["metrics"]["trace.wall_s"]["value"]
                            - results[name]["metrics"]["wall_s"]["value"])
                metrics[f"{name}.trace.overhead_s"] = {"value": overhead, "unit": "s"}
                print(f"{name}: tracing overhead {overhead:.3f} s "
                      "(traced wall_s minus untraced wall_s)")
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": metrics,
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
