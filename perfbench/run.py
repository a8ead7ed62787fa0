"""End-to-end and per-layer benchmark of the metavec CLI.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload mvm-synth --seed 1 --seconds 15 --trace 0

``--workload`` is one of the names in ``gen.WORKLOADS`` or ``all``. The
inputs are generated from ``--seed`` (and cached under ``perfbench/.work``,
outside the timed region). This process runs one CLI child at a time,
a closed loop with a single client, with BLAS pinned to ``BLAS_THREADS``
threads; the CLI is the checkout's own ``src/metavec``, run as
``python3 -m metavec``.

``--trace 0`` times the CLI with tracing off and reports the end-to-end
metrics. ``--trace 1`` runs the CLI a few times for reference, then the
traced pass (``layers.py``), which calls each module's public functions from
outside in the CLI's order, and reports the per-layer metrics. Both check
every output against the generator's ground truth. The last stdout line is
the JSON result; the lines before it are a readable report, and the full
record is written under ``perfbench/.work/results``.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

import checks
import gen

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"

BLAS_THREADS = min(2, os.cpu_count() or 1)
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
VERSION_ARGV = [sys.executable, "-m", "metavec", "--version"]
MIN_SAMPLES = 3
# Every child is killed once a workload's run has lasted this long, so a
# hung program still ends the run (as a failure) well within 180 s.
RUN_LIMIT_S = 165
# Planted-truth correlation far below what the synthetic inputs give; a
# result under it means neighbors or averaging went wrong.
SIM_RHO_FLOOR = 0.3

# The metric names and units are defined once, in BENCHMARK.json.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
DERIVED = {"combine.synthesis_s", "cli.other_s", "trace.overhead_s", "oov.rank_ns_per_pair"}
# Layers on the CLI's own path; their spans do not nest in each other.
PATH_LAYERS = (
    "embeddings.parse_text_s", "embeddings.parse_binary_s", "combine.combine_mvm_s",
    "oov.extend_to_union_s", "oov.format_audit_dump_s",
    "embeddings.write_text_s", "embeddings.write_binary_s",
)
# ROADMAP Baseline (one run, N=20k, d=300, 3 sources shifted by N/4 over a
# 1.5N universe, 500M rank pairs), as rates comparable across sizes.
ROADMAP_BASELINE = {
    "embeddings.write_text_s_per_krow": 15.5 / 20,
    "embeddings.parse_text_s_per_krow": 3.7 / 20,
    "embeddings.write_binary_s_per_krow": 0.05 / 20,
    "embeddings.parse_binary_s_per_krow": 0.13 / 20,
    "align.align_to_target_s_per_krow": 0.85 / 60,
    "combine.union_mean_s_per_krow": 0.33 / 30,
    "oov.rank_ns_per_pair": 56.5e9 / 500e6,
}


@dataclass
class Child:
    wall_s: float
    rss_mb: float
    cpu_s: float
    code: int
    stdout: str
    stderr: str


def child_env(threads: int) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.update({var: str(threads) for var in BLAS_VARS})
    return env


class Launcher:
    """Runs every child through ``launcher.py``, so that a child's peak RSS
    is its own and not this process's (see that file)."""

    def __init__(self):
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "launcher.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    def __enter__(self) -> "Launcher":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self.proc.stdin.close()
        else:
            self.proc.terminate()
        self.proc.wait()

    def run(self, argv: list[str], env: dict[str, str], log_dir: Path, timeout: float) -> Child:
        """Run one child to completion, killing it after ``timeout`` seconds."""
        log_dir.mkdir(parents=True, exist_ok=True)
        out_path, err_path = log_dir / "stdout", log_dir / "stderr"
        request = {"argv": argv, "env": env, "stdout": str(out_path),
                   "stderr": str(err_path), "timeout": timeout}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise RuntimeError("the child launcher exited")
        return Child(
            **json.loads(reply),
            stdout=out_path.read_text(encoding="utf-8", errors="replace"),
            stderr=err_path.read_text(encoding="utf-8", errors="replace"),
        )


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


@dataclass
class Attempt:
    child: Child
    out_dir: Path
    outputs: list[Path]
    problems: list[str] = field(default_factory=list)
    digests: dict[str, str] = field(default_factory=dict)


class Bench:
    """One workload instance: its inputs, truth, CLI command and checks."""

    def __init__(self, name: str, workload: gen.Workload, seed: int, run_dir: Path,
                 launcher: Launcher):
        self.name, self.workload, self.run_dir = name, workload, run_dir
        self.launcher = launcher
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.input_dir = gen.cached_inputs(name, workload, seed, WORK / "inputs")
        self.truth = checks.Truth(self.input_dir)
        self.validated: dict[tuple, tuple[list[str], float, dict]] = {}
        self.reference: dict[str, str] | None = None
        self.counter = 0

    def output_names(self) -> list[str]:
        ext = ".bin" if self.workload.fmt == "binary" else ".vec"
        if self.workload.command == "mvm":
            return [f"meta{ext}", f"meta{ext}.provenance.json"]
        return [f"ext1{ext}", f"ext2{ext}", "audit.tsv"]

    def cli_argv(self, outputs: list[Path]) -> list[str]:
        inputs = [str(p) for p in self.truth.inputs]
        k = ["--k", str(self.workload.k)]
        if self.workload.command == "mvm":
            return [sys.executable, "-m", "metavec", "mvm", *inputs, "-o", str(outputs[0]), *k]
        return [sys.executable, "-m", "metavec", "synth-oov", *inputs,
                str(outputs[0]), str(outputs[1]), *k, "--audit", str(outputs[2])]

    def run(self, argv: list[str], log_dir: Path, threads: int = BLAS_THREADS) -> Child:
        timeout = max(self.deadline - time.monotonic(), 1.0)
        return self.launcher.run(argv, child_env(threads), log_dir, timeout)

    def setup_time(self) -> float:
        """Wall time of ``metavec --version``: interpreter start, package
        import and argparse construction, which every CLI run pays."""
        child = self.run(VERSION_ARGV, self.new_dir("setup"))
        if child.code != 0 or not child.stdout.startswith("metavec "):
            raise RuntimeError(f"metavec --version failed: {child.stderr.strip()[-500:]}")
        return child.wall_s

    def new_dir(self, label: str) -> Path:
        self.counter += 1
        path = self.run_dir / f"{label}-{self.counter}"
        path.mkdir(parents=True)
        return path

    def attempt(self, threads: int = BLAS_THREADS, compare: bool = True) -> Attempt:
        """Run the CLI once and check what it left behind.

        ``compare`` requires the outputs to be bitwise equal to the first
        successful attempt's.
        """
        out_dir = self.new_dir("cli")
        outputs = [out_dir / n for n in self.output_names()]
        child = self.run(self.cli_argv(outputs), out_dir / "log", threads)
        att = Attempt(child, out_dir, outputs)
        if child.code != 0:
            att.problems.append(f"exit code {child.code}: {child.stderr.strip()[-300:]}")
        leftovers = [p.name for p in out_dir.glob("*.tmp.*")]
        if leftovers:
            att.problems.append(f"left temporary files {leftovers}")
        absent = [p.name for p in outputs if not p.is_file()]
        if absent:
            att.problems.append(f"missing outputs {absent}")
        if att.problems:
            return att
        att.digests = {p.name: checks.sha256(p) for p in outputs}
        att.problems.extend(self.validate(att)[0])
        if compare and not att.problems:
            if self.reference is None:
                self.reference = att.digests
            elif att.digests != self.reference:
                att.problems.append("outputs differ bitwise from the first repeat")
        return att

    def validate(self, att: Attempt) -> tuple[list[str], float, dict]:
        key = tuple(sorted(att.digests.items()))
        if key not in self.validated:
            try:
                if self.workload.command == "mvm":
                    problems, rho = checks.check_mvm(self.truth, *att.outputs)
                    extra = {}
                else:
                    problems, rho, extra = checks.check_synth_oov(
                        self.truth, *att.outputs, att.child.stdout
                    )
            except (ValueError, KeyError, UnicodeDecodeError) as exc:
                problems, rho, extra = [f"unreadable output: {exc}"], 0.0, {}
            if not problems and rho < SIM_RHO_FLOOR:
                problems.append(f"sim_rho {rho:.4f} below the floor {SIM_RHO_FLOOR}")
            self.validated[key] = (problems, rho, extra)
        return self.validated[key]

    def discard(self, att: Attempt) -> None:
        shutil.rmtree(att.out_dir, ignore_errors=True)

    def timed_loop(self, seconds: float, min_samples: int,
                   setup: list[float] | None = None) -> list[Attempt]:
        """Run the CLI repeatedly for ``seconds``. With a ``setup`` list, each
        attempt is preceded by one set-up timing appended to it, so that
        set-up is sampled across the whole run, as the CLI is."""
        attempts: list[Attempt] = []
        start = time.perf_counter()
        while len(attempts) < min_samples or time.perf_counter() - start < seconds:
            if setup is not None:
                setup.append(self.setup_time())
            att = self.attempt()
            attempts.append(att)
            if len(attempts) > 1:
                self.discard(att)
        return attempts

    def layer_spec(self, outputs: list[Path]) -> str:
        return json.dumps({
            "command": self.workload.command,
            "fmt": self.workload.fmt,
            "k": self.workload.k,
            "inputs": [str(p) for p in self.truth.inputs],
            "outputs": [str(p) for p in outputs],
        })

    def layer_child(self, mode: str) -> tuple[Child, dict, list[Path]]:
        out_dir = self.new_dir(mode)
        outputs = [out_dir / n for n in self.output_names()]
        argv = [sys.executable, str(HERE / "layers.py"), mode, self.layer_spec(outputs)]
        child = self.run(argv, out_dir / "log")
        if child.code != 0:
            raise RuntimeError(f"layers.py {mode} failed: {child.stderr.strip()[-500:]}")
        return child, json.loads(child.stdout.strip().splitlines()[-1]), outputs


def end_to_end(bench: Bench, seconds: float) -> dict:
    setup: list[float] = []
    attempts = bench.timed_loop(seconds, MIN_SAMPLES, setup)
    good = [a for a in attempts if not a.problems]
    failed = len(attempts) - len(good)
    rho = bench.validate(good[0])[1] if good else 0.0
    samples = {
        "wall_s": [a.child.wall_s for a in good] or [0.0],
        "peak_rss_mb": [a.child.rss_mb for a in good] or [0.0],
        "setup_s": setup,
        "sim_rho": [rho],
        "ok_pct": [100.0 * len(good) / len(attempts)],
    }
    stats = {name: quartiles(values) for name, values in samples.items()}
    return {
        "correct": failed == 0,
        "attempted": len(attempts),
        "failed": failed,
        "metrics": {name: stats[name][1] for name in END_TO_END},
        "samples": samples,
        "quartiles": stats,
        "fail_pct": 100.0 * failed / len(attempts),
        "problems": sorted({p for a in attempts for p in a.problems}),
        "digests": good[0].digests if good else {},
        "ties": bench.validate(good[0])[2] if good else {},
    }


def per_layer(bench: Bench, seconds: float) -> dict:
    wl = bench.workload
    attempts = bench.timed_loop(seconds / 2, 2)
    good = [a for a in attempts if not a.problems]
    pinned = attempts[0]
    single = bench.attempt(threads=1, compare=False)
    attempts.append(single)
    problems = sorted({p for a in attempts for p in a.problems})
    diff_rows = 0
    if not pinned.problems and not single.problems:
        rendered = len(bench.output_names()) - 1
        diff_rows = checks.thread_diff_rows(pinned.outputs[:rendered], single.outputs[:rendered])

    spans: dict[str, list[float]] = {}
    traced_walls, path_counts = [], {}
    start = time.perf_counter()
    while not traced_walls or time.perf_counter() - start < seconds / 2:
        child, result, outputs = bench.layer_child("path")
        traced_walls.append(child.wall_s)
        path_counts = result["counts"]
        for name, value in result["spans"].items():
            spans.setdefault(name, []).append(value)
        digests = {p.name: checks.sha256(p) for p in outputs}
        if bench.reference is not None and digests != bench.reference:
            problems.append("traced pass outputs differ from the CLI's")
        shutil.rmtree(outputs[0].parent, ignore_errors=True)
    _, aux, _ = bench.layer_child("aux")

    m = {name: 0.0 for name in PER_LAYER}
    for name, values in spans.items():
        if name in m:
            m[name] = statistics.median(values)
    m.update(aux["spans"])
    m.update(aux["peaks"])

    wall = statistics.median(a.child.wall_s for a in good) if good else 0.0
    rows_in = sum(len(o) for o in bench.truth.orders)
    bytes_in = sum(p.stat().st_size for p in bench.truth.inputs)
    rendered_bytes = path_counts.get("rendered_bytes", 0)
    rows_out = path_counts.get("rows_out", 0)
    text = wl.fmt == "text"
    m["embeddings.bytes_in"] = bytes_in
    m["embeddings.bytes_out"] = path_counts.get("bytes_out", 0)
    if text and m["embeddings.parse_text_s"]:
        m["embeddings.parse_text_mb_per_s"] = bytes_in / 1e6 / m["embeddings.parse_text_s"]
        m["embeddings.parse_text_s_per_krow"] = m["embeddings.parse_text_s"] / (rows_in / 1000)
    if text and m["embeddings.write_text_s"]:
        m["embeddings.write_text_mb_per_s"] = rendered_bytes / 1e6 / m["embeddings.write_text_s"]
        m["embeddings.write_text_s_per_krow"] = m["embeddings.write_text_s"] / (rows_out / 1000)
    rank_pairs = bench.truth.rank_pairs()
    m["oov.rank_pairs"] = rank_pairs
    if wl.command == "mvm":
        provenance = path_counts["provenance"]
        m["align.anchor_pairs"] = aux["counts"]["anchor_pairs"]
        m["combine.synthesis_s"] = (
            m["combine.combine_mvm_s"] - m["align.align_to_target_s"] - m["combine.union_mean_s"]
        )
        synth_s = m["combine.synthesis_s"]
        report = {
            "words_synthesized": provenance["synthesized"],
            "shortfalls": provenance["shortfalls"],
            "skipped": provenance["skipped"],
        }
    else:
        synth_s = m["oov.extend_to_union_s"]
        report = path_counts["report"]
    m["oov.words_synthesized"] = sum(report["words_synthesized"])
    m["oov.shortfalls"] = report["shortfalls"]
    m["oov.skipped"] = report["skipped"]
    m["oov.rank_ns_per_pair"] = synth_s * 1e9 / rank_pairs
    m["cli.cpu_s"] = statistics.median(a.child.cpu_s for a in good) if good else 0.0
    peak_rss = statistics.median(a.child.rss_mb for a in good) if good else 0.0
    # Shares of the CLI's peak RSS: the entry point's own allocations, and
    # the largest single score matrix (queries x candidates x 8 bytes).
    entry_peak = m["combine.combine_mvm_peak_mb"] or m["oov.extend_to_union_peak_mb"]
    memory = {
        "peak_rss_mb": peak_rss,
        "entry_point_peak_mb": entry_peak,
        "score_matrix_mb": max(bench.truth.score_blocks()) * 8 / 1e6,
    }
    m["cli.other_s"] = wall - sum(m[name] for name in PATH_LAYERS)
    traced_total = statistics.median(traced_walls)
    m["trace.overhead_s"] = traced_total - wall
    m["determinism.thread_diff_rows"] = diff_rows
    ties = bench.validate(pinned)[2] if not pinned.problems else {}
    m["oov.ties_met"] = ties.get("met", 0)
    m["oov.tie_order_violations"] = ties.get("violations", 0)

    rates = {
        "embeddings.write_text_s_per_krow": m["embeddings.write_text_s_per_krow"],
        "embeddings.parse_text_s_per_krow": m["embeddings.parse_text_s_per_krow"],
        "embeddings.write_binary_s_per_krow": m["embeddings.write_binary_s"] / (rows_out / 1000),
        "embeddings.parse_binary_s_per_krow": m["embeddings.parse_binary_s"] / (rows_in / 1000),
        "align.align_to_target_s_per_krow": m["align.align_to_target_s"] / (rows_in / 1000),
        "combine.union_mean_s_per_krow": m["combine.union_mean_s"] / (len(bench.truth.tokens) / 1000),
        "oov.rank_ns_per_pair": m["oov.rank_ns_per_pair"],
    }
    baseline = {
        name: {"measured": value, "roadmap_baseline": ROADMAP_BASELINE[name]}
        for name, value in rates.items() if value
    }
    return {
        "correct": not problems,
        "attempted": len(attempts),
        "failed": sum(bool(a.problems) for a in attempts),
        "metrics": m,
        "problems": problems,
        "traced_total_s": traced_total,
        "wall_s": wall,
        "span_samples": len(traced_walls),
        "cli_samples": len(good),
        "baseline_comparison": baseline,
        "memory": memory,
        "claims": claims(bench.name, m, traced_total, peak_rss),
        "digests": pinned.digests,
    }


def claims(name: str, m: dict, traced_total: float, peak_rss: float) -> list[tuple[str, bool]]:
    """What each workload is meant to stress, checked against the trace."""
    def largest(target: str, others: list[str]) -> bool:
        return all(m[target] >= m[o] for o in others)

    if name == "mvm-synth":
        others = ["embeddings.parse_binary_s", "embeddings.write_binary_s",
                  "align.align_to_target_s", "combine.union_mean_s", "cli.other_s"]
        return [
            ("combine.synthesis_s is the largest layer", largest("combine.synthesis_s", others)),
            ("combine.combine_mvm_peak_mb >= 1/2 of the CLI's peak_rss_mb",
             m["combine.combine_mvm_peak_mb"] >= peak_rss / 2),
        ]
    if name == "mvm-text":
        io = m["embeddings.parse_text_s"] + m["embeddings.write_text_s"]
        return [
            ("parse + write >= 2/3 of the traced total", io >= traced_total * 2 / 3),
            ("synthesis < 1/10 of the traced total", m["combine.synthesis_s"] < traced_total / 10),
        ]
    others = ["embeddings.parse_binary_s", "embeddings.write_binary_s",
              "oov.format_audit_dump_s", "cli.other_s"]
    return [("oov.extend_to_union_s is the largest layer", largest("oov.extend_to_union_s", others))]


def report_end_to_end(name: str, seed: int, res: dict) -> None:
    print(f"== {name}  seed {seed}  blas_threads {BLAS_THREADS}  closed loop, 1 client")
    print(f"{'metric':<14}{'unit':>6}{'n':>4}{'q1':>13}{'median':>13}{'q3':>13}")
    for metric, unit in END_TO_END.items():
        q1, med, q3 = res["quartiles"][metric]
        n = len(res["samples"][metric])
        print(f"{metric:<14}{unit:>6}{n:>4}{q1:>13.6g}{med:>13.6g}{q3:>13.6g}")
    print(f"{'fail_pct':<14}{'%':>6}{res['attempted']:>4}{'':>13}{res['fail_pct']:>13.6g}")
    print_common(res)


def report_per_layer(name: str, seed: int, res: dict) -> None:
    print(f"== {name}  seed {seed}  blas_threads {BLAS_THREADS}  traced pass: "
          f"{res['span_samples']} path runs, {res['cli_samples']} CLI runs")
    for metric, unit in PER_LAYER.items():
        label = " (derived)" if metric in DERIVED else ""
        print(f"{metric:<36}{res['metrics'][metric]:>14.6g} {unit}{label}")
    print(f"traced total {res['traced_total_s']:.4f} s, CLI wall {res['wall_s']:.4f} s")
    for stage, pair in res["baseline_comparison"].items():
        print(f"rate {stage:<38} measured {pair['measured']:.6g}  "
              f"ROADMAP baseline {pair['roadmap_baseline']:.6g}")
    mem = res["memory"]
    if mem["peak_rss_mb"]:
        print(f"memory: CLI peak RSS {mem['peak_rss_mb']:.1f} MB; entry point allocates "
              f"{mem['entry_point_peak_mb']:.1f} MB ({mem['entry_point_peak_mb'] / mem['peak_rss_mb']:.0%}); "
              f"largest score matrix {mem['score_matrix_mb']:.1f} MB "
              f"({mem['score_matrix_mb'] / mem['peak_rss_mb']:.0%})")
    for text, ok in res["claims"]:
        print(f"claim {'holds' if ok else 'FAILS'}: {text}")
    print_common(res)


def print_common(res: dict) -> None:
    for output, digest in res["digests"].items():
        print(f"sha256 {digest}  {output}")
    for problem in res["problems"]:
        print(f"problem: {problem}")


def run_one(name: str, workload: gen.Workload, seed: int, seconds: float, trace: bool,
            launcher: Launcher) -> dict:
    run_dir = WORK / "runs" / f"{name}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    try:
        bench = Bench(name, workload, seed, run_dir, launcher)
        # Compile the package's bytecode once; users pay that only on first use.
        bench.run(VERSION_ARGV, run_dir / "warmup")
        res = per_layer(bench, seconds) if trace else end_to_end(bench, seconds)
        (report_per_layer if trace else report_end_to_end)(name, seed, res)
    except RuntimeError as exc:
        # The program failed somewhere other than a checked CLI run.
        print(f"problem: {exc}")
        res = {"correct": False, "attempted": 1, "failed": 1,
               "metrics": {m: 0.0 for m in (PER_LAYER if trace else END_TO_END)}}
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    res["workload"], res["seed"], res["blas_threads"] = name, seed, BLAS_THREADS
    res["params"] = asdict(workload)
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    path = results / f"{name}-s{seed}-trace{int(trace)}.json"
    path.write_text(json.dumps(res, indent=1, default=str), encoding="utf-8")
    print(f"full record: {path.relative_to(ROOT)}")
    return res


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*gen.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Turn SIGTERM into SystemExit, so that the launcher is stopped and its
    # running child killed and reaped on the way out.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not (SRC / "metavec" / "__init__.py").is_file():
        print(f"error: no metavec package at {SRC}; run from a metavec checkout",
              file=sys.stderr)
        return 2
    names = list(gen.WORKLOADS) if args.workload == "all" else [args.workload]
    units = PER_LAYER if args.trace else END_TO_END
    final = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    with Launcher() as launcher:
        for name in names:
            res = run_one(name, gen.WORKLOADS[name], args.seed, args.seconds, bool(args.trace), launcher)
            final["correct"] = final["correct"] and res["correct"]
            final["attempted"] += res["attempted"]
            final["failed"] += res["failed"]
            prefix = f"{name}/" if len(names) > 1 else ""
            for metric, unit in units.items():
                final["metrics"][prefix + metric] = {"value": res["metrics"][metric], "unit": unit}
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
