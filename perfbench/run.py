"""realchar benchmark: closed-loop CLI workloads with checked outputs.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One client runs realchar commands one after another, each in a fresh
interpreter (``child.py``), until ``--seconds`` have passed.  ``--seed`` is
passed to realchar's ``--seed``.  Every operation (one group scanned, one
table printed) is checked against its golden output and against invariants
(``checks.py``); a failed check counts in ``failed``, it does not stop the
run.

With ``--trace 0`` the metrics are end to end, as medians over rounds (one
round runs each command of the workload once):
    wall_s        seconds from cli.main entry to exit, summed over the round
    setup_s       seconds for a fresh interpreter to import realchar.cli
    peak_rss_mb   peak resident memory of the round's largest process, MiB
With ``--trace 1`` untraced and traced rounds alternate, and the metrics are
the per-layer self times and counts of the traced rounds (``spans.py``),
``traced_wall_s`` and ``trace_overhead_frac``.

The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics.  The run exits 2 without a result when the realchar
source tree is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import checks
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
GOLDEN = HERE / "golden"
SETUP_PROBES = 5
CHILD_TIMEOUT_S = 120


@dataclass(frozen=True)
class Command:
    """One realchar invocation of a workload, with its golden output file
    and, for tables, the facts checks.py verifies."""

    args: tuple[str, ...]
    golden: str
    expect: dict = field(default_factory=dict)

    @property
    def is_scan(self) -> bool:
        return self.args[0] == "scan"


# Why each workload is here (see README.md): scan_corpus is the headline user
# workload and mostly structure/classify with many tiny tables; table_stretch
# is one large group, dominated by the permutation kernels and class-matrix
# counting; table_wide has large class counts k, dominated by modp.
WORKLOADS = {
    "scan_corpus": (Command(("scan", "--machine"), "scan_corpus.txt"),),
    "table_stretch": (
        Command(
            ("table", "aff64_L2_8"),
            "aff64_L2_8.txt",
            {"order": 32256, "k": 17, "real_degrees": (1, 7, 8, 9, 63)},
        ),
    ),
    "table_wide": (
        Command(
            ("table", "C4xC4xC4"),
            "C4xC4xC4.txt",
            {"order": 64, "k": 64, "all_linear": True},
        ),
        Command(("table", "Q8xD8xC3"), "Q8xD8xC3.txt", {"order": 192, "k": 75}),
    ),
}

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

# Per-layer metrics.  "<layer>.<function>_s" is the self time of that
# function's spans, "<layer>.<function>_calls" their count and
# "<layer>.self_s" the self time of every span in the layer; the layer self
# times add up to traced_wall_s.  The others are read off span extras.
PER_LAYER = {
    "catalog.resolve_s": "s",
    "catalog.self_s": "s",
    "perm.enumerate_group_s": "s",
    "perm.elements": "count",
    "perm.conjugacy_classes_s": "s",
    "perm.subgroup_closure_s": "s",
    "perm.subgroup_closure_calls": "count",
    "perm.subgroup_elements_calls": "count",
    "perm.derived_series_limit_s": "s",
    "perm.self_s": "s",
    "chartab.all_class_matrices_s": "s",
    "chartab.compute_table_s": "s",
    "chartab.compute_table_calls": "count",
    "chartab.table_memo_hit_ratio": "ratio",
    "chartab.kernel_of_s": "s",
    "chartab.self_s": "s",
    "modp.common_eigenbasis_s": "s",
    "modp.mats_commute_s": "s",
    "modp.char_poly_s": "s",
    "modp.char_poly_calls": "count",
    "modp.nullspace_s": "s",
    "modp.rref_s": "s",
    "modp.self_s": "s",
    "structure.normal_subgroups_s": "s",
    "structure.normal_subgroups_calls": "count",
    "structure.lattice_members": "count",
    "structure.solvable_radical_s": "s",
    "structure.core_subgroups_s": "s",
    "structure.recognize_s": "s",
    "structure.chillag_mann_subgroup_s": "s",
    "structure.is_solvable_calls": "count",
    "structure.self_s": "s",
    "classify.classification_verdict_s": "s",
    "classify.consistency_suite_s": "s",
    "classify.build_report_s": "s",
    "classify.self_s": "s",
    "cli.load_source_s": "s",
    "cli.table_for_s": "s",
    "cli.self_s": "s",
    "traced_wall_s": "s",
    "trace_overhead_frac": "ratio",
}


def metric_source(metric: str) -> tuple[str, str] | None:
    """(span name, aggregate key) of a "<layer>.<function>_s" or
    "<layer>.<function>_calls" metric; None for every other metric."""
    layer, _, rest = metric.partition(".")
    if rest == "self_s":
        return None
    for suffix, key in (("_calls", "calls"), ("_s", "self_s")):
        if rest.endswith(suffix):
            return f"{layer}.{rest[: -len(suffix)]}", key
    return None


def traced_functions() -> set[str]:
    """The functions the per-layer metrics name, plus the entry point."""
    named = {src[0] for m in PER_LAYER if (src := metric_source(m)) is not None}
    return {"cli.main", *spans.AFTER, *spans.BEFORE, *named}


def layer_metrics(agg: dict[str, dict[str, float]]) -> dict[str, float]:
    """Per-layer metric values of one traced round from aggregated spans
    (all but traced_wall_s and trace_overhead_frac)."""

    def get(name: str, key: str) -> float:
        return agg.get(name, {}).get(key, 0)

    out = {}
    for layer in spans.LAYERS:
        out[f"{layer}.self_s"] = sum(
            v["self_s"] for k, v in agg.items() if k.partition(".")[0] == layer
        )
    for metric in PER_LAYER:
        source = metric_source(metric)
        if source is not None:
            out[metric] = get(*source)
    out["perm.elements"] = get("perm.enumerate_group", "extra")
    out["structure.lattice_members"] = get("structure.normal_subgroups", "extra")
    calls = get("chartab.compute_table", "calls")
    hits = get("chartab.compute_table", "extra")
    out["chartab.table_memo_hit_ratio"] = hits / calls if calls else 0.0
    return out


def child_env(environ) -> dict[str, str]:
    """The environment of every realchar process: the caller's, minus every
    REALCHAR_* variable (a cache directory, job count or backend choice
    would change what is measured)."""
    return {k: v for k, v in environ.items() if not k.startswith("REALCHAR_")}


@dataclass
class Invocation:
    code: int
    stdout: str
    stderr: str
    report: dict | None
    spans_path: Path | None


class Invoker:
    """Starts child.py processes against one realchar source tree."""

    def __init__(self, src: Path, workdir: Path):
        self.src = src
        self.workdir = workdir
        self.env = child_env(os.environ)
        self.count = 0

    def run(self, args: tuple[str, ...] | None, traced: bool = False) -> Invocation:
        self.count += 1
        report = self.workdir / f"report-{self.count}.json"
        spans_path = self.workdir / f"spans-{self.count}.json" if traced else None
        cmd = [sys.executable, str(HERE / "child.py"), str(self.src), str(report)]
        if spans_path is not None:
            cmd += ["--spans", str(spans_path)]
        if args is not None:
            cmd += ["--", *args]
        proc = subprocess.run(
            cmd,
            cwd=ROOT,
            env=self.env,
            capture_output=True,
            text=True,
            timeout=CHILD_TIMEOUT_S,
        )
        data = json.loads(report.read_text()) if report.is_file() else None
        return Invocation(proc.returncode, proc.stdout, proc.stderr, data, spans_path)


def check(command: Command, inv: Invocation, golden: str, corpus) -> list[list[str]]:
    """Problems per operation of one invocation."""
    if command.is_scan:
        return checks.check_scan(inv.stdout, inv.code, golden, corpus)
    return [checks.check_table(inv.stdout, inv.code, golden, command.expect)]


@dataclass
class Round:
    traced: bool
    wall_s: float = 0.0
    peak_rss_mb: float = 0.0
    setup_s: list[float] = field(default_factory=list)
    layers: dict[str, float] = field(default_factory=dict)
    complete: bool = True


def load_corpus(src: Path):
    """The catalog's hand-written expectations for the default corpus."""
    sys.path.insert(0, str(src))
    try:
        from realchar.catalog import default_corpus
    finally:
        sys.path.remove(str(src))
    return default_corpus()


def run_workload(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    golden_dir: Path = GOLDEN,
    log=print,
) -> dict:
    """Run one workload for ``seconds`` and return the result object."""
    src = ROOT / "src"
    commands = WORKLOADS[name]
    golden = {c.golden: (golden_dir / c.golden).read_text(encoding="utf-8") for c in commands}
    corpus = load_corpus(src)
    scratch = ROOT / ".perfbench"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=scratch))
    try:
        invoker = Invoker(src, workdir)
        setup, env = setup_probes(invoker)
        rounds, attempted, failed, problems = measure(
            invoker, commands, golden, corpus, seed, seconds, trace, scratch / "spans" / name
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    log(f"{'fail_frac':36s} {failed / attempted:.6g} ratio  ({failed} of {attempted} operations)")
    for problem in problems[:20]:
        log(f"FAILED: {problem}")
    timed = [r for r in rounds if r.complete]
    plain = [r for r in timed if not r.traced]
    traced = [r for r in timed if r.traced]
    if not plain or (trace and not traced):
        raise RuntimeError("no round completed")
    samples = {
        "wall_s": [r.wall_s for r in plain],
        "setup_s": setup + [s for r in plain for s in r.setup_s],
        "peak_rss_mb": [r.peak_rss_mb for r in plain],
    }
    units = dict(END_TO_END)
    if trace:
        for metric in PER_LAYER:
            if metric in traced[0].layers:
                samples[metric] = [r.layers[metric] for r in traced]
        samples["traced_wall_s"] = [r.wall_s for r in traced]
        units.update(PER_LAYER)
    medians = {}
    for metric, values in samples.items():
        q1, med, q3 = quartiles(values)
        medians[metric] = med
        log(f"{metric:36s} {med:.6g} {units[metric]}  (q1 {q1:.6g}, q3 {q3:.6g}, n={len(values)})")
    if trace:
        medians["trace_overhead_frac"] = medians["traced_wall_s"] / medians["wall_s"] - 1
        log(f"{'trace_overhead_frac':36s} {medians['trace_overhead_frac']:.6g} ratio")
    env["nproc"] = os.cpu_count()
    log(f"env {json.dumps(env, sort_keys=True)}")

    wanted = PER_LAYER if trace else END_TO_END
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: {"value": medians[m], "unit": wanted[m]} for m in wanted},
    }


def setup_probes(invoker: Invoker) -> tuple[list[float], dict]:
    """Import-only children; the first one (which may compile bytecode) is
    discarded."""
    samples = []
    for _ in range(SETUP_PROBES + 1):
        inv = invoker.run(None)
        if inv.code != 0 or inv.report is None:
            raise RuntimeError(f"importing realchar.cli failed:\n{inv.stderr}")
        samples.append(inv.report["setup_s"])
    env = {k: inv.report[k] for k in ("python", "numpy", "backend")}
    return samples[1:], env


def measure(invoker, commands, golden, corpus, seed, seconds, trace, keep_dir):
    """Closed loop of rounds until ``seconds`` have passed; with ``trace``,
    rounds alternate untraced and traced, starting untraced."""
    rounds: list[Round] = []
    attempted = failed = 0
    problems: list[str] = []
    deadline = time.perf_counter() + seconds
    while True:
        rnd = Round(traced=trace and len(rounds) % 2 == 1)
        span_lists = []
        for command in commands:
            inv = invoker.run((*command.args, f"--seed={seed}"), traced=rnd.traced)
            per_op = check(command, inv, golden[command.golden], corpus)
            no_report = inv.report is None or inv.report["wall_s"] is None
            if no_report:
                note = f"{' '.join(command.args)}: no timing report; stderr: {inv.stderr[-500:]}"
                per_op = [op + [note] for op in per_op]
            attempted += len(per_op)
            failed += sum(1 for op in per_op if op)
            problems.extend(p for op in per_op for p in op)
            if no_report:
                rnd.complete = False
                continue
            rnd.wall_s += inv.report["wall_s"]
            rnd.peak_rss_mb = max(rnd.peak_rss_mb, inv.report["peak_rss_mb"])
            rnd.setup_s.append(inv.report["setup_s"])
            if rnd.traced:
                span_lists.append(json.loads(inv.spans_path.read_text()))
                keep_dir.mkdir(parents=True, exist_ok=True)
                os.replace(inv.spans_path, keep_dir / Path(command.golden).with_suffix(".json"))
        if rnd.traced:
            rnd.layers = layer_metrics(spans.aggregate(span_lists))
        rounds.append(rnd)
        done = time.perf_counter() >= deadline
        if done and (not trace or any(r.traced for r in rounds)):
            return rounds, attempted, failed, problems


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "realchar" / "cli.py").is_file():
        print(f"error: no realchar source tree at {ROOT / 'src'}", file=sys.stderr)
        return 2
    log = lambda line: print(line, flush=True)
    log(f"workload {args.workload} seed {args.seed} seconds {args.seconds} trace {args.trace}")
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), log=log)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
