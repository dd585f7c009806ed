"""Command-line front end.

Subcommands: ``table`` (print a character table), ``verify`` (classification
verdict for one group), ``scan`` (whole corpus or a manifest), ``info``
(structure summary without the table).  Exit status 0 means every outcome was
consistent with the classification; a Violation or an expected-property
mismatch exits 1; bad input exits 2; a failed internal invariant (a bug, not
bad input) exits 3.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path

from . import catalog
from .chartab import compute_table, dump_table, exact_table, real_degree_set
from .classify import VIOLATION, Report, build_report
from .errors import InternalError, ToolkitError
from .perm import DEFAULT_ORDER_CAP, GroupElements, conjugacy_classes, enumerate_group
from .structure import DEFAULT_LATTICE_CAP, analyze

ENV_PREFIX = "REALCHAR_"


@dataclass(frozen=True)
class Config:
    order_cap: int = DEFAULT_ORDER_CAP
    lattice_cap: int = DEFAULT_LATTICE_CAP
    rng_seed: int = 0
    prime_override: int | None = None
    machine: bool = False
    jobs: int = 1

    def __post_init__(self):
        if self.order_cap < 1 or self.lattice_cap < 1 or self.jobs < 1:
            raise ToolkitError("caps and jobs must be positive")


def _env_int(name: str, fallback: int | None) -> int | None:
    """Integer value of REALCHAR_<name>; unset or empty gives ``fallback``."""
    raw = os.environ.get(ENV_PREFIX + name)
    if not raw:
        return fallback
    try:
        return int(raw)
    except ValueError:
        raise ToolkitError(f"{ENV_PREFIX}{name} must be an integer, not {raw!r}") from None


def _add_global_flags(parser: argparse.ArgumentParser, defaults: bool) -> None:
    # with defaults=False every flag defaults to SUPPRESS, so a subcommand
    # parser only touches the namespace when the flag actually appears and
    # the pre-subcommand values survive
    s = argparse.SUPPRESS

    def d(value):
        return value if defaults else s

    parser.add_argument("--seed", type=int, default=d(_env_int("SEED", 0)))
    parser.add_argument("--prime", type=int, default=d(_env_int("PRIME", None)))
    parser.add_argument(
        "--cap-order", type=int, default=d(_env_int("CAP_ORDER", DEFAULT_ORDER_CAP))
    )
    parser.add_argument(
        "--cap-lattice", type=int, default=d(_env_int("CAP_LATTICE", DEFAULT_LATTICE_CAP))
    )
    parser.add_argument(
        "--machine", action="store_true", default=d(bool(_env_int("MACHINE", 0)))
    )
    parser.add_argument("--jobs", type=int, default=d(_env_int("JOBS", 1)))


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="realchar",
        description="Character tables and real-degree classification checks "
        "for finite permutation groups.",
    )
    _add_global_flags(parser, defaults=True)
    common = argparse.ArgumentParser(add_help=False)
    _add_global_flags(common, defaults=False)
    sub = parser.add_subparsers(dest="command", required=True)
    p_table = sub.add_parser(
        "table", parents=[common], help="print the character table of a group"
    )
    p_table.add_argument("source", help="catalog name or .grp file path")
    p_table.add_argument("--exact", action="store_true", help="include exact lifts")
    p_verify = sub.add_parser(
        "verify", parents=[common], help="classification verdict for one group"
    )
    p_verify.add_argument("source")
    p_scan = sub.add_parser(
        "scan", parents=[common], help="verify the corpus or a manifest of names"
    )
    p_scan.add_argument("manifest", nargs="?", default=None)
    p_info = sub.add_parser(
        "info", parents=[common], help="order/classes/structure summary"
    )
    p_info.add_argument("source")
    return parser


def _config_from(args: argparse.Namespace) -> Config:
    return Config(
        order_cap=args.cap_order,
        lattice_cap=args.cap_lattice,
        rng_seed=args.seed,
        prime_override=args.prime,
        machine=args.machine,
        jobs=args.jobs,
    )


def _read_text(path: Path) -> str:
    """The text of a file named on the command line or in a manifest; a file
    that cannot be read, or is not UTF-8, is bad input."""
    try:
        return path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ToolkitError(str(exc)) from None
    except UnicodeDecodeError as exc:
        raise ToolkitError(f"{path} is not UTF-8: {exc}") from None


def load_source(source: str, config: Config) -> tuple[str, GroupElements]:
    """A catalog name, or a path to a .grp file."""
    path = Path(source)
    if source.endswith(".grp") or path.is_file():
        spec = catalog.parse_grp(_read_text(path), name=path.stem)
    else:
        spec = catalog.resolve(source)
    return spec.name, enumerate_group(spec, config.order_cap)


# ---------------------------------------------------------------------------
# commands


def cmd_table(source: str, config: Config, exact: bool = False) -> int:
    name, g = load_source(source, config)
    cd = conjugacy_classes(g)
    t = compute_table(g, cd, config.rng_seed, config.prime_override)
    lifted = exact_table(t, cd) if exact else None
    sys.stdout.write(dump_table(t, cd, lifted))
    rdd = real_degree_set(t)
    print(f"degrees: {','.join(str(d) for d in t.degrees)}")
    print(f"real rows: {sum(t.real_flags)} of {t.k}")
    print(f"cd_rv: {{{','.join(str(d) for d in rdd.degrees)}}}")
    return 0


def _report_for(source: str, config: Config, name: str | None = None) -> Report:
    """The report on one group, named ``name`` or as loaded; its ``ms`` is
    the whole time from loading the group to the finished report."""
    started = time.perf_counter()
    loaded, g = load_source(source, config)
    cd = conjugacy_classes(g)
    t = compute_table(g, cd, config.rng_seed, config.prime_override)
    report = build_report(name or loaded, cd, t, config.lattice_cap)
    return replace(report, ms=int((time.perf_counter() - started) * 1000))


def _format_text(r: Report) -> str:
    lemmas = " ".join(f"{k}={'pass' if v else 'FAIL'}" for k, v in sorted(r.lemmas.items()))
    fields = [
        f"name={r.name}",
        f"order={r.order}",
        f"classes={r.classes}",
        f"prime={r.prime}",
        f"cd_rv={{{','.join(map(str, r.cd_rv))}}}",
        f"verdict={r.verdict}",
    ]
    if r.reason is not None:
        fields.append(f"reason={r.reason}")
    if r.error is not None:
        fields.append(f"error={r.error}")
    if r.case:
        fields.append(f"case={r.case}")
    if r.witness_degree is not None:
        fields.append(f"witness_degree={r.witness_degree}")
    if r.k_label:
        fields.append(f"K={r.k_label}")
    if r.h_order is not None:
        fields.append(f"H_order={r.h_order} O_order={r.o_order}")
    if lemmas:
        fields.append(lemmas)
    fields.append(f"ms={r.ms}")
    return "  ".join(fields)


def cmd_verify(source: str, config: Config) -> int:
    report = _report_for(source, config)
    print(report.to_json() if config.machine else _format_text(report))
    return 1 if report.verdict == VIOLATION else 0


def _scan_entry(name: str, config: Config) -> Report:
    try:
        return _report_for(name, config, name)
    except ToolkitError as exc:
        # a failed invariant is a bug, kept apart from bad input
        verdict = "InternalError" if isinstance(exc, InternalError) else "Error"
        return Report(name=name, verdict=verdict, error=str(exc))


def cmd_scan(manifest: str | None, config: Config) -> int:
    if manifest is None:
        entries = {e.name: e for e in catalog.default_corpus()}
        names = list(entries)
    else:
        names = catalog.parse_manifest(_read_text(Path(manifest)))
        entries = {}
    if config.jobs > 1 and len(names) > 1:
        # imported here, not at start-up: only --jobs needs the process pool
        from concurrent.futures import ProcessPoolExecutor

        worker_config = replace(config, jobs=1)
        # a fork-context pool starts all its workers at once, so ask for no
        # more than there are names or processors
        workers = min(config.jobs, len(names), os.cpu_count() or 1)
        with ProcessPoolExecutor(max_workers=workers) as pool:
            reports = list(pool.map(_scan_entry, names, [worker_config] * len(names)))
    else:
        reports = [_scan_entry(n, config) for n in names]
    counts: dict[str, int] = {}
    failures = 0
    for report in reports:
        counts[report.verdict] = counts.get(report.verdict, 0) + 1
        if report.verdict in (VIOLATION, "Error", "InternalError"):
            failures += 1
        expected = entries.get(report.name)
        if expected is not None:
            if expected.expected_verdict and report.verdict != expected.expected_verdict:
                failures += 1
            if report.order and report.order != expected.expected_order:
                failures += 1
            if (
                expected.expected_cd_rv is not None
                and report.cd_rv != expected.expected_cd_rv
            ):
                failures += 1
        print(report.to_json() if config.machine else _format_text(report))
    summary = " ".join(f"{k}={counts[k]}" for k in sorted(counts))
    print(f"summary: groups={len(reports)} {summary}".replace("  ", " "))
    return 1 if failures else 0


def cmd_info(source: str, config: Config) -> int:
    name, g = load_source(source, config)
    cd = conjugacy_classes(g)
    t = compute_table(g, cd, config.rng_seed, config.prime_override)
    st = analyze(cd, t, config.lattice_cap)
    print(f"name: {name}")
    print(f"degree: {g.degree}")
    print(f"order: {g.order}")
    print(f"classes: {cd.k}")
    print(f"exponent: {cd.exponent}")
    print(f"normal subgroups: {len(st.lattice)}")
    print(f"radical order: {st.lattice.orders[st.radical]}")
    print(f"derived limit order: {st.lattice.orders[st.k]}")
    if st.k_label:
        print(f"derived limit recognized: {st.k_label}")
    print(f"solvable: {st.is_solvable}")
    return 0


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        config = _config_from(args)
        if args.command == "table":
            return cmd_table(args.source, config, exact=args.exact)
        if args.command == "verify":
            return cmd_verify(args.source, config)
        if args.command == "scan":
            return cmd_scan(args.manifest, config)
        return cmd_info(args.source, config)
    except InternalError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3
    except ToolkitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
