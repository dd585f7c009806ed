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
import tempfile
import time
from dataclasses import dataclass, replace
from pathlib import Path

from . import catalog
from .chartab import (
    ModPTable,
    compute_table,
    dump_table,
    exact_table,
    parse_dump,
    real_degree_set,
    row_indicators,
    row_real_flags,
    verify_orthogonality,
)
from .classify import VIOLATION, Report, build_report
from .errors import InternalError, ToolkitError
from .modp import select_prime
from .perm import (
    DEFAULT_ORDER_CAP,
    ClassData,
    GroupElements,
    conjugacy_classes,
    enumerate_group,
)
from .structure import DEFAULT_LATTICE_CAP, analyze

ENV_PREFIX = "REALCHAR_"


@dataclass(frozen=True)
class Config:
    order_cap: int = DEFAULT_ORDER_CAP
    lattice_cap: int = DEFAULT_LATTICE_CAP
    rng_seed: int = 0
    prime_override: int | None = None
    machine: bool = False
    cache_dir: str | None = None
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
    parser.add_argument("--cache-dir", default=d(os.environ.get(ENV_PREFIX + "CACHE_DIR")))
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
        cache_dir=args.cache_dir,
        jobs=args.jobs,
    )


def load_source(source: str, config: Config) -> tuple[str, GroupElements]:
    """A catalog name, or a path to a .grp file."""
    path = Path(source)
    if source.endswith(".grp") or path.is_file():
        text = path.read_text(encoding="utf-8")
        spec = catalog.parse_grp(text, name=path.stem)
    else:
        spec = catalog.resolve(source)
    return spec.name, enumerate_group(spec, config.order_cap)


# ---------------------------------------------------------------------------
# table cache


# the version of the cached table format (``dump_table``): bump it when the
# format changes, so that an older file is a miss instead of a parse error
CACHE_FORMAT = 1


def _cache_key(g: GroupElements, config: Config) -> str:
    # imported here: hashlib loads OpenSSL, about 3.5 MB of RSS that only
    # --cache-dir needs
    import hashlib

    hasher = hashlib.sha256()
    hasher.update(f"format={CACHE_FORMAT}".encode())
    hasher.update(f"degree={g.degree}".encode())
    for gen in g.spec.generators:
        hasher.update(bytes(str(gen.images), "ascii"))
    # no seed: it steers only the split, whose roots and rows are sorted,
    # so every seed gives one table
    hasher.update(f"prime={config.prime_override}".encode())
    return hasher.hexdigest()


def table_for(g: GroupElements, cd: ClassData, config: Config) -> ModPTable:
    if config.cache_dir is None:
        return compute_table(g, cd, config.rng_seed, config.prime_override)
    cache = Path(config.cache_dir)
    cache.mkdir(parents=True, exist_ok=True)
    path = cache / (_cache_key(g, config) + ".tbl")
    if path.is_file():
        cached = _load_cached(path, g, cd, config)
        if cached is not None:
            return cached
    t = compute_table(g, cd, config.rng_seed, config.prime_override)
    _store(path, dump_table(t, cd))
    return t


def _store(path: Path, text: str) -> None:
    """Write ``path`` whole or not at all: scan workers may share the cache
    directory, and a reader must never see a half-written table."""
    fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _load_cached(
    path: Path, g: GroupElements, cd: ClassData, config: Config
) -> ModPTable | None:
    """The cached table, or None (a miss) when it fails to parse or fails a
    cheap consistency check against the group."""
    try:
        t = parse_dump(path.read_text(encoding="utf-8"))
        prime = config.prime_override
        if prime is None:
            prime = select_prime(g.order, cd.exponent).p
        valid = (
            (t.ctx.p, t.ctx.exponent, t.group_order, t.k)
            == (prime, cd.exponent, g.order, cd.k)
            and sum(d * d for d in t.degrees) == g.order
            and all(row[0] == d for row, d in zip(t.values, t.degrees))
            and t.real_flags == row_real_flags(t, cd)
            and verify_orthogonality(t, cd)
            and t.indicators == row_indicators(t, cd)
        )
    except (ToolkitError, UnicodeDecodeError):
        return None
    return t if valid else None


# ---------------------------------------------------------------------------
# commands


def cmd_table(source: str, config: Config, exact: bool = False) -> int:
    name, g = load_source(source, config)
    cd = conjugacy_classes(g)
    t = table_for(g, cd, config)
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
    report = build_report(name or loaded, cd, table_for(g, cd, config), config.lattice_cap)
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
    if r.case:
        fields.append(f"case={r.case}")
    if r.witness_degree is not None:
        fields.append(f"witness_degree={r.witness_degree}")
    if r.k_label:
        fields.append(f"K={r.k_label}")
    if r.h_order is not None:
        fields.append(f"H_order={r.h_order} O_order={r.o_order}")
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
        names = catalog.parse_manifest(Path(manifest).read_text(encoding="utf-8"))
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
    st = analyze(cd, table_for(g, cd, config), config.lattice_cap)
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
