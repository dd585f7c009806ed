"""Output checks for the benchmark's operations.

Every operation is compared byte for byte with a golden output recorded from
a known-good commit, and is also checked against invariants computed here
from the output itself, so a wrong golden file cannot hide a wrong table:

* scan: exit 0, each machine line equal to its golden line, verdict, order
  and cd_rv equal to the catalog's hand-written expectations, and L1-L4 pass;
* table: exit 0, the dump equal to its golden, k and |G| as expected,
  sum of squared degrees = |G|, row orthogonality mod p with class sizes and
  the inverse-class map recovered from column orthogonality, realness flags
  and the summary lines consistent with the rows, plus per-group facts
  (expected real degree set, all degrees 1).

Each function returns problem strings; an empty list means the operation
passed.
"""

from __future__ import annotations

import json


def check_scan(stdout: str, code: int, golden: str, corpus) -> list[list[str]]:
    """Problems per scanned group, in corpus order."""
    lines = stdout.splitlines()
    want = golden.splitlines()
    common = []
    if code != 0:
        common.append(f"scan exited {code}")
    if len(lines) != len(corpus) + 1:
        common.append(f"scan printed {len(lines)} lines, expected {len(corpus) + 1}")
    elif lines[-1] != (want[-1] if want else None):
        common.append(f"summary line differs from golden: {lines[-1]!r}")
    out = []
    for i, entry in enumerate(corpus):
        problems = list(common)
        line = lines[i] if i < len(lines) else ""
        if line != (want[i] if i < len(want) else None):
            problems.append(f"{entry.name}: machine line differs from golden")
        problems.extend(_scan_line_problems(line, entry))
        out.append(problems)
    return out


def _scan_line_problems(line: str, entry) -> list[str]:
    try:
        report = json.loads(line)
    except json.JSONDecodeError:
        return [f"{entry.name}: not a JSON report: {line[:80]!r}"]
    problems = []
    if report.get("name") != entry.name:
        problems.append(f"{entry.name}: report is for {report.get('name')!r}")
    if report.get("order") != entry.expected_order:
        problems.append(f"{entry.name}: order {report.get('order')}")
    if entry.expected_verdict and report.get("verdict") != entry.expected_verdict:
        problems.append(f"{entry.name}: verdict {report.get('verdict')}")
    if entry.expected_cd_rv is not None and tuple(report.get("cd_rv", ())) != entry.expected_cd_rv:
        problems.append(f"{entry.name}: cd_rv {report.get('cd_rv')}")
    lemmas = report.get("lemmas", {})
    if sorted(lemmas) != ["L1", "L2", "L3", "L4"] or not all(lemmas.values()):
        problems.append(f"{entry.name}: lemmas {lemmas}")
    return problems


def check_table(stdout: str, code: int, golden: str, expect: dict) -> list[str]:
    """Problems of one printed table; ``expect`` has the keys order and k,
    and optionally real_degrees and all_linear."""
    problems = []
    if code != 0:
        problems.append(f"table exited {code}")
    if stdout != golden:
        problems.append("table dump differs from golden")
    problems.extend(table_invariants(stdout, expect))
    return problems


def table_invariants(text: str, want: dict) -> list[str]:
    try:
        header, rows, summary = _parse_dump(text)
    except (ValueError, KeyError, IndexError) as exc:
        return [f"unparseable table dump: {exc}"]
    p, order, k = header["p"], header["|G|"], header["k"]
    problems = []
    if order != want["order"]:
        problems.append(f"|G| = {order}, expected {want['order']}")
    if k != want["k"] or len(rows) != k or any(len(v) != k for _, _, _, v in rows):
        problems.append(f"table is not {want['k']} x {want['k']}")
        return problems
    degrees = [d for d, _, _, _ in rows]
    if sum(d * d for d in degrees) != order:
        problems.append("degree squares do not sum to |G|")
    if any(v[0] != d % p for d, _, _, v in rows):
        problems.append("first column is not the degree")

    # Column orthogonality: sum_r chi_r(c) chi_r(c') is |C_G(g_c)| when
    # c' is the inverse class of c and 0 otherwise; p > |G| makes the
    # centralizer order exact.
    cols = list(zip(*(v for _, _, _, v in rows)))
    inv_map, sizes = [], []
    for c in range(k):
        hits = [
            (c2, s)
            for c2 in range(k)
            if (s := sum(x * y for x, y in zip(cols[c], cols[c2])) % p)
        ]
        if len(hits) != 1 or order % hits[0][1]:
            problems.append(f"column {c} fails column orthogonality")
            return problems
        inv_map.append(hits[0][0])
        sizes.append(order // hits[0][1])
    if sum(sizes) != order:
        problems.append("class sizes do not sum to |G|")
    values = [v for _, _, _, v in rows]
    for r in range(k):
        for s in range(r, k):
            acc = sum(
                sizes[c] * values[r][c] * values[s][inv_map[c]] for c in range(k)
            ) % p
            if acc != (order % p if r == s else 0):
                problems.append(f"rows {r},{s} fail row orthogonality mod {p}")
    real = [all(v[c] == v[inv_map[c]] for c in range(k)) for v in values]
    if real != [flag for _, _, flag, _ in rows]:
        problems.append("realness flags disagree with the values")
    cd_rv = tuple(sorted({d for d, flag in zip(degrees, real) if flag}))
    if summary != {
        "degrees": ",".join(map(str, degrees)),
        "real rows": f"{sum(real)} of {k}",
        "cd_rv": "{" + ",".join(map(str, cd_rv)) + "}",
    }:
        problems.append(f"summary lines disagree with the rows: {summary}")
    if "real_degrees" in want and cd_rv != want["real_degrees"]:
        problems.append(f"real degrees {cd_rv}, expected {want['real_degrees']}")
    if want.get("all_linear") and any(d != 1 for d in degrees):
        problems.append("a degree is not 1")
    return problems


def _parse_dump(text: str):
    lines = text.splitlines()
    header = {}
    for part in lines[0].split(","):
        key, value = part.strip().split("=")
        header[key] = int(value)
    k = header["k"]
    rows = []
    for line in lines[1 : 1 + k]:
        d, ind, flag, vals = line.split()
        rows.append((int(d), int(ind), flag == "1", tuple(int(x) for x in vals.split(","))))
    summary = dict(line.split(": ", 1) for line in lines[1 + k :])
    return header, rows, summary
