"""The benchmark's workloads and the checks on their outputs.

Each workload is one zetalab command. Its outputs are reduced to a flat
map of named values (extract()) and compared with the map recorded in
reference.json (compare()). Every entry of the reference map is one
check:

* integers, booleans, strings and None must be equal;
* floats must agree within FLOAT_TOL * max(1, |reference|). Report and
  trace values are double-precision results of long compensated sums;
  they differ in the last digits across machines (numpy's vectorised
  pow/exp/log are not correctly rounded) and after any change to the
  order of summation, so bytes are never compared. The quantities they
  are built from are of order 1 or larger, hence the floor of 1.

A case the reference does not know is not checked; a case it knows that
is missing fails every check of that case.
"""

import csv
import json
import math
import os
import re

FLOAT_TOL = 1e-9

# name -> (full-size argv, smoke-size argv); "{tmp}" is the rep's own directory
WORKLOADS = {
    "verify_1e6": (
        ["verify", "--all", "--X", "1e6", "--out", "{tmp}/report.json"],
        ["verify", "--all", "--X", "1e4", "--out", "{tmp}/report.json"],
    ),
    "sigma_c_f_one": (
        ["sigma-c", "--kind", "F_one", "--grid", "0.4:0.6:0.05",
         "--schedule", "1e4,1e5,1e6,1e7", "--trace", "{tmp}/trace.csv"],
        ["sigma-c", "--kind", "F_one", "--grid", "0.4:0.6:0.05",
         "--schedule", "1e3,1e4,1e5", "--trace", "{tmp}/trace.csv"],
    ),
    "scan_1e8": (
        ["scan", "--limit", "1e8", "--checkpoint", "{tmp}/scan.ck"],
        ["scan", "--limit", "1e6", "--checkpoint", "{tmp}/scan.ck"],
    ),
}

REFERENCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")


def command(workload: str, smoke: bool, tmp: str) -> list[str]:
    return [a.replace("{tmp}", tmp) for a in WORKLOADS[workload][1 if smoke else 0]]


def _verify(tmp: str, stdout: str) -> dict:
    with open(os.path.join(tmp, "report.json")) as fh:
        cases = json.load(fh)
    out = {}
    for c in cases:
        key = f"{c['name']}(s={c['s_re']},{c['s_im']};X={c['X']})"
        for field in ("lhs_re", "lhs_im", "rhs_re", "rhs_im", "residual", "pass"):
            out[f"{key}.{field}"] = c[field]
    return out


_SIGMA_LINE = re.compile(r"^sigma=(\S+): (\w+)$")
_BRACKET_LINE = re.compile(r"^abscissa bracket: \[(\S+), (\S+)\]$")


def _sigma_c(tmp: str, stdout: str) -> dict:
    out = {}
    for line in stdout.splitlines():
        m = _SIGMA_LINE.match(line)
        if m:
            out[f"class(sigma={float(m.group(1))!r})"] = m.group(2)
        m = _BRACKET_LINE.match(line)
        if m:
            out["bracket.lower"] = float(m.group(1))
            out["bracket.upper"] = float(m.group(2))
    with open(os.path.join(tmp, "trace.csv"), newline="") as fh:
        for row in csv.DictReader(fh):
            key = f"trace(sigma={float(row['sigma'])!r};X={int(row['X'])})"
            for field in ("re", "im", "tail_estimate"):
                out[f"{key}.{field}"] = float(row[field])
    return out


_SCAN_LINE = re.compile(
    r"^(polya|turan): limit=(\d+) first_violation=(\S+) min=\S+ argmin=(\d+) sign_changes=(\d+)$"
)


def _scan(tmp: str, stdout: str) -> dict:
    out = {}
    for line in stdout.splitlines():
        m = _SCAN_LINE.match(line)
        if m:
            tag = m.group(1)
            out[f"stdout.{tag}.limit"] = int(m.group(2))
            out[f"stdout.{tag}.first_violation"] = None if m.group(3) == "none" else int(m.group(3))
            out[f"stdout.{tag}.argmin"] = int(m.group(4))
            out[f"stdout.{tag}.sign_changes"] = int(m.group(5))
    with open(os.path.join(tmp, "scan.ck")) as fh:
        kv = dict(line.strip().partition("=")[::2] for line in fh if "=" in line)
    for tag in ("polya", "turan"):
        fv = kv[f"{tag}_first_violation"]
        out[f"checkpoint.{tag}.first_violation"] = None if fv == "none" else int(fv)
        out[f"checkpoint.{tag}.argmin"] = int(kv[f"{tag}_argmin"])
        out[f"checkpoint.{tag}.sign_changes"] = int(kv[f"{tag}_sign_changes"])
    polya_min = float.fromhex(kv["polya_min"])
    out["checkpoint.polya.min"] = int(polya_min) if polya_min.is_integer() else polya_min
    out["checkpoint.turan.min"] = float.fromhex(kv["turan_min"])
    out["checkpoint.p_sum"] = int(kv["p_sum"])
    out["checkpoint.t_final"] = float.fromhex(kv["t_total"]) + float.fromhex(kv["t_comp"])
    return out


_EXTRACT = {"verify_1e6": _verify, "sigma_c_f_one": _sigma_c, "scan_1e8": _scan}


def extract(workload: str, tmp: str, stdout: str) -> dict:
    """The workload's checked outputs, read from its files and stdout."""
    return _EXTRACT[workload](tmp, stdout)


def _same(ref, got) -> bool:
    if isinstance(ref, float) and not isinstance(got, bool) and isinstance(got, (int, float)):
        if math.isinf(ref) or math.isnan(ref):
            return got == ref or (math.isnan(ref) and math.isnan(got))
        return abs(got - ref) <= FLOAT_TOL * max(1.0, abs(ref))
    return type(ref) is type(got) and ref == got


def compare(ref: dict, got: dict) -> list[str]:
    """Names of the reference checks that `got` fails."""
    return [k for k, v in ref.items() if k not in got or not _same(v, got[k])]


def load_reference(workload: str, smoke: bool) -> dict:
    with open(REFERENCE) as fh:
        return json.load(fh)["smoke" if smoke else "full"][workload]
