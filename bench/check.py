"""Job outcome classification and answer checks against stored references."""

from __future__ import annotations

import itertools
import re

# Exit statuses the skewci CLI documents: 0 success, 1 failed verdict,
# 2 validation or configuration error, 3 window too small.
DOCUMENTED_STATUSES = (0, 1, 2, 3)


def crashed(returncode, stderr_text):
    """A traceback or an undocumented exit status: counted in fail_frac."""
    return ("Traceback (most recent call last)" in stderr_text
            or returncode not in DOCUMENTED_STATUSES)


def _monomial_support(gen):
    """Variable indices of a generator like 'th1*th3^2', or None if the
    generator is not a monomial."""
    factors = gen.split("*")
    out = set()
    for factor in factors:
        match = re.fullmatch(r"th(\d+)(\^\d+)?", factor.strip())
        if match is None:
            return None
        out.add(int(match.group(1)))
    return out


def ideal_dimension(gens, c):
    """Krull dimension of k[th1..thc]/(gens) for monomial generators, or
    None when some generator is not a monomial."""
    supports = [_monomial_support(g) for g in gens]
    if any(s is None for s in supports):
        return None
    for size in range(c, -1, -1):
        for free in itertools.combinations(range(1, c + 1), size):
            if not any(s <= set(free) for s in supports):
                return size
    return -1


def check_answer(returncode, report, reference, c):
    """Problems with one job's answer; an empty list means it is correct.

    ``reference`` holds the expected value of some fields of the report's
    ``result``; an ``ideal`` is compared as a set of generators, and a
    support report must also be consistent with its own dimension.
    """
    if returncode != 0:
        return [f"exit status {returncode}"]
    if report is None:
        return ["no report written"]
    if not report.get("ok"):
        return ["report is not ok"]
    result = report.get("result", {})
    problems = []
    for key, want in reference.items():
        got = result.get(key)
        if key == "ideal" and got is not None:
            got, want = sorted(got), sorted(want)
        if got != want:
            problems.append(f"{key}: got {got!r}, expected {want!r}")
    if "ideal" in result and "dimension" in result:
        dim = ideal_dimension(result["ideal"], c)
        if dim is not None and dim != result["dimension"]:
            problems.append(f"ideal {result['ideal']} has dimension {dim}, "
                            f"reported {result['dimension']}")
    return problems
