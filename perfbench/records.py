"""Job outputs reduced to checkable records, and the comparison that decides
whether a job failed.

A record holds what a user acts on: exit code, verdict, witness, certificate,
oracle residual and `oracle_agrees`.  The certificate is whatever evidence
the subcommand prints next to its verdict: the potential W of a criterion
report, the candidate laws of a search, the equivalence panel, constructed
boundary rates, or the sizes behind an absorbing-set exclusion.

Exact outputs must match exactly.  Numbers printed in float mode are
compared with the exact value within the run's tolerance,
|got - expected| <= tol * max(1, |expected|).
"""
from __future__ import annotations

import hashlib
import json
from fractions import Fraction

CERTIFICATE_KEYS = ("certificate", "candidates", "numeric_candidates", "bernoulli_roots",
                    "panel", "beta_left", "beta_right", "memory_bound", "proper_sizes",
                    "tested_sizes")


def digest(value) -> str:
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return "sha256:" + hashlib.sha256(text.encode()).hexdigest()


def record(doc: dict, exit_code: int) -> dict:
    residuals = doc.get("residuals") or {}
    certificate = {k: doc[k] for k in CERTIFICATE_KEYS if k in doc}
    return {
        "exit": exit_code,
        "verdict": doc.get("verdict"),
        "witness": doc.get("witness"),
        "certificate": certificate or None,
        "residual": next(iter(residuals.values()), None),
        "oracle_agrees": doc.get("oracle_agrees"),
    }


def golden(rec: dict, float_mode: bool) -> dict:
    """The stored form of a record: certificates as digests, and none for
    float jobs (those are held to their exact twin instead)."""
    out = dict(rec)
    if float_mode:
        del out["certificate"]
    elif out["certificate"] is not None:
        out["certificate"] = digest(out["certificate"])
    return out


def _number(text):
    try:
        return Fraction(text)
    except (TypeError, ValueError):
        return None


def _close(got, expected, tol: float) -> bool:
    """Structural equality where numeric strings match within tol."""
    if isinstance(expected, dict):
        return isinstance(got, dict) and got.keys() == expected.keys() and \
            all(_close(got[k], expected[k], tol) for k in expected)
    if isinstance(expected, list):
        return isinstance(got, list) and len(got) == len(expected) and \
            all(_close(g, e, tol) for g, e in zip(got, expected))
    if isinstance(expected, str) and isinstance(got, str):
        a, b = _number(got), _number(expected)
        if a is not None and b is not None:
            return abs(float(a) - float(b)) <= tol * max(1.0, abs(float(b)))
    return got == expected


def _contains(doc: dict, rho) -> bool:
    """The constructed product law rho is among the candidates: as a
    marginal (find-product) or as a kernel with every row rho (find-markov)."""
    for cand in doc.get("candidates", ()):
        if cand == rho or (isinstance(cand, dict) and all(row == rho for row in cand["kernel"])):
            return True
    return False


def mismatches(expected: dict, got: dict, doc: dict, float_mode: bool, tol: float):
    """Every field of `expected` that `got` (a record of output `doc`) violates."""
    problems = []
    for key, want in expected.items():
        if key == "contains":
            if not _contains(doc, want):
                problems.append(f"candidates lack the constructed law {want}")
            continue
        have = got.get(key)
        if key == "certificate" and isinstance(want, str) and want.startswith("sha256:"):
            have = None if have is None else digest(have)
            ok = have == want
        elif float_mode and key in ("witness", "certificate", "residual"):
            ok = _close(have, want, tol)
        else:
            ok = have == want
        if not ok:
            problems.append(f"{key}: expected {_short(want)}, got {_short(have)}")
    return problems


def _short(value, limit: int = 160) -> str:
    text = json.dumps(value, sort_keys=True)
    return text if len(text) <= limit else text[:limit] + "..."
