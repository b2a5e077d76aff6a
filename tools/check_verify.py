#!/usr/bin/env python
"""CI gate for the symbolic dependence verifier's certificate.

Validates a ``repro.cert.v1`` certificate produced by::

    PYTHONPATH=src python -m repro analyze --skip-graph \
        --verify --strict --verify-output VERIFY_CERT.json

and fails the build (exit 1) unless the certificate proves the full
claim:

1. **Family coverage** — every family in the declared matrix certified
   (``n_certified == n_families``), each with every instance clean and
   the size-isomorphism rebuild intact.
2. **Mutation kill** — all four seeded defect kinds (dropped edge,
   shrunk region, widened write, dropped plan edge) detected, each
   naming an exact two-task offending pair.
3. **Dynamic cross-validation** — at least ``--min-samples`` concrete
   configs replayed through the dynamic race checker with zero
   findings.

Usage::

    PYTHONPATH=src python tools/check_verify.py VERIFY_CERT.json [--min-samples 8] [--min-families N]
"""

from __future__ import annotations

import argparse
import sys

from repro.analysis.verify import full_family_matrix
from repro.harness.ledger import check_schema, finish, load_report

CERT_FORMAT = "repro.cert.v1"

MUTATION_KINDS = ("drop_edge", "shrink_region", "widen_write", "drop_plan_edge")

CERT_SCHEMA = [
    ("format", str),
    ("model", dict),
    ("model.symbolic_parameters", list),
    ("n_families", int),
    ("n_certified", int),
    ("families", list),
    ("mutations", dict),
    ("cross_validation", dict),
    ("ok", bool),
]

FAMILY_SCHEMA = [
    ("label", str),
    ("cell", str),
    ("fusion", str),
    ("instances", list),
    ("size_isomorphism", bool),
    ("findings", list),
    ("ok", bool),
]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("cert", help="repro.cert.v1 certificate JSON")
    parser.add_argument("--min-samples", type=int, default=8,
                        help="least acceptable cross-validation sample count")
    parser.add_argument("--min-families", type=int, default=len(full_family_matrix()),
                        help="least acceptable certified-family count "
                             "(default: the whole matrix)")
    args = parser.parse_args(argv)

    errors: list = []
    try:
        cert = load_report(args.cert)
    except ValueError as exc:
        return finish([str(exc)], [])

    check_schema(cert, CERT_SCHEMA, "cert", errors)
    if errors:
        return finish(errors, [])

    if cert["format"] != CERT_FORMAT:
        errors.append(f"cert: format {cert['format']!r} (expected {CERT_FORMAT!r})")

    # 1. family coverage
    families = cert["families"]
    if len(families) != cert["n_families"]:
        errors.append(
            f"cert: families lists {len(families)} entries, "
            f"n_families says {cert['n_families']}"
        )
    if cert["n_families"] < args.min_families:
        errors.append(
            f"cert: only {cert['n_families']} families "
            f"(expected >= {args.min_families})"
        )
    if cert["n_certified"] != cert["n_families"]:
        errors.append(
            f"cert: {cert['n_families'] - cert['n_certified']} of "
            f"{cert['n_families']} families uncertified"
        )
    labels = set()
    for i, entry in enumerate(families):
        label = entry.get("label", f"families[{i}]")
        check_schema(entry, FAMILY_SCHEMA, label, errors)
        labels.add(label)
        if not entry.get("ok", False):
            errors.append(f"{label}: not certified")
            for f in entry.get("findings", [])[:4]:
                errors.append(f"{label}: finding {f}")
        if not entry.get("size_isomorphism", False):
            errors.append(f"{label}: size-isomorphism rebuild diverged")
        for inst in entry.get("instances", []):
            if not inst.get("ok", False):
                shape = (inst.get("seq_len"), inst.get("mbs"), inst.get("block"))
                errors.append(f"{label}: instance {shape} has findings")
            if inst.get("pairs_proved", 0) <= 0:
                errors.append(f"{label}: instance proved zero disjoint pairs")
            if inst.get("plan_edges_checked", 0) <= 0:
                errors.append(f"{label}: instance checked zero plan edges")
    if len(labels) != len(families):
        errors.append("cert: duplicate family labels")

    # 2. mutation kill
    mutations = cert["mutations"]
    if not mutations.get("all_detected", False):
        errors.append("mutations: all_detected is false")
    for kind in MUTATION_KINDS:
        entry = mutations.get(kind)
        if not isinstance(entry, dict):
            errors.append(f"mutations: missing kind {kind!r}")
            continue
        if not entry.get("detected", False):
            errors.append(f"mutations: {kind} not detected")
        pair = entry.get("pair")
        if not (isinstance(pair, list) and len(pair) == 2 and all(pair)):
            errors.append(f"mutations: {kind} lacks an exact offending pair")

    # 3. dynamic cross-validation
    cross = cert["cross_validation"]
    check_schema(cross, [("samples", int), ("entries", list), ("ok", bool)],
                 "cross_validation", errors)
    if cross.get("samples", 0) < args.min_samples:
        errors.append(
            f"cross_validation: only {cross.get('samples', 0)} samples "
            f"(expected >= {args.min_samples})"
        )
    if not cross.get("ok", False):
        errors.append("cross_validation: dynamic findings disagree with proof")
    for entry in cross.get("entries", []):
        if entry.get("findings", 1) != 0:
            errors.append(
                f"cross_validation: {entry.get('family')} had "
                f"{entry.get('findings')} dynamic findings"
            )
        if entry.get("observed_tasks", 0) <= 0:
            errors.append(
                f"cross_validation: {entry.get('family')} observed no tasks"
            )

    if not cert["ok"]:
        errors.append("cert: overall ok is false")

    return finish(errors, [
        f"OK: {cert['n_certified']}/{cert['n_families']} families certified "
        f"({cert['format']})",
        f"OK: mutations detected with exact pairs: {', '.join(MUTATION_KINDS)}",
        f"OK: cross-validated against dynamic racecheck on "
        f"{cross['samples']} configs, zero findings",
    ])


if __name__ == "__main__":
    sys.exit(main())
