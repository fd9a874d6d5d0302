"""Run one descentlab CLI job in this interpreter, with spans around its layers.

    python3 perfbench/traced_job.py '<json list of CLI arguments>' SPANS.json

The job runs through ``cli.main``, so it prints exactly what the CLI prints.
Before that, the public functions the CLI calls (``descent.beta_table``,
``save_table``, ``load_table``, ``rho``, ``cyclo.factor_scan`` and
``load_golden``) are wrapped in spans; ``verify`` runs as one span, since its
suites call into every module.  After a ``factors`` job, probes time one
counting pass, the residue histogram and ``divides_order`` of every
(m, order) pair the scan tests, and Phi_m built for every candidate from an
empty cache.  The probe's multiplicities must equal the scan's report; this
is a second route to the factor row.

Spans (name, parent index, start, end in ``perf_counter_ns``, which is
system-wide) and counts are kept in memory and written to SPANS.json at exit.
The exit code is the CLI's.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter
from contextlib import contextmanager

from descentlab import cli, cyclo, descent

WRAPPED = (
    (descent, "beta_table"),
    (descent, "save_table"),
    (descent, "load_table"),
    (descent, "rho"),
    (cyclo, "factor_scan"),
    (cyclo, "load_golden"),
)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.returned: dict[str, object] = {}
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        self.spans.append([name, self._open[-1] if self._open else -1, time.perf_counter_ns(), 0])
        self._open.append(index)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[index][3] = time.perf_counter_ns()

    def wrap(self, module, attr: str):
        fn = getattr(module, attr)
        name = f"{module.__name__.rsplit('.', 1)[-1]}.{attr}"

        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            self.returned[name] = result
            return result

        setattr(module, attr, traced)
        return fn


def probe_factors(
    tracer: Tracer, args, table: descent.DescentTable, distinct: int, report: cyclo.FactorReport
) -> tuple[dict, str | None]:
    """Second route to the factor row, timing each layer it passes through."""
    with tracer.span("descent.value_count"):
        descent.residue_histogram(table, 1)
    if args.policy == "heuristic":
        candidates = cyclo.heuristic_candidates(table.n, args.max_index)
    else:
        candidates = list(range(2, args.max_index + 1))
    tested: list[int] = []
    factors = []
    for m in candidates:
        order = 0
        while order < args.multiplicity:
            with tracer.span("descent.residue_histogram"):
                hist = descent.residue_histogram(table, m, order)
            with tracer.span("cyclo.divides_order"):
                divides = cyclo.divides_order(hist, m, order)
            tested.append(m)
            if not divides:
                break
            order += 1
        if order:
            factors.append((m, order))
    cyclo.cyclotomic.cache_clear()
    with tracer.span("cyclo.cyclotomic"):
        phis = {m: cyclo.cyclotomic(m) for m in candidates}
    counts = {
        "cyclo.candidates": len(candidates),
        "cyclo.tests": len(tested),
        "cyclo.residue_ops": distinct * len(tested),
        # Synthetic division touches (m - deg Phi_m) quotient slots, each
        # against the nonzero non-leading coefficients of Phi_m.
        "cyclo.divide_ops": sum(
            (m - phis[m].degree) * (sum(1 for c in phis[m].coeffs if c) - 1) for m in tested
        ),
    }
    for order in (1, 2, 3):
        counts[f"cyclo.survivors_{order}"] = sum(1 for _, k in factors if k >= order)
    error = None
    if tuple(factors) != report.factors:
        error = f"probe factors {factors} differ from factor_scan's {list(report.factors)}"
    return counts, error


def main() -> int:
    argv = json.loads(sys.argv[1])
    spans_path = sys.argv[2]
    args = cli.build_parser().parse_args(argv)
    tracer = Tracer()
    if args.command == "verify":
        with tracer.span("cli.verify"):
            code = cli.main(argv)
    else:
        originals = [(module, attr, tracer.wrap(module, attr)) for module, attr in WRAPPED]
        code = cli.main(argv)
        for module, attr, fn in originals:
            setattr(module, attr, fn)
    sys.stdout.flush()
    mirrored_end_ns = time.perf_counter_ns()

    counts: dict[str, int] = {}
    route_error = None
    table = tracer.returned.get("descent.load_table") or tracer.returned.get("descent.beta_table")
    if code == 0 and table is not None:
        distinct = len(Counter(table.values))
        counts["descent.subsets"] = len(table.values)
        counts["descent.distinct_values"] = distinct
        if args.command == "factors":
            report = tracer.returned["cyclo.factor_scan"]
            more, route_error = probe_factors(tracer, args, table, distinct, report)
            counts.update(more)
    with open(spans_path, "w") as fh:
        json.dump(
            {
                "spans": tracer.spans,
                "mirrored_end_ns": mirrored_end_ns,
                "counts": counts,
                "route_error": route_error,
            },
            fh,
        )
    return code


if __name__ == "__main__":
    sys.exit(main())
