"""Output checks. Each runs outside the timed region and counts as one
operation; a failing check adds to ``failed`` (and so to ``success_frac``).

* sort and permute records must cost at least the exact counting lower
  bound for arbitrary programs (``counting_lower_bound_general``);
* SpMxV records must cost at least the Theorem 5.1 display
  (``theorem_5_1_exact``);
* ``search_query`` records price a read-only phase, so ``Qw == 0``;
* a small instance of every family must cost the same, bit for bit, on
  a counting machine and on a full (payload) machine.

Full-mode output verification is not repeated here: the measure
functions run their own referees on every full-mode record.
"""

from __future__ import annotations

from typing import Iterable, List, Mapping, Tuple

COST_FIELDS = ("Q", "Qr", "Qw", "T", "peak_mem")


def record_problems(query: Mapping, record: Mapping) -> List[str]:
    """Bound and shape checks of one priced query; ``[]`` when it passes."""
    from repro import api
    from repro.core.counting import counting_lower_bound_general
    from repro.spmxv.bounds import theorem_5_1_exact

    spec, config = api.normalize(query)
    q = float(record["Q"])
    if spec.name in ("sort", "permute"):
        bound = counting_lower_bound_general(config["N"], config["params"])
        if q < bound:
            return [f"{_label(query)}: Q={q:g} below the counting bound {bound:g}"]
    elif spec.name == "spmxv":
        bound = theorem_5_1_exact(config["N"], config["delta"], config["params"]).cost
        if q < bound:
            return [f"{_label(query)}: Q={q:g} below Theorem 5.1's {bound:g}"]
    elif spec.name == "search_query" and int(record["Qw"]) != 0:
        return [f"{_label(query)}: read-only query phase wrote Qw={record['Qw']}"]
    return []


def paired_problems(queries: Iterable[Mapping]) -> Tuple[int, List[str]]:
    """Run each query on a counting and a full machine; costs must agree.

    Returns ``(checks_run, problems)``.
    """
    from repro import api
    from repro.engine.core import SweepEngine

    engine = SweepEngine()
    problems: List[str] = []
    runs = 0
    for query in queries:
        runs += 1
        try:
            counted = api.evaluate(query["workload"], {**query, "counting": True}, engine=engine)
            full = api.evaluate(query["workload"], {**query, "counting": False}, engine=engine)
        except Exception as exc:  # a referee failure is a check failure
            problems.append(f"{_label(query)}: paired run raised {type(exc).__name__}: {exc}")
            continue
        a = {k: counted[k] for k in COST_FIELDS}
        b = {k: full[k] for k in COST_FIELDS}
        if a != b:
            problems.append(f"{_label(query)}: counting {a} != full {b}")
    return runs, problems


def _label(query: Mapping) -> str:
    return ",".join(f"{k}={v}" for k, v in query.items() if k != "seed")
