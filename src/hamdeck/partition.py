"""Random tri-partition of a dense regular graph into a regular core, a
pseudo-random patch reservoir, and a robust-expander residual.

Each edge lands in the patch with probability 1/ln(n), in the raw residual
with probability eps, and in the raw core otherwise; a flow-based extraction
then trims the raw core to an exactly even-regular graph, and the trimmings
join the residual.  Las-Vegas at desk scale: verification plus retry
replaces the with-high-probability guarantees that only bind at large n.
Of the paper's constants the pipeline takes only eps: the density c is
the input's r/n, and the audit's (nu, tau) follow from eps and c.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field

from .errors import BudgetError, InfeasibleError, InputError, SearchFailedError
from .graphs import (
    ExpanderVerdict,
    Graph,
    is_robust_expander,
    pack_rows,
    save_edge_list,
)
from .regularize import extract_regular_subgraph
from .util import EPS, ceil_frac, check_deadline, spawn_seed

# Whole random splits tried before tri_partition gives up with BudgetError.
PARTITION_RETRIES = 16


@dataclass(frozen=True)
class PipelineParams:
    """What the pipeline reads: the slack fraction ``eps`` in (0, 1/10),
    the RNG ``seed``, an optional cap ``max_steps`` on rotation steps, and an
    optional ``deadline`` (``time.monotonic()`` value).

    The paper's density fraction c is the input's r/n, and the fractions
    the partition audit uses come from ``audit_fractions``.
    """

    eps: float = 0.05
    seed: int = 0
    max_steps: int | None = None
    deadline: float | None = field(default=None, compare=False)

    def __post_init__(self) -> None:
        if not (0 < self.eps < 0.1):
            raise InputError(f"eps must be in (0, 1/10), got {self.eps}")
        if self.max_steps is not None and self.max_steps < 0:
            raise InputError(f"max_steps must be nonnegative, got {self.max_steps}")


def default_params(g: Graph, seed: int = 0, **overrides) -> PipelineParams:
    """The defaults, with ``overrides`` set, for a regular graph with edges."""
    r = g.regular_degree()
    if r is None or r == 0:
        raise InputError("default parameters need a regular graph with edges")
    return PipelineParams(seed=seed, **overrides)


def patch_probability(n: int) -> float:
    """Per-edge probability of landing in the patch: 1/ln(n), clamped to 1/2
    for n <= 3 where the formula exceeds sensible bounds."""
    if n <= 3:
        return 0.5
    return 1.0 / math.log(n)


@dataclass(frozen=True)
class TriPartition:
    """Edge-disjoint split: even-regular core, patch reservoir, residual."""

    core: Graph
    patch: Graph
    residual: Graph
    params: PipelineParams
    core_degree: int
    stats: dict = field(default_factory=dict, compare=False)


def tri_partition(graph: Graph, params: PipelineParams) -> TriPartition:
    """Split a regular graph into (core, patch, residual) with an exactly
    even-regular core.

    Retries the whole random split on extraction failure.  The paper's
    degree band |deg - c0*n| <= n^(2/3) on the raw core is checked here, once
    per split and before any flow, since it depends on c0 only: a vertex
    outside it ends the split.  A flow shortfall (SearchFailedError) lowers
    the target degree, down to the largest value that saturates (recorded in
    stats).  The target stays in 1 <= d <= min degree // 2, so the
    extraction's own InfeasibleError checks never fire here.  The parts are
    derived from the input's bit rows, so no part is validated again.  An
    expired ``params.deadline`` raises BudgetError before a split or a flow
    starts.
    """
    n = graph.n
    r = graph.regular_degree()
    if not r:
        raise InputError("tri-partition needs a regular graph with edges")
    if r % 2 != 0:
        raise InputError(f"degree {r} is odd")

    p_patch = patch_probability(n)
    p_residual = params.eps
    if p_patch + p_residual >= 1:
        raise InputError("patch + residual probabilities reach 1; n too small")
    c0 = (1 - params.eps - p_patch) * r / n
    eps0 = params.eps * r / (2 * n)
    formula_d = ceil_frac((c0 - min(eps0, c0)) * n / 2)
    band, center = n ** (2 / 3), c0 * n

    last_error: Exception | None = None
    for attempt in range(PARTITION_RETRIES):
        check_deadline(params.deadline, "tri-partition")
        rng = random.Random(spawn_seed(params.seed, "split", attempt))
        patch, raw_residual, raw_core_graph = _random_split(
            graph, rng, p_patch, p_residual
        )
        degrees = raw_core_graph.degrees()
        outside = [v for v, deg in enumerate(degrees) if abs(deg - center) > band + EPS]
        if outside:
            v = outside[0]
            last_error = InfeasibleError(
                f"degree hypothesis violated: deg({v})={degrees[v]} is outside "
                f"{center:.2f} +- {band:.2f}"
            )
            continue
        d_target = min(formula_d, min(degrees, default=0) // 2)
        core: Graph | None = None
        while d_target >= 1:
            check_deadline(params.deadline, "tri-partition")
            try:
                core = extract_regular_subgraph(raw_core_graph, d_target)
                break
            except SearchFailedError as exc:
                last_error = exc
                d_target -= 1
        if core is None:
            continue

        # the raw residual plus the trimmings (raw core minus core)
        residual = raw_residual.union(raw_core_graph.subtract(core))
        d0 = 2 * d_target
        asym_bound = (1 - 2 * params.eps) * r
        stats = {
            "attempts": attempt + 1,
            "formula_half_degree": formula_d,
            "achieved_half_degree": d_target,
            "core_degree": d0,
            "asymptotic_degree_bound": asym_bound,
            "asymptotic_degree_bound_met": d0 + EPS >= asym_bound,
            "patch_probability": p_patch,
            "patch_edges": patch.edge_count,
            "raw_residual_edges": raw_residual.edge_count,
            "raw_core_edges": raw_core_graph.edge_count,
            "residual_edges": residual.edge_count,
        }
        tp = TriPartition(core, patch, residual, params, d0, stats)
        _assert_partition_exact(graph, tp)
        return tp
    raise BudgetError(
        f"tri-partition failed after {PARTITION_RETRIES} split attempts "
        f"(last: {last_error})"
    )


def _random_split(
    graph: Graph, rng: random.Random, p_patch: float, p_residual: float
) -> tuple[Graph, Graph, Graph]:
    """Patch, raw residual and raw core of one split: one roll per edge
    (u, v), u < v, in increasing (u, v) order.  The edges are the upper
    triangle of the adjacency matrix in row-major order; each roll labels
    its edge 1 (patch), 2 (raw residual) or 3 (raw core), and each part is
    the packed rows of one label.  The parts are subgraphs of the validated
    input, so they are derived, not validated."""
    import numpy as np

    n = graph.n
    us, vs = np.nonzero(np.triu(graph.adjacency_matrix(), 1))
    # numpy's legacy RandomState is random.Random's Mersenne Twister and makes
    # each double from two 32-bit outputs as random() does (genrand_res53):
    # from rng's state it draws the same rolls, and rng takes the state after
    version, internal, gauss_next = rng.getstate()
    mt = np.random.RandomState()
    mt.set_state(("MT19937", internal[:-1], internal[-1]))
    rolls = mt.random_sample(len(us))
    _, key, pos, *_ = mt.get_state()
    rng.setstate((version, (*key.tolist(), pos), gauss_next))
    labels = np.zeros((n, n), np.uint8)
    labels[us, vs] = np.where(
        rolls < p_patch, 1, np.where(rolls < p_patch + p_residual, 2, 3)
    )
    labels |= labels.T
    return tuple(Graph._derived(n, pack_rows(labels == k)) for k in (1, 2, 3))


def _union_rows(tp: TriPartition) -> tuple[tuple[int, ...], bool]:
    """The OR of the parts' bit rows, and whether the parts are edge-disjoint,
    i.e. the union has as many bits as the parts together."""
    parts = (tp.core, tp.patch, tp.residual)
    union = tuple(a | b | c for a, b, c in zip(*(p.adj_bits for p in parts)))
    disjoint = sum(map(int.bit_count, union)) == sum(2 * p.edge_count for p in parts)
    return union, disjoint


def audit_fractions(tp: TriPartition) -> tuple[float, float]:
    """The (nu, tau) that ``verify_partition`` checks the residual's robust
    expansion with and the sidecar records: tau = 0.2, and nu = min(delta,
    eps*gamma/2) from delta = min(eps*c/5, tau/2) and gamma = max(delta^3/2,
    1e-12), at the density c = r/n of the parts' r-regular union.  nu stays
    below 2e-7, so nu*n < 1 and only tau moves a verdict; ``check-expander``
    audits a saved residual at other values."""
    c = max(map(int.bit_count, _union_rows(tp)[0]), default=0) / tp.core.n
    tau = 0.2
    delta = min(tp.params.eps * c / 5, tau / 2)
    gamma = max(delta**3 / 2, 1e-12)
    return min(delta, tp.params.eps * gamma / 2), tau


def _assert_partition_exact(graph: Graph, tp: TriPartition) -> None:
    union, disjoint = _union_rows(tp)
    if not disjoint or union != graph.adj_bits:
        raise AssertionError("tri-partition is not an exact edge partition")


@dataclass(frozen=True)
class PartitionReport:
    partition_exact: bool
    core_regular: bool
    core_degree: int
    core_degree_even: bool
    asymptotic_degree_bound_met: bool
    expander: ExpanderVerdict
    issues: tuple[str, ...]

    @property
    def ok(self) -> bool:
        """Exact partition, even-regular core and residual expansion.  The
        asymptotic core-degree bound is reported, not gated on: it cannot
        bind at desk-scale n.  A sampled expansion check that holds only
        drew no counterexample."""
        return (
            self.partition_exact
            and self.core_regular
            and self.core_degree_even
            and self.expander.holds
        )


def verify_partition(
    tp: TriPartition,
    *,
    graph: Graph | None = None,
    seed: int = 0,
) -> PartitionReport:
    """Report-valued check of the tri-partition contract.

    Exactness and core regularity are checked exactly.  Residual robust
    expansion, at ``audit_fractions``, is exact for n <= 14 and sampled
    beyond, where holds=True only means that no sampled set was a
    counterexample.  The patch's pseudo-randomness is not audited: its
    literal n^1.6 edge threshold cannot bind at desk-scale n.
    """
    issues: list[str] = []
    n = tp.core.n
    params = tp.params

    union, exact = _union_rows(tp)
    if graph is not None and union != graph.adj_bits:
        exact = False
        issues.append("union of parts differs from the input graph")

    degs = set(tp.core.degrees())
    core_regular = len(degs) == 1
    core_degree = degs.pop() if core_regular else -1
    if not core_regular:
        issues.append("core is not regular")
    core_even = core_regular and core_degree % 2 == 0
    if core_regular and not core_even:
        issues.append("core degree is odd")

    # infer host degree from the union of the three parts
    r = max((row.bit_count() for row in union), default=0)
    asym_bound_met = core_regular and core_degree + EPS >= (1 - 2 * params.eps) * r

    # exact enumeration is affordable up to ~2^14 subsets; sample beyond
    expander = is_robust_expander(
        tp.residual,
        *audit_fractions(tp),
        "exact" if n <= 14 else "sampled",
        seed=spawn_seed(seed, "expander"),
        deadline=params.deadline,
    )
    if not expander.holds:
        issues.append(
            f"residual fails robust expansion (witness {sorted(expander.witness)})"
        )

    return PartitionReport(
        partition_exact=exact,
        core_regular=core_regular,
        core_degree=core_degree,
        core_degree_even=core_even,
        asymptotic_degree_bound_met=asym_bound_met,
        expander=expander,
        issues=tuple(issues),
    )


# -- serialization: three edge lists plus a JSON sidecar -------------------------


def save_tri_partition(tp: TriPartition, prefix: str) -> list[str]:
    paths = []
    for name, g in (
        ("core", tp.core),
        ("patch", tp.patch),
        ("residual", tp.residual),
    ):
        path = f"{prefix}.{name}.edges"
        save_edge_list(g, path)
        paths.append(path)
    sidecar = f"{prefix}.params.json"
    nu, tau = audit_fractions(tp)
    payload = {
        "n": tp.core.n,
        "core_degree": tp.core_degree,
        "params": {"eps": tp.params.eps, "nu": nu, "seed": tp.params.seed, "tau": tau},
        "stats": tp.stats,
    }
    with open(sidecar, "w", encoding="ascii") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    paths.append(sidecar)
    return paths
