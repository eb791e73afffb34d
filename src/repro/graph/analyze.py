"""Structural DAG analyses: span, width, degree-of-parallelism profile.

These feed the block-size discussion of §5.4: the degree of parallelism
exposed at a block size is the DAG's level-width profile, and the
trade-off against per-task overhead is what the tuning heuristic
navigates.

The hot entry points (``dag.levels()``, ``dag.critical_path()``) are
vectorized over the frozen structure-of-arrays view
(:meth:`repro.graph.dag.TaskDAG.freeze`).  The original per-node
Python implementations are retained here as ``levels_reference`` /
``critical_path_reference``: they are the executable specification the
Hypothesis property suite (``tests/test_property_dag.py``) pins the
vectorized versions against on random DAGs.
"""

from __future__ import annotations

from typing import Callable, List, Optional

import numpy as np

from repro.graph.dag import TaskDAG
from repro.graph.task import Task

__all__ = [
    "critical_path_length",
    "parallelism_profile",
    "max_width",
    "average_parallelism",
    "levels_reference",
    "critical_path_reference",
]


def critical_path_length(dag: TaskDAG) -> int:
    """Unit-weight span — number of tasks on the longest chain."""
    return int(dag.critical_path())


def parallelism_profile(dag: TaskDAG) -> List[int]:
    """Width of each ASAP level: how many tasks *could* run together."""
    levels = dag.levels()
    if not levels:
        return []
    return np.bincount(np.asarray(levels, dtype=np.int64)).tolist()


def max_width(dag: TaskDAG) -> int:
    """Peak degree of parallelism over all levels."""
    prof = parallelism_profile(dag)
    return max(prof) if prof else 0


def average_parallelism(dag: TaskDAG) -> float:
    """Work/span ratio under unit task weights."""
    span = critical_path_length(dag)
    return len(dag) / span if span else 0.0


# ----------------------------------------------------------------------
# Reference implementations (specification for the vectorized versions)
# ----------------------------------------------------------------------

def levels_reference(dag: TaskDAG) -> List[int]:
    """ASAP levels by per-node propagation over a topological order.

    This is the pre-SoA implementation, kept as the oracle the
    property suite compares :meth:`TaskDAG.levels` against.
    """
    lvl = [0] * len(dag)
    for u in dag.topo_order():
        for v in dag.succ[u]:
            if lvl[u] + 1 > lvl[v]:
                lvl[v] = lvl[u] + 1
    return lvl


def critical_path_reference(
    dag: TaskDAG, weight: Optional[Callable[[Task], float]] = None
) -> float:
    """Longest weighted path by per-node propagation (oracle version).

    A ``weight`` reads ``Task`` objects, so only a task DAG takes one.
    """
    n = len(dag)
    if not n:
        return 0.0
    if weight is None:
        w = [1.0] * n
    else:
        w = [weight(t) for t in dag.tasks]
    dist = [0.0] * n
    best = 0.0
    for u in dag.topo_order():
        du = dist[u] + w[u]
        if du > best:
            best = du
        for v in dag.succ[u]:
            if du > dist[v]:
                dist[v] = du
    return best
