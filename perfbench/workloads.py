"""The three workloads: seeded graphs and the CLI job run on each of them.

A workload is a list of job families; each family draws ``copies`` graphs of
one size and density and runs one CLI job on each.  ``--seed`` seeds every
graph, so the same seed always gives the same graphs, edge for edge.
Graphs are G(v, m) with m = round(d * C(v, 2)): the density is exact rather
than expected, which narrows the spread of work from one seed to the next.
Vertex labels are shuffled, so the program sees no helpful vertex order.

Sizes are chosen so that one job takes a few tenths of a second to about two
seconds at the commit that introduced the benchmark, and a round holds many
graphs: the work per graph varies by 15-50% between seeds, and only many
graphs per round keep a run's throughput steady.
"""

from __future__ import annotations

import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Family:
    """``copies`` graphs drawn alike, one ``kind`` job on each."""

    kind: str                   # names the CLI command and the check
    v: int
    d: float
    copies: int
    k_offset: int = 0           # enum / threshold: size argument = alpha + k_offset
    weighted: bool = False      # draw vertex weights 1..10 and pass --weights
    bipartite: int = 0          # size of the left class of a bipartite graph


@dataclass
class Graph:
    """A drawn graph: 1-based edges, optional weights and colour class."""

    v: int
    edges: list[tuple[int, int]]
    weights: dict[int, int] | None = None
    left: list[int] | None = None


@dataclass(frozen=True)
class Job:
    name: str                   # also the graph's file name
    family: Family


WORKLOADS = {
    # The full exclusion run with closed-form aggregation: count sums
    # member_count, poly sums spectra.  Nothing is pruned or expanded.
    "standard-run": (
        Family("count", 36, 0.08, 6),
        Family("count", 34, 0.1, 6),
        Family("count", 42, 0.25, 6),
        Family("count", 46, 0.3, 6),
        Family("poly", 40, 0.25, 8),
        Family("poly", 42, 0.3, 10),
        Family("poly", 44, 0.3, 8),
    ),
    # Currentmax branch and bound with the w_max and weighted bounds, the
    # bipartite cover order, threshold runs that must prove that no set
    # exceeds k = alpha, and all-max plus core.
    "max-search": (
        Family("alpha", 52, 0.1, 6),
        Family("alpha", 60, 0.2, 4),
        Family("alpha", 76, 0.3, 4),
        Family("alpha", 90, 0.4, 6),
        Family("alpha", 90, 0.5, 6),
        Family("alpha", 60, 0.3, 6, weighted=True),
        Family("alpha", 70, 0.1, 4, bipartite=32),
        Family("first", 80, 0.4, 8),
        Family("first", 100, 0.5, 8),
        Family("all_core", 50, 0.3, 6),
    ),
    # Members expanded one by one (enum, threshold), the maximal sieve, the
    # chromatic cover search, and JSON output.  enum visits every member of
    # every row but lists only those of size >= alpha - 1.
    "listing": (
        Family("enum", 28, 0.15, 6, k_offset=-1),
        Family("enum", 32, 0.2, 6, k_offset=-1),
        Family("enum", 36, 0.25, 6, k_offset=-1),
        Family("threshold", 54, 0.25, 10, k_offset=-2),
        Family("maximal", 40, 0.3, 6),
        Family("maximal", 44, 0.4, 8),
        Family("chromatic", 20, 0.5, 6),
    ),
}


def jobs(workload: str) -> list[Job]:
    return [
        Job(f"{f.kind}-{f.v}-{f.d}{'-w' if f.weighted else ''}{'-b' if f.bipartite else ''}-{i}", f)
        for f in WORKLOADS[workload]
        for i in range(f.copies)
    ]


def draw(job: Job, workload: str, seed: int) -> Graph:
    f = job.family
    rng = random.Random(f"{workload}/{seed}/{job.name}")
    v, a = f.v, f.bipartite
    if a:
        # classes {1..a} and {a+1..v} before the labels are shuffled
        pairs = [(i, j) for i in range(1, a + 1) for j in range(a + 1, v + 1)]
    else:
        pairs = [(i, j) for i in range(1, v + 1) for j in range(i + 1, v + 1)]
    chosen = rng.sample(pairs, round(f.d * len(pairs)))
    label = list(range(1, v + 1))
    rng.shuffle(label)
    edges = sorted(tuple(sorted((label[i - 1], label[j - 1]))) for i, j in chosen)
    weights = {y: rng.randint(1, 10) for y in range(1, v + 1)} if f.weighted else None
    left = sorted(label[i - 1] for i in range(1, a + 1)) if a else None
    return Graph(v, edges, weights, left)


def wanted(f: Family) -> str:
    """The reference answer a family's check needs (see reference.compute)."""
    if f.kind == "alpha":
        return "weighted_alpha" if f.weighted else "bipartite_alpha" if f.bipartite else "alpha"
    return {"first": "alpha", "maximal": "maximal", "chromatic": "chi"}.get(f.kind, "poly")


_COMMANDS = {"first": "threshold", "all_core": "alpha"}


def argv(job: Job, graph_path: str, ref: dict) -> tuple[list[str], dict]:
    """The CLI argument list of a job, and the parameters its check needs."""
    f = job.family
    args = [_COMMANDS.get(f.kind, f.kind), "--graph", graph_path, "--json"]
    params: dict = {"ref": wanted(f)}
    alpha = len(ref["poly"]) - 1 if "poly" in ref else ref.get("alpha")
    if f.kind == "enum":
        params["min_size"] = max(alpha + f.k_offset, 0)
        args += ["--min-size", str(params["min_size"])]
    elif f.kind in ("first", "threshold"):
        params["k"] = max(alpha + f.k_offset, 0)
        args += ["--k", str(params["k"])]
    if f.kind == "first":
        args.append("--first")
    elif f.kind == "all_core":
        args += ["--all", "--core"]
    elif f.weighted:
        args += ["--weights", graph_path.removesuffix(".col") + ".w"]
    elif f.bipartite:
        args.append("--bipartite")
    return args, params
