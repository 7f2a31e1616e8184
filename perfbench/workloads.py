"""The benchmark's fixed workloads.

Every workload runs both feature methods (sparse dictionaries and k-means
VQ) through the same pass, so every layer is measured on every workload;
what differs is where the work goes.  The comments give the reason for each
make-up; README.md gives the measured split of a pass.
"""

from __future__ import annotations

from dataclasses import dataclass

# one value on every workload: lambda, segments per beat, grid-search folds
LAM = 0.1
J_COUNT = 4
FOLDS = 3

TABLE1_COUNTS = {"N": 350, "/": 100, "A": 100, "V": 200,
                 "f": 100, "F": 150, "S": 100, "R": 100}


@dataclass(frozen=True)
class Workload:
    name: str
    tag: int                        # mixed into the input seed per workload
    class_counts: dict[str, int]
    gamma: int
    k: int
    outer_iters: int
    train_per_class: int
    c_grid: tuple[float, ...] | None     # None: the program's default grid
    gamma_grid: tuple[float, ...] | None
    # a 1-NN on the normalized generated beats must reach this accuracy,
    # which shows the inputs are separable; the program's own accuracy is
    # reported, not required (see README)
    separable_bar: float | None

    @property
    def beats(self) -> int:
        return sum(self.class_counts.values())

    @property
    def train_counts(self) -> dict[str, int]:
        return {c: self.train_per_class for c in self.class_counts}


WORKLOADS = {
    # criterion 05: dictionary learning (30 alternations x 4 segments) and
    # the full 7x7 grid search do most of the work
    "planted4": Workload(
        name="planted4", tag=1,
        class_counts={f"c{i}": 125 for i in range(1, 5)},
        gamma=200, k=16, outer_iters=30,
        train_per_class=25, c_grid=None, gamma_grid=None,
        separable_bar=0.95),
    # the labelling side: a brief fit on 100 beats, then whole-beat sparse
    # encoding of 4000 beats does most of the work; one grid cell (C=8,
    # gamma=2^-2) that suits both feature kinds.  Code artifacts and
    # prediction are a few percent of a pass at most (see README)
    "bulk": Workload(
        name="bulk", tag=2,
        class_counts={f"c{i}": 1000 for i in range(1, 5)},
        gamma=200, k=16, outer_iters=5,
        train_per_class=25, c_grid=(8.0,), gamma_grid=(0.25,),
        separable_bar=0.95),
    # criterion 10's Table-1 count profile: 8 classes make every grid cell
    # train 28 machines, so SMO dominates
    "table8": Workload(
        name="table8", tag=3,
        class_counts=dict(TABLE1_COUNTS),
        gamma=120, k=8, outer_iters=10,
        train_per_class=12, c_grid=None, gamma_grid=None,
        separable_bar=None),
}
