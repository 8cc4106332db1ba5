"""GCN-based sub-block annotation (Sec. II-B, "GCN-based recognition").

The :class:`GcnAnnotator` wraps a trained
:class:`~repro.gcn.model.GCNModel` and a class vocabulary; it turns a
flat circuit into a per-vertex :class:`Annotation` that downstream
postprocessing refines.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.gcn.model import GCNModel
from repro.gcn.samples import GraphSample
from repro.graph.bipartite import CircuitGraph
from repro.graph.features import NetRole


@dataclass
class Annotation:
    """Per-vertex class assignment over a circuit graph.

    ``vertex_classes[v]`` indexes into ``class_names``; −1 marks an
    unclassified vertex.  ``probabilities`` keeps the GCN softmax so
    postprocessing can weigh votes by confidence.  ``extra_classes``
    accumulates labels postprocessing invents beyond the GCN vocabulary
    (e.g. "bpf", "buf", "inv" in the phased-array testcase).
    """

    graph: CircuitGraph
    class_names: tuple[str, ...]
    vertex_classes: np.ndarray
    probabilities: np.ndarray | None = None
    extra_classes: list[str] = field(default_factory=list)

    def class_id(self, name: str, create: bool = False) -> int:
        """Id of a class name, optionally registering a new extra class."""
        names = self.all_class_names
        if name in names:
            return names.index(name)
        if not create:
            raise KeyError(name)
        self.extra_classes.append(name)
        return len(self.all_class_names) - 1

    @property
    def all_class_names(self) -> tuple[str, ...]:
        return self.class_names + tuple(self.extra_classes)

    def class_name(self, class_id: int) -> str:
        if class_id < 0:
            return "?"
        return self.all_class_names[class_id]

    @property
    def element_classes(self) -> dict[str, str]:
        """Device name → class name."""
        return {
            dev.name: self.class_name(int(self.vertex_classes[i]))
            for i, dev in enumerate(self.graph.elements)
        }

    @property
    def net_classes(self) -> dict[str, str]:
        """Net name → class name."""
        offset = self.graph.n_elements
        return {
            net: self.class_name(int(self.vertex_classes[offset + j]))
            for j, net in enumerate(self.graph.nets)
        }

    def accuracy(
        self, truth: dict[str, str], devices_only: bool = False
    ) -> float:
        """Fraction of vertices named in ``truth`` classified correctly.

        ``truth`` maps device/net names to class-name strings; vertices
        absent from it are ignored (boundary nets the paper allows to
        belong to several blocks can simply be left out).
        """
        correct = 0
        total = 0
        for vertex in range(self.graph.n_vertices):
            if devices_only and not self.graph.is_element_vertex(vertex):
                continue
            name = self.graph.vertex_name(vertex)
            if name not in truth:
                continue
            total += 1
            if self.class_name(int(self.vertex_classes[vertex])) == truth[name]:
                correct += 1
        return correct / total if total else 1.0

    def copy(self) -> "Annotation":
        return Annotation(
            graph=self.graph,
            class_names=self.class_names,
            vertex_classes=self.vertex_classes.copy(),
            probabilities=(
                None if self.probabilities is None else self.probabilities.copy()
            ),
            extra_classes=list(self.extra_classes),
        )


@dataclass
class GcnAnnotator:
    """Trained model + vocabulary → per-vertex annotations."""

    model: GCNModel
    class_names: tuple[str, ...]

    def __post_init__(self) -> None:
        if len(self.class_names) != self.model.config.n_classes:
            raise ValueError(
                f"{len(self.class_names)} class names for a "
                f"{self.model.config.n_classes}-way model"
            )

    def annotate(
        self,
        graph: CircuitGraph,
        net_roles: dict[str, NetRole] | None = None,
    ) -> Annotation:
        """Classify every vertex of ``graph`` (a batch of one)."""
        return self.annotate_batch([graph], [net_roles])[0]

    def annotate_batch(
        self,
        graphs: list[CircuitGraph],
        net_roles_list: list[dict[str, NetRole] | None] | None = None,
    ) -> list[Annotation]:
        """Classify every vertex of several graphs in one forward.

        Builds one sample for the disjoint union of ``graphs``
        (:meth:`GraphSample.from_graphs`: one adjacency, one coarsening
        and one Laplacian per level), runs one inference forward on it
        as a pack of one (:meth:`GCNModel.predict_proba_batch`) and
        splits the probabilities back per graph by vertex count.  A
        single graph is the union of one.  Each graph's probabilities
        equal those of the graphs' own samples packed together, bit for
        bit.
        """
        if not graphs:
            return []
        sample = GraphSample.from_graphs(
            graphs,
            levels=self.model.config.levels_needed,
            net_roles=net_roles_list,
        )
        return [
            Annotation(
                graph=graph,
                class_names=self.class_names,
                vertex_classes=probabilities.argmax(axis=1).astype(np.int64),
                probabilities=probabilities,
            )
            for graph, probabilities in zip(
                graphs, self.model.predict_proba_batch([sample])
            )
        ]
