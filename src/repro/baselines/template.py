"""Library-based sub-block recognition — the prior art GANA replaces.

Refs [2] (sizing-rules method) and [3] (FEATS) match circuits against
"prespecified templates, requiring an enumeration of possible
topologies in an exhaustive database".  This module implements that
approach faithfully at the sub-block level: each library entry is a
*complete* sub-block netlist (a specific OTA/LNA/mixer/oscillator
topology), and recognition is exact subgraph isomorphism.

Its failure mode is the paper's motivation: any variant not enumerated
— a different load, an extra cascode, a new compensation branch — goes
unrecognized.  ``benchmarks/bench_baseline_template.py`` quantifies
this against the GCN on the same held-out variant sets.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.graph.bipartite import CircuitGraph
from repro.primitives.isomorphism import PatternGraph, VF2Matcher
from repro.spice.netlist import Circuit


@dataclass
class SubblockTemplate:
    """One enumerated sub-block topology with its class label."""

    name: str
    block_class: str
    pattern: PatternGraph

    @classmethod
    def from_circuit(
        cls, name: str, block_class: str, circuit: Circuit
    ) -> "SubblockTemplate":
        graph = CircuitGraph.from_circuit(circuit)
        return cls(
            name=name, block_class=block_class,
            pattern=PatternGraph.from_graph(graph),
        )


@dataclass
class TemplateRecognizer:
    """Exact-match recognizer over an enumerated topology database."""

    templates: list[SubblockTemplate] = field(default_factory=list)

    def add(self, template: SubblockTemplate) -> None:
        self.templates.append(template)

    def recognize(self, graph: CircuitGraph) -> dict[str, str]:
        """Device name → class for every device covered by a template
        match; devices no template covers are absent (unrecognized)."""
        out: dict[str, str] = {}
        for template in sorted(
            self.templates, key=lambda t: -t.pattern.graph.n_elements
        ):
            matcher = VF2Matcher(template.pattern, graph)
            for iso in matcher.find_all():
                pattern_graph = template.pattern.graph
                for pv, tv in iso.mapping:
                    if pv < pattern_graph.n_elements:
                        name = graph.elements[tv].name
                        out.setdefault(name, template.block_class)
        return out

    def accuracy(self, graph: CircuitGraph, truth: dict[str, str]) -> float:
        """Device-level accuracy; uncovered devices count as wrong —
        a library-based flow simply has no answer for them."""
        recognized = self.recognize(graph)
        device_truth = {
            name: cls
            for name, cls in truth.items()
            if name in {d.name for d in graph.elements}
        }
        if not device_truth:
            return 1.0
        correct = sum(
            1
            for name, cls in device_truth.items()
            if recognized.get(name) == cls
        )
        return correct / len(device_truth)


def subblock_template_library(
    train_items, max_templates: int = 50
) -> TemplateRecognizer:
    """Build the enumerated database from *training* circuits.

    Each training circuit contributes its class-pure device groups as
    whole-topology templates (deduplicated by a cheap structural
    signature).  This mirrors how a template library is curated: every
    known topology gets an entry; nothing else exists.
    """
    recognizer = TemplateRecognizer()
    seen_signatures: set[tuple] = set()
    for item in train_items:
        graph = CircuitGraph.from_circuit(item.circuit)
        by_class: dict[str, list] = {}
        for dev in item.circuit.devices:
            cls = item.device_labels.get(dev.name)
            if cls is not None:
                by_class.setdefault(cls, []).append(dev)
        for cls, devices in by_class.items():
            signature = (
                cls,
                tuple(sorted((d.kind.value) for d in devices)),
                len({n for d in devices for n in d.nets}),
            )
            if signature in seen_signatures:
                continue
            seen_signatures.add(signature)
            if len(recognizer.templates) >= max_templates:
                return recognizer
            sub = Circuit(
                name=f"{item.name}_{cls}",
                # Every boundary net is a port: templates must embed.
                ports=tuple(
                    sorted({n for d in devices for n in d.nets})
                ),
                devices=list(devices),
            )
            recognizer.add(
                SubblockTemplate.from_circuit(sub.name, cls, sub)
            )
    return recognizer


def task_fallback_recognizer(
    class_names: tuple[str, ...],
    n_train: int = 16,
    seed: object = "degraded-fallback",
    max_templates: int = 40,
) -> TemplateRecognizer:
    """A template recognizer covering a task's class vocabulary.

    This is the degradation ladder's safety net: when GCN inference
    fails (or is too unsure to trust), ``GanaPipeline.run`` falls back
    to exactly the prior art the paper replaces — template matching
    over an enumerated topology database — built here from a small
    seeded sample of the task's generator circuits.  Construction is
    deterministic and pure, so the recognizer can be built lazily and
    cached on the pipeline.
    """
    from repro.datasets.synth import generate_ota_bias_dataset, generate_rf_dataset

    generator = (
        generate_rf_dataset
        if {"lna", "mixer", "osc"} & set(class_names)
        else generate_ota_bias_dataset
    )
    # Serial on purpose: this also runs inside run_many pool workers,
    # and a pool forked from a pool worker keeps the interpreter from
    # exiting.
    items = generator(n_train, seed=seed, workers=1)
    return subblock_template_library(items, max_templates=max_templates)
