"""End-to-end pipeline mechanics (with the session-scoped annotator)."""

import pytest

from repro.core.hierarchy import NodeKind
from repro.core.pipeline import GanaPipeline
from repro.datasets.ota import OtaSpec, generate_ota
from repro.spice.writer import write_circuit


@pytest.fixture(scope="module")
def pipeline(quick_ota_annotator):
    return GanaPipeline(annotator=quick_ota_annotator)


@pytest.fixture(scope="module")
def ota_case():
    return generate_ota(OtaSpec(topology="five_transistor"), name="case")


class TestRun:
    def test_accepts_spice_text(self, pipeline, ota_case):
        text = write_circuit(ota_case.circuit)
        result = pipeline.run(text)
        assert result.graph.n_elements > 0

    def test_accepts_circuit_object(self, pipeline, ota_case):
        result = pipeline.run(ota_case.circuit)
        assert result.graph.n_elements == len(ota_case.circuit.devices)

    def test_timings_cover_stages(self, pipeline, ota_case):
        result = pipeline.run(ota_case.circuit)
        assert set(result.timings) == {
            "parse", "preprocess", "graph", "gcn", "post1", "post2",
            "hierarchy",
        }
        assert all(v >= 0 for v in result.timings.values())

    def test_accuracies_keys(self, pipeline, ota_case):
        result = pipeline.run(ota_case.circuit)
        accs = result.accuracies(ota_case.truth(result.graph))
        assert set(accs) == {"gcn", "post1", "post2"}
        assert accs["post1"] >= 0.5  # quick model + Post-I does decently

    def test_final_annotation_is_post2(self, pipeline, ota_case):
        result = pipeline.run(ota_case.circuit)
        assert result.annotation is result.post2.annotation


class TestHierarchyBuild:
    def test_root_is_system(self, pipeline, ota_case):
        result = pipeline.run(ota_case.circuit, name="mysys")
        assert result.hierarchy.kind is NodeKind.SYSTEM
        assert result.hierarchy.name == "mysys"

    def test_subblocks_have_classes(self, pipeline, ota_case):
        result = pipeline.run(ota_case.circuit)
        for block in result.hierarchy.subblocks():
            assert block.block_class in ("ota", "bias")

    def test_all_devices_in_tree(self, pipeline, ota_case):
        result = pipeline.run(ota_case.circuit)
        tree_devices = result.hierarchy.all_devices()
        graph_devices = {d.name for d in result.graph.elements}
        assert tree_devices == graph_devices

    def test_primitive_nodes_present(self, pipeline, ota_case):
        result = pipeline.run(ota_case.circuit)
        primitives = result.hierarchy.primitives()
        assert any(p.block_class == "DP-N" for p in primitives)

    def test_constraints_collected(self, pipeline, ota_case):
        result = pipeline.run(ota_case.circuit)
        assert len(result.constraints) > 0

    def test_symmetry_axis_merged_per_block(self, pipeline, ota_case):
        from repro.core.constraints import ConstraintKind

        result = pipeline.run(ota_case.circuit)
        ota_blocks = [
            b for b in result.hierarchy.subblocks() if b.block_class == "ota"
        ]
        assert ota_blocks
        sym = [
            c
            for c in ota_blocks[0].constraints
            if c.kind is ConstraintKind.SYMMETRY and len(c.members) >= 2
        ]
        assert sym  # the DP symmetry reached the block level

    def test_render_runs(self, pipeline, ota_case):
        result = pipeline.run(ota_case.circuit)
        text = result.hierarchy.render()
        assert "system" in text


class TestPreprocessIntegration:
    def test_dummies_removed_before_recognition(self, pipeline, ota_case):
        from repro.spice.netlist import DeviceKind, make_mos

        circuit = ota_case.circuit
        circuit.devices.append(
            make_mos("mdummy", DeviceKind.NMOS, "x", "gnd!", "gnd!")
        )
        try:
            result = pipeline.run(circuit)
            assert "mdummy" in result.preprocess_report.removed_names
            assert "mdummy" not in {d.name for d in result.graph.elements}
        finally:
            circuit.devices.pop()
