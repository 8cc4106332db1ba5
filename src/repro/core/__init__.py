"""The GANA core: annotation, postprocessing, hierarchy, constraints.

Attribute access is lazy to break the import cycle
``primitives.library → core.constraints → core.__init__ →
core.postprocess → primitives.library``: importing a submodule of
``repro.core`` directly never pulls in the others.
"""

from __future__ import annotations

import importlib

_EXPORTS = {
    "Annotation": "repro.core.annotator",
    "GcnAnnotator": "repro.core.annotator",
    "Constraint": "repro.core.constraints",
    "ConstraintKind": "repro.core.constraints",
    "ConstraintSet": "repro.core.constraints",
    "merge_symmetry_axes": "repro.core.constraints",
    "propagate": "repro.core.constraints",
    "subblock_constraints": "repro.core.constraints",
    "HierarchyNode": "repro.core.hierarchy",
    "NodeKind": "repro.core.hierarchy",
    "RF_CLASSES": "repro.core.postprocess",
    "STANDALONE_PRIMITIVES": "repro.core.postprocess",
    "PostprocessResult": "repro.core.postprocess",
    "apply_port_rules": "repro.core.postprocess",
    "postprocess_ccc": "repro.core.postprocess",
    "constraint_record": "repro.core.export",
    "constraints_json": "repro.core.export",
    "graph_dot": "repro.core.export",
    "hierarchy_dot": "repro.core.export",
    "hierarchy_json": "repro.core.export",
    "Violation": "repro.core.validate",
    "validate_constraints": "repro.core.validate",
    "infer_net_roles": "repro.core.testbench",
    "infer_port_labels": "repro.core.testbench",
    "strip_sources": "repro.core.testbench",
    "BlockGraph": "repro.core.systems",
    "SystemInstance": "repro.core.systems",
    "annotate_systems": "repro.core.systems",
    "build_block_graph": "repro.core.systems",
    "detect_receivers": "repro.core.systems",
    "nest_support_blocks": "repro.core.systems",
    "GanaPipeline": "repro.core.pipeline",
    "PipelineResult": "repro.core.pipeline",
    "build_hierarchy": "repro.core.pipeline",
    "Artifact": "repro.core.stages",
    "StageName": "repro.core.stages",
    "StagedRun": "repro.core.stages",
    "StagedRunner": "repro.core.stages",
    "TIMING_STAGES": "repro.core.stages",
    "content_fingerprint": "repro.core.stages",
    "load_artifacts": "repro.core.stages",
    "pipeline_result_fingerprint": "repro.core.stages",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    module_name = _EXPORTS.get(name)
    if module_name is None:
        raise AttributeError(f"module 'repro.core' has no attribute {name!r}")
    module = importlib.import_module(module_name)
    return getattr(module, name)


def __dir__():
    return __all__
