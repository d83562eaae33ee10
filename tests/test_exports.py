"""Every advertised public name must resolve.

``repro.serving`` serves part of ``__all__`` through a PEP 562 lazy
table, so a stale entry stays invisible until somebody touches it.
"""

import importlib
import inspect
import pkgutil

import pytest


@pytest.mark.parametrize(
    "package",
    [
        "repro.serving",
        "repro.resilience",
        "repro.backend",
        "repro.analysis",
        "repro.embeddings",
        "repro.system",
    ],
)
def test_all_names_resolve(package):
    module = importlib.import_module(package)
    assert len(set(module.__all__)) == len(module.__all__)
    for name in module.__all__:
        assert getattr(module, name) is not None, name


def test_lazy_serving_exports_are_advertised():
    import repro.serving as serving

    assert set(serving._LAZY_EXPORTS) <= set(serving.__all__)


def test_embeddings_public_names():
    import repro.embeddings as embeddings

    assert sorted(embeddings.__all__) == sorted(
        [
            "EmbeddingBagBase", "normalize_offsets", "segment_sum",
            "CompressionSpec",
            "DenseEmbeddingBag", "HashEmbeddingBag", "RobeEmbeddingBag",
            "PQEmbeddingBag", "TTEmbeddingBag", "EffTTEmbeddingBag",
            "BAG_CLASSES", "bag_class", "build_bag_from_spec",
            "TablePlan", "ModelPlan", "table_bytes", "plan_hbm_pack",
            "plan_fixed_fraction", "plan_under_budget", "build_bags",
            "row_index_to_tt", "tt_to_row_index", "prefix_keys",
            "TTSpec", "TTCores", "tt_svd", "ReusePlan", "build_reuse_plan",
            "EmbeddingCache", "HotRowCachedLookup", "StaleCacheError",
        ]
    )


def test_system_public_names():
    import repro.system as system

    assert sorted(system.__all__) == sorted(
        [
            "DeviceSpec", "HostProfile", "KernelCostModel", "calibrate_host",
            "CPU_HOST", "TESLA_V100", "TESLA_T4",
            "BoundedQueue",
            "HostBackedEmbeddingBag",
            "SequentialPSTrainer", "PipelinedPSTrainer", "pipeline_schedule",
            "DataParallelTrainer", "ring_allreduce_time", "all2all_time",
            "allgather_time",
            "Simulator",
        ]
    )


def test_op_table_is_exported_and_the_calibration_names_are_gone():
    import repro.analysis as analysis
    import repro.backend as backend

    assert {"OPS", "OpSpec"} <= set(backend.__all__)
    gone = {"CostModelPricer", "CalibrationReport", "ZoneComparison", "run_calibration"}
    assert not gone & set(analysis.__all__)


def test_no_two_public_classes_share_a_name():
    """``from repro.x import Plan`` must mean one thing whatever ``x`` is:
    a name in any ``repro.*.__all__`` is bound to one class (re-exports
    of the same object are fine)."""
    import repro

    owners = {}
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        module = importlib.import_module(info.name)
        for name in getattr(module, "__all__", ()):
            obj = getattr(module, name)
            if inspect.isclass(obj):
                owners.setdefault(name, set()).add(
                    f"{obj.__module__}.{obj.__qualname__}"
                )
    assert {n: sorted(o) for n, o in owners.items() if len(o) > 1} == {}


def test_the_four_planner_modules_are_gone():
    for gone in (
        "repro.system.memory", "repro.sharding.placement",
        "repro.embeddings.autotune", "repro.embeddings.collection",
    ):
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module(gone)
    import repro.embeddings as embeddings
    import repro.sharding as sharding
    import repro.system as system

    retired = {
        "PlacementPlan", "PlacementDecision", "PlacementKind",
        "PlacementStrategy", "StatsDrivenStrategy", "RowShardedStrategy",
        "CompressionPlan", "EmbeddingCollection", "plan_placement",
        "plan_compression", "build_bag_from_plan", "tt_core_bytes",
        "server_resident",
    }
    for package in (embeddings, sharding, system):
        assert not retired & set(dir(package)), package.__name__


def test_one_rule_record_and_no_einsum_checker():
    """Every analyzer catalog holds the one ``RuleInfo`` record; the four
    per-analyzer copies, the einsum checker and the shape and perf
    analyzers are gone."""
    import repro.analysis as analysis
    from repro.analysis.findings import RuleInfo

    for catalog in (analysis.DET_RULES, analysis.HAZARD_RULES):
        assert all(type(rule) is RuleInfo for rule in catalog.values())
    for gone in ("repro.analysis.shapecheck", "repro.analysis.perfcheck"):
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module(gone)
    public = set()
    for info in pkgutil.walk_packages(analysis.__path__, "repro.analysis."):
        public |= set(getattr(importlib.import_module(info.name), "__all__", ()))
    retired = {
        "ShapeRuleInfo", "PerfRuleInfo", "DetRuleInfo", "HazardRuleInfo",
        "check_einsum", "parse_subscripts", "EinsumIssue",
        "SHAPE_RULES", "PERF_RULES", "Operand", "bind_op",
    }
    assert not retired & public
