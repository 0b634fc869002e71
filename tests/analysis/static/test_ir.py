"""Schedule-IR structure: order queries, accounting, serialization."""

import json

import pytest

from repro.analysis.static.ir import (
    IR_SCHEMA,
    SUPPORTED_IR_SCHEMAS,
    BufferInfo,
    Edge,
    Footprint,
    IRSchemaError,
    IRValidationError,
    OpNode,
    ScheduleIR,
    ir_from_json,
    ir_to_json,
)


def _diamond() -> ScheduleIR:
    """r0: copy -> post; r1: wait -> reduce (sync edge post->wait)."""
    buf = BufferInfo(buf=0, name="shm", nbytes=256, shared=True)
    nodes = [
        OpNode(node=0, rank=0, kind="copy", nbytes=128,
               writes=(Footprint(0, 0, 128),)),
        OpNode(node=1, rank=0, kind="post", tag=("in", 0)),
        OpNode(node=2, rank=1, kind="wait", tag=("in", 0), count=1),
        OpNode(node=3, rank=1, kind="reduce_acc", nbytes=128,
               reads=(Footprint(0, 0, 128),),
               writes=(Footprint(0, 128, 128),)),
    ]
    edges = [Edge(0, 1), Edge(2, 3), Edge(1, 2, "sync")]
    ir = ScheduleIR(meta={"label": "diamond", "nranks": 2},
                    buffers=[buf], nodes=nodes, edges=edges)
    ir.validate()
    return ir


class TestOrder:
    def test_happens_before_transitive(self):
        ir = _diamond()
        assert ir.happens_before(0, 3)
        assert ir.happens_before(1, 2)
        assert not ir.happens_before(3, 0)

    def test_ordered_is_symmetric_reachability(self):
        ir = _diamond()
        assert ir.ordered(0, 3) and ir.ordered(3, 0)

    def test_toposort_respects_edges(self):
        ir = _diamond()
        order = ir.toposort()
        pos = {n: i for i, n in enumerate(order)}
        for e in ir.edges:
            assert pos[e.src] < pos[e.dst]

    def test_find_cycle_none_on_dag(self):
        assert _diamond().find_cycle() is None

    def test_find_cycle_reports_members(self):
        ir = _diamond()
        ir.add_edge(3, 0)  # close the loop
        cycle = ir.find_cycle()
        assert cycle is not None
        assert set(cycle) <= {0, 1, 2, 3}
        with pytest.raises(IRValidationError, match="cycle"):
            ir.toposort()

    def test_caches_invalidate_on_mutation(self):
        ir = _diamond()
        assert not ir.happens_before(3, 0)
        ir.add_edge(3, 0)
        assert ir.find_cycle() is not None


class TestAccounting:
    def test_static_dav_theorem_31(self):
        ir = _diamond()
        # one copy (2n) + one reduce (3n), n = 128
        assert ir.static_dav() == 2 * 128 + 3 * 128

    def test_signature_census(self):
        sig = _diamond().signature()
        assert sig["nodes"] == 4
        assert sig["node_kinds"] == {"copy": 1, "post": 1,
                                     "reduce_acc": 1, "wait": 1}
        assert sig["edge_kinds"] == {"po": 2, "sync": 1}
        assert sig["data_ops_per_rank"] == {"0": 1, "1": 1}
        assert sig["static_dav"] == 640.0

    def test_content_key_stable_and_shape_sensitive(self):
        a, b = _diamond(), _diamond()
        assert ir_to_json(a) == ir_to_json(b)
        b.add_edge(0, 3)
        assert ir_to_json(a) != ir_to_json(b)


class TestValidation:
    def test_non_dense_ids_rejected(self):
        ir = ScheduleIR(nodes=[OpNode(node=1, rank=0, kind="copy")])
        with pytest.raises(IRValidationError, match="dense"):
            ir.validate()

    def test_dangling_edge_rejected(self):
        ir = _diamond()
        ir.add_edge(0, 99)
        with pytest.raises(IRValidationError, match="unknown nodes"):
            ir.validate()

    def test_unknown_buffer_rejected(self):
        ir = ScheduleIR(nodes=[OpNode(node=0, rank=0, kind="copy",
                                      reads=(Footprint(5, 0, 8),))])
        with pytest.raises(IRValidationError, match="buffer"):
            ir.validate()


class TestSerialization:
    def test_round_trip_lossless(self):
        ir = _diamond()
        clone = ir_from_json(ir_to_json(ir))
        assert clone.meta == ir.meta
        assert clone.nodes == ir.nodes
        assert clone.edges == ir.edges
        assert clone.buffers == ir.buffers
        assert ir_to_json(clone) == ir_to_json(ir)

    def test_tuple_tags_survive(self):
        ir = _diamond()
        clone = ir_from_json(ir_to_json(ir))
        assert clone.nodes[1].tag == ("in", 0)
        assert isinstance(clone.nodes[1].tag, tuple)

    def test_unknown_schema_rejected_naming_supported(self):
        payload = json.loads(ir_to_json(_diamond()))
        payload["schema"] = "repro-ir/99"
        with pytest.raises(ValueError, match=r"schema.*repro-ir/1"):
            ir_from_json(json.dumps(payload))

    def test_missing_schema_rejected(self):
        with pytest.raises(ValueError, match="schema"):
            ir_from_json("{}")

    def test_unknown_node_field_rejected(self):
        payload = json.loads(ir_to_json(_diamond()))
        payload["nodes"][0]["surprise"] = 1
        with pytest.raises(ValueError, match="surprise"):
            ir_from_json(json.dumps(payload))

    def test_schema_tag_present(self):
        assert json.loads(ir_to_json(_diamond()))["schema"] == IR_SCHEMA


class TestSchemaGuard:
    """``lint --ir-out`` round-trip discipline: loading an exported IR
    goes through a schema-version guard (``IRSchemaError``, mirroring
    the compiled evaluator's ``ScheduleSchemaError``)."""

    def test_corrupted_file_raises_schema_error(self):
        with pytest.raises(IRSchemaError, match="not valid JSON"):
            ir_from_json("{truncated...")

    def test_non_object_payload_raises_schema_error(self):
        with pytest.raises(IRSchemaError, match="JSON object"):
            ir_from_json("[1, 2, 3]")

    def test_future_version_raises_naming_supported(self):
        payload = json.loads(ir_to_json(_diamond()))
        payload["schema"] = "repro-ir/99"
        with pytest.raises(IRSchemaError) as exc:
            ir_from_json(json.dumps(payload))
        for schema in SUPPORTED_IR_SCHEMAS:
            assert schema in str(exc.value)

    def test_schema_error_is_a_value_error(self):
        # pre-existing except ValueError handlers must keep catching it
        assert issubclass(IRSchemaError, ValueError)
