"""Canonical instance files: round trips, canonical form, schema errors."""

import json
from fractions import Fraction

import pytest

from bitnets.instances import (
    SchemaError,
    canonical_bytes,
    instance_size,
    instance_to_doc,
    parse_instance,
    parse_theta,
    serialize_instance,
    serialize_theta,
)
from bitnets.network import Theta
from bitnets.product_identity import monomial
from bitnets.reductions import (
    BackpropInstance,
    compile_backprop,
    compile_erm,
    compile_hinge_posslp,
)
from bitnets.slp import parse_slp

from test_slp import squaring_chain

SQUARE = monomial(2)


def erm_instance():
    return compile_erm(squaring_chain(3), SQUARE, j=4, gap=(0, 2))


class TestRoundTrip:
    def test_erm_instance(self):
        inst = erm_instance()
        again = parse_instance(serialize_instance(inst))
        assert again == inst

    def test_backprop_instance(self):
        inst = compile_backprop(squaring_chain(2), SQUARE, "bit", bit_index=2)
        again = parse_instance(serialize_instance(inst))
        assert isinstance(again, BackpropInstance)
        assert again == inst

    def test_hinge_instance(self):
        inst = compile_hinge_posslp(parse_slp("const 1\nmul 0 0\n"), SQUARE, copies=2)
        assert parse_instance(serialize_instance(inst)) == inst

    def test_serialization_is_canonical_fixed_point(self):
        inst = erm_instance()
        data = serialize_instance(inst)
        assert serialize_instance(parse_instance(data)) == data

    def test_theta_round_trip(self):
        inst = erm_instance()
        assert parse_theta(serialize_theta(inst.theta_star)) == inst.theta_star


class TestCanonicalForm:
    def test_sorted_keys_no_whitespace(self):
        raw = serialize_instance(erm_instance()).decode("utf-8")
        assert ": " not in raw and ", " not in raw
        doc = json.loads(raw)
        assert list(doc) == sorted(doc)

    def test_vertices_and_edges_sorted(self):
        doc = instance_to_doc(erm_instance())
        ids = [v["id"] for v in doc["vertices"]]
        assert ids == sorted(ids)
        eids = [e["id"] for e in doc["edges"]]
        assert eids == sorted(eids)

    def test_instance_size_is_byte_length(self):
        inst = erm_instance()
        assert instance_size(inst) == len(serialize_instance(inst))

    def test_labels_sparse(self):
        doc = instance_to_doc(erm_instance())
        for entry in doc["dataset"]:
            for value in entry["x"].values():
                assert value != "0"
            if isinstance(entry["y"], dict):
                for value in entry["y"].values():
                    assert value != "0"


class TestSchemaErrors:
    def test_dangling_edge_endpoint_named(self):
        doc = instance_to_doc(erm_instance())
        doc["edges"][3]["v"] = "nowhere"
        with pytest.raises(SchemaError) as err:
            parse_instance(canonical_bytes(doc))
        assert "edges[3]" in str(err.value) and "nowhere" in str(err.value)

    def test_non_reduced_rational_rejected(self):
        doc = instance_to_doc(erm_instance())
        eid = next(iter(doc["theta"]))
        doc["theta"][eid]["w"] = "2/4"
        with pytest.raises(SchemaError) as err:
            parse_instance(canonical_bytes(doc))
        assert "not reduced" in str(err.value)

    def test_unknown_loss_target(self):
        doc = instance_to_doc(erm_instance())
        doc["loss"]["target"] = "ghost"
        with pytest.raises(SchemaError) as err:
            parse_instance(canonical_bytes(doc))
        assert "$.loss.target" in str(err.value)

    def test_theta_missing_edge(self):
        doc = instance_to_doc(erm_instance())
        doc["theta"].popitem()
        with pytest.raises(SchemaError) as err:
            parse_instance(canonical_bytes(doc))
        assert "$.theta" in str(err.value)

    def test_bad_gap(self):
        doc = instance_to_doc(erm_instance())
        doc["gap"] = [2, 1]
        with pytest.raises(SchemaError):
            parse_instance(canonical_bytes(doc))

    def test_invalid_json(self):
        with pytest.raises(SchemaError):
            parse_instance(b"{not json")

    def test_unknown_dataset_vertex(self):
        doc = instance_to_doc(erm_instance())
        doc["dataset"][0]["x"]["ghost"] = "1"
        with pytest.raises(SchemaError) as err:
            parse_instance(canonical_bytes(doc))
        assert "ghost" in str(err.value)


class TestActivationTags:
    def test_pwl_and_bitbounded_round_trip(self):
        from bitnets.network import (
            Edge,
            IdentityActivation,
            LossSpec,
            Network,
            Sample,
            Vertex,
        )
        from bitnets.pwl import BitBoundedActivation, leaky_relu
        from bitnets.reductions import ErmInstance

        net = Network(
            [
                Vertex("s", "source"),
                Vertex("a", "hidden", leaky_relu(Fraction(1, 128))),
                Vertex("b", "hidden", BitBoundedActivation(
                    leaky_relu(Fraction(1, 4)), bits=6, clip=(Fraction(-2), Fraction(2))
                )),
                Vertex("t", "target", IdentityActivation()),
            ],
            [Edge("e1", "s", "a"), Edge("e2", "a", "b"), Edge("e3", "b", "t")],
        )
        theta = Theta({e: (Fraction(1, 3), Fraction(-2)) for e in ("e1", "e2", "e3")})
        inst = ErmInstance(
            net, theta,
            (Sample({"s": Fraction(1, 7)}, Fraction(0)),),
            LossSpec("square", target="t"), (0, 1), {"note": "handmade"},
        )
        assert parse_instance(serialize_instance(inst)) == inst


class TestMoreSchemaErrors:
    def test_duplicate_vertex_id(self):
        doc = instance_to_doc(erm_instance())
        doc["vertices"].append(dict(doc["vertices"][0]))
        with pytest.raises(SchemaError) as err:
            parse_instance(canonical_bytes(doc))
        assert "duplicate vertex" in str(err.value)

    def test_duplicate_edge_id(self):
        doc = instance_to_doc(erm_instance())
        doc["edges"].append(dict(doc["edges"][0]))
        with pytest.raises(SchemaError) as err:
            parse_instance(canonical_bytes(doc))
        assert "duplicate edge" in str(err.value)

    def test_theta_for_unknown_edge(self):
        doc = instance_to_doc(erm_instance())
        doc["theta"]["ghost-edge"] = {"w": "1", "b": "0"}
        with pytest.raises(SchemaError) as err:
            parse_instance(canonical_bytes(doc))
        assert "unknown edges" in str(err.value)

    def test_bad_flag_and_count(self):
        doc = instance_to_doc(erm_instance())
        doc["dataset"][0]["flag"] = 7
        with pytest.raises(SchemaError):
            parse_instance(canonical_bytes(doc))
        doc = instance_to_doc(erm_instance())
        doc["dataset"][0]["count"] = 0
        with pytest.raises(SchemaError):
            parse_instance(canonical_bytes(doc))

    def test_label_wrong_type(self):
        doc = instance_to_doc(erm_instance())
        doc["dataset"][0]["y"] = 5
        with pytest.raises(SchemaError) as err:
            parse_instance(canonical_bytes(doc))
        assert "$.dataset[0].y" in str(err.value)

    def test_pwl_pieces_shape(self):
        doc = instance_to_doc(erm_instance())
        doc["vertices"][1]["activation"] = {
            "kind": "pwl", "breakpoints": ["0"], "pieces": [["1"]],
        }
        with pytest.raises(SchemaError) as err:
            parse_instance(canonical_bytes(doc))
        assert "pieces" in str(err.value)

    def test_bitbounded_clip_shape(self):
        doc = instance_to_doc(erm_instance())
        doc["vertices"][1]["activation"] = {
            "kind": "bitbounded", "base": {"kind": "identity"}, "bits": 2,
            "clip": ["1"],
        }
        with pytest.raises(SchemaError) as err:
            parse_instance(canonical_bytes(doc))
        assert "clip" in str(err.value)

    def test_unknown_activation_kind(self):
        doc = instance_to_doc(erm_instance())
        doc["vertices"][1]["activation"] = {"kind": "sigmoid"}
        with pytest.raises(SchemaError) as err:
            parse_instance(canonical_bytes(doc))
        assert "sigmoid" in str(err.value)

    def test_source_with_activation(self):
        doc = instance_to_doc(erm_instance())
        for v in doc["vertices"]:
            if v["role"] == "source":
                v["activation"] = {"kind": "identity"}
        with pytest.raises(SchemaError) as err:
            parse_instance(canonical_bytes(doc))
        assert "source" in str(err.value)

    def test_backprop_requires_known_edge_star(self):
        inst = compile_backprop(squaring_chain(2), SQUARE, "bit", bit_index=1)
        doc = instance_to_doc(inst)
        doc["edge_star"] = "nowhere"
        with pytest.raises(SchemaError) as err:
            parse_instance(canonical_bytes(doc))
        assert "edge_star" in str(err.value)


class TestMainLabelShape:
    """A main (flag 1) sample's label must fit the loss kind."""

    def doc_with_main_label(self, loss, y):
        inst = compile_hinge_posslp(parse_slp("const 1\nadd 0 0\n"), SQUARE)
        doc = instance_to_doc(inst)
        doc["loss"] = loss
        i = next(i for i, s in enumerate(doc["dataset"]) if s["flag"] == 1)
        doc["dataset"][i]["y"] = y
        return doc, f"$.dataset[{i}].y"

    CASES = [
        ({"kind": "vector-equality"}, "0"),
        ({"kind": "square", "target": "v3"}, {}),
        ({"kind": "hinge", "target": "v3"}, {"v3": "1"}),
    ]

    @pytest.mark.parametrize("loss, y", CASES)
    def test_parse_rejects_with_path(self, loss, y):
        doc, path = self.doc_with_main_label(loss, y)
        with pytest.raises(SchemaError) as err:
            parse_instance(canonical_bytes(doc))
        assert err.value.path == path

    @pytest.mark.parametrize("loss, y", CASES)
    def test_cli_message_is_located(self, loss, y, tmp_path, capsys):
        from bitnets.cli import main

        doc, path = self.doc_with_main_label(loss, y)
        inst_path, theta_path = tmp_path / "inst.json", tmp_path / "theta.json"
        inst_path.write_bytes(canonical_bytes(doc))
        theta_path.write_text(json.dumps({}))
        assert main(["verify", "erm", str(inst_path), "--theta", str(theta_path),
                     "--gamma", "0", "--enc-bound", "1", "1"]) == 2
        assert path in capsys.readouterr().err

    def test_fitting_labels_still_parse(self):
        doc, _ = self.doc_with_main_label({"kind": "vector-equality"}, {"v3": "1"})
        parse_instance(canonical_bytes(doc))
        doc, _ = self.doc_with_main_label({"kind": "square", "target": "v3"}, "1")
        parse_instance(canonical_bytes(doc))
