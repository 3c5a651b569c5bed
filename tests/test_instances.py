"""Canonical instance files: round trips, canonical form, schema errors."""

import contextlib
import copy
import dataclasses
import io
import json
from collections.abc import Mapping
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from bitnets.instances import (
    SchemaError,
    canonical_bytes,
    instance_size,
    instance_to_doc,
    parse_instance,
    parse_theta,
    serialize_instance,
    serialize_theta,
    theta_size,
)
from bitnets.network import (
    Edge,
    IdentityActivation,
    LossSpec,
    Network,
    NetworkError,
    PolyActivation,
    Sample,
    Theta,
    Vertex,
    forward,
)
from bitnets.product_identity import monomial
from bitnets.pwl import leaky_relu, relu
from bitnets.reductions import (
    BackpropInstance,
    ErmInstance,
    compile_backprop,
    compile_erm,
    compile_hinge_posslp,
)
from bitnets.slp import Gate, Slp, parse_slp

from test_rationals import near_powers_of_ten
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



def sized_instances():
    """Compiled ERM, hinge and backprop instances, a parsed copy, and two
    built by hand, one of them with a non-ASCII, nested provenance."""
    erm = erm_instance()
    s, t = Vertex("s", "source"), Vertex("t", "target", IdentityActivation())
    net = Network([s, t], [Edge("s->t", "s", "t")])
    theta = Theta({"s->t": (Fraction(2, 3), Fraction(-1))})
    sample = Sample({"s": Fraction(3)}, Fraction(1))
    return [
        erm,
        compile_hinge_posslp(parse_slp("const 1\nmul 0 0\n"), SQUARE, copies=2),
        compile_backprop(squaring_chain(2), SQUARE, "bit", bit_index=2),
        compile_backprop(squaring_chain(2), SQUARE, "sign", promise=1),
        parse_instance(serialize_instance(erm)),
        ErmInstance(net, theta, (sample,), LossSpec("square", target="t"), (0, 1), {}),
        BackpropInstance(net, theta, (sample,), LossSpec("square", target="t"), "bit", "s->t",
                         None, 0, {"note": "é \"q\"", "n": [1, {"b": None, "a": 2.5}]}),
    ]


class TestInstanceSize:
    """|I| is counted once per instance object, the provenance on every call."""

    @pytest.mark.parametrize("k", range(7))
    def test_equals_the_serialized_length_after_provenance_changes(self, k):
        inst = sized_instances()[k]
        assert instance_size(inst) == len(serialize_instance(inst))
        inst.provenance["added"] = {"z": "ü", "a": [1, 2, "\u2028"]}
        assert instance_size(inst) == len(serialize_instance(inst))
        inst.provenance.clear()
        assert instance_size(inst) == len(serialize_instance(inst))
        inst.provenance["x"] = "\x00\\"
        assert instance_size(inst) == len(serialize_instance(inst))
        copy = dataclasses.replace(inst, provenance={"k": 12345})
        assert instance_size(copy) == len(serialize_instance(copy))

    def test_second_call_builds_no_document(self, monkeypatch):
        import bitnets.instances

        inst = erm_instance()
        expected = len(serialize_instance(inst))
        built = []
        to_doc = bitnets.instances.instance_to_doc
        monkeypatch.setattr(bitnets.instances, "instance_to_doc",
                            lambda i: built.append(i) or to_doc(i))
        assert instance_size(inst) == expected and len(built) == 1
        inst.provenance["seen"] = True
        assert instance_size(inst) == expected + len(',"seen":true') and len(built) == 1

    def test_other_objects_are_counted_whole(self):
        inst = erm_instance()
        view = SimpleNamespace(**{f.name: getattr(inst, f.name) for f in dataclasses.fields(inst)})
        assert instance_size(view) == len(serialize_instance(inst))
        view.gap = (0, 10)
        assert instance_size(view) == len(serialize_instance(inst)) + 1


class FreshReads(Mapping):
    """A sparse vector whose every read returns a new ``Fraction`` object."""

    def __init__(self, vector):
        self._data = dict(vector)

    def __getitem__(self, vid):
        q = self._data[vid]
        return Fraction(q.numerator, q.denominator)

    def __iter__(self):
        return iter(self._data)

    def __len__(self):
        return len(self._data)


def with_fresh_reads(inst):
    """``inst`` with every sample vector read through ``FreshReads``."""
    return dataclasses.replace(inst, dataset=tuple(
        dataclasses.replace(s, x=FreshReads(s.x), label=(
            FreshReads(s.label) if isinstance(s.label, Mapping) else s.label
        ))
        for s in inst.dataset
    ))


class TestWriterTable:
    """The writer renders each value object once per call; an object it has
    rendered stays alive, so its id is not taken by a later temporary value."""

    def test_temporary_values_are_rendered_by_value(self):
        inst = erm_instance()
        fresh = with_fresh_reads(inst)
        assert len({str(q) for s in inst.dataset for q in s.x.values()}) > 2
        assert serialize_instance(fresh) == serialize_instance(inst)
        assert instance_size(fresh) == instance_size(inst)


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


@st.composite
def compiled_instances(draw):
    n = draw(st.integers(1, 4))
    gates = tuple(
        Gate(draw(st.sampled_from(("add", "sub", "mul"))), draw(st.integers(0, i - 1)),
             draw(st.integers(0, i - 1)))
        for i in range(1, n + 1)
    )
    program = Slp(Fraction(1), gates)
    sigma = monomial(draw(st.sampled_from((2, 3))))
    if draw(st.booleans()):
        return compile_hinge_posslp(program, sigma, copies=draw(st.integers(1, 3)))
    return compile_erm(program, sigma, draw(st.integers(0, 4)), (0, draw(st.integers(1, 3))))


edge_ids = st.one_of(
    st.text(min_size=1, max_size=8),
    st.sampled_from(['e"1', "e\\2", "é→ü", "\u0007", "\\\"", "辺"]),
)
theta_entries = st.one_of(
    st.integers(-(10**6), 10**6).map(Fraction),
    st.fractions(max_denominator=1000),
    near_powers_of_ten(40).map(Fraction),
    st.builds(lambda n, d: Fraction(-n, d), near_powers_of_ten(40), st.integers(2, 10**30)),
)
long_entries = st.integers(4301, 6000).map(lambda k: Fraction(10**k + 3, 7))
thetas = st.dictionaries(
    edge_ids, st.tuples(theta_entries, st.one_of(theta_entries, long_entries)), max_size=6
).map(Theta)


class TestCodecProperties:
    @settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(compiled_instances())
    def test_instance_round_trip(self, inst):
        data = serialize_instance(inst)
        again = parse_instance(data)
        assert again == inst
        assert serialize_instance(again) == data

    @settings(deadline=None)
    @given(thetas)
    def test_theta_round_trip(self, theta):
        data = serialize_theta(theta)
        assert parse_theta(data) == theta
        assert serialize_theta(parse_theta(data)) == data

    @settings(deadline=None)
    @given(thetas)
    def test_theta_size_is_byte_length(self, theta):
        assert theta_size(theta) == len(serialize_theta(theta))

    def test_witness_length_is_byte_length(self):
        from bitnets.pwl import verify_witness

        inst = erm_instance()
        theta = Theta({
            eid: (w * (10**5000 + 1), b - Fraction(1, 10**9))
            for eid, (w, b) in inst.theta_star.params.items()
        })
        verdict = verify_witness(inst, theta, Fraction(0), enc_bound=(1, 1))
        assert verdict.encoding_length == len(serialize_theta(theta))


class TestSharedLiterals:
    """One parse call turns equal literal texts into one object."""

    def test_one_object_per_distinct_literal(self):
        inst = parse_instance(serialize_instance(erm_instance()))
        by_text: dict[str, Fraction] = {}
        entries = 0
        for sample in inst.dataset:
            for vector in (sample.x, sample.label):
                for value in vector.values():
                    by_text.setdefault(str(value), value)
                    assert value is by_text[str(value)]
                    entries += 1
        assert entries > 10 * len(by_text)
        for w, b in inst.theta_star.params.values():
            for value in (w, b):
                if str(value) in by_text:
                    assert value is by_text[str(value)]

    def test_first_invalid_literal_reported_at_first_position(self):
        doc = instance_to_doc(erm_instance())
        doc["dataset"][2]["x"] = {vid: "6/4" for vid in doc["dataset"][2]["x"]}
        doc["dataset"][3]["y"] = {vid: "6/4" for vid in doc["dataset"][3]["y"]}
        with pytest.raises(SchemaError) as err:
            parse_instance(canonical_bytes(doc))
        assert err.value.path == f"$.dataset[2].x.{min(doc['dataset'][2]['x'])}"
        assert "not reduced" in str(err.value)


class TestGraphFaults:
    """``Network``'s own checks, reported at the offending field."""

    def faulty(self, mutate):
        doc = instance_to_doc(erm_instance())
        mutate(doc)
        with pytest.raises(SchemaError) as err:
            parse_instance(canonical_bytes(doc))
        return err.value

    @staticmethod
    def into_source(doc):
        source = next(v["id"] for v in doc["vertices"] if v["role"] == "source")
        doc["edges"][2]["v"] = source

    @staticmethod
    def cycle(doc):
        last = doc["edges"][-1]
        doc["edges"].append({"id": "zz-back", "u": last["v"], "v": last["u"]})
        doc["theta"]["zz-back"] = {"w": "1", "b": "0"}

    def test_edge_into_source(self):
        err = self.faulty(self.into_source)
        assert err.path == "$.edges[2].v" and "points into source" in str(err)

    def test_cycle(self):
        err = self.faulty(self.cycle)
        assert err.path == "$.edges" and "cycle" in str(err)

    def test_dangling_tail(self):
        err = self.faulty(lambda doc: doc["edges"][1].update(u="nowhere"))
        assert err.path == "$.edges[1].u" and "nowhere" in str(err)

    def test_duplicates_named_at_second_occurrence(self):
        def dup_vertex(doc):
            doc["vertices"].insert(1, dict(doc["vertices"][4]))

        def dup_edge(doc):
            doc["edges"].insert(3, dict(doc["edges"][0]))

        assert self.faulty(dup_vertex).path == "$.vertices[5].id"
        assert self.faulty(dup_edge).path == "$.edges[3].id"

    @pytest.mark.parametrize("fault, path", [("into_source", "$.edges[2].v"),
                                             ("cycle", "$.edges")])
    def test_cli_exits_2_with_path(self, fault, path, tmp_path, capsys):
        from bitnets.cli import main

        doc = instance_to_doc(erm_instance())
        getattr(self, fault)(doc)
        inst_path, theta_path = tmp_path / "inst.json", tmp_path / "theta.json"
        inst_path.write_bytes(canonical_bytes(doc))
        theta_path.write_bytes(serialize_theta(erm_instance().theta_star))
        assert main(["verify", "erm", str(inst_path), "--theta", str(theta_path),
                     "--gamma", "0"]) == 2
        assert f"error: {path}: " in capsys.readouterr().err


# ---------------------------------------------------------------------------
# faults found by the library's own types, located by the parser


SMALL_PROGRAM = parse_slp("const 1\nmul 0 0\n")
BASE_INSTANCES = (
    compile_erm(SMALL_PROGRAM, SQUARE, j=2, gap=(0, 1)),
    compile_hinge_posslp(SMALL_PROGRAM, SQUARE, copies=2),
)
BASE_DOCS = tuple(map(instance_to_doc, BASE_INSTANCES))


def run_on_file(tmp_path, doc, command, *options):
    """``bitnets <command> <file holding doc> <options>``: (exit code, stderr)."""
    from bitnets.cli import main

    inst_path = tmp_path / "inst.json"
    inst_path.write_bytes(canonical_bytes(doc))
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main([*command.split(), str(inst_path), *options])
    return code, err.getvalue()


def verify_erm(tmp_path, doc, theta):
    """``bitnets verify erm`` on ``doc`` with witness ``theta``: (exit code, stderr)."""
    theta_path = tmp_path / "theta.json"
    theta_path.write_bytes(canonical_bytes(theta))
    return run_on_file(tmp_path, doc, "verify erm", "--theta", str(theta_path), "--gamma", "0")


def vertex_index(doc, role):
    return next(i for i, v in enumerate(doc["vertices"]) if v["role"] == role)


def set_role(old, new):
    def mutate(doc):
        doc["vertices"][vertex_index(doc, old)]["role"] = new
    return mutate


def set_activation(act):
    def mutate(doc):
        doc["vertices"][vertex_index(doc, "hidden")]["activation"] = act
    return mutate


def set_loss(**fields):
    return lambda doc: doc["loss"].update(fields)


def hidden_activation_path(doc):
    return f"$.vertices[{vertex_index(doc, 'hidden')}].activation"


ONE_PIECE = [["1", "0"]]

BIT_INSTANCE = compile_backprop(SMALL_PROGRAM, SQUARE, "bit", bit_index=0)
BIT_DOC = instance_to_doc(BIT_INSTANCE)


def backprop_with(**fields):
    """Swap the doc for a backprop bit-variant doc with ``fields`` set."""
    def mutate(doc):
        doc.clear()
        doc.update(copy.deepcopy(BIT_DOC), **fields)
    return mutate


class TestLocatedLibraryFaults:
    """Each fault is found by the library type that owns the rule; the
    parser only names where it is."""

    FAULTS = [
        ("bogus loss kind", set_loss(kind="bogus"), "$.loss", "unknown loss kind"),
        ("bit01 without j", lambda doc: doc["loss"].pop("j"), "$.loss", "needs a bit index"),
        ("j as text", set_loss(j="3"), "$.loss", "bit index must be an integer"),
        ("j as float", set_loss(j=1.5), "$.loss", "bit index must be an integer"),
        ("j as bool", set_loss(j=True), "$.loss", "bit index must be an integer"),
        ("source as loss target", set_loss(target="v0"), "$.loss.target", "is not the target"),
        ("no target", set_role("target", "hidden"), "$.vertices", "expected one target"),
        ("two targets", set_role("hidden", "target"), "$.vertices", "expected one target"),
        ("breakpoints not increasing",
         set_activation({"kind": "pwl", "breakpoints": ["1", "0"],
                         "pieces": ONE_PIECE * 3}),
         hidden_activation_path, "strictly increasing"),
        ("bad kink slope",
         set_activation({"kind": "pwl", "breakpoints": ["0"], "pieces": ONE_PIECE * 2,
                         "kink_slope": "middle"}),
         hidden_activation_path, "kink_slope"),
        ("zero bits",
         set_activation({"kind": "bitbounded", "base": {"kind": "identity"}, "bits": 0}),
         hidden_activation_path, "bits >= 1"),
        ("bits above the budget",
         set_activation({"kind": "bitbounded", "base": {"kind": "identity"}, "bits": 1 << 40}),
         hidden_activation_path, "bits <= 1048576"),
        ("pieces for breakpoints",
         set_activation({"kind": "pwl", "breakpoints": ["0"], "pieces": ONE_PIECE}),
         hidden_activation_path, "need 2 pieces"),
        ("unknown role", set_role("hidden", "widget"),
         lambda doc: f"$.vertices[{vertex_index(doc, 'widget')}].role", "unknown role"),
        ("missing activation", set_activation(None), hidden_activation_path,
         "missing activation"),
        ("theta for unknown edge",
         lambda doc: doc["theta"].update(ghost={"w": "1", "b": "0"}),
         "$.theta", "parameters for unknown edges ['ghost']"),
        ("theta missing an edge", lambda doc: doc["theta"].pop(min(doc["theta"])),
         "$.theta", "missing parameters for edges ['L1_1_0->U1_1_0']"),
        ("unknown edge_star", backprop_with(edge_star="ghost"), "$.edge_star",
         "unknown edge 'ghost'"),
        ("unknown variant", backprop_with(variant="parity"), "$.variant", "unknown variant"),
        ("bit_index as text", backprop_with(bit_index="two"), "$.bit_index",
         "needs an integer bit index"),
        ("bit_index as bool", backprop_with(bit_index=True), "$.bit_index",
         "needs an integer bit index"),
        ("promise as a list", backprop_with(variant="sign", promise=[1], bit_index=None),
         "$.promise", "needs an integer promise >= 1"),
        ("sign without a promise", backprop_with(variant="sign"), "$.promise",
         "needs an integer promise >= 1"),
        ("sign with a bit_index", backprop_with(variant="sign", promise=1), "$.bit_index",
         "takes no bit index"),
        ("bit with a promise", backprop_with(promise=1), "$.promise", "takes no promise"),
        ("gap reversed", lambda doc: doc.update(gap=[1, 0]), "$.gap",
         "need naturals a < b, got [1, 0]"),
        ("gap of three", lambda doc: doc.update(gap=[0, 1, 2]), "$.gap",
         "expected [a, b] with integer thresholds"),
        ("gap of bools", lambda doc: doc.update(gap=[False, True]), "$.gap",
         "expected [a, b] with integer thresholds"),
        ("flag 2", lambda doc: doc["dataset"][0].update(flag=2), "$.dataset[0].flag",
         "flag must be 0 or 1, got 2"),
        ("count 0", lambda doc: doc["dataset"][0].update(count=0), "$.dataset[0].count",
         "count must be >= 1, got 0"),
        ("scalar auxiliary label", lambda doc: doc["dataset"][0].update(y="0"),
         "$.dataset[0].y", "equality-checked sample needs a vector label"),
        ("input at an unknown vertex", lambda doc: doc["dataset"][0]["x"].update(ghost="1"),
         "$.dataset[0].x.ghost", "unknown vertex 'ghost'"),
        ("label at an unknown vertex", lambda doc: doc["dataset"][0]["y"].update(ghost="1"),
         "$.dataset[0].y.ghost", "unknown vertex 'ghost'"),
    ]

    def faulty(self, mutate, path):
        doc = copy.deepcopy(BASE_DOCS[0])
        mutate(doc)
        return doc, path(doc) if callable(path) else path

    @pytest.mark.parametrize("name, mutate, path, message", FAULTS, ids=[f[0] for f in FAULTS])
    def test_parse_names_the_path(self, name, mutate, path, message):
        doc, path = self.faulty(mutate, path)
        with pytest.raises(SchemaError) as err:
            parse_instance(canonical_bytes(doc))
        assert err.value.path == path
        assert message in str(err.value)

    @pytest.mark.parametrize("name, mutate, path, message", FAULTS, ids=[f[0] for f in FAULTS])
    def test_verify_erm_exits_2_with_the_path(self, name, mutate, path, message, tmp_path):
        doc, path = self.faulty(mutate, path)
        code, err = verify_erm(tmp_path, doc, BASE_DOCS[0]["theta"])
        assert code == 2
        assert err.startswith(f"error: {path}: ")

    @pytest.mark.parametrize("name, mutate, path, message", FAULTS, ids=[f[0] for f in FAULTS])
    def test_net_grad_exits_2_with_the_path(self, name, mutate, path, message, tmp_path):
        doc, path = self.faulty(mutate, path)
        code, err = run_on_file(tmp_path, doc, "net grad")
        assert code == 2
        assert err.startswith(f"error: {path}: ") and "Traceback" not in err


def relabelled(net, old, new):
    """``net`` with its first ``old`` vertex in id order given role ``new``."""
    vertices = list(net.vertices)
    i = next(i for i, v in enumerate(vertices) if v.role == old)
    vertices[i] = Vertex(vertices[i].id, new, vertices[i].activation)
    return Network(vertices, net.edges)


def with_params(theta, change):
    params = dict(theta.params)
    change(params)
    return Theta(params)


def with_first_sample(inst, **fields):
    return dataclasses.replace(
        inst, dataset=(dataclasses.replace(inst.dataset[0], **fields), *inst.dataset[1:])
    )


ERM, BIT = BASE_INSTANCES[0], BIT_INSTANCE
FIRST = ERM.dataset[0]


class TestLibraryOwnsTheRules:
    """The twin of ``TestLocatedLibraryFaults``: each fault whose rule a
    ``Sample``, ``ErmInstance`` or ``BackpropInstance`` owns, built directly,
    raises ``NetworkError`` at the parser's path less ``$.``.  A ``Sample``
    does not know its place in the dataset, so the parser adds that part."""

    TWINS = {
        "source as loss target":
            lambda: dataclasses.replace(ERM, loss=LossSpec("bit01", target="v0", bit_index=2)),
        "no target":
            lambda: dataclasses.replace(ERM, network=relabelled(ERM.network, "target", "hidden")),
        "two targets":
            lambda: dataclasses.replace(ERM, network=relabelled(ERM.network, "hidden", "target")),
        "theta for unknown edge": lambda: dataclasses.replace(ERM, theta_star=with_params(
            ERM.theta_star, lambda p: p.update(ghost=(Fraction(1), Fraction(0))))),
        "theta missing an edge": lambda: dataclasses.replace(ERM, theta_star=with_params(
            ERM.theta_star, lambda p: p.pop(min(p)))),
        "unknown edge_star": lambda: dataclasses.replace(BIT, edge_star="ghost"),
        "unknown variant": lambda: dataclasses.replace(BIT, variant="parity"),
        "bit_index as text": lambda: dataclasses.replace(BIT, bit_index="two"),
        "bit_index as bool": lambda: dataclasses.replace(BIT, bit_index=True),
        "promise as a list":
            lambda: dataclasses.replace(BIT, variant="sign", promise=[1], bit_index=None),
        "sign without a promise": lambda: dataclasses.replace(BIT, variant="sign"),
        "sign with a bit_index": lambda: dataclasses.replace(BIT, variant="sign", promise=1),
        "bit with a promise": lambda: dataclasses.replace(BIT, promise=1),
        "gap reversed": lambda: dataclasses.replace(ERM, gap=(1, 0)),
        "gap of three": lambda: dataclasses.replace(ERM, gap=(0, 1, 2)),
        "gap of bools": lambda: dataclasses.replace(ERM, gap=(False, True)),
        "flag 2": lambda: dataclasses.replace(FIRST, flag=2),
        "count 0": lambda: dataclasses.replace(FIRST, count=0),
        "scalar auxiliary label": lambda: with_first_sample(ERM, label=Fraction(0)),
        "input at an unknown vertex":
            lambda: with_first_sample(ERM, x={**FIRST.x, "ghost": Fraction(1)}),
        "label at an unknown vertex":
            lambda: with_first_sample(ERM, label={**FIRST.label, "ghost": Fraction(1)}),
    }
    MAIN = next(i for i, s in enumerate(ERM.dataset) if s.flag == 1)
    # the Sample refuses these at its own field, which the parser places
    PLACED_BY_THE_PARSER = {
        "flag 2": "dataset[0].", "count 0": "dataset[0].", "input as float": "dataset[0].",
        "vector label as float": "dataset[0].", "scalar label as float": f"dataset[{MAIN}]."}

    @pytest.mark.parametrize("name", TWINS)
    def test_where_is_the_parser_path(self, name):
        _, _, path, message = next(f for f in TestLocatedLibraryFaults.FAULTS if f[0] == name)
        with pytest.raises(NetworkError) as err:
            self.TWINS[name]()
        assert "$." + self.PLACED_BY_THE_PARSER.get(name, "") + err.value.where == path
        assert message in str(err.value)

    EDGE = min(ERM.theta_star.params)
    VALUE_FAULTS = {
        # name: (the instance built with the value, the value in its file)
        "weight as float": (
            lambda e=EDGE: dataclasses.replace(ERM, theta_star=with_params(
                ERM.theta_star, lambda p: p.update({e: (0.5, p[e][1])}))),
            lambda doc, e=EDGE: doc["theta"][e].update(w=0.5)),
        "bias as bool": (
            lambda e=EDGE: dataclasses.replace(ERM, theta_star=with_params(
                ERM.theta_star, lambda p: p.update({e: (p[e][0], True)}))),
            lambda doc, e=EDGE: doc["theta"][e].update(b=True)),
        "input as float": (
            lambda: with_first_sample(ERM, x={**FIRST.x, min(FIRST.x): 0.5}),
            lambda doc: doc["dataset"][0]["x"].update({min(FIRST.x): 0.5})),
        "vector label as float": (
            lambda: with_first_sample(ERM, label={**FIRST.label, min(FIRST.x): 0.5}),
            lambda doc: doc["dataset"][0]["y"].update({min(FIRST.x): 0.5})),
        "scalar label as float": (
            lambda i=MAIN: dataclasses.replace(ERM, dataset=tuple(
                dataclasses.replace(s, label=0.5) if k == i else s
                for k, s in enumerate(ERM.dataset))),
            lambda doc, i=MAIN: doc["dataset"][i].update(y=0.5)),
    }

    @pytest.mark.parametrize("name", VALUE_FAULTS)
    def test_a_value_the_writer_cannot_write_is_refused(self, name):
        # each used to build, and serialize_instance then died with an AttributeError
        build, mutate = self.VALUE_FAULTS[name]
        got = "bool" if "bool" in name else "float"
        message = f"^expected an int or a Fraction, got {got}$"
        with pytest.raises(NetworkError, match=message) as err:
            build()
        doc = copy.deepcopy(BASE_DOCS[0])
        mutate(doc)
        with pytest.raises(SchemaError) as parsed:
            parse_instance(canonical_bytes(doc))
        assert "$." + self.PLACED_BY_THE_PARSER.get(name, "") + err.value.where == (
            parsed.value.path)

    @pytest.mark.parametrize("inst", [ERM, BIT], ids=["erm", "backprop"])
    def test_a_provenance_the_writer_cannot_write_is_refused(self, inst):
        # it used to build, and serialize_instance then died with a TypeError
        with pytest.raises(NetworkError, match="^provenance is not JSON-serialisable") as err:
            dataclasses.replace(inst, provenance={"k": Fraction(1, 2)})
        assert err.value.where == "provenance"

    def test_an_input_that_is_not_a_vector_is_refused(self):
        # it used to build, and serialize_instance then died with an AttributeError
        with pytest.raises(NetworkError, match="^x must map vertex ids to values, got Fraction$") \
                as err:
            with_first_sample(ERM, x=Fraction(1))
        doc = copy.deepcopy(BASE_DOCS[0])
        doc["dataset"][0]["x"] = "1"
        with pytest.raises(SchemaError) as parsed:
            parse_instance(canonical_bytes(doc))
        assert "$.dataset[0]." + err.value.where == parsed.value.path

    @pytest.mark.parametrize("entry", [(Fraction(1),), Fraction(1), [Fraction(1), Fraction(0)]],
                             ids=["one value", "a rational", "a list"])
    def test_a_theta_entry_that_is_not_a_pair_is_refused(self, entry):
        # ErmInstance and forward used to raise a bare ValueError or TypeError on the
        # first two; the list built, and its file parsed back to a Theta unequal to it
        e = self.EDGE
        theta = with_params(ERM.theta_star, lambda p: p.update({e: entry}))
        message = f"^parameters of edge '{e}' must be a \\(weight, bias\\) pair$"
        for build in (lambda: dataclasses.replace(ERM, theta_star=theta),
                      lambda: forward(ERM.network, theta, FIRST.x)):
            with pytest.raises(NetworkError, match=message) as err:
                build()
            assert err.value.where == f"theta.{e}"
        doc = copy.deepcopy(BASE_DOCS[0])
        doc["theta"][e] = "1"
        with pytest.raises(SchemaError) as parsed:
            parse_instance(canonical_bytes(doc))
        assert "$." + err.value.where == parsed.value.path

    def test_int_values_build_and_round_trip(self):
        ints = dataclasses.replace(ERM, theta_star=Theta(
            {e: (int(w), int(b)) if w.denominator == b.denominator == 1 else (w, b)
             for e, (w, b) in ERM.theta_star.params.items()}))
        assert any(type(w) is int for w, _ in ints.theta_star.params.values())
        assert parse_instance(serialize_instance(ints)) == ERM


class TestBuiltInstancesAreWellFormed:
    """Objects the parser would refuse cannot be built in the first place."""

    def test_negative_count_has_no_loss(self):
        # it used to make loss_total return -45/2
        with pytest.raises(NetworkError, match="^count must be >= 1, got -5$") as err:
            Sample({"v0": Fraction(1)}, Fraction(0), flag=1, count=-5)
        assert err.value.where == "count"

    def test_reversed_gap_is_not_decided(self):
        # decide_at_theta_star used to answer True on it
        with pytest.raises(NetworkError, match=r"^need naturals a < b, got \[5, 2\]$") as err:
            dataclasses.replace(ERM, gap=(5, 2))
        assert err.value.where == "gap"

    def test_loss_on_a_source_is_refused_before_it_is_written(self):
        # it used to build, and only its file was refused
        with pytest.raises(NetworkError, match="^'v0' is not the target 'v1'$") as err:
            dataclasses.replace(ERM, loss=LossSpec("bit01", target="v0", bit_index=2))
        assert err.value.where == "loss.target"


HAND_ACTIVATIONS = [IdentityActivation(), PolyActivation(monomial(2)), relu(),
                    leaky_relu(Fraction(1, 4))]
BUILD_FAULTS = ["targets", "loss target", "theta", "flag", "count", "label", "vertex", "gap"]
small_rationals = st.fractions(min_value=-4, max_value=4, max_denominator=8)


@st.composite
def hand_built_erm(draw):
    """The fields of a small ERM instance, put together by hand, and the
    rule they break (one of ``BUILD_FAULTS``), or None when they break none."""
    fault = draw(st.sampled_from([None] * len(BUILD_FAULTS) + BUILD_FAULTS))
    roles = (["source"] * draw(st.integers(1, 2)) + ["hidden"] * draw(st.integers(0, 2))
             + ["target"] * (draw(st.sampled_from([0, 2])) if fault == "targets" else 1))
    ids = [f"{role[0]}{i}" for i, role in enumerate(roles)]
    vertices = [Vertex(vid, role, None if role == "source"
                       else draw(st.sampled_from(HAND_ACTIVATIONS)))
                for vid, role in zip(ids, roles)]
    edges = [Edge(f"{ids[u]}->{ids[v]}", ids[u], ids[v])
             for v in range(len(ids)) if roles[v] != "source"
             for u in range(v) if draw(st.booleans())]
    params = {e.id: (draw(small_rationals), draw(small_rationals)) for e in edges}
    if fault == "theta":
        if edges and draw(st.booleans()):
            del params[edges[0].id]
        else:
            params["ghost"] = (Fraction(1), Fraction(0))
    kind = draw(st.sampled_from(["square", "hinge", "bit01", "vector-equality"]))
    target = "s0" if fault == "loss target" else ids[-1]
    if kind == "vector-equality" and fault != "loss target" and draw(st.booleans()):
        target = None
    loss = (kind, target, draw(st.integers(-3, 3)) if kind == "bit01" else None)

    vector = st.dictionaries(st.sampled_from(ids), small_rationals, max_size=3)
    samples = []
    n = draw(st.integers(1, 3))
    at = draw(st.integers(0, n - 1))  # the sample a sample fault is in
    for i in range(n):
        flag = draw(st.sampled_from([0, 1]))
        count = draw(st.integers(1, 3))
        if i == at and fault == "flag":
            flag = draw(st.sampled_from([2, -1, True]))
        if i == at and fault == "count":
            count = draw(st.sampled_from([0, -5, True]))
        x = draw(vector)
        label = draw(vector if flag == 0 or kind == "vector-equality" else small_rationals)
        if i == at and fault == "label":
            flag, label = 0, draw(small_rationals)
        if i == at and fault == "vertex":
            x = {**x, "ghost": Fraction(1)}
        samples.append((x, label, flag, count, draw(st.sampled_from(["", "n"]))))
    a = draw(st.integers(0, 3))
    gap = (a, a + draw(st.integers(1, 3)))
    if fault == "gap":
        gap = draw(st.sampled_from([(2, 2), (3, 1), (-1, 1), (0, 1, 2), (False, True), [0, 1]]))
    provenance = draw(st.sampled_from([{}, {"by": "hand", "sizes": [1, 2]}]))
    return fault, (vertices, edges, params, samples, loss, gap, provenance)


def build_erm(vertices, edges, params, samples, loss, gap, provenance):
    dataset = tuple(Sample(*fields) for fields in samples)
    return ErmInstance(Network(vertices, edges), Theta(params), dataset, LossSpec(*loss), gap,
                       provenance)


@settings(max_examples=300, deadline=None)
@given(hand_built_erm())
def test_a_hand_built_erm_instance_builds_iff_it_round_trips(case):
    """Fields that break a rule do not build; all others build an instance
    the file format carries unchanged."""
    fault, fields = case
    if fault is not None:
        with pytest.raises(NetworkError):
            build_erm(*fields)
    else:
        inst = build_erm(*fields)
        assert parse_instance(serialize_instance(inst)) == inst


def literal_slots(doc):
    """(name, container, key, path) of one literal in x, y, theta and an
    activation coefficient."""
    i = next(i for i, s in enumerate(doc["dataset"]) if s["y"])
    sample = doc["dataset"][i]
    xv, yv, eid = min(sample["x"]), min(sample["y"]), min(doc["theta"])
    k = next(k for k, v in enumerate(doc["vertices"]) if (v["activation"] or {}).get("coeffs"))
    return [
        ("x", sample["x"], xv, f"$.dataset[{i}].x.{xv}"),
        ("y", sample["y"], yv, f"$.dataset[{i}].y.{yv}"),
        ("theta", doc["theta"][eid], "w", f"$.theta.{eid}.w"),
        ("coefficient", doc["vertices"][k]["activation"]["coeffs"], 0,
         f"$.vertices[{k}].activation.coeffs[0]"),
    ]


class TestCanonicalLiterals:
    """A file holds only ``format_rational`` texts, so |I| is its length;
    ``parse_rational`` stays lenient for text typed on the command line."""

    FORMS = ["01", "-0", "0/1", "1/1", " 1", "1\n", "\N{MINUS SIGN}1"]

    @pytest.mark.parametrize("slot", range(4), ids=["x", "y", "theta", "coefficient"])
    @pytest.mark.parametrize("form", FORMS)
    def test_noncanonical_literal_exits_2_with_its_path(self, form, slot, tmp_path):
        doc = copy.deepcopy(BASE_DOCS[0])
        _, container, key, path = literal_slots(doc)[slot]
        container[key] = form
        with pytest.raises(SchemaError) as err:
            parse_instance(canonical_bytes(doc))
        assert err.value.path == path
        assert "not canonical" in str(err.value)
        code, stderr = verify_erm(tmp_path, doc, BASE_DOCS[0]["theta"])
        assert code == 2 and stderr.startswith(f"error: {path}: ")

    def test_theta_file_literal(self):
        with pytest.raises(SchemaError) as err:
            parse_theta(canonical_bytes({"e": {"w": "1/1", "b": "0"}}))
        assert err.value.path == "theta.e.w"


def json_slots(node, out):
    """Every (container, key) pair of a JSON document, depth first."""
    for key, value in node.items() if isinstance(node, dict) else enumerate(node):
        out.append((node, key))
        if isinstance(value, (dict, list)):
            json_slots(value, out)
    return out


OTHER_VALUES = [None, True, 0, 7, -1, 1.5, "", "x", "1/2", [], {}, ["1"], {"a": "1"}]
BAD_LITERALS = ["2/4", "1/0", "0/1", "-0", "01", "1.5", " 1", "1/-2", "abc", "", "+1"]


@st.composite
def mutated_docs(draw):
    """A compiled instance document with one field changed (a key deleted, a
    value of another type, an unknown id, a role, the loss or a literal),
    and the parameters of the unchanged document as a witness."""
    base = draw(st.sampled_from(BASE_DOCS))
    doc = copy.deepcopy(base)
    op = draw(st.sampled_from(["delete", "retype", "ghost", "ghost-key", "role", "loss",
                               "literal"]))
    if op == "role":
        vertex = draw(st.sampled_from(doc["vertices"]))
        vertex["role"] = draw(st.sampled_from(["source", "hidden", "target", "widget"]))
    elif op == "loss":
        loss = {"kind": draw(st.sampled_from(["square", "hinge", "bit01", "vector-equality",
                                              "bogus"]))}
        for key, options in (("target", ["v0", "v1", "v3", "ghost", 5, None]),
                             ("j", [0, 3, -1, "3", 1.5, True, None])):
            if draw(st.booleans()):
                loss[key] = draw(st.sampled_from(options))
        doc["loss"] = loss
    else:
        slots = json_slots(doc, [])
        if op == "literal":
            slots = [s for s in slots if isinstance(s[0][s[1]], str)]
        elif op == "ghost-key":
            slots = [s for s in slots if isinstance(s[0], dict)]
        container, key = draw(st.sampled_from(slots))
        if op == "delete":
            del container[key]
        elif op == "retype":
            old = container[key]
            container[key] = draw(st.sampled_from(
                [v for v in OTHER_VALUES if type(v) is not type(old)]
            ))
        elif op == "ghost":
            container[key] = "ghost"
        elif op == "ghost-key":
            container["ghost"] = container.pop(key)
        else:
            container[key] = draw(st.sampled_from(BAD_LITERALS))
    return doc, base["theta"]


def parse_error(doc):
    """The CLI's stderr for a file the parser rejects; None if it parses."""
    try:
        parse_instance(canonical_bytes(doc))
    except SchemaError as exc:
        return f"error: {exc}\n"
    return None


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("mutated")


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(case=mutated_docs())
def test_verify_erm_on_a_mutated_file_exits_0_to_3(case, workdir):
    """Every error path of ``verify erm`` on one changed field exits 0-3 with
    no traceback; exit 2 is the parser's located error, never a later one."""
    doc, theta = case
    expected = parse_error(doc)
    code, err = verify_erm(workdir, doc, theta)
    assert code in (0, 1, 2, 3)
    if expected is None:
        assert code != 2, err
    else:
        assert code == 2 and err == expected and err.startswith("error: $")


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(case=mutated_docs())
def test_file_reading_commands_on_a_mutated_file_exit_0_to_3(case, workdir):
    """``net eval``, ``net grad`` and ``pwl step`` on one changed field exit
    0-3 with no traceback; a file the parser rejects gets exactly its located
    error."""
    doc, theta = case
    expected = parse_error(doc)
    for command, *options in (("net eval",), ("net grad", "--edge", min(theta)),
                              ("pwl step", "--eta", "1/64")):
        code, err = run_on_file(workdir, doc, command, *options)
        assert code in (0, 1, 2, 3), command
        if expected is None:
            assert code != 2 or err.startswith("error: ") and err.count("\n") == 1, err
        else:
            assert code == 2 and err == expected and err.startswith("error: $"), command
