"""Canonical instance files: round trips, canonical form, schema errors."""

import contextlib
import copy
import io
import json
from fractions import Fraction

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
from bitnets.network import Theta
from bitnets.product_identity import monomial
from bitnets.reductions import (
    BackpropInstance,
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


def small_docs():
    program = parse_slp("const 1\nmul 0 0\n")
    return (
        instance_to_doc(compile_erm(program, SQUARE, j=2, gap=(0, 1))),
        instance_to_doc(compile_hinge_posslp(program, SQUARE, copies=2)),
    )


BASE_DOCS = small_docs()


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

BIT_DOC = instance_to_doc(
    compile_backprop(parse_slp("const 1\nmul 0 0\n"), SQUARE, "bit", bit_index=0)
)


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
