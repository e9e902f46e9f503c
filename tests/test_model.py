"""Full-model wiring: groups, both input paths, adapters, persistence."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from doctrain import encoder
from doctrain import model as model_module
from doctrain.checkpoint import (checkpoint_bytes, load_checkpoint,
                                 parse_checkpoint, save_checkpoint)
from doctrain.errors import CorruptCheckpoint, LengthError, ShapeError
from doctrain.model import GROUPS, DocumentModel, group_of
from doctrain import tensor as T
from doctrain.tensor import Tensor, backward

from conftest import as_float64, raw_checkpoint, small_config


class TestGroupOf:
    @pytest.mark.parametrize("name,group", [
        ("lower.token", "lower"),
        ("lower.0.ffn.w1", "lower"),
        ("embed.token", "embed.token"),
        ("embed.position", "embed.position"),
        ("upper.0.attention.query.weight", "upper.attention.query"),
        ("upper.1.attention.key.bias", "upper.attention.key"),
        ("upper.0.attention.value.weight", "upper.attention.value"),
        ("upper.0.attention.output.bias", "upper.attention.output"),
        ("upper.1.ffn.w2", "upper.ffn"),
        ("upper.0.norm1.gain", "upper.layer_norm"),
        ("upper.1.norm2.bias", "upper.layer_norm"),
        ("heads.0.weight", "heads"),
    ])
    def test_mapping(self, name, group):
        assert group_of(name) == group
        assert group in GROUPS

    def test_unknown_name_raises(self):
        with pytest.raises(ShapeError):
            group_of("decoder.0.weight")


class TestParamGroups:
    def test_every_parameter_lands_in_exactly_one_group(self):
        model = DocumentModel(small_config(level_sizes=(3, 4)))
        groups = model.param_groups()
        names = [g.name for g in groups]
        assert names[0] == "lower"
        assert len(set(names)) == len(names)
        grouped = sum(t.size for g in groups if g.name != "lower"
                      for t in g.tensors)
        total = sum(t.size for t in model.named_params().values())
        assert grouped == total

    def test_lower_group_is_frozen_others_are_not(self):
        model = DocumentModel(small_config(level_sizes=(3,)))
        for g in model.param_groups():
            assert g.frozen == (g.name == "lower")

    def test_headless_model_has_no_heads_group(self):
        model = DocumentModel(small_config(level_sizes=()))
        assert "heads" not in {g.name for g in model.param_groups()}

    def test_each_call_sets_requires_grad_on_every_group(self):
        model = DocumentModel(small_config(level_sizes=(3,)))
        for g in model.param_groups({"embed.token", "heads"}):
            want = g.name not in ("lower", "embed.token", "heads")
            assert [t.requires_grad for t in g.tensors] == [want] * len(g.tensors)
            assert g.frozen is not want
        # a later phase inherits nothing from an earlier one
        for g in model.param_groups():
            assert all(t.requires_grad is (g.name != "lower")
                       for t in g.tensors)

    def test_frozen_is_read_only(self):
        group = DocumentModel(small_config()).param_groups()[0]
        with pytest.raises(AttributeError):
            group.frozen = False

    def test_attached_adapter_is_the_last_group(self):
        model = DocumentModel(small_config(level_sizes=(3,)))
        adapter = model.attach_adapter(2)
        groups = model.param_groups({"lora"})
        assert [g.name for g in groups[-2:]] == ["heads", "lora"]
        assert groups[-1].tensors == adapter.trainable_tensors()
        assert groups[-1].frozen


class TestForwardPaths:
    def test_sentence_path_shapes(self):
        model = DocumentModel(small_config())
        vec = model.encode_document(["The pump failed.", "We fixed it."])
        assert vec.shape == (16,)
        assert np.isfinite(vec.data).all()

    def test_sentence_truncation_warns(self, caplog):
        model = DocumentModel(small_config(max_sentences=2))
        with caplog.at_level("WARNING", logger="doctrain.model"):
            model.encode_document(["One.", "Two.", "Three."])
        assert any("truncat" in r.message for r in caplog.records)

    def test_empty_document_raises(self):
        with pytest.raises(LengthError):
            DocumentModel(small_config()).sentence_matrices([["One."], []])

    def test_matrix_shape_validation(self):
        model = DocumentModel(small_config())
        with pytest.raises(ShapeError):
            model.encode_matrices([np.zeros((3, 5))])

    @settings(max_examples=25, deadline=None)
    @given(lengths=st.lists(st.integers(1, 6), min_size=1, max_size=5),
           seed=st.integers(0, 2**16))
    def test_batched_documents_match_one_at_a_time(self, lengths, seed):
        """One padded pass gives each document's vector and every parameter
        gradient of the per-document passes, within 1e-12 in float64."""
        rng = np.random.default_rng(seed)
        model = as_float64(DocumentModel(small_config(num_layers=2)))
        for t in model.upper.named_params().values():
            t.data = rng.normal(0.0, 0.5, t.shape)
        matrices = [rng.normal(size=(n, 16)) for n in lengths]
        probe = rng.normal(size=(len(lengths), 16))
        params = model.upper.named_params()

        batched = model.encode_matrices(matrices)
        backward(T.tmean(batched * probe))
        batched_grads = {k: t.grad.copy() for k, t in params.items()}
        for t in params.values():
            t.grad = None
        for i, m in enumerate(matrices):
            vec = model.encode_matrices([m])
            assert np.allclose(batched.data[i], vec.data[0], rtol=0, atol=1e-12)
            # the batched mean runs over len(lengths) times as many entries
            backward(T.tmean(vec * probe[i]) * (1.0 / len(lengths)))
        for k, t in params.items():
            assert np.allclose(batched_grads[k], t.grad, rtol=0,
                               atol=1e-12), k

    def test_token_batch_matches_single_sequences(self):
        model = as_float64(DocumentModel(small_config()))
        seqs = [[3, 10, 20, 7], [5], [9, 9, 4]]
        out = model.encode_token_batch(seqs).data
        assert out.shape == (3, 4, 16)
        for i, ids in enumerate(seqs):
            alone = model.encode_token_batch([ids]).data[0]
            assert np.allclose(out[i, :len(ids)], alone, rtol=0, atol=1e-12)

    def test_token_path_shapes(self):
        model = DocumentModel(small_config())
        out = model.encode_token_batch([[3, 10, 20]])
        assert out.shape == (1, 3, 16)

    def test_token_and_sentence_paths_share_the_upper_encoder(self):
        """Moving an upper weight changes both paths' outputs.

        The probe shifts one input row of the feed-forward weight: query/key
        weights cancel on single-row attention, and a uniform shift of the
        whole matrix cancels against the zero-mean layer-norm input.
        """
        model = DocumentModel(small_config())
        sent = model.encode_document(["Shared weights."]).data.copy()
        tok = model.encode_token_batch([[5, 6]]).data.copy()
        model.upper.layers[0].params["ffn.w1"].data[0, :] += 0.5
        assert not np.allclose(model.encode_document(["Shared weights."]).data,
                               sent)
        assert not np.allclose(model.encode_token_batch([[5, 6]]).data, tok)

    def test_classify_hierarchy_widths(self):
        model = DocumentModel(small_config(level_sizes=(4, 2)))
        vecs = model.encode_matrices(model.sentence_matrices([["Classify me."]]))
        logits = model.heads.logits_matrix(vecs)
        assert [lv.shape for lv in logits] == [(1, 5), (1, 3)]


class TestInferenceBatches:
    """Batched inference gives each item the bits it gets alone."""

    @pytest.mark.parametrize("lengths", [[8] * 66, [1, 4, 2, 4, 1, 3, 8]],
                             ids=["equal, two chunks", "mixed"])
    def test_encode_documents_matches_encode_document(self, rng, lengths):
        words = ["orbit", "ledger", "enzyme", "raster", "pivot", "mantle"]
        docs = [[" ".join(rng.choice(words, size=4)) for _ in range(n)]
                for n in lengths]
        got = DocumentModel(small_config()).encode_documents(docs)
        alone = DocumentModel(small_config())
        for doc, row in zip(docs, got):
            assert np.array_equal(row, alone.encode_document(doc).data)

    def test_equal_length_token_batch_matches_each_sequence(self, rng):
        model = DocumentModel(small_config())
        seqs = rng.integers(4, 512, size=(5, 9)).tolist()
        with T.no_grad():
            out = model.encode_token_batch(seqs).data
            for seq, rows in zip(seqs, out):
                assert np.array_equal(rows, model.encode_token_batch([seq]).data[0])

    def test_no_documents_give_an_empty_matrix(self):
        model = DocumentModel(small_config())
        vecs = model.encode_documents([])
        assert vecs.shape == (0, 16) and vecs.dtype == model.dtype


def test_token_rows_are_drawn_once_and_copied(monkeypatch):
    streams = []
    real = encoder.make_rng
    monkeypatch.setattr(encoder, "make_rng", lambda seed, name: (
        streams.append(name), real(seed, name))[1])
    model = DocumentModel(small_config())
    assert streams.count("embed.token") == 1
    lower, table = model.lower.token.data, model.embed.token.data
    assert np.array_equal(lower, table)
    assert not np.shares_memory(lower, table)


class TestAdapters:
    def test_adapter_routes_both_paths(self):
        model = DocumentModel(small_config())
        base_sent = model.encode_document(["Route check."]).data.copy()
        model.attach_adapter(rank=2, seed=3)
        for pair in model.adapter._adapters[0].values():
            pair.b.data = np.full(pair.b.shape, 0.3)
        assert not np.allclose(model.encode_document(["Route check."]).data,
                               base_sent)
        model.adapter = None
        assert np.allclose(model.encode_document(["Route check."]).data,
                           base_sent)

    def test_fresh_adapter_changes_nothing(self):
        model = DocumentModel(small_config())
        before = model.encode_document(["No-op check."]).data.copy()
        model.attach_adapter(rank=4, seed=9)
        assert np.array_equal(model.encode_document(["No-op check."]).data,
                              before)


class TestPersistence:
    def test_checkpoint_round_trip_is_forward_exact(self, tmp_path):
        model = DocumentModel(small_config(level_sizes=(3,)))
        # move weights off their init so the restore is doing real work
        model.upper.layers[0].params["attention.query.weight"].data += 0.25
        model.heads.weights[0].data += 0.125
        sent = model.encode_document(["Persist me.", "Twice."]).data
        tok = model.encode_token_batch([[4, 5, 6]]).data
        path = tmp_path / "m.ckpt"
        save_checkpoint(model.to_checkpoint(), path)
        restored = DocumentModel.from_checkpoint(load_checkpoint(path))
        assert np.array_equal(
            restored.encode_document(["Persist me.", "Twice."]).data, sent)
        assert np.array_equal(restored.encode_token_batch([[4, 5, 6]]).data, tok)

    def test_lower_featurizer_travels_via_config_seed(self, tmp_path):
        model = DocumentModel(small_config(seed=21))
        path = tmp_path / "m.ckpt"
        save_checkpoint(model.to_checkpoint(), path)
        restored = DocumentModel.from_checkpoint(load_checkpoint(path))
        assert restored.lower.state_bytes() == model.lower.state_bytes()

    def test_loading_draws_nothing(self, monkeypatch):
        """Every tensor a checkpoint fills is left undrawn; the featurizer,
        built on first use, still derives from the config's seed."""
        config = small_config(num_layers=2, level_sizes=(3,), seed=11)
        ckpt = DocumentModel(config).to_checkpoint()

        def no_draws(seed, name):
            raise AssertionError(f"drew the {name!r} stream while loading")

        monkeypatch.setattr(encoder, "make_rng", no_draws)
        monkeypatch.setattr(model_module, "make_rng", no_draws)
        model = DocumentModel.from_checkpoint(ckpt)
        params = model.named_params()
        assert params.keys() == ckpt.tensors.keys()
        for name, t in params.items():
            assert t.data.dtype == np.float32, name
            assert t.data.tobytes() == ckpt.tensors[name].tobytes(), name
        monkeypatch.undo()
        assert (model.lower.state_bytes()
                == DocumentModel(config).lower.state_bytes())

    def test_a_parsed_checkpoint_lends_its_arrays(self):
        """`from_checkpoint` adopts the float32 arrays of a parsed file
        instead of copying them."""
        ckpt = parse_checkpoint(checkpoint_bytes(
            DocumentModel(small_config(level_sizes=(3,))).to_checkpoint()))
        model = DocumentModel.from_checkpoint(ckpt)
        for name, t in model.named_params().items():
            assert t.data is ckpt.tensors[name], name

    def test_a_float64_checkpoint_loads_as_float32(self):
        ckpt = DocumentModel(small_config(level_sizes=(3,))).to_checkpoint()
        ckpt.tensors = {name: arr.astype(np.float64)
                        for name, arr in ckpt.tensors.items()}
        restored = DocumentModel.from_checkpoint(ckpt).named_params()
        for name, arr in ckpt.tensors.items():
            assert restored[name].data.dtype == np.float32, name
            assert np.array_equal(restored[name].data, arr.astype(np.float32))

    def test_extra_meta_is_preserved(self, tmp_path):
        model = DocumentModel(small_config())
        path = tmp_path / "m.ckpt"
        save_checkpoint(model.to_checkpoint({"objective": "doc"}), path)
        assert load_checkpoint(path).meta["objective"] == "doc"

    def test_missing_config_echo_rejected(self):
        from doctrain.checkpoint import Checkpoint
        with pytest.raises(CorruptCheckpoint, match="config"):
            DocumentModel.from_checkpoint(Checkpoint(meta={}, tensors={}))

    def test_missing_tensor_rejected(self, tmp_path):
        model = DocumentModel(small_config())
        ckpt = model.to_checkpoint()
        del ckpt.tensors["embed.token"]
        with pytest.raises(CorruptCheckpoint, match="embed.token"):
            DocumentModel.from_checkpoint(ckpt)

    def test_wrong_shape_rejected(self):
        model = DocumentModel(small_config())
        ckpt = model.to_checkpoint()
        ckpt.tensors["embed.token"] = np.zeros((2, 2), dtype=np.float32)
        with pytest.raises(CorruptCheckpoint, match="shape"):
            DocumentModel.from_checkpoint(ckpt)

    @pytest.mark.parametrize("config", [
        '"abc"', "[1, 2]", "true", '{"d_model": "x"}', '{"d_model": 8.5}',
        '{"d_model": true}', '{"level_sizes": "ab"}',
        '{"level_sizes": [2, 1.5]}', '{"d_model": 0}'])
    def test_malformed_config_echo_is_corrupt(self, config):
        """The echo must be an object of integer fields, `level_sizes` a
        list of integers, that validates; the digest here is valid."""
        blob = raw_checkpoint(b'{"config": ' + config.encode() + b"}", [b"a"])
        with pytest.raises(CorruptCheckpoint, match="config echo"):
            DocumentModel.from_checkpoint(parse_checkpoint(blob))

    def test_bad_config_echo_rejected(self):
        from doctrain.checkpoint import Checkpoint
        ckpt = Checkpoint(meta={"config": {"nonsense_field": 1}}, tensors={})
        with pytest.raises(CorruptCheckpoint, match="config"):
            DocumentModel.from_checkpoint(ckpt)


def test_same_seed_models_are_identical():
    a = DocumentModel(small_config(seed=5))
    b = DocumentModel(small_config(seed=5))
    params_a = {**a.named_params(), **a.lower.named_params()}
    params_b = {**b.named_params(), **b.lower.named_params()}
    assert params_a.keys() == params_b.keys()
    for name, t in params_a.items():
        assert np.array_equal(t.data, params_b[name].data), name


def test_every_public_name_resolves():
    import doctrain
    assert len(set(doctrain.__all__)) == len(doctrain.__all__)
    for name in doctrain.__all__:
        assert hasattr(doctrain, name), name
