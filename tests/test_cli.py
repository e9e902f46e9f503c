"""Command-line interface: subcommands, exit codes, manifests, and replay.

Runs everything in-process through main(argv) against the small fixture
corpus, with model dimensions shrunk so each invocation stays fast.
"""

import hashlib
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from doctrain import cli
from doctrain import manifest as manifest_module
from doctrain.checkpoint import load_checkpoint, save_checkpoint
from doctrain.cli import _resolved_config, build_parser, main
from doctrain.encoder import LowerEncoder, ModelConfig
from doctrain.errors import ContractError
from doctrain.manifest import RunRecorder, argv_from_manifest, load_manifest
from doctrain.model import DocumentModel
from doctrain.taxonomy import Taxonomy

from conftest import raw_checkpoint

CORPUS = os.path.join(os.path.dirname(__file__), "..", "fixtures",
                      "sample_corpus.jsonl")
TAXONOMY = os.path.join(os.path.dirname(__file__), "..", "fixtures",
                        "support_taxonomy.txt")

SMALL_MODEL_FLAGS = [
    "--d-model", "16", "--num-layers", "1", "--num-heads", "2",
    "--ffn-dim", "32", "--vocab-size", "512", "--max-positions", "64",
    "--max-sentences", "8", "--lower-layers", "1",
]


def sha256_of(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


@pytest.fixture(scope="module")
def mined(tmp_path_factory):
    out = tmp_path_factory.mktemp("mine") / "triplets.jsonl"
    rc = main(["mine", "--corpus", CORPUS, "--out", str(out),
               "--mode", "customer_support", "--count", "6", "--seed", "1"])
    assert rc == 0
    return out


@pytest.fixture(scope="module")
def pretrained(tmp_path_factory, mined):
    out = tmp_path_factory.mktemp("pretrain") / "model.ckpt"
    rc = main(["pretrain", "--corpus", CORPUS, "--out", str(out),
               "--mode", "customer_support", "--triplets", str(mined),
               "--taxonomy", TAXONOMY, "--batch", "4", "--epochs", "1",
               "--max-triplets", "6", "--seed", "1", *SMALL_MODEL_FLAGS])
    assert rc == 0
    return out


def tagging_file(path, count):
    pos, neg = ["one", "two", "three"], ["alpha", "beta", "gamma"]
    with open(path, "w") as fh:
        for i in range(count):
            toks = [pos[i % 3], neg[i % 3], pos[(i + 1) % 3]]
            fh.write(json.dumps({"tokens": toks, "labels": [1, 0, 1]}) + "\n")
    return str(path)


class TestParser:
    def test_every_flag_documents_itself(self):
        parser = build_parser()
        subs = next(a for a in parser._actions
                    if isinstance(a, type(parser._subparsers._group_actions[0])))
        assert set(subs.choices) == {"mine", "derive-taxonomy", "pretrain",
                                     "finetune", "analyze",
                                     "inspect-checkpoint"}
        for name, sub in subs.choices.items():
            for action in sub._actions:
                assert action.help, f"{name} flag {action.dest} lacks help"

    def test_no_subcommand_prints_help(self, capsys):
        assert main([]) == 2
        assert "usage:" in capsys.readouterr().out

    def test_unknown_flag_exits_2(self):
        assert main(["mine", "--no-such-flag"]) == 2

    def test_missing_required_flag_exits_2(self):
        assert main(["mine", "--corpus", CORPUS]) == 2


class TestLogLevel:
    """`DOCTRAIN_LOG` takes a level name in any case and refuses any other
    value before any work."""

    @pytest.mark.parametrize("level, info_shown",
                             [("debug", True), ("Warning", False)])
    def test_level_names_are_case_insensitive(self, tmp_path, level,
                                              info_shown):
        """Runs in a child process: `logging.basicConfig` does nothing
        once the root logger has handlers, as it has under pytest."""
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env = dict(os.environ, PYTHONPATH=os.path.abspath(src),
                   DOCTRAIN_LOG=level)
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys; from doctrain.cli import main; sys.exit(main())",
             "mine", "--corpus", CORPUS, "--out", str(tmp_path / "t.jsonl"),
             "--mode", "customer_support", "--count", "2"],
            env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert ("INFO doctrain.cli: wrote 2 triplets" in proc.stderr) \
            == info_shown

    def test_module_run_logs_as_doctrain_cli(self, tmp_path):
        """`python -m doctrain.cli` logs under the name the console script
        logs under, not `__main__`."""
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env = dict(os.environ, PYTHONPATH=os.path.abspath(src),
                   DOCTRAIN_LOG="info")
        proc = subprocess.run(
            [sys.executable, "-m", "doctrain.cli", "mine", "--corpus", CORPUS,
             "--out", str(tmp_path / "t.jsonl"), "--mode", "customer_support",
             "--count", "2"],
            env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert "INFO doctrain.cli: wrote 2 triplets" in proc.stderr

    def test_unknown_level_exits_2_before_any_work(self, tmp_path,
                                                   monkeypatch, capsys):
        monkeypatch.setenv("DOCTRAIN_LOG", "LOUD")
        assert main(["mine", "--corpus", CORPUS,
                     "--out", str(tmp_path / "t.jsonl"),
                     "--mode", "customer_support", "--count", "2"]) == 2
        assert capsys.readouterr().err.startswith("error: DOCTRAIN_LOG")
        assert os.listdir(tmp_path) == []


class TestMine:
    def test_writes_rows_and_manifest(self, mined):
        assert sum(1 for _ in open(mined)) == 6
        manifest = load_manifest(str(mined) + ".manifest.json")
        assert manifest.subcommand == "mine"
        assert manifest.config["count"] == 6
        assert manifest.inputs[CORPUS] == sha256_of(CORPUS)
        assert manifest.output_digests[str(mined)] == sha256_of(mined)
        assert "wall_total" in manifest.timings

    def test_swap_doubling_modes_emit_twice_the_count(self, tmp_path):
        out = tmp_path / "sci.jsonl"
        rc = main(["mine", "--corpus", CORPUS, "--out", str(out),
                   "--mode", "scientific", "--count", "3", "--seed", "0"])
        assert rc == 0
        assert sum(1 for _ in open(out)) == 6

    def test_rouge_strategy(self, tmp_path):
        out = tmp_path / "rouge.jsonl"
        rc = main(["mine", "--corpus", CORPUS, "--out", str(out),
                   "--mode", "customer_support", "--strategy", "rouge",
                   "--count", "2", "--pos-threshold", "0.6",
                   "--neg-threshold", "0.3", "--seed", "0"])
        assert rc == 0
        rows = [json.loads(line) for line in open(out)]
        assert len(rows) == 2
        assert all({"anchor_id", "positive_id", "negative_id"} == set(r)
                   for r in rows)

    def test_rouge_exhaustion_exits_3(self, tmp_path, capsys):
        out = tmp_path / "none.jsonl"
        rc = main(["mine", "--corpus", CORPUS, "--out", str(out),
                   "--mode", "customer_support", "--strategy", "rouge",
                   "--count", "2", "--pos-threshold", "0.7",
                   "--neg-threshold", "0.25", "--seed", "0"])
        assert rc == 3
        assert "error:" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_corpus_exits_5(self, tmp_path):
        rc = main(["mine", "--corpus", str(tmp_path / "missing.jsonl"),
                   "--out", str(tmp_path / "t.jsonl"),
                   "--mode", "customer_support"])
        assert rc == 5

    def test_malformed_corpus_exits_3(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("not json at all\n")
        rc = main(["mine", "--corpus", str(bad),
                   "--out", str(tmp_path / "t.jsonl"),
                   "--mode", "customer_support"])
        assert rc == 3
        assert "line 1" in capsys.readouterr().err


class TestPretrain:
    def test_hier_loss_requires_taxonomy(self, tmp_path, mined):
        rc = main(["pretrain", "--corpus", CORPUS,
                   "--out", str(tmp_path / "m.ckpt"), "--mode",
                   "customer_support", "--triplets", str(mined),
                   *SMALL_MODEL_FLAGS])
        assert rc == 2

    def test_doc_objective_requires_triplets(self, tmp_path):
        rc = main(["pretrain", "--corpus", CORPUS,
                   "--out", str(tmp_path / "m.ckpt"), "--mode",
                   "customer_support", "--taxonomy", TAXONOMY,
                   *SMALL_MODEL_FLAGS])
        assert rc == 2

    def test_outputs(self, pretrained):
        ckpt = load_checkpoint(pretrained)
        assert ckpt.meta["objective"] == "doc"
        losses = [json.loads(line)
                  for line in open(str(pretrained) + ".losses.jsonl")]
        assert len(losses) == math.ceil(6 / 4)
        assert all({"step", "loss", "lr"} <= set(r) for r in losses)
        drift = [json.loads(line)
                 for line in open(str(pretrained) + ".drift.jsonl")]
        finals = {r["group"]: r for r in drift if r["step"] == "final"}
        assert finals["lower"]["relative_l1_change"] == 0.0
        assert finals["upper.ffn"]["relative_l1_change"] > 0.0
        assert finals["heads"]["zero_reference"] is True

    def test_lora_rank_writes_the_trained_adapters(self, tmp_path, mined):
        """Adapted projections leave the run merged into the checkpoint;
        weights without an adapter keep their initial values."""
        out = tmp_path / "lora.ckpt"
        rc = main(["pretrain", "--corpus", CORPUS, "--out", str(out),
                   "--mode", "customer_support", "--triplets", str(mined),
                   "--loss", "triplet", "--batch", "4", "--epochs", "3",
                   "--lr", "1e-2", "--lora-rank", "2", "--lora-targets",
                   "query", "ffn", "--seed", "1", *SMALL_MODEL_FLAGS])
        assert rc == 0
        saved = load_checkpoint(out)
        assert saved.meta["train"]["lora_rank"] == 2
        config = DocumentModel.from_checkpoint(saved).config
        initial = DocumentModel(config).to_checkpoint().tensors
        moved = {name for name in saved.tensors
                 if not np.array_equal(saved.tensors[name], initial[name])}
        assert moved == {"upper.0.attention.query.weight", "upper.0.ffn.w1",
                         "upper.0.ffn.w2"}

    def test_mlm_objective_runs_without_triplets(self, tmp_path):
        out = tmp_path / "mlm.ckpt"
        rc = main(["pretrain", "--corpus", CORPUS, "--out", str(out),
                   "--mode", "customer_support", "--objective", "mlm",
                   "--batch", "8", "--epochs", "1", "--seed", "1",
                   *SMALL_MODEL_FLAGS])
        assert rc == 0
        ckpt = load_checkpoint(out)
        assert ckpt.meta["objective"] == "mlm"
        first = json.loads(open(str(out) + ".losses.jsonl").readline())
        assert first["loss"] == pytest.approx(np.log(512), abs=0.05)


    def test_mlm_objective_refuses_lora_rank(self, tmp_path):
        """The arm trains no adapter, so `--lora-rank` exits 2 before
        training and writes nothing."""
        rc = main(["pretrain", "--corpus", CORPUS,
                   "--out", str(tmp_path / "mlm.ckpt"),
                   "--mode", "customer_support", "--objective", "mlm",
                   "--lora-rank", "4", "--lora-targets", "ffn",
                   "--batch", "8", "--epochs", "1", "--seed", "1",
                   *SMALL_MODEL_FLAGS])
        assert rc == 2
        assert os.listdir(tmp_path) == []


class TestReplay:
    def test_replay_reproduces_outputs(self, pretrained, capsys):
        rc = main(["--replay", str(pretrained) + ".manifest.json"])
        assert rc == 0
        assert "replay verified: 3 outputs" in capsys.readouterr().out

    def test_replay_detects_changed_outputs(self, pretrained, tmp_path,
                                            capsys):
        raw = json.load(open(str(pretrained) + ".manifest.json"))
        key = str(pretrained)
        digest = raw["output_digests"][key]
        raw["output_digests"][key] = ("0" if digest[0] != "0" else "1") + digest[1:]
        tampered = tmp_path / "tampered.manifest.json"
        tampered.write_text(json.dumps(raw))
        rc = main(["--replay", str(tampered)])
        assert rc == 3
        assert "replay changed outputs" in capsys.readouterr().err

    def test_failed_replay_keeps_the_recorded_manifest(self, tmp_path,
                                                      capsys):
        out = tmp_path / "tri.jsonl"
        assert main(["mine", "--corpus", CORPUS, "--out", str(out),
                     "--mode", "customer_support", "--count", "4",
                     "--seed", "2"]) == 0
        manifest = tmp_path / "tri.jsonl.manifest.json"
        raw = json.loads(manifest.read_text())
        raw["output_digests"][str(out)] = "0" * 64
        manifest.write_text(json.dumps(raw))
        tampered = manifest.read_bytes()
        capsys.readouterr()
        assert main(["--replay", str(manifest)]) == 3
        assert "replay changed outputs" in capsys.readouterr().err
        assert manifest.read_bytes() == tampered
        assert main(["--replay", str(manifest)]) == 3

    def test_interrupted_replay_keeps_the_recorded_outputs(self, tmp_path,
                                                           monkeypatch):
        out = tmp_path / "tri.jsonl"
        assert main(["mine", "--corpus", CORPUS, "--out", str(out),
                     "--mode", "customer_support", "--count", "4",
                     "--seed", "2"]) == 0
        manifest = tmp_path / "tri.jsonl.manifest.json"
        recorded = out.read_bytes(), manifest.read_bytes()
        real_save = cli.save_triplets

        def save_then_interrupt(*args, **kwargs):
            real_save(*args, **kwargs)
            raise KeyboardInterrupt

        with monkeypatch.context() as patch:
            patch.setattr(cli, "save_triplets", save_then_interrupt)
            with pytest.raises(KeyboardInterrupt):
                main(["--replay", str(manifest)])
        assert (out.read_bytes(), manifest.read_bytes()) == recorded
        assert main(["--replay", str(manifest)]) == 0

    def test_replay_refuses_changed_inputs_before_running(self, tmp_path,
                                                         capsys):
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_bytes(open(CORPUS, "rb").read())
        out = tmp_path / "tri.jsonl"
        assert main(["mine", "--corpus", str(corpus), "--out", str(out),
                     "--mode", "customer_support", "--count", "4",
                     "--seed", "2"]) == 0
        manifest = tmp_path / "tri.jsonl.manifest.json"
        recorded = out.read_bytes(), manifest.read_bytes()
        lines = corpus.read_text().splitlines(keepends=True)
        corpus.write_text("".join(lines[:-1]))
        capsys.readouterr()
        assert main(["--replay", str(manifest)]) == 3
        assert str(corpus) in capsys.readouterr().err
        assert (out.read_bytes(), manifest.read_bytes()) == recorded

    def test_replay_digests_each_input_once(self, tmp_path, monkeypatch):
        """The recorder's digest of each input is the one replay checks."""
        out = tmp_path / "tri.jsonl"
        assert main(["mine", "--corpus", CORPUS, "--out", str(out),
                     "--mode", "customer_support", "--count", "4"]) == 0
        opened = []

        def counting_open(path, *args, **kwargs):
            opened.append(str(path))
            return open(path, *args, **kwargs)

        monkeypatch.setattr(manifest_module, "open", counting_open,
                            raising=False)
        assert main(["--replay", str(out) + ".manifest.json"]) == 0
        assert opened.count(CORPUS) == 1

    def test_mismatching_replay_keeps_the_recorded_outputs(self, tmp_path,
                                                           monkeypatch,
                                                           capsys):
        out = tmp_path / "tri.jsonl"
        assert main(["mine", "--corpus", CORPUS, "--out", str(out),
                     "--mode", "customer_support", "--count", "4",
                     "--seed", "2"]) == 0
        manifest = tmp_path / "tri.jsonl.manifest.json"
        recorded = out.read_bytes(), manifest.read_bytes()
        real_mine = cli.mine_triplets_metadata
        monkeypatch.setattr(cli, "mine_triplets_metadata",
                            lambda *a, **k: real_mine(*a, **k)[1:])
        capsys.readouterr()
        assert main(["--replay", str(manifest)]) == 3
        assert "replay changed outputs" in capsys.readouterr().err
        assert (out.read_bytes(), manifest.read_bytes()) == recorded
        assert not list(tmp_path.glob("*.partial"))

    @pytest.mark.parametrize("body", [
        5,
        {"subcommand": "mine", "config": 5},
        {"subcommand": "mine", "config": {}, "inputs": [1]},
    ], ids=["top-level", "config", "inputs"])
    def test_malformed_manifest_exits_3(self, tmp_path, body, capsys):
        manifest = tmp_path / "bad.manifest.json"
        manifest.write_text(json.dumps(body))
        assert main(["--replay", str(manifest)]) == 3
        assert "manifest" in capsys.readouterr().err

    def test_unparsable_recorded_config_exits_3(self, tmp_path, capsys):
        """The recorded argv is parsed before any input is digested: the
        missing input here would otherwise exit 5."""
        manifest = tmp_path / "bad.manifest.json"
        manifest.write_text(json.dumps({
            "subcommand": "mine", "config": {},
            "inputs": {str(tmp_path / "gone.jsonl"): "0" * 64}}))
        assert main(["--replay", str(manifest)]) == 3
        assert "does not parse" in capsys.readouterr().err

    def test_committed_manifest_loads_back_as_written(self, tmp_path):
        out = str(tmp_path / "t.jsonl")
        written = cli._run_subcommand(build_parser().parse_args(
            ["mine", "--corpus", CORPUS, "--out", out,
             "--mode", "customer_support", "--count", "2"]))
        assert load_manifest(out + ".manifest.json") == written

    def test_argv_round_trip_recovers_the_config(self, pretrained):
        manifest = load_manifest(str(pretrained) + ".manifest.json")
        argv = argv_from_manifest(manifest)
        assert argv[0] == "pretrain"
        args = build_parser().parse_args(argv)
        assert _resolved_config(args) == manifest.config


def _writing_runs(out, inputs, mined, pretrained):
    """One argv per subcommand that writes files, all outputs under `out`."""
    train = tagging_file(inputs / "train.jsonl", 4)
    return {
        "mine": ["mine", "--corpus", CORPUS, "--out", str(out / "tri.jsonl"),
                 "--mode", "customer_support", "--count", "4"],
        "derive-taxonomy": ["derive-taxonomy", "--corpus", CORPUS,
                            "--mode", "customer_support",
                            "--out", str(out / "tax.txt"), "--levels", "2"],
        "pretrain": ["pretrain", "--corpus", CORPUS,
                     "--out", str(out / "m.ckpt"),
                     "--mode", "customer_support", "--triplets", str(mined),
                     "--loss", "triplet", "--batch", "4",
                     "--max-triplets", "4", *SMALL_MODEL_FLAGS],
        "finetune": ["finetune", "--checkpoint", str(pretrained),
                     "--task", "token-classification", "--num-classes", "2",
                     "--train", train, "--dev", train,
                     "--metrics-out", str(out / "metrics.json"),
                     "--out", str(out / "tuned.ckpt"), "--epochs", "1"],
        "analyze": ["analyze", "--kind", "pca", "--corpus", CORPUS,
                    "--mode", "customer_support",
                    "--out", str(out / "pca.json"),
                    "--checkpoint", str(pretrained)],
    }


class TestCommit:
    @pytest.mark.parametrize("name", ["mine", "derive-taxonomy", "pretrain",
                                      "finetune", "analyze"])
    def test_a_run_leaves_only_its_recorded_outputs(self, name, tmp_path,
                                                    mined, pretrained):
        """Every file a run leaves is a recorded output or its manifest, so
        no writer bypasses the recorder's staging."""
        out, inputs = tmp_path / "out", tmp_path / "in"
        out.mkdir()
        inputs.mkdir()
        argv = _writing_runs(out, inputs, mined, pretrained)[name]
        assert main(argv) == 0
        [manifest] = out.glob("*.manifest.json")
        outputs = load_manifest(manifest).outputs
        assert {str(p) for p in out.iterdir()} == {*outputs, str(manifest)}

    def test_failed_rerun_keeps_the_earlier_output(self, tmp_path,
                                                   monkeypatch):
        out = tmp_path / "tri.jsonl"
        argv = ["mine", "--corpus", CORPUS, "--out", str(out),
                "--mode", "customer_support", "--count", "4", "--seed", "2"]
        assert main(argv) == 0
        manifest = tmp_path / "tri.jsonl.manifest.json"
        recorded = out.read_bytes(), manifest.read_bytes()
        real_save = cli.save_triplets

        def save_then_fail(triplets, path):
            real_save(triplets[1:], path)
            raise OSError("disk full")

        monkeypatch.setattr(cli, "save_triplets", save_then_fail)
        assert main(argv) == 5
        assert (out.read_bytes(), manifest.read_bytes()) == recorded
        assert not list(tmp_path.glob("*.partial"))

    @pytest.mark.parametrize("rerun", [True, False], ids=["rerun", "first"])
    def test_a_commit_failing_partway_keeps_every_earlier_file(
            self, rerun, tmp_path, mined, monkeypatch):
        """A move that fails on the second output rolls back the first: a
        rerun leaves the earlier run's files, a first run leaves none."""
        out = tmp_path / "m.ckpt"
        argv = ["pretrain", "--corpus", CORPUS, "--out", str(out),
                "--mode", "customer_support", "--triplets", str(mined),
                "--loss", "triplet", "--batch", "4", "--max-triplets", "4",
                *SMALL_MODEL_FLAGS]
        if rerun:
            assert main([*argv, "--seed", "1"]) == 0
        recorded = {p: p.read_bytes() for p in tmp_path.iterdir()}
        assert len(recorded) == (4 if rerun else 0)  # 3 outputs, manifest
        real_replace = os.replace
        calls = []

        def fail_on_second_output(src, dst):
            calls.append(dst)
            if len(calls) == 2:
                raise OSError("disk full")
            real_replace(src, dst)

        monkeypatch.setattr(os, "replace", fail_on_second_output)
        assert main([*argv, "--seed", "2"]) == 5
        assert calls[:2] == [str(out), str(out) + ".losses.jsonl"]
        # same files, same bytes: no .partial or .prev is left beside them
        assert {p: p.read_bytes() for p in tmp_path.iterdir()} == recorded

    @pytest.mark.parametrize("probe", ["mine-corpus", "finetune-checkpoint",
                                       "finetune-metrics", "mine-manifest",
                                       "finetune-manifest"])
    def test_an_output_that_is_an_input_or_output_exits_2(
            self, probe, tmp_path, pretrained, capsys):
        """An output path or the manifest path naming an input, another
        output or each other is refused before any work: every file keeps
        its bytes, none is added."""
        corpus, ckpt = tmp_path / "c.jsonl", tmp_path / "m.ckpt"
        corpus.write_bytes(open(CORPUS, "rb").read())
        (tmp_path / "c.manifest.json").write_bytes(corpus.read_bytes())
        ckpt.write_bytes(pretrained.read_bytes())
        train = tagging_file(tmp_path / "train.jsonl", 4)
        finetune = ["finetune", "--checkpoint", str(ckpt),
                    "--task", "token-classification", "--num-classes", "2",
                    "--train", train, "--dev", train, "--epochs", "1"]
        argv = {
            # the same file under another spelling
            "mine-corpus": ["mine", "--corpus", str(corpus),
                            "--out", os.path.join(tmp_path, ".", "c.jsonl"),
                            "--mode", "customer_support", "--count", "4"],
            "finetune-checkpoint": [*finetune, "--metrics-out",
                                    str(tmp_path / "x.json"),
                                    "--out", str(ckpt)],
            "finetune-metrics": [*finetune, "--metrics-out",
                                 str(tmp_path / "x"),
                                 "--out", str(tmp_path / "x")],
            # the manifest would replace the corpus it was mined from
            "mine-manifest": ["mine",
                              "--corpus", str(tmp_path / "c.manifest.json"),
                              "--out", str(tmp_path / "c"),
                              "--mode", "customer_support", "--count", "4"],
            "finetune-manifest": [*finetune, "--metrics-out",
                                  str(tmp_path / "m2.ckpt.manifest.json"),
                                  "--out", str(tmp_path / "m2.ckpt")],
        }[probe]
        before = {p: p.read_bytes() for p in tmp_path.iterdir()}
        capsys.readouterr()
        assert main(argv) == 2
        assert {p: p.read_bytes() for p in tmp_path.iterdir()} == before
        role = "manifest" if probe.endswith("manifest") else "output"
        assert f"error: the {role} " in capsys.readouterr().err

    @pytest.mark.parametrize("probe", ["finetune", "pretrain"])
    def test_a_clash_exits_2_before_any_training(self, probe, tmp_path, mined,
                                                 pretrained, monkeypatch):
        """A checkpoint tuned in place, or a checkpoint written over its
        own triplets, is refused before the training call."""
        def trained(*args, **kwargs):
            raise AssertionError("trained before the clash was refused")

        monkeypatch.setattr(cli, "finetune_token_classification", trained)
        monkeypatch.setattr(cli, "pretrain", trained)
        ckpt, triplets = tmp_path / "m.ckpt", tmp_path / "tri.jsonl"
        ckpt.write_bytes(pretrained.read_bytes())
        triplets.write_bytes(mined.read_bytes())
        train = tagging_file(tmp_path / "train.jsonl", 4)
        argv = {
            "finetune": ["finetune", "--checkpoint", str(ckpt),
                         "--out", str(ckpt), "--task", "token-classification",
                         "--num-classes", "2", "--train", train,
                         "--dev", train,
                         "--metrics-out", str(tmp_path / "x.json")],
            "pretrain": ["pretrain", "--corpus", CORPUS,
                         "--triplets", str(triplets), "--out", str(triplets),
                         "--mode", "customer_support", "--loss", "triplet",
                         *SMALL_MODEL_FLAGS],
        }[probe]
        before = {p: p.read_bytes() for p in tmp_path.iterdir()}
        assert main(argv) == 2
        assert {p: p.read_bytes() for p in tmp_path.iterdir()} == before

    def test_staging_an_undeclared_output_is_refused(self, tmp_path):
        out = str(tmp_path / "a.jsonl")
        rec = RunRecorder("mine", {}, [CORPUS], [out], out + ".manifest.json")
        assert rec.staged(out) == out + ".partial"
        with pytest.raises(ContractError):
            rec.staged(str(tmp_path / "b.jsonl"))

    @pytest.mark.parametrize("name", ["mine", "derive-taxonomy", "pretrain",
                                      "finetune", "analyze"])
    def test_every_file_argument_is_recorded(self, name, tmp_path, mined,
                                             pretrained):
        out, inputs = tmp_path / "out", tmp_path / "in"
        out.mkdir()
        inputs.mkdir()
        argv = _writing_runs(out, inputs, mined, pretrained)[name]
        assert main(argv) == 0
        [manifest] = map(load_manifest, out.glob("*.manifest.json"))
        files = {arg for arg in argv if os.path.isfile(arg)}
        assert files and files <= {*manifest.inputs, *manifest.outputs}

    def test_a_file_flag_this_run_does_not_read_is_recorded(self, tmp_path,
                                                            mined):
        """`--taxonomy` feeds the hierarchy loss only; set beside
        `--loss triplet` it is still digested, so replay checks it."""
        out = tmp_path / "m.ckpt"
        assert main(["pretrain", "--corpus", CORPUS, "--out", str(out),
                     "--mode", "customer_support", "--triplets", str(mined),
                     "--taxonomy", TAXONOMY, "--loss", "triplet",
                     "--batch", "4", "--max-triplets", "4",
                     *SMALL_MODEL_FLAGS]) == 0
        manifest = load_manifest(str(out) + ".manifest.json")
        assert manifest.inputs[TAXONOMY] == sha256_of(TAXONOMY)

    def test_commit_flushes_files_before_moves_and_directories_after(
            self, tmp_path, monkeypatch):
        out = tmp_path / "sub" / "tri.jsonl"
        out.parent.mkdir()
        events, opened = [], {}
        real_open, real_fsync, real_replace = os.open, os.fsync, os.replace

        def open_(path, flags, *args, **kwargs):
            fd = real_open(path, flags, *args, **kwargs)
            opened[fd] = str(path)
            return fd

        def fsync(fd):
            events.append(("fsync", opened[fd]))
            real_fsync(fd)

        def replace(src, dst):
            events.append(("replace", str(dst)))
            real_replace(src, dst)

        monkeypatch.setattr(os, "open", open_)
        monkeypatch.setattr(os, "fsync", fsync)
        monkeypatch.setattr(os, "replace", replace)
        assert main(["mine", "--corpus", CORPUS, "--out", str(out),
                     "--mode", "customer_support", "--count", "4"]) == 0
        finals = [str(out), str(out) + ".manifest.json"]
        assert events == [
            *[("fsync", p + ".partial") for p in finals],
            *[("replace", p) for p in finals],
            ("fsync", str(out.parent))]


class TestFinetune:
    def test_token_classification_end_to_end(self, pretrained, tmp_path):
        train = tagging_file(tmp_path / "train.jsonl", 8)
        dev = tagging_file(tmp_path / "dev.jsonl", 4)
        metrics_out = tmp_path / "metrics.json"
        out = tmp_path / "tuned.ckpt"
        rc = main(["finetune", "--checkpoint", str(pretrained),
                   "--task", "token-classification", "--num-classes", "2",
                   "--train", train, "--dev", dev,
                   "--metrics-out", str(metrics_out), "--out", str(out),
                   "--lr", "1e-3", "--epochs", "2", "--seed", "0"])
        assert rc == 0
        report = json.load(open(metrics_out))
        assert set(report["metrics"]) == {"macro_f1", "accuracy"}
        assert len(report["history"]) == report["epochs_run"]
        tuned = load_checkpoint(out)
        assert tuned.meta["finetuned_task"] == "token-classification"
        assert "task_head.0" in tuned.tensors
        # --out takes precedence as the manifest anchor, and the manifest,
        # not metrics.json, records the config
        manifest = load_manifest(tmp_path / "tuned.ckpt.manifest.json")
        assert manifest.config["task"] == "token-classification"

    @pytest.mark.parametrize("config", ['"abc"', "[1, 2]", "true",
                                        '{"d_model": "x"}',
                                        '{"d_model": 8.5}'])
    def test_malformed_config_echo_exits_5(self, tmp_path, config):
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(raw_checkpoint(
            b'{"config": ' + config.encode() + b"}", [b"a"]))
        train = tagging_file(tmp_path / "train.jsonl", 2)
        rc = main(["finetune", "--checkpoint", str(bad),
                   "--task", "token-classification", "--num-classes", "2",
                   "--train", train, "--dev", train,
                   "--metrics-out", str(tmp_path / "metrics.json")])
        assert rc == 5

    def test_metrics_do_not_depend_on_the_output_path(self, pretrained,
                                                      tmp_path):
        """Two runs into directories whose names differ in length write the
        same metrics.json bytes."""
        train = tagging_file(tmp_path / "train.jsonl", 4)
        reports = []
        for name in ("a", "longer-directory-name"):
            (tmp_path / name).mkdir()
            metrics_out = tmp_path / name / "metrics.json"
            assert main(["finetune", "--checkpoint", str(pretrained),
                         "--task", "token-classification",
                         "--num-classes", "2", "--train", train,
                         "--dev", train, "--metrics-out", str(metrics_out),
                         "--out", str(tmp_path / name / "tuned.ckpt"),
                         "--epochs", "1", "--seed", "0"]) == 0
            reports.append(metrics_out.read_bytes())
        assert reports[0] == reports[1]

    def test_token_classification_needs_num_classes(self, pretrained,
                                                    tmp_path):
        train = tagging_file(tmp_path / "t.jsonl", 2)
        rc = main(["finetune", "--checkpoint", str(pretrained),
                   "--task", "token-classification",
                   "--train", train, "--dev", train,
                   "--metrics-out", str(tmp_path / "m.json")])
        assert rc == 2

    def test_nan_checkpoint_exits_4(self, tmp_path):
        config = ModelConfig(d_model=16, num_layers=1, num_heads=2,
                             ffn_dim=32, vocab_size=512, max_positions=64,
                             max_sentences=8, lower_layers=1,
                             level_sizes=(), seed=0)
        model = DocumentModel(config)
        model.upper.layers[0].params["attention.query.weight"].data[0, 0] = np.nan
        bad = tmp_path / "nan.ckpt"
        save_checkpoint(model.to_checkpoint(), bad)
        train = tagging_file(tmp_path / "t.jsonl", 2)
        rc = main(["finetune", "--checkpoint", str(bad),
                   "--task", "token-classification", "--num-classes", "2",
                   "--train", train, "--dev", train,
                   "--metrics-out", str(tmp_path / "m.json")])
        assert rc == 4
        assert not (tmp_path / "m.json").exists()


@pytest.mark.parametrize("lr", ["nan", "inf"])
def test_non_finite_learning_rate_exits_2(lr, tmp_path, mined, pretrained):
    """A rate that would train every weight to NaN is refused before any
    output, staged or final, is written."""
    train = tagging_file(tmp_path / "train.jsonl", 2)
    rc = main(["pretrain", "--corpus", CORPUS,
               "--out", str(tmp_path / "m.ckpt"), "--mode",
               "customer_support", "--triplets", str(mined), "--loss",
               "triplet", "--batch", "4", "--lr", lr, *SMALL_MODEL_FLAGS])
    assert rc == 2
    rc = main(["finetune", "--checkpoint", str(pretrained),
               "--task", "token-classification", "--num-classes", "2",
               "--train", train, "--dev", train, "--lr", lr,
               "--metrics-out", str(tmp_path / "metrics.json"),
               "--out", str(tmp_path / "tuned.ckpt"), "--epochs", "1"])
    assert rc == 2
    assert [p.name for p in tmp_path.iterdir()] == ["train.jsonl"]


class TestAnalyze:
    def test_wl_report(self, pretrained, tmp_path):
        out = tmp_path / "wl.json"
        rc = main(["analyze", "--kind", "wl", "--corpus", CORPUS,
                   "--mode", "customer_support", "--out", str(out),
                   "--checkpoint", str(pretrained),
                   "--doc-a", "manual-000", "--doc-b", "manual-001"])
        assert rc == 0
        report = json.load(open(out))
        assert report["kind"] == "wl"
        assert report["wl"] >= 1.0

    def test_wl_requires_checkpoint(self, tmp_path, capsys):
        rc = main(["analyze", "--kind", "wl", "--corpus", CORPUS,
                   "--mode", "customer_support",
                   "--out", str(tmp_path / "wl.json"),
                   "--doc-a", "manual-000", "--doc-b", "manual-001"])
        assert rc == 2
        assert "--checkpoint" in capsys.readouterr().err

    def test_correlation_report(self, pretrained, tmp_path):
        out = tmp_path / "corr.json"
        rc = main(["analyze", "--kind", "correlation", "--corpus", CORPUS,
                   "--mode", "customer_support", "--out", str(out),
                   "--checkpoint", str(pretrained)])
        assert rc == 0
        report = json.load(open(out))
        assert report["num_pairs"] == 25 * 24 // 2

    def test_pca_writes_csv(self, pretrained, tmp_path):
        out = tmp_path / "pca.json"
        rc = main(["analyze", "--kind", "pca", "--corpus", CORPUS,
                   "--mode", "customer_support", "--out", str(out),
                   "--checkpoint", str(pretrained), "--components", "2"])
        assert rc == 0
        report = json.load(open(out))
        assert len(report["explained_variance"]) == 2
        csv_path = str(out) + ".csv"
        assert report["coordinates_csv"] == csv_path
        lines = open(csv_path).read().splitlines()
        assert lines[0] == "id,c0,c1"
        assert len(lines) == 26
        manifest = load_manifest(str(out) + ".manifest.json")
        assert manifest.config["csv_out"] == csv_path

    def test_pca_on_an_empty_corpus_exits_3(self, pretrained, tmp_path,
                                            capsys):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        rc = main(["analyze", "--kind", "pca", "--corpus", str(empty),
                   "--mode", "customer_support",
                   "--out", str(tmp_path / "pca.json"),
                   "--checkpoint", str(pretrained)])
        assert rc == 3
        assert "need at least 2 vectors, got 0" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["empty.jsonl"]

    def test_paragraph_report(self, tmp_path):
        out = tmp_path / "para.json"
        rc = main(["analyze", "--kind", "paragraphs", "--corpus", CORPUS,
                   "--mode", "customer_support", "--out", str(out),
                   "--doc-a", "manual-000", "--doc-b", "manual-001"])
        assert rc == 0
        report = json.load(open(out))
        assert len(report["histogram"]) == 10
        assert sum(report["histogram"]) == (len(report["scores_a"])
                                            + len(report["scores_b"]))


@pytest.fixture
def featurizers(monkeypatch):
    """Every LowerEncoder constructed while the test runs."""
    made = []
    init = LowerEncoder.__init__

    def counting(self, config):
        init(self, config)
        made.append(self)

    monkeypatch.setattr(LowerEncoder, "__init__", counting)
    return made


class TestFeaturizerOnFirstUse:
    def test_finetune_and_inspect_build_no_featurizer(self, pretrained,
                                                      tmp_path, featurizers,
                                                      capsys):
        rc = main(["finetune", "--checkpoint", str(pretrained),
                   "--task", "token-classification", "--num-classes", "2",
                   "--train", tagging_file(tmp_path / "train.jsonl", 8),
                   "--dev", tagging_file(tmp_path / "dev.jsonl", 4),
                   "--metrics-out", str(tmp_path / "metrics.json"),
                   "--out", str(tmp_path / "tuned.ckpt"),
                   "--lr", "1e-3", "--epochs", "1", "--seed", "0"])
        assert rc == 0
        assert main(["inspect-checkpoint", "--checkpoint",
                     str(pretrained)]) == 0
        assert featurizers == []

    def test_correlation_builds_the_saved_featurizer_once(
            self, pretrained, tmp_path, featurizers):
        rc = main(["analyze", "--kind", "correlation", "--corpus", CORPUS,
                   "--mode", "customer_support",
                   "--out", str(tmp_path / "corr.json"),
                   "--checkpoint", str(pretrained)])
        assert rc == 0
        [lower] = featurizers
        ckpt = load_checkpoint(pretrained)
        config = DocumentModel.from_checkpoint(ckpt).config
        assert lower.state_bytes() == DocumentModel(config).lower.state_bytes()


class TestDeriveTaxonomy:
    def test_writes_tree_and_assignments(self, tmp_path):
        out = tmp_path / "derived.txt"
        rc = main(["derive-taxonomy", "--corpus", CORPUS,
                   "--mode", "customer_support", "--out", str(out),
                   "--levels", "2", "--seed", "0"])
        assert rc == 0
        tax = Taxonomy.load(out)
        assert tax.depth <= 2
        rows = [json.loads(line)
                for line in open(str(out) + ".assignments.jsonl")]
        assert len(rows) == 25
        assert all(tuple(r["path"]) in set(tax.paths) for r in rows)
        manifest = load_manifest(str(out) + ".manifest.json")
        assert manifest.config["assignments"] == str(out) + ".assignments.jsonl"

    def test_failure_cleans_partial_outputs(self, tmp_path):
        out = tmp_path / "derived.txt"
        rc = main(["derive-taxonomy", "--corpus", CORPUS,
                   "--mode", "customer_support", "--out", str(out),
                   "--levels", "2",
                   "--assignments", str(tmp_path / "no-dir" / "a.jsonl")])
        assert rc == 5
        assert not out.exists()  # written before the failure, then removed


class TestInspect:
    def test_prints_report_without_writing_files(self, pretrained, capsys):
        parent = os.path.dirname(pretrained)
        before = set(os.listdir(parent))
        rc = main(["inspect-checkpoint", "--checkpoint", str(pretrained)])
        assert rc == 0
        assert set(os.listdir(parent)) == before
        payload = json.loads(capsys.readouterr().out)
        report = payload["report"]
        assert report["meta"]["objective"] == "doc"
        assert report["parameter_count"] > 0
        assert all(isinstance(s, list) for s in report["tensors"].values())
        assert payload["manifest"]["subcommand"] == "inspect-checkpoint"

    @pytest.mark.parametrize("meta, names", [
        (b"[]", [b"a"]), (b"{}", [b"\xff"]), (b"{}", [b"a", b"a"])],
        ids=["list meta", "non-UTF-8 name", "duplicate names"])
    def test_malformed_checkpoint_exits_5(self, tmp_path, meta, names):
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(raw_checkpoint(meta, names))
        assert main(["inspect-checkpoint", "--checkpoint", str(bad)]) == 5

    def test_missing_checkpoint_exits_5(self, tmp_path):
        rc = main(["inspect-checkpoint",
                   "--checkpoint", str(tmp_path / "nope.ckpt")])
        assert rc == 5
