import csv
import ctypes
import json
import os
import struct
import subprocess
import sys

import numpy as np
import pytest

from hotplug import cli, evaluation
from hotplug.cli import EXIT_IO, EXIT_OK, EXIT_ORDERING, EXIT_USAGE, main
from hotplug.data import Dataset, load_dataset, save_dataset
from hotplug.training import load_checkpoint, save_checkpoint

FAST_CONFIG = {
    "old_encoder": {"layers": 1, "width": 16, "heads": 2, "embed_dim": 8,
                    "pretrain_steps": 4},
    "new_encoder": {"layers": 1, "width": 16, "heads": 2, "embed_dim": 12,
                    "pretrain_steps": 4},
    "text_encoder": {"layers": 1, "width": 16, "heads": 2},
    "taca": {"bottleneck": 4, "projector_hidden": 8},
    "train": {"batch_size": 8, "steps": 6},
    "data": {"n": 32},
    "eval": {"head_seeds": [0]},
}


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    cfg = root / "config.json"
    cfg.write_text(json.dumps(FAST_CONFIG))
    paths = {
        "cfg": str(cfg),
        "data": str(root / "train.tacd"),
        "eval": str(root / "eval.tacd"),
        "old": str(root / "old.tack"),
        "new": str(root / "new.tack"),
        "taca": str(root / "taca.tack"),
        "root": root,
    }
    assert main(["gen-data", "--out", paths["data"],
                 "--config", paths["cfg"]]) == EXIT_OK
    assert main(["gen-data", "--out", paths["eval"], "--n", "160", "--seed", "99",
                 "--config", paths["cfg"]]) == EXIT_OK
    assert main(["pretrain", "--role", "old", "--data", paths["data"],
                 "--out", paths["old"], "--config", paths["cfg"]]) == EXIT_OK
    assert main(["pretrain", "--role", "new", "--data", paths["data"],
                 "--out", paths["new"], "--config", paths["cfg"]]) == EXIT_OK
    assert main(["train-taca", "--old", paths["old"], "--new", paths["new"],
                 "--data", paths["data"], "--out", paths["taca"],
                 "--log", str(root / "loss.csv"),
                 "--config", paths["cfg"]]) == EXIT_OK
    return paths


class TestGenData:
    def test_output_loads(self, workspace):
        ds = load_dataset(workspace["data"])
        assert len(ds) == 32

    def test_identical_flags_identical_bytes(self, workspace, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert main(["gen-data", "--out", str(out), "--n", "8",
                         "--seed", "3", "--config", workspace["cfg"]]) == EXIT_OK
        assert a.read_bytes() == b.read_bytes()

    def test_zero_n_is_usage_error(self, workspace, tmp_path):
        code = main(["gen-data", "--out", str(tmp_path / "x"), "--n", "0",
                     "--config", workspace["cfg"]])
        assert code == EXIT_USAGE

    def test_bad_config_json(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code = main(["gen-data", "--out", str(tmp_path / "x"),
                     "--config", str(bad)])
        assert code == EXIT_USAGE

    def test_unknown_config_key(self, tmp_path):
        bad = tmp_path / "bad.json"
        for overrides in ({"surprise": 1}, {"eval": {"n": 1024}}):
            bad.write_text(json.dumps(overrides))
            code = main(["gen-data", "--out", str(tmp_path / "x"),
                         "--config", str(bad)])
            assert code == EXIT_USAGE, overrides


class TestPretrain:
    def test_checkpoint_kinds(self, workspace):
        old = load_checkpoint(workspace["old"])
        assert old.meta["kind"] == "clip"
        assert old.meta["visual_config"]["embed_dim"] == 8

    def test_roles_get_different_seeds(self, workspace):
        old = load_checkpoint(workspace["old"])
        new = load_checkpoint(workspace["new"])
        assert old.meta["seed"] != new.meta["seed"]

    def test_missing_data_file_is_io_error(self, workspace, tmp_path):
        code = main(["pretrain", "--role", "old", "--data",
                     str(tmp_path / "absent.tacd"), "--out",
                     str(tmp_path / "o"), "--config", workspace["cfg"]])
        assert code == EXIT_IO

    def test_checkpoint_as_dataset_is_io_error(self, workspace, tmp_path):
        code = main(["pretrain", "--role", "old", "--data", workspace["old"],
                     "--out", str(tmp_path / "o"), "--config", workspace["cfg"]])
        assert code == EXIT_IO


def _oversized_dataset(path):
    """A 60-byte dataset whose header declares 2**31 samples."""
    header = (b"TACD" + struct.pack("<I", 1)
              + struct.pack("<IIIII", 2 ** 31, 16, 16, 1, 4)
              + struct.pack("<IIq", 32, 4, 0) + struct.pack("<I", 0))
    path.write_bytes(header.ljust(60, b"\0"))
    return str(path)


def _oversized_checkpoint(path):
    """A 61-byte checkpoint whose one tensor declares shape (2**20,) * 3."""
    body = (b"TACK" + struct.pack("<I", 1) + struct.pack("<I", 2) + b"{}"
            + struct.pack("<I", 1) + struct.pack("<I", 1) + b"w"
            + struct.pack("<I", 3) + struct.pack("<3I", *(2 ** 20,) * 3))
    path.write_bytes(body.ljust(61, b"\0"))
    return str(path)


class TestOversizedHeaders:
    def test_dataset_declaring_more_than_file_is_io_error(self, workspace,
                                                          tmp_path, capsys):
        data = _oversized_dataset(tmp_path / "huge.tacd")
        assert (tmp_path / "huge.tacd").stat().st_size == 60
        code = main(["pretrain", "--role", "old", "--data", data,
                     "--out", str(tmp_path / "o"), "--config", workspace["cfg"]])
        assert code == EXIT_IO
        assert "truncated" in capsys.readouterr().err

    def test_checkpoint_declaring_more_than_file_is_io_error(self, workspace,
                                                             tmp_path, capsys):
        ckpt = _oversized_checkpoint(tmp_path / "huge.tack")
        assert (tmp_path / "huge.tack").stat().st_size == 61
        code = main(["eval-compat", "--old", ckpt, "--taca", workspace["taca"],
                     "--data", workspace["eval"], "--task", "retrieval",
                     "--config", workspace["cfg"]])
        assert code == EXIT_IO
        assert "truncated" in capsys.readouterr().err


def _patched(src, dst, offset, payload):
    """Copy ``src`` to ``dst`` with ``payload`` written at ``offset``."""
    with open(src, "rb") as fh:
        blob = bytearray(fh.read())
    blob[offset:offset + len(payload)] = payload
    dst.write_bytes(bytes(blob))
    return str(dst)


def _meta_len(checkpoint_path):
    with open(checkpoint_path, "rb") as fh:
        return struct.unpack("<I", fh.read(12)[8:])[0]


def _edited_meta(edit):
    """Copy a checkpoint with ``edit`` applied to its metadata object."""
    def copy(src, dst):
        ckpt = load_checkpoint(src)
        edit(ckpt.meta)
        save_checkpoint(ckpt, dst)
    return copy


def _edited_dataset(field, value):
    """Copy a dataset with the first entry of array ``field`` set to ``value``."""
    def copy(src, dst):
        dataset = load_dataset(src)
        getattr(dataset, field)[0, 0] = value
        save_dataset(dataset, dst)
    return copy


def _rename_layers(meta):
    meta["visual_config"]["depth"] = meta["visual_config"].pop("layers")


class TestCorruptArtifacts:
    """Corrupt or non-finite artifacts exit 4 and a diverged run exits 2,
    each with a message that names the cause."""

    def _pretrain(self, workspace, data, tmp_path):
        return main(["pretrain", "--role", "old", "--data", data,
                     "--out", str(tmp_path / "o"), "--config", workspace["cfg"]])

    def _eval(self, workspace, old):
        return main(["eval-compat", "--old", old, "--taca", workspace["taca"],
                     "--data", workspace["eval"], "--task", "retrieval",
                     "--config", workspace["cfg"]])

    def test_undecodable_dataset_digest(self, workspace, tmp_path, capsys):
        # The digest text starts right after the 48-byte fixed header.
        data = _patched(workspace["data"], tmp_path / "d.tacd", 48, b"\xff")
        assert self._pretrain(workspace, data, tmp_path) == EXIT_IO
        assert "undecodable" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_impossible_image_width(self, workspace, tmp_path, capsys):
        data = _patched(workspace["data"], tmp_path / "w.tacd", 16,
                        struct.pack("<I", 3))
        assert self._pretrain(workspace, data, tmp_path) == EXIT_IO
        assert "corrupt dataset header" in capsys.readouterr().err

    def test_undecodable_tensor_name(self, workspace, tmp_path, capsys):
        offset = 12 + _meta_len(workspace["old"]) + 8  # first name byte
        old = _patched(workspace["old"], tmp_path / "n.tack", offset, b"\xff")
        assert self._eval(workspace, old) == EXIT_IO
        assert "undecodable" in capsys.readouterr().err

    def test_non_finite_tensor_named(self, workspace, tmp_path, capsys):
        name, first = next(iter(load_checkpoint(workspace["old"]).tensors.items()))
        # metadata, count, name length, name, rank, shape, then the values
        offset = (12 + _meta_len(workspace["old"]) + 8 + len(name) + 4
                  + 4 * first.ndim)
        old = _patched(workspace["old"], tmp_path / "nan.tack", offset,
                       struct.pack("<d", float("nan")))
        assert self._eval(workspace, old) == EXIT_IO
        err = capsys.readouterr().err
        assert repr(name) in err and "non-finite" in err

    @pytest.mark.parametrize("artifact, edit, named", [
        ("old", _edited_meta(_rename_layers), "'visual_config'"),
        ("old", _edited_meta(lambda meta: meta.pop("text_config")), "'text_config'"),
        ("old", _edited_meta(lambda meta: meta["visual_config"].update(heads=5)),
         "'visual_config'"),
        ("taca", _edited_meta(lambda meta: meta.pop("dim_old")), "'dim_old'"),
        ("eval", _edited_dataset("captions", 200), "caption token ids"),
        ("eval", _edited_dataset("latents", 200), "latent ids"),
        ("taca", _edited_meta(lambda meta: meta.update(seed="x")), "'seed'"),
        ("taca", _edited_meta(lambda meta: meta.update(dim_old=-3)), "'dim_old'"),
        ("old", _edited_meta(lambda meta: meta["visual_config"].update(
            image_spec=None)), "'visual_config'"),
        ("taca", _edited_meta(lambda meta: meta["taca_config"].update(
            bottleneck=2.5)), "'taca_config'"),
        ("old", _edited_meta(lambda meta: meta.update(temperature=0.0)),
         "'temperature'"),
    ], ids=["renamed-layers", "no-text-config", "heads-5", "no-dim-old",
            "caption-token-200", "latent-200", "seed-x", "dim-old-negative",
            "null-image-spec", "fractional-bottleneck", "zero-temperature"])
    def test_artifact_that_does_not_fit_is_io_error(self, workspace, tmp_path,
                                                    capsys, artifact, edit, named):
        paths = dict(workspace, **{artifact: str(tmp_path / artifact)})
        edit(workspace[artifact], paths[artifact])
        assert main(["eval-compat", "--old", paths["old"], "--taca", paths["taca"],
                     "--data", paths["eval"], "--task", "retrieval",
                     "--config", paths["cfg"]]) == EXIT_IO
        assert named in capsys.readouterr().err

    @pytest.mark.parametrize("command, section, values, named", [
        ("pretrain", "old_encoder", {"layers": "x"}, "layers"),
        ("pretrain", "old_encoder", {"heads": 0}, "heads"),
        ("pretrain", "train", {"seed": True}, "seed"),
        ("pretrain", "loss", {"temperature": "0.07"}, "temperature"),
        ("train-taca", "taca", {"bottleneck": 2.5}, "bottleneck"),
        ("train-taca", "taca", {"inserted_layers": ["1"]}, "inserted_layers"),
        ("train-taca", "train", {"taca_learning_rate": -1e-3}, "learning_rate"),
        ("train-taca", "loss", {"symmetric_contrastive": 1}, "symmetric"),
        ("gen-data", "data", {"n": "x"}, "data.n"),
        ("gen-data", "data", {"seed": -1}, "data.seed"),
        ("eval-retrieval", "eval", {"k": "x"}, "eval.k"),
        ("eval-retrieval", "eval", {"gallery_seed": -5}, "eval.gallery_seed"),
        ("eval-classification", "eval", {"head_seeds": []}, "eval.head_seeds"),
        ("eval-classification", "eval", {"head_seeds": [0, "1"]}, "eval.head_seeds"),
        # --role new adds NEW_ROLE_SEED_OFFSET (1000) to train.seed: the seed is
        # checked before the offset, under its config key.
        ("pretrain-new", "train", {"seed": "x"}, "train.seed"),
        ("pretrain-new", "train", {"seed": True}, "train.seed"),
        ("pretrain-new", "train", {"seed": -1001}, "got -1001"),
        ("pretrain-new", "new_encoder", {"pretrain_steps": 0},
         "new_encoder.pretrain_steps"),
        ("pretrain-new", "new_encoder", {"pretrain_steps": 2.5},
         "new_encoder.pretrain_steps"),
    ], ids=["layers-x", "heads-0", "seed-true", "temperature-string",
            "fractional-bottleneck", "layer-string", "negative-lr", "symmetric-1",
            "data-n-x", "data-seed-negative", "eval-k-x", "gallery-seed-negative",
            "head-seeds-empty", "head-seed-string", "new-seed-x", "new-seed-true",
            "new-seed-below-offset", "new-steps-0", "new-steps-fractional"])
    def test_config_value_of_wrong_type_or_sign_is_usage_error(
            self, workspace, tmp_path, capsys, command, section, values, named):
        cfg = json.loads(json.dumps(FAST_CONFIG))
        cfg.setdefault(section, {}).update(values)
        cfg_path = tmp_path / "typed.json"
        cfg_path.write_text(json.dumps(cfg))
        evaluate = ["eval-compat", "--old", workspace["old"], "--taca", workspace["taca"],
                    "--data", workspace["eval"], "--task"]
        argv = {"pretrain": ["pretrain", "--role", "old", "--data", workspace["data"]],
                "pretrain-new": ["pretrain", "--role", "new", "--data", workspace["data"]],
                "train-taca": ["train-taca", "--old", workspace["old"],
                               "--new", workspace["new"], "--data", workspace["data"]],
                "gen-data": ["gen-data"],
                "eval-retrieval": [*evaluate, "retrieval"],
                "eval-classification": [*evaluate, "classification"]}[command]
        assert main([*argv, "--out", str(tmp_path / "o"),
                     "--config", str(cfg_path)]) == EXIT_USAGE
        assert named in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("task", ["retrieval", "classification"])
    def test_empty_eval_split_is_io_error(self, workspace, tmp_path, capsys, task):
        split = load_dataset(workspace["eval"])
        empty = tmp_path / "empty.tacd"
        save_dataset(Dataset(split.spec, split.images[:0], split.captions[:0],
                             split.latents[:0], split.seed, split.config_digest), empty)
        assert main(["eval-compat", "--old", workspace["old"], "--taca", workspace["taca"],
                     "--data", str(empty), "--task", task,
                     "--config", workspace["cfg"]]) == EXIT_IO
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "declares no samples" in err

    # A diverging step overflows; the run stops at that step without numpy warnings.
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_divergent_pretrain_stops_at_its_step(self, workspace, tmp_path,
                                                  capsys):
        cfg = json.loads(json.dumps(FAST_CONFIG))
        cfg["train"]["learning_rate"] = 1e6
        cfg["old_encoder"]["pretrain_steps"] = 40  # a feature norm overflows at step 19
        cfg_path = tmp_path / "diverge.json"
        cfg_path.write_text(json.dumps(cfg))
        out = tmp_path / "o.tack"
        code = main(["pretrain", "--role", "old", "--data", workspace["data"],
                     "--out", str(out), "--config", str(cfg_path)])
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert "diverged" in err and "at step 19" in err
        assert "train.learning_rate" in err
        assert not out.exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_divergent_train_taca_stops_at_its_step(self, workspace, tmp_path,
                                                    capsys):
        cfg = json.loads(json.dumps(FAST_CONFIG))
        cfg["train"].update(taca_learning_rate=1e6, steps=40)
        cfg_path = tmp_path / "diverge.json"
        cfg_path.write_text(json.dumps(cfg))
        out, log = tmp_path / "t.tack", tmp_path / "loss.csv"
        # The projector's features stay finite, but their norm overflows at
        # step 20: that is divergence, not a malformed loss input.
        code = main(["train-taca", "--old", workspace["old"], "--new", workspace["new"],
                     "--data", workspace["data"], "--out", str(out), "--log", str(log),
                     "--config", str(cfg_path)])
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert "diverged" in err and "not finite at step 20" in err
        assert "train.taca_learning_rate" in err
        assert not out.exists() and not log.exists()


class TestTrainTaca:
    def test_loss_csv_recomposes(self, workspace):
        rows = list(csv.DictReader(open(workspace["root"] / "loss.csv")))
        assert len(rows) == FAST_CONFIG["train"]["steps"]
        for row in rows:
            total = float(row["total"])
            contra = float(row["contrastive"])
            distill = float(row["distillation"])
            assert abs(total - (contra + 2.0 * distill)) < 1e-9

    def test_attachment_checkpoint_kind(self, workspace):
        taca = load_checkpoint(workspace["taca"])
        assert taca.meta["kind"] == "taca_attachment"
        assert taca.meta["dim_old"] == 8

    def test_symmetric_contrastive_from_config(self, workspace, tmp_path):
        cfg = json.loads(json.dumps(FAST_CONFIG))
        cfg["loss"] = {"symmetric_contrastive": True}
        cfg_path = tmp_path / "sym.json"
        cfg_path.write_text(json.dumps(cfg))
        log = tmp_path / "sym.csv"
        assert main(["train-taca", "--old", workspace["old"],
                     "--new", workspace["new"], "--data", workspace["data"],
                     "--out", str(tmp_path / "t"), "--log", str(log),
                     "--config", str(cfg_path)]) == EXIT_OK
        one_way = list(csv.reader(
            (workspace["root"] / "loss.csv").read_text().splitlines()))
        both_ways = list(csv.reader(log.read_text().splitlines()))
        assert one_way[1][0] == both_ways[1][0] == "0"
        assert one_way[1][2] != both_ways[1][2]  # contrastive term

    def test_swapped_checkpoints_is_usage_error(self, workspace, tmp_path):
        code = main(["train-taca", "--old", workspace["data"],
                     "--new", workspace["new"], "--data", workspace["data"],
                     "--out", str(tmp_path / "t"), "--config", workspace["cfg"]])
        assert code == EXIT_IO  # dataset file is not a checkpoint


class TestEvalCompat:
    def test_report_written_and_schema(self, workspace, tmp_path):
        out = tmp_path / "report.json"
        code = main(["eval-compat", "--old", workspace["old"],
                     "--taca", workspace["taca"], "--new-cold", workspace["new"],
                     "--data", workspace["eval"], "--task", "retrieval",
                     "--out", str(out), "--config", workspace["cfg"]])
        assert code in (EXIT_OK, EXIT_ORDERING)
        doc = json.loads(out.read_text())
        assert doc["task"] == "retrieval"
        assert code == (EXIT_OK if doc["left_ok"] else EXIT_ORDERING)

    def test_classification_task_runs(self, workspace, tmp_path):
        code = main(["eval-compat", "--old", workspace["old"],
                     "--taca", workspace["taca"], "--data", workspace["eval"],
                     "--task", "classification", "--out",
                     str(tmp_path / "r.json"), "--config", workspace["cfg"]])
        assert code in (EXIT_OK, EXIT_ORDERING)

    def test_digest_mismatch_rejected_without_force(self, workspace, tmp_path):
        other_cfg = dict(FAST_CONFIG)
        other_cfg = json.loads(json.dumps(FAST_CONFIG))
        other_cfg["train"]["steps"] = 7
        cfg2 = tmp_path / "cfg2.json"
        cfg2.write_text(json.dumps(other_cfg))
        old2 = tmp_path / "old2.tack"
        assert main(["pretrain", "--role", "old", "--data", workspace["data"],
                     "--out", str(old2), "--config", str(cfg2)]) == EXIT_OK
        args = ["eval-compat", "--old", str(old2), "--taca", workspace["taca"],
                "--new-cold", workspace["new"], "--data", workspace["eval"],
                "--task", "retrieval", "--config", workspace["cfg"]]
        assert main(args) == EXIT_USAGE
        assert main(args + ["--force"]) in (EXIT_OK, EXIT_ORDERING)

    def test_gallery_seed_from_config(self, workspace, tmp_path, monkeypatch):
        cfg = json.loads(json.dumps(FAST_CONFIG))
        cfg["eval"]["gallery_seed"] = 77
        cfg_path = tmp_path / "gallery.json"
        cfg_path.write_text(json.dumps(cfg))
        seeds = []
        real_gallery = evaluation.canonical_caption_gallery

        def recording_gallery(text_weights, gallery_seed=1234):
            seeds.append(gallery_seed)
            return real_gallery(text_weights, gallery_seed)

        monkeypatch.setattr(evaluation, "canonical_caption_gallery",
                            recording_gallery)
        code = main(["eval-compat", "--old", workspace["old"],
                     "--taca", workspace["taca"], "--new-cold", workspace["new"],
                     "--data", workspace["eval"], "--task", "retrieval",
                     "--config", str(cfg_path)])
        assert code in (EXIT_OK, EXIT_ORDERING)
        assert seeds == [77, 77]


class TestVerifyAndUsage:
    def test_verify_losses_suite(self, capsys):
        assert main(["verify", "--suite", "losses"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out

    def test_verify_params_suite(self):
        assert main(["verify", "--suite", "params"]) == EXIT_OK

    def test_unknown_subcommand(self):
        assert main(["frobnicate"]) == EXIT_USAGE

    def test_missing_required_flag(self):
        assert main(["gen-data"]) == EXIT_USAGE


# After one CLI command, 20 rounds of four freed (128, 17, 192) float64
# activations, the size of a batch-128 FFN temporary, print their minor faults.
# One warm-up round first grows the heap; the rounds then reuse it.
CHURN = """
import resource
import numpy as np
from hotplug.cli import main
assert main(["verify", "--suite", "params"]) == 0
def churn(rounds):
    for _ in range(rounds):
        arrays = [np.full((128, 17, 192), 1.0) for _ in range(4)]
        del arrays
churn(1)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
churn(20)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


class TestAllocatorPolicy:
    @pytest.mark.skipif(not hasattr(ctypes.CDLL(None), "mallopt"),
                        reason="the C library has no mallopt")
    def test_freed_activations_are_not_faulted_in_again(self):
        src = os.path.dirname(os.path.dirname(cli.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        out = subprocess.run([sys.executable, "-c", CHURN], env=env, check=True,
                             capture_output=True, text=True).stdout
        # Without the policy each round faults in all 3.3 MB arrays again:
        # 808 pages each, 64,640 faults over the 20 rounds.
        assert int(out.split()[-1]) < 1000

    def test_without_mallopt_main_still_runs(self, monkeypatch):
        opened = []
        monkeypatch.setattr(cli.ctypes, "CDLL", lambda name: opened.append(name) or object())
        cli.keep_temporaries_in_heap.cache_clear()
        try:
            assert main(["verify", "--suite", "params"]) == EXIT_OK
            assert opened == [None]
        finally:
            cli.keep_temporaries_in_heap.cache_clear()
