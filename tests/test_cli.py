"""End-to-end CLI: generation, training, evaluation, explanation, reporting."""

import argparse
import dataclasses
import json
import math
import re
import shutil
import warnings
from pathlib import Path

import numpy as np
import pytest

from xnesyl.cli import build_parser, main
from xnesyl.datagen import GeneratorConfig, read_dataset, split_dataset
from xnesyl.errors import ValidationError
from xnesyl.kg import KnowledgeGraph, dumps_kg, monumai_kg
from xnesyl.training import TrainConfig


@pytest.fixture(scope="module")
def kg_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("kg") / "monumai.json"
    path.write_text(dumps_kg(monumai_kg()), encoding="utf-8")
    return str(path)


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory, kg_path):
    """One generated dataset plus one fast trained run, shared by tests."""
    root = tmp_path_factory.mktemp("run")
    data = str(root / "data.jsonl")
    out = str(root / "ckpt")
    assert main([
        "gen", "--kg", kg_path, "--out", data, "--count", "120",
        "--seed", "3", "--noise", "0.1", "--dim", "6", "--sep", "6",
        "--regions", "2:4",
    ]) == 0
    assert main([
        "train", "--kg", kg_path, "--data", data, "--out-dir", out,
        "--mode", "standard", "--epochs-det", "3", "--epochs-clf", "8",
        "--shap", "kernel", "--shap-samples", "64", "--bg-size", "10",
        "--seed", "3",
    ]) == 0
    return {"root": root, "data": data, "out": out}


class TestGen:
    def test_deterministic_regeneration(self, kg_path, tmp_path):
        out_a = str(tmp_path / "a.jsonl")
        out_b = str(tmp_path / "b.jsonl")
        args = ["gen", "--kg", kg_path, "--count", "30", "--seed", "9"]
        assert main(args + ["--out", out_a]) == 0
        assert main(args + ["--out", out_b]) == 0
        assert Path(out_a).read_text() == Path(out_b).read_text()

    def test_emitted_file_is_readable(self, run_dir):
        instances = read_dataset(run_dir["data"], monumai_kg())
        assert len(instances) == 120

    def test_bad_regions_flag(self, kg_path, tmp_path):
        code = main([
            "gen", "--kg", kg_path, "--out", str(tmp_path / "x.jsonl"),
            "--count", "5", "--regions", "four",
        ])
        assert code == 3

    @pytest.mark.parametrize(
        "objects, parts, message",
        [
            ([], ["arch"], "need at least 2 object classes, got 0"),
            (["Gothic", "Baroque"], [], "need at least 1 part class, got 0"),
        ],
        ids=["objects", "parts"],
    )
    def test_empty_class_list_exits_3(self, tmp_path, capsys, objects, parts, message):
        kg = tmp_path / "kg.json"
        doc = {"object_classes": objects, "part_classes": parts, "typical_of": []}
        kg.write_text(json.dumps(doc), encoding="utf-8")
        capsys.readouterr()
        code = main(["gen", "--kg", str(kg), "--out", str(tmp_path / "x.jsonl"), "--count", "5"])
        assert code == 3
        assert capsys.readouterr().err == f"error: {kg}: {message}\n"

    @pytest.mark.parametrize(
        "text, message",
        [
            ("{not json", "malformed JSON in knowledge graph file: "),
            ("[1]", "knowledge graph file must be a JSON object\n"),
            ('{"object_classes": ["A", "B"], "part_classes": ["a"]}',
             "knowledge graph file lacks typical_of\n"),
            ('{"object_classes": ["A", 1], "part_classes": ["a"], "typical_of": []}',
             "object_classes is not a list of strings\n"),
            ('{"object_classes": [], "part_classes": ["a"], "typical_of": []}',
             "need at least 2 object classes, got 0\n"),
            ('{"object_classes": ["A", "A"], "part_classes": ["a"], "typical_of": []}',
             "duplicate label 'A'\n"),
            ('{"object_classes": ["A", "B"], "part_classes": ["p"], "typical_of": {}}',
             "typical_of must be a list of [part, object] pairs\n"),
            ('{"object_classes": ["A", "B"], "part_classes": ["p"], "typical_of": [["q", "A"]]}',
             "typical-of edge names undeclared part 'q'\n"),
            ('{"object_classes": ["A", "B"], "part_classes": ["p"],'
             ' "typical_of": [["p", "A"], ["p", "A"]]}',
             "duplicate typical-of edge ('p', 'A')\n"),
        ],
        ids=[
            "not-json", "list", "no-typical-of", "int-label", "one-class", "duplicate-label",
            "edges-not-list", "undeclared-part", "duplicate-edge",
        ],
    )
    def test_kg_file_fault_names_the_file(self, tmp_path, capsys, text, message):
        kg = tmp_path / "kg.json"
        kg.write_text(text, encoding="utf-8")
        capsys.readouterr()
        code = main(["gen", "--kg", str(kg), "--out", str(tmp_path / "x.jsonl"), "--count", "5"])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith(f"error: {kg}: {message}") and len(err.splitlines()) == 1

    def test_missing_kg_file(self, tmp_path):
        code = main([
            "gen", "--kg", str(tmp_path / "nope.json"),
            "--out", str(tmp_path / "x.jsonl"), "--count", "5",
        ])
        assert code == 3


class TestTrain:
    def test_outputs_exist(self, run_dir):
        out = run_dir["out"]
        for name in (
            "detector.json", "classifier.json", "background.json", "metrics.json",
            "ged_report.json",
        ):
            assert (run_dir["root"] / "ckpt" / name).exists(), name

    def test_metrics_json_round_trips(self, run_dir):
        doc = json.loads((run_dir["root"] / "ckpt" / "metrics.json").read_text())
        assert set(doc) == {"config", "metrics", "per_epoch"}
        assert doc["config"]["mode"] == "standard"

    def test_ged_report_has_mean_and_instances(self, run_dir):
        doc = json.loads((run_dir["root"] / "ckpt" / "ged_report.json").read_text())
        assert "mean" in doc
        assert len(doc) > 1

    def test_scheme_with_standard_mode_is_usage_error(self, kg_path, run_dir, capsys):
        with pytest.raises(SystemExit) as exc:
            main([
                "train", "--kg", kg_path, "--data", run_dir["data"],
                "--out-dir", str(run_dir["root"] / "bad"),
                "--mode", "standard", "--scheme", "linear-instance",
            ])
        assert exc.value.code == 2

    def test_backprop_without_scheme_is_usage_error(self, kg_path, run_dir):
        with pytest.raises(SystemExit) as exc:
            main([
                "train", "--kg", kg_path, "--data", run_dir["data"],
                "--out-dir", str(run_dir["root"] / "bad"),
                "--mode", "shap-backprop",
            ])
        assert exc.value.code == 2

    def test_unknown_flag_is_usage_error(self, kg_path):
        with pytest.raises(SystemExit) as exc:
            main(["train", "--kg", kg_path, "--frobnicate"])
        assert exc.value.code == 2

    def test_non_finite_learning_rate_exits_3(self, kg_path, run_dir, capsys):
        code = main([
            "train", "--kg", kg_path, "--data", run_dir["data"],
            "--out-dir", str(run_dir["root"] / "nan-lr"), "--lr-det", "nan",
        ])
        assert code == 3
        err = capsys.readouterr().err
        assert "learning rates must be finite" in err and "Traceback" not in err


    def test_too_few_coalition_samples_exit_3_before_detecting(
        self, kg_path, run_dir, capsys, detect_calls
    ):
        detect_calls.clear()
        code = main([
            "train", "--kg", kg_path, "--data", run_dir["data"],
            "--out-dir", str(run_dir["root"] / "few-samples"),
            "--shap", "kernel", "--shap-samples", "20",
        ])
        assert code == 3
        assert len(detect_calls) == 0
        err = capsys.readouterr().err
        assert err == "error: need at least 2n = 28 coalition samples, got 20\n"

    def test_detector_divergence_exits_4(self, kg_path, run_dir, capsys):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main([
                "train", "--kg", kg_path, "--data", run_dir["data"],
                "--out-dir", str(run_dir["root"] / "diverged"), "--lr-det", "1e308",
                "--epochs-det", "2", "--epochs-clf", "2", "--shap-samples", "32",
            ])
        assert code == 4
        err = capsys.readouterr().err
        assert "detector" in err and "epoch 1" in err
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


class TestMalformedDataset:
    @staticmethod
    def _line(inst_id, dims):
        return json.dumps({
            "id": inst_id,
            "object_class": "Gothic",
            "regions": [
                {"part_class": "pointed arch", "features": [0.5] * d} for d in dims
            ],
        })

    def _train(self, kg_path, tmp_path, lines):
        data = tmp_path / "bad.jsonl"
        data.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return main([
            "train", "--kg", kg_path, "--data", str(data),
            "--out-dir", str(tmp_path / "out"), "--epochs-det", "1", "--epochs-clf", "1",
        ])

    # one tuple of region feature dimensions per instance
    @pytest.mark.parametrize(
        "dims", [[(4, 4), (3,)], [(4, 3)]], ids=["across-instances", "within-instance"]
    )
    def test_mixed_feature_dimensions_exit_3(self, kg_path, tmp_path, capsys, dims):
        lines = [self._line(f"inst-{i}", d) for i, d in enumerate(dims)]
        code = self._train(kg_path, tmp_path, lines)
        assert code == 3
        err = capsys.readouterr().err
        assert f"bad.jsonl:{len(lines)}:" in err and "dimension" in err

    def test_duplicate_ids_exit_3(self, kg_path, tmp_path, capsys):
        lines = [self._line(inst_id, (4,)) for inst_id in ("inst-a", "inst-b", "inst-a")]
        assert self._train(kg_path, tmp_path, lines) == 3
        err = capsys.readouterr().err
        assert "bad.jsonl:3:" in err and "duplicate instance id 'inst-a'" in err


class TestNonUtf8Input:
    """A --data, --kg or checkpoint file that is not UTF-8 exits 3 with one line naming it."""

    @pytest.mark.parametrize(
        "command, bad",
        [("gen", "kg")]
        + [(c, b) for c in ("train", "eval", "explain") for b in ("data", "kg")]
        + [("eval", name) for name in ("metrics.json", "detector.json", "classifier.json")]
        + [("explain", "background.json")],
    )
    def test_exits_3_naming_the_file(self, kg_path, run_dir, tmp_path, capsys, command, bad):
        ckpt = run_dir["out"]
        if bad.endswith(".json"):  # one file of a copied run directory
            ckpt = tmp_path / "ckpt"
            shutil.copytree(run_dir["out"], ckpt)
            bad_path = ckpt / bad
        else:
            bad_path = tmp_path / "bad.json"
        bad_path.write_bytes(b'\xff\xfe{"id": 1}\n')
        kg = str(bad_path) if bad == "kg" else kg_path
        data = str(bad_path) if bad == "data" else run_dir["data"]
        argv = {
            "gen": ["gen", "--kg", kg, "--out", str(tmp_path / "out.jsonl"), "--count", "5"],
            "train": [
                "train", "--kg", kg, "--data", data, "--out-dir", str(tmp_path / "run"),
                "--epochs-det", "1", "--epochs-clf", "1",
            ],
            "eval": [
                "eval", "--kg", kg, "--data", data, "--checkpoints", str(ckpt),
                "--out", str(tmp_path / "eval.json"),
            ],
            "explain": [
                "explain", "--kg", kg, "--data", data, "--checkpoints", str(ckpt),
                "--instance-id", "inst-000000", "--out-dir", str(tmp_path / "x"),
            ],
        }[command]
        capsys.readouterr()
        assert main(argv) == 3
        err = capsys.readouterr().err
        where = f"{bad_path}:1: " if bad == "data" else f"{bad_path}: "
        assert err.startswith(f"error: {where}") and "not UTF-8 text" in err
        assert len(err.splitlines()) == 1 and "Traceback" not in err


class TestEval:
    def test_stdout_matches_file_and_training_metrics(self, kg_path, run_dir, capsys):
        assert main([
            "eval", "--kg", kg_path, "--data", run_dir["data"],
            "--checkpoints", run_dir["out"],
        ]) == 0
        stdout = capsys.readouterr().out
        on_disk = (run_dir["root"] / "ckpt" / "eval_metrics.json").read_text()
        assert stdout == on_disk
        evaluated = json.loads(stdout)["metrics"]
        trained = json.loads(
            (run_dir["root"] / "ckpt" / "metrics.json").read_text()
        )["metrics"]
        assert evaluated == trained

    def test_repeat_invocations_identical(self, kg_path, run_dir, capsys):
        args = [
            "eval", "--kg", kg_path, "--data", run_dir["data"],
            "--checkpoints", run_dir["out"],
        ]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        second = capsys.readouterr().out
        assert first == second


def _edit(key, change):
    """A map from a saved JSON document to one whose `key` holds change(value)."""
    return lambda doc: {**doc, key: change(doc[key])}


class TestMalformedRunDir:
    # `edit` is the file's new text, a map from its saved document to the
    # written one, or None to delete the file; `mention` must be in the message
    @pytest.mark.parametrize(
        "name, edit, mention",
        [
            ("metrics.json", "{not json", "JSON"),
            ("metrics.json", '{"config": {"seed": 1}}', "config"),
            ("metrics.json", "[1]", "object"),
            ("detector.json", "{bad", "JSON"),
            ("detector.json", '{"kind": "part_detector"}', "lacks"),
            ("classifier.json", lambda doc: {k: v for k, v in doc.items() if k != "w1"}, "w1"),
            ("classifier.json", _edit("b2", lambda a: a[:1]), "b2"),
            ("classifier.json", _edit("w1", lambda a: [[math.nan, *a[0][1:]], *a[1:]]), "w1"),
            ("classifier.json", _edit("w1", lambda a: [a[0][:-1], *a[1:]]), "w1"),
            ("detector.json", _edit("bias", lambda a: ["x", *a[1:]]), "bias"),
            ("classifier.json", _edit("w2", lambda a: a[:2]), "w2"),
            ("background.json", None, "re-train"),
            ("background.json", _edit("vectors", lambda a: [row[:-1] for row in a]), "vectors"),
            ("classifier.json", _edit("object_classes", lambda a: 4), "object_classes"),
            ("detector.json", _edit("part_classes", lambda a: None), "part_classes"),
        ],
        ids=[
            "metrics-not-json", "metrics-partial-config", "metrics-list",
            "detector-not-json", "detector-kind-only", "classifier-without-w1",
            "b2-length-1", "w1-nan", "w1-ragged-row", "bias-string", "w2-two-rows",
            "background-missing", "background-narrow", "object-classes-int",
            "part-classes-null",
        ],
    )
    def test_eval_exits_3(self, kg_path, run_dir, tmp_path, capsys, name, edit, mention):
        ckpt = tmp_path / "ckpt"
        shutil.copytree(run_dir["out"], ckpt)
        if edit is None:
            (ckpt / name).unlink()
        else:
            if callable(edit):
                edit = json.dumps(edit(json.loads((ckpt / name).read_text())))
            (ckpt / name).write_text(edit, encoding="utf-8")
        code = main([
            "eval", "--kg", kg_path, "--data", run_dir["data"], "--checkpoints", str(ckpt),
        ])
        assert code == 3
        err = capsys.readouterr().err
        assert name in err and mention in err and "Traceback" not in err


class TestSavedBackground:
    def test_eval_detects_only_the_test_split(self, kg_path, run_dir, tmp_path, detect_calls):
        test_split = split_dataset(read_dataset(run_dir["data"], monumai_kg()))[2]
        detect_calls.clear()
        assert main([
            "eval", "--kg", kg_path, "--data", run_dir["data"],
            "--checkpoints", run_dir["out"], "--out", str(tmp_path / "eval.json"),
        ]) == 0
        # every test region inferred once, in one call
        assert detect_calls == [sum(len(inst.regions) for inst in test_split)]

    def test_explain_detects_one_instance(self, kg_path, run_dir, tmp_path, detect_calls):
        inst_id = read_dataset(run_dir["data"], monumai_kg())[0].id
        detect_calls.clear()
        assert main([
            "explain", "--kg", kg_path, "--data", run_dir["data"],
            "--checkpoints", run_dir["out"], "--instance-id", inst_id,
            "--out-dir", str(tmp_path),
        ]) == 0
        assert len(detect_calls) == 1

    def test_eval_ignores_training_split_of_data(self, kg_path, run_dir, tmp_path, capsys):
        kg = monumai_kg()
        train_ids = {inst.id for inst in split_dataset(read_dataset(run_dir["data"], kg))[0]}
        lines = []
        for line in Path(run_dir["data"]).read_text(encoding="utf-8").splitlines():
            doc = json.loads(line)
            if doc["id"] in train_ids:
                for region in doc["regions"]:
                    region["features"] = [-f for f in region["features"]]
            lines.append(json.dumps(doc))
        edited = tmp_path / "edited.jsonl"
        edited.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert main([
            "eval", "--kg", kg_path, "--data", str(edited),
            "--checkpoints", run_dir["out"], "--out", str(tmp_path / "eval.json"),
        ]) == 0
        evaluated = json.loads(capsys.readouterr().out)["metrics"]
        trained = json.loads((run_dir["root"] / "ckpt" / "metrics.json").read_text())["metrics"]
        assert evaluated == trained


class TestExplain:
    def test_dot_edges_match_builder(self, kg_path, run_dir, capsys):
        from xnesyl.alignment import build_sag
        from xnesyl.classifier import load_classifier
        from xnesyl.detector import aggregate, detect, load_detector
        from xnesyl.shapley import BackgroundSet, shap_matrix
        from xnesyl.streams import scoring_seeds
        from xnesyl.training import config_from_echo

        kg = monumai_kg()
        dataset = read_dataset(run_dir["data"], kg)
        inst = dataset[0]
        assert main([
            "explain", "--kg", kg_path, "--data", run_dir["data"],
            "--checkpoints", run_dir["out"], "--instance-id", inst.id,
        ]) == 0
        capsys.readouterr()
        dot = (run_dir["root"] / "ckpt" / f"sag-{inst.id}.dot").read_text()
        parsed = frozenset(re.findall(r'"([^"]+)" -> "([^"]+)";', dot))

        det = load_detector(run_dir["root"] / "ckpt" / "detector.json")
        clf = load_classifier(run_dir["root"] / "ckpt" / "classifier.json")
        echo = json.loads((run_dir["root"] / "ckpt" / "metrics.json").read_text())["config"]
        cfg = config_from_echo(echo)
        splits = split_dataset(dataset)
        background = BackgroundSet(np.array(
            json.loads((run_dir["root"] / "ckpt" / "background.json").read_text())["vectors"]
        ))
        v = aggregate(detect(det, inst), cfg.aggregation)
        # seeded by the instance's position in its own split
        index = next(
            i for split in splits for i, other in enumerate(split) if other.id == inst.id
        )
        values = shap_matrix(
            clf.predict_proba, v, background, cfg.shap_mode, cfg.shap_samples,
            seed=scoring_seeds(cfg.seed, [index])[0],
        )
        expected = build_sag(kg, v, values, cfg.s)
        assert parsed == expected.edges

        edge_doc = json.loads(
            (run_dir["root"] / "ckpt" / f"sag-{inst.id}.json").read_text()
        )
        assert frozenset(tuple(e) for e in edge_doc["edges"]) == expected.edges

    def test_distance_matches_ged_report_for_every_test_id(self, kg_path, run_dir, tmp_path):
        # the fixture run uses --shap kernel, whose estimates depend on the seed
        from xnesyl.alignment import SAG, shap_ged
        from xnesyl.datagen import split_dataset

        kg = monumai_kg()
        ged_report = json.loads((run_dir["root"] / "ckpt" / "ged_report.json").read_text())
        test_split = split_dataset(read_dataset(run_dir["data"], kg))[2]
        for inst in test_split:
            assert main([
                "explain", "--kg", kg_path, "--data", run_dir["data"],
                "--checkpoints", run_dir["out"], "--instance-id", inst.id,
                "--out-dir", str(tmp_path),
            ]) == 0
            edges = json.loads((tmp_path / f"sag-{inst.id}.json").read_text())["edges"]
            sag = SAG(frozenset(tuple(e) for e in edges))
            assert shap_ged(sag, kg) == ged_report[inst.id], inst.id

    def test_unknown_instance_id(self, kg_path, run_dir):
        code = main([
            "explain", "--kg", kg_path, "--data", run_dir["data"],
            "--checkpoints", run_dir["out"], "--instance-id", "inst-999999",
        ])
        assert code == 3

    def test_csv_has_all_class_rows(self, kg_path, run_dir):
        import csv

        kg = monumai_kg()
        inst_id = read_dataset(run_dir["data"], kg)[0].id
        assert main([
            "explain", "--kg", kg_path, "--data", run_dir["data"],
            "--checkpoints", run_dir["out"], "--instance-id", inst_id,
        ]) == 0
        with open(run_dir["root"] / "ckpt" / f"sag-{inst_id}.csv") as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == kg.num_object_classes * kg.num_parts
        assert {r["class"] for r in rows} == set(kg.object_classes)

    def _explain_csv(self, kg_path, run_dir, tmp_path):
        """Run explain on a test instance past the first (so its seed comes from
        its position) and return its CSV rows with the attributions it must hold."""
        import csv

        from xnesyl.alignment import instance_attribution
        from xnesyl.detector import aggregate, detect, load_detector
        from xnesyl.classifier import load_classifier
        from xnesyl.shapley import BackgroundSet
        from xnesyl.streams import scoring_seeds
        from xnesyl.training import config_from_echo

        kg = monumai_kg()
        ckpt = run_dir["root"] / "ckpt"
        index, inst = 1, split_dataset(read_dataset(run_dir["data"], kg))[2][1]
        assert main([
            "explain", "--kg", kg_path, "--data", run_dir["data"],
            "--checkpoints", run_dir["out"], "--instance-id", inst.id,
            "--out-dir", str(tmp_path),
        ]) == 0
        with open(tmp_path / f"sag-{inst.id}.csv", newline="") as handle:
            rows = list(csv.reader(handle))

        cfg = config_from_echo(json.loads((ckpt / "metrics.json").read_text())["config"])
        background = BackgroundSet(
            np.array(json.loads((ckpt / "background.json").read_text())["vectors"])
        )
        v = aggregate(detect(load_detector(ckpt / "detector.json"), inst), cfg.aggregation)
        values, _ = instance_attribution(
            load_classifier(ckpt / "classifier.json"), v, kg, background, cfg.s,
            cfg.shap_mode, cfg.shap_samples, scoring_seeds(cfg.seed, [index])[0],
        )
        return kg, rows, v, values

    def test_single_instance_reproduces_row(self, kg_path, run_dir, tmp_path):
        kg, rows, v, values = self._explain_csv(kg_path, run_dir, tmp_path)
        assert rows[0] == ["part", "feature_value", "shap_value", "class"]
        # class-major in KG order, then parts in KG order
        expected = [
            (part, float(v[j]), float(values[k, j]), label)
            for k, label in enumerate(kg.object_classes)
            for j, part in enumerate(kg.part_classes)
        ]
        assert [(p, float(f), float(x), c) for p, f, x, c in rows[1:]] == expected

    def test_csv_round_trips_values(self, kg_path, run_dir, tmp_path):
        kg, rows, v, values = self._explain_csv(kg_path, run_dir, tmp_path)
        assert len(rows) == 1 + kg.num_object_classes * kg.num_parts
        # every value is written as the exact repr of a Python float
        for i, (part, feature, shap, label) in enumerate(rows[1:]):
            k, j = divmod(i, kg.num_parts)
            assert (part, label) == (kg.part_classes[j], kg.object_classes[k])
            assert feature == repr(float(v[j]))
            assert shap == repr(float(values[k, j]))
            assert float(shap) == values[k, j]


def _reference_locate(path, kg, instance_id, dim):
    """`(index, instance)` found as `explain` did before it read only one line;
    `dim` goes unchecked here, since the detector itself refuses another width."""
    for split in split_dataset(read_dataset(path, kg)):
        for index, inst in enumerate(split):
            if inst.id == instance_id:
                return index, inst
    return None


def _sag_files(out_dir, inst_id):
    return {ext: (out_dir / f"sag-{inst_id}.{ext}").read_bytes() for ext in ("dot", "json", "csv")}


class TestExplainReadsItsOwnLine:
    """`explain` validates its own line in full and every other line only for its id."""

    # each edit makes one line's instance invalid
    EDITS = {
        "unknown-part": lambda doc: doc["regions"][0].update(part_class="flying buttress"),
        "non-finite": lambda doc: doc["regions"][0].update(features=[float("nan")] * 6),
        "other-dimension": lambda doc: doc["regions"][0]["features"].append(0.0),
    }

    @staticmethod
    def _explain(kg_path, run_dir, data, inst_id, out_dir):
        return main([
            "explain", "--kg", kg_path, "--data", str(data), "--checkpoints", run_dir["out"],
            "--instance-id", inst_id, "--out-dir", str(out_dir),
        ])

    @staticmethod
    def _edited(run_dir, tmp_path, lineno, edit):
        """The run's dataset with `edit` applied to the raw text or the document of line `lineno`."""
        lines = Path(run_dir["data"]).read_text(encoding="utf-8").splitlines()
        if callable(edit):
            doc = json.loads(lines[lineno - 1])
            edit(doc)
            edit = json.dumps(doc)
        lines[lineno - 1] = edit
        path = tmp_path / "edited.jsonl"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return path

    @pytest.mark.parametrize("split", [0, 1, 2], ids=["train", "val", "test"])
    def test_agrees_with_reading_the_whole_split(
        self, kg_path, run_dir, tmp_path, monkeypatch, split
    ):
        inst = split_dataset(read_dataset(run_dir["data"], monumai_kg()))[split][1]
        assert self._explain(kg_path, run_dir, run_dir["data"], inst.id, tmp_path / "a") == 0
        monkeypatch.setattr("xnesyl.cli.locate_instance", _reference_locate)
        assert self._explain(kg_path, run_dir, run_dir["data"], inst.id, tmp_path / "b") == 0
        assert _sag_files(tmp_path / "a", inst.id) == _sag_files(tmp_path / "b", inst.id)

    @pytest.mark.parametrize("edit", sorted(EDITS))
    def test_ignores_another_lines_instance(self, kg_path, run_dir, tmp_path, edit):
        inst_id = json.loads(Path(run_dir["data"]).read_text().splitlines()[-1])["id"]
        assert self._explain(kg_path, run_dir, run_dir["data"], inst_id, tmp_path / "a") == 0
        edited = self._edited(run_dir, tmp_path, 2, self.EDITS[edit])
        with pytest.raises(ValidationError):
            read_dataset(edited, monumai_kg())
        assert self._explain(kg_path, run_dir, edited, inst_id, tmp_path / "b") == 0
        assert _sag_files(tmp_path / "a", inst_id) == _sag_files(tmp_path / "b", inst_id)

    @pytest.mark.parametrize("edit", sorted(EDITS))
    def test_own_malformed_line_exits_3(self, kg_path, run_dir, tmp_path, capsys, edit):
        inst_id = json.loads(Path(run_dir["data"]).read_text().splitlines()[4])["id"]
        edited = self._edited(run_dir, tmp_path, 5, self.EDITS[edit])
        capsys.readouterr()
        assert self._explain(kg_path, run_dir, edited, inst_id, tmp_path / "x") == 3
        err = capsys.readouterr().err
        assert err.startswith(f"error: {edited}:5: ") and len(err.splitlines()) == 1

    @pytest.mark.parametrize(
        "line, message",
        [
            ("{not json", "malformed JSON line"),
            ('{"object_class": "Gothic", "regions": []}', "missing or malformed field: 'id'"),
            ('{"id": 7}', "instance id must be a string"),
            ('{"id": "inst-000000"}', "duplicate instance id 'inst-000000'"),
        ],
        ids=["not-json", "no-id", "non-string-id", "repeated-id"],
    )
    def test_any_line_without_a_fresh_id_exits_3(
        self, kg_path, run_dir, tmp_path, capsys, line, message
    ):
        lines = Path(run_dir["data"]).read_text(encoding="utf-8").splitlines()
        inst_id = json.loads(lines[-1])["id"]
        assert json.loads(lines[0])["id"] == "inst-000000" != inst_id
        edited = self._edited(run_dir, tmp_path, 6, line)
        capsys.readouterr()
        assert self._explain(kg_path, run_dir, edited, inst_id, tmp_path / "x") == 3
        err = capsys.readouterr().err
        assert err.startswith(f"error: {edited}:6: {message}") and len(err.splitlines()) == 1


def _line_of_split(run_dir, split, which=0):
    """The 1-based line of the `which`-th instance (in file order) of `split`."""
    ids = {inst.id for inst in split_dataset(read_dataset(run_dir["data"], monumai_kg()))[split]}
    lines = Path(run_dir["data"]).read_text(encoding="utf-8").splitlines()
    return [i + 1 for i, line in enumerate(lines) if json.loads(line)["id"] in ids][which]


class TestEvalReadsItsTestSplit:
    """`eval` validates the test split's lines in full and every other line only for its id."""

    EDITS = TestExplainReadsItsOwnLine.EDITS
    _edited = staticmethod(TestExplainReadsItsOwnLine._edited)

    @staticmethod
    def _eval(kg_path, run_dir, data, out):
        return main([
            "eval", "--kg", kg_path, "--data", str(data), "--checkpoints", run_dir["out"],
            "--out", str(out),
        ])

    @pytest.mark.parametrize("edit", sorted(EDITS))
    @pytest.mark.parametrize("split", [0, 1], ids=["train", "val"])
    def test_ignores_other_splits_instances(self, kg_path, run_dir, tmp_path, split, edit):
        assert self._eval(kg_path, run_dir, run_dir["data"], tmp_path / "clean.json") == 0
        edited = self._edited(run_dir, tmp_path, _line_of_split(run_dir, split), self.EDITS[edit])
        with pytest.raises(ValidationError):
            read_dataset(edited, monumai_kg())
        assert self._eval(kg_path, run_dir, edited, tmp_path / "edited.json") == 0
        assert (tmp_path / "edited.json").read_bytes() == (tmp_path / "clean.json").read_bytes()

    @pytest.mark.parametrize("edit", sorted(EDITS))
    def test_malformed_test_line_exits_3(self, kg_path, run_dir, tmp_path, capsys, edit):
        lineno = _line_of_split(run_dir, 2, 1)
        edited = self._edited(run_dir, tmp_path, lineno, self.EDITS[edit])
        capsys.readouterr()
        assert self._eval(kg_path, run_dir, edited, tmp_path / "x.json") == 3
        err = capsys.readouterr().err
        assert err.startswith(f"error: {edited}:{lineno}: ") and len(err.splitlines()) == 1
        assert "Traceback" not in err and not (tmp_path / "x.json").exists()

    @pytest.mark.parametrize(
        "line, message",
        [
            ("{not json", "malformed JSON line"),
            ('{"object_class": "Gothic", "regions": []}', "missing or malformed field: 'id'"),
            ('{"id": 7}', "instance id must be a string"),
            ('{"id": "inst-000000"}', "duplicate instance id 'inst-000000'"),
        ],
        ids=["not-json", "no-id", "non-string-id", "repeated-id"],
    )
    def test_any_line_without_a_fresh_id_exits_3(
        self, kg_path, run_dir, tmp_path, capsys, line, message
    ):
        lineno = _line_of_split(run_dir, 0, 1)
        edited = self._edited(run_dir, tmp_path, lineno, line)
        capsys.readouterr()
        assert self._eval(kg_path, run_dir, edited, tmp_path / "x.json") == 3
        err = capsys.readouterr().err
        assert err.startswith(f"error: {edited}:{lineno}: {message}")
        assert len(err.splitlines()) == 1


class TestFeatureDimAgainstCheckpoint:
    """Features of another width than the detector's name the data file and line."""

    @staticmethod
    def _widened(run_dir, tmp_path, linenos):
        lines = Path(run_dir["data"]).read_text(encoding="utf-8").splitlines()
        for lineno in linenos:
            doc = json.loads(lines[lineno - 1])
            for region in doc["regions"]:
                region["features"].append(0.25)
            lines[lineno - 1] = json.dumps(doc)
        path = tmp_path / "widened.jsonl"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return path, [json.loads(line)["id"] for line in lines]

    def _run(self, kg_path, run_dir, tmp_path, capsys, command, data, inst_id, detect_calls):
        argv = {
            "eval": ["--out", str(tmp_path / "eval.json")],
            "explain": ["--instance-id", inst_id, "--out-dir", str(tmp_path / "sag")],
        }[command]
        capsys.readouterr()
        detect_calls.clear()
        code = main([
            command, "--kg", kg_path, "--data", str(data), "--checkpoints", run_dir["out"], *argv
        ])
        assert code == 3 and len(detect_calls) == 0
        err = capsys.readouterr().err
        assert "Traceback" not in err and len(err.splitlines()) == 1
        return err

    def test_explain_of_one_wider_line(self, kg_path, run_dir, tmp_path, capsys, detect_calls):
        data, ids = self._widened(run_dir, tmp_path, [5])
        err = self._run(
            kg_path, run_dir, tmp_path, capsys, "explain", data, ids[4], detect_calls
        )
        assert err == f"error: {data}:5: features have dim 7, detector expects 6\n"

    def test_wider_file_names_one_line_for_eval_and_explain(
        self, kg_path, run_dir, tmp_path, capsys, detect_calls
    ):
        lines = len(Path(run_dir["data"]).read_text(encoding="utf-8").splitlines())
        data, ids = self._widened(run_dir, tmp_path, range(1, lines + 1))
        # the first test line in file order: the one eval reports
        lineno = _line_of_split(run_dir, 2)
        expected = f"error: {data}:{lineno}: features have dim 7, detector expects 6\n"
        for command in ("eval", "explain"):
            err = self._run(
                kg_path, run_dir, tmp_path, capsys, command, data, ids[lineno - 1], detect_calls
            )
            assert err == expected

    def test_eval_names_the_one_wider_test_line(
        self, kg_path, run_dir, tmp_path, capsys, detect_calls
    ):
        # the first test line in file order, so a first-line width rule would blame a later one
        lineno = _line_of_split(run_dir, 2)
        data, ids = self._widened(run_dir, tmp_path, [lineno])
        err = self._run(
            kg_path, run_dir, tmp_path, capsys, "eval", data, ids[lineno - 1], detect_calls
        )
        assert err == f"error: {data}:{lineno}: features have dim 7, detector expects 6\n"


class TestCheckpointAgainstKg:
    @pytest.mark.parametrize("command", ["eval", "explain"])
    @pytest.mark.parametrize("field", ["part_classes", "object_classes"])
    def test_reordered_kg_exits_3(self, run_dir, tmp_path, capsys, command, field):
        kg = monumai_kg()
        lists = {"object_classes": kg.object_classes, "part_classes": kg.part_classes}
        lists[field] = lists[field][::-1]
        reordered = tmp_path / "reordered.json"
        reordered.write_text(
            dumps_kg(KnowledgeGraph(typical_of=kg.typical_of, **lists)), encoding="utf-8"
        )
        inst_id = read_dataset(run_dir["data"], kg)[0].id
        extra = {
            "eval": ["--out", str(tmp_path / "eval.json")],
            "explain": ["--instance-id", inst_id, "--out-dir", str(tmp_path)],
        }[command]
        code = main([
            command, "--kg", str(reordered), "--data", run_dir["data"],
            "--checkpoints", run_dir["out"], *extra,
        ])
        assert code == 3
        err = capsys.readouterr().err
        assert f"checkpoint {field}" in err and f"--kg {field}" in err
        assert list(tmp_path.iterdir()) == [reordered]

    @pytest.mark.parametrize("command", ["eval", "explain"])
    def test_classifier_input_dim_exits_3(
        self, kg_path, run_dir, tmp_path, capsys, detect_calls, command
    ):
        ckpt = tmp_path / "ckpt"
        shutil.copytree(run_dir["out"], ckpt)
        clf_path = ckpt / "classifier.json"
        doc = json.loads(clf_path.read_text())
        doc = {**doc, "input_dim": doc["input_dim"] - 1, "w1": [row[:-1] for row in doc["w1"]]}
        clf_path.write_text(json.dumps(doc), encoding="utf-8")
        inst_id = split_dataset(read_dataset(run_dir["data"], monumai_kg()))[2][0].id
        extra = {
            "eval": ["--out", str(tmp_path / "eval.json")],
            "explain": ["--instance-id", inst_id, "--out-dir", str(tmp_path / "sag")],
        }[command]
        capsys.readouterr()
        detect_calls.clear()
        code = main([
            command, "--kg", kg_path, "--data", run_dir["data"],
            "--checkpoints", str(ckpt), *extra,
        ])
        assert code == 3 and len(detect_calls) == 0
        err = capsys.readouterr().err
        assert err.startswith(f"error: {clf_path}: input_dim 13 ") and len(err.splitlines()) == 1
        assert sorted(p.name for p in tmp_path.iterdir()) == ["ckpt"]


class TestNonFiniteAttributions:
    # w1 at 1e308 is finite, so the checkpoint reads cleanly, but the
    # classifier's outputs overflow to NaN and so would its attributions
    @pytest.mark.parametrize("command", ["eval", "explain"])
    @pytest.mark.parametrize("shap", ["exact", "kernel"])
    def test_exits_4(self, kg_path, run_dir, tmp_path, capsys, command, shap):
        ckpt = tmp_path / "ckpt"
        shutil.copytree(run_dir["out"], ckpt)
        for name, change in (
            ("classifier.json", _edit("w1", lambda a: [[1e308] * len(row) for row in a])),
            ("metrics.json", _edit("config", lambda cfg: {**cfg, "shap_mode": shap})),
        ):
            doc = change(json.loads((ckpt / name).read_text()))
            (ckpt / name).write_text(json.dumps(doc), encoding="utf-8")
        inst_id = split_dataset(read_dataset(run_dir["data"], monumai_kg()))[2][0].id
        extra = {
            "eval": ["--out", str(tmp_path / "eval.json")],
            "explain": ["--instance-id", inst_id, "--out-dir", str(tmp_path)],
        }[command]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main([
                command, "--kg", kg_path, "--data", run_dir["data"],
                "--checkpoints", str(ckpt), *extra,
            ])
        assert code == 4
        err = capsys.readouterr().err
        assert f"{shap} attributions are non-finite" in err and "Traceback" not in err
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


class TestNonFiniteDetections:
    # detector weights at 1e308 are finite, so the checkpoint reads cleanly,
    # but the region logits overflow and the part probabilities with them
    @pytest.mark.parametrize("command", ["eval", "explain"])
    def test_exits_4(self, kg_path, run_dir, tmp_path, capsys, command):
        ckpt = tmp_path / "ckpt"
        shutil.copytree(run_dir["out"], ckpt)
        change = _edit("weights", lambda a: [[1e308] * len(row) for row in a])
        doc = change(json.loads((ckpt / "detector.json").read_text()))
        (ckpt / "detector.json").write_text(json.dumps(doc), encoding="utf-8")
        inst_id = split_dataset(read_dataset(run_dir["data"], monumai_kg()))[2][0].id
        extra = {
            "eval": ["--out", str(tmp_path / "eval.json")],
            "explain": ["--instance-id", inst_id, "--out-dir", str(tmp_path)],
        }[command]
        code = main([
            command, "--kg", kg_path, "--data", run_dir["data"],
            "--checkpoints", str(ckpt), *extra,
        ])
        assert code == 4
        err = capsys.readouterr().err
        assert err.splitlines() == [
            "numerical failure: part detector probabilities are non-finite"
        ]


class TestReport:
    def test_tabulates_runs(self, kg_path, run_dir, tmp_path, capsys):
        runs = tmp_path / "runs"
        runs.mkdir()
        (runs / "run-a").mkdir()
        source = (run_dir["root"] / "ckpt" / "metrics.json").read_text()
        (runs / "run-a" / "metrics.json").write_text(source)
        assert main(["report", "--runs", str(runs)]) == 0
        out = capsys.readouterr().out
        lines = out.strip().splitlines()
        assert lines[0] == "run,mode,scheme,part_macro_accuracy,accuracy,mean_shap_ged"
        assert lines[1].startswith("run-a,standard,")
        metrics = json.loads(source)["metrics"]
        assert repr(metrics["accuracy"]) in lines[1]

    def test_unreadable_metrics_exits_3(self, tmp_path, capsys):
        run = tmp_path / "runs" / "run-a"
        run.mkdir(parents=True)
        (run / "metrics.json").write_text("{not json", encoding="utf-8")
        assert main(["report", "--runs", str(tmp_path / "runs")]) == 3
        err = capsys.readouterr().err
        assert "metrics.json" in err and "Traceback" not in err

    def test_missing_runs_dir(self, tmp_path):
        assert main(["report", "--runs", str(tmp_path / "none")]) == 3


class TestUnwritableOutput:
    """An output path the OS refuses exits 3 with one line naming it."""

    @pytest.mark.parametrize("command", ["gen", "train", "eval", "explain", "report"])
    def test_exits_3_naming_the_path(self, kg_path, run_dir, tmp_path, capsys, command):
        missing = str(tmp_path / "nodir" / "out")
        blocker = tmp_path / "file"
        blocker.write_text("keep\n", encoding="utf-8")
        inst_id = read_dataset(run_dir["data"], monumai_kg())[0].id
        runs = tmp_path / "runs"
        shutil.copytree(run_dir["out"], runs / "run-a")
        argv, path = {
            "gen": (["gen", "--kg", kg_path, "--count", "5", "--out", missing], missing),
            "train": ([
                "train", "--kg", kg_path, "--data", run_dir["data"],
                "--out-dir", str(blocker), "--epochs-det", "1", "--epochs-clf", "2",
                "--shap", "exact", "--bg-size", "4",
            ], str(blocker)),
            "eval": ([
                "eval", "--kg", kg_path, "--data", run_dir["data"],
                "--checkpoints", run_dir["out"], "--out", missing,
            ], missing),
            "explain": ([
                "explain", "--kg", kg_path, "--data", run_dir["data"],
                "--checkpoints", run_dir["out"], "--instance-id", inst_id,
                "--out-dir", str(blocker),
            ], str(blocker)),
            "report": (["report", "--runs", str(runs), "--out", missing], missing),
        }[command]
        capsys.readouterr()
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and path in err and len(err.splitlines()) == 1
        assert blocker.read_text(encoding="utf-8") == "keep\n"


    def test_train_refuses_a_file_before_training(
        self, kg_path, run_dir, tmp_path, capsys, detect_calls
    ):
        blocker = tmp_path / "file"
        blocker.write_text("keep\n", encoding="utf-8")
        detect_calls.clear()
        code = main([
            "train", "--kg", kg_path, "--data", run_dir["data"],
            "--out-dir", str(blocker), "--epochs-det", "1", "--epochs-clf", "2",
            "--shap", "exact", "--bg-size", "4",
        ])
        assert code == 3
        assert len(detect_calls) == 0
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(blocker) in err
        assert blocker.read_text(encoding="utf-8") == "keep\n"

    def test_eval_refuses_a_missing_directory_before_detecting(
        self, kg_path, run_dir, tmp_path, capsys, detect_calls
    ):
        missing = tmp_path / "nodir" / "eval.json"
        detect_calls.clear()
        code = main([
            "eval", "--kg", kg_path, "--data", run_dir["data"],
            "--checkpoints", run_dir["out"], "--out", str(missing),
        ])
        assert code == 3
        assert len(detect_calls) == 0
        err = capsys.readouterr().err
        assert err == f"error: {missing}: No such file or directory\n"
        assert not missing.parent.exists()

    @pytest.mark.parametrize("under", ["eval.json", "sub/eval.json"])
    def test_eval_refuses_a_path_under_a_file_before_detecting(
        self, kg_path, run_dir, tmp_path, capsys, detect_calls, under
    ):
        blocker = tmp_path / "file"
        blocker.write_text("keep\n", encoding="utf-8")
        out = blocker / under
        detect_calls.clear()
        code = main([
            "eval", "--kg", kg_path, "--data", run_dir["data"],
            "--checkpoints", run_dir["out"], "--out", str(out),
        ])
        assert code == 3
        assert len(detect_calls) == 0
        # the OS's own reason, as opening the path would give it
        err = capsys.readouterr().err
        assert err == f"error: {out}: Not a directory\n"
        assert blocker.read_text(encoding="utf-8") == "keep\n"

    def test_eval_refuses_a_directory_before_detecting(
        self, kg_path, run_dir, tmp_path, capsys, detect_calls
    ):
        out = tmp_path / "eval.json"
        out.mkdir()
        detect_calls.clear()
        code = main([
            "eval", "--kg", kg_path, "--data", run_dir["data"],
            "--checkpoints", run_dir["out"], "--out", str(out),
        ])
        assert code == 3
        assert len(detect_calls) == 0
        err = capsys.readouterr().err
        assert err == f"error: {out}: Is a directory\n"
        assert list(out.iterdir()) == []

    def test_explain_refuses_a_file_before_detecting(
        self, kg_path, run_dir, tmp_path, capsys, detect_calls
    ):
        blocker = tmp_path / "file"
        blocker.write_text("keep\n", encoding="utf-8")
        inst_id = read_dataset(run_dir["data"], monumai_kg())[0].id
        detect_calls.clear()
        code = main([
            "explain", "--kg", kg_path, "--data", run_dir["data"],
            "--checkpoints", run_dir["out"], "--instance-id", inst_id,
            "--out-dir", str(blocker),
        ])
        assert code == 3
        assert len(detect_calls) == 0
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(blocker) in err and len(err.splitlines()) == 1
        assert blocker.read_text(encoding="utf-8") == "keep\n"


class TestMalformedConfigField:
    """A missing or ill-typed field of a saved run's config is named in plain words."""

    # `value` replaces the field, or None to delete it
    @pytest.mark.parametrize(
        "command, field, value",
        [("eval", "epochs_det", None), ("eval", "lr_clf", "fast"), ("report", "mode", None)],
        ids=["eval-missing", "eval-ill-typed", "report-missing"],
    )
    def test_exits_3_naming_the_field(
        self, kg_path, run_dir, tmp_path, capsys, command, field, value
    ):
        ckpt = tmp_path / "runs" / "ckpt"
        shutil.copytree(run_dir["out"], ckpt)
        doc = json.loads((ckpt / "metrics.json").read_text())
        if value is None:
            del doc["config"][field]
        else:
            doc["config"][field] = value
        (ckpt / "metrics.json").write_text(json.dumps(doc), encoding="utf-8")
        argv = {
            "eval": ["eval", "--kg", kg_path, "--data", run_dir["data"],
                     "--checkpoints", str(ckpt), "--out", str(tmp_path / "eval.json")],
            "report": ["report", "--runs", str(tmp_path / "runs")],
        }[command]
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert "metrics.json" in err and field in err
        assert "Error(" not in err and len(err.splitlines()) == 1


class TestSeedFallback:
    def test_env_seed_used(self, kg_path, tmp_path, monkeypatch):
        monkeypatch.setenv("XNESYL_SEED", "77")
        out_env = str(tmp_path / "env.jsonl")
        assert main(["gen", "--kg", kg_path, "--out", out_env, "--count", "10"]) == 0
        monkeypatch.delenv("XNESYL_SEED")
        out_flag = str(tmp_path / "flag.jsonl")
        assert main([
            "gen", "--kg", kg_path, "--out", out_flag, "--count", "10",
            "--seed", "77",
        ]) == 0
        assert Path(out_env).read_text() == Path(out_flag).read_text()

    def test_invalid_env_seed(self, kg_path, tmp_path, monkeypatch):
        monkeypatch.setenv("XNESYL_SEED", "not-a-number")
        code = main([
            "gen", "--kg", kg_path, "--out", str(tmp_path / "x.jsonl"),
            "--count", "5",
        ])
        assert code == 3

    @pytest.mark.parametrize("source", ["gen-flag", "train-flag", "train-env", "eval-config"])
    def test_negative_seed_exits_3(self, kg_path, run_dir, tmp_path, monkeypatch, capsys, source):
        train = [
            "train", "--kg", kg_path, "--data", run_dir["data"],
            "--out-dir", str(tmp_path / "run"), "--epochs-det", "1", "--epochs-clf", "1",
        ]
        if source == "gen-flag":
            argv = ["gen", "--kg", kg_path, "--out", str(tmp_path / "x.jsonl"),
                    "--count", "5", "--seed", "-1"]
        elif source == "train-flag":
            argv = [*train, "--seed", "-3"]
        elif source == "train-env":
            monkeypatch.setenv("XNESYL_SEED", "-2")
            argv = train
        else:
            ckpt = tmp_path / "ckpt"
            shutil.copytree(run_dir["out"], ckpt)
            doc = _edit("config", lambda cfg: {**cfg, "seed": -1})(
                json.loads((ckpt / "metrics.json").read_text())
            )
            (ckpt / "metrics.json").write_text(json.dumps(doc), encoding="utf-8")
            argv = ["eval", "--kg", kg_path, "--data", run_dir["data"],
                    "--checkpoints", str(ckpt)]
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert "seed" in err and "Traceback" not in err

    def test_rejected_config_reports_its_own_message(self, kg_path, run_dir, tmp_path, capsys):
        # a config that parses but that TrainConfig refuses is reported in
        # TrainConfig's words, not through the repr of the error
        ckpt = tmp_path / "ckpt"
        shutil.copytree(run_dir["out"], ckpt)
        doc = _edit("config", lambda cfg: {**cfg, "seed": -1})(
            json.loads((ckpt / "metrics.json").read_text())
        )
        (ckpt / "metrics.json").write_text(json.dumps(doc), encoding="utf-8")
        code = main(["eval", "--kg", kg_path, "--data", run_dir["data"],
                     "--checkpoints", str(ckpt)])
        assert code == 3
        err = capsys.readouterr().err
        assert "metrics.json: seed must be >= 0, got -1" in err
        assert "ValidationError(" not in err and "Traceback" not in err


def _subparser(name: str) -> argparse.ArgumentParser:
    (subparsers,) = [
        action for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    return subparsers.choices[name]


class TestSettingsDeclaredOnce:
    def test_flags_bind_to_config_fields(self):
        train = _subparser("train")
        dests = [action.dest for action in train._actions]
        for f in dataclasses.fields(TrainConfig):
            if f.name not in ("seed", "scheme"):
                assert dests.count(f.name) == 1, f.name
        args = train.parse_args(["--kg", "k", "--data", "d", "--out-dir", "o"])
        rebuilt = TrainConfig(
            seed=0,
            **{
                f.name: getattr(args, f.name)
                for f in dataclasses.fields(TrainConfig)
                if f.name not in ("seed", "scheme")
            },
        )
        assert args.scheme is None and rebuilt == TrainConfig(seed=0)
        args = _subparser("gen").parse_args(["--kg", "k", "--out", "o", "--count", "1"])
        lo, hi = args.regions.split(":")
        assert GeneratorConfig(
            seed=0, feature_dim=args.dim, regions_per_instance=(int(lo), int(hi)),
            noise_rate=args.noise, separation=args.sep,
        ) == GeneratorConfig(seed=0)


class TestPerCommandParser:
    """A run builds only its command's parser, and prints what the full parser prints."""

    @staticmethod
    def _outcome(parse, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            parse(argv)
        out, err = capsys.readouterr()
        return exc.value.code, out, err

    @pytest.mark.parametrize(
        "argv",
        [["--help"], [], ["bogus"], ["train", "--bogus"], ["train", "--mode", "fast"],
         ["explain", "--kg", "k", "--data", "d", "--checkpoints", "c", "--instance-id", "i", "extra"],
         ["report", "--runs", "r", "--bogus"]]
        + [[command, "--help"] for command in ("gen", "train", "eval", "explain", "report")]
        + [[command] for command in ("gen", "train", "eval", "explain", "report")],
    )
    def test_output_matches_full_parser(self, argv, capsys):
        assert self._outcome(main, argv, capsys) == self._outcome(
            build_parser().parse_args, argv, capsys
        )

    def test_builds_only_the_named_command(self):
        (subparsers,) = [
            action for action in build_parser("eval")._actions
            if isinstance(action, argparse._SubParsersAction)
        ]
        assert list(subparsers.choices) == ["eval"]
        assert build_parser("bogus").format_help() == build_parser().format_help()
