import ast
import contextlib
import csv
import dataclasses
import json

import numpy as np
import pytest

from baryflow import cli
from baryflow.cli import main
from baryflow.datasets import save_csv, synthetic_domain_specs
from baryflow.flow_empirical import EmpiricalFlowConfig
from baryflow.flow_gmm import GmmFlowConfig
from baryflow.functionals import FunctionalSpec
from baryflow.gaussian import LabeledGMM, load_gmm, save_gmm
from baryflow.measures import BarycentricCoordinates, EmpiricalMeasure


def write_config(tmp_path, name, cfg):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def bary_config(out_dir, seed=7, flow="empirical"):
    cfg = {
        "command": "barycenter",
        "seed": seed,
        "output_dir": str(out_dir),
        "flow": flow,
        "inputs": [
            {"kind": "gaussian", "mean": [0.0], "std": 1.0},
            {"kind": "gaussian", "mean": [4.0], "std": 1.0},
        ],
    }
    if flow == "empirical":
        cfg["flow_config"] = {"n_particles": 32, "batch_size": 32, "n_iter": 25}
    else:
        cfg["flow_config"] = {"n_components": 1, "n_iter": 60, "step_size": 0.1}
    return cfg


def bary_with(flow="empirical", inputs=None, **flow_config):
    """``bary_config`` with its ``flow_config`` or ``inputs`` changed."""
    cfg = bary_config("out", flow=flow)
    cfg["flow_config"].update(flow_config)
    if inputs is not None:
        cfg["inputs"] = inputs
    return cfg


def gaussian_pair(**first):
    """Two 1-D gaussian inputs, the first with its keys changed."""
    return [{"kind": "gaussian", "mean": [0.0], **first},
            {"kind": "gaussian", "mean": [4.0]}]


def swiss_pair():
    """Two labeled 2-D swiss_roll inputs."""
    return [{"kind": "swiss_roll", "n": 40}, {"kind": "swiss_roll", "n": 40}]


# The warnings a row of ``test_rejected_without_traceback`` raises on its way
# to a numeric failure: a GMM run that fails clamps a Cholesky diagonal
# first.
RUN_WARNINGS = {
    "gmm-singular-covariance": ["clamped"],
    "gmm-step-size-diverges": ["clamped"],
}
# What the error of a row of ``test_rejected_without_traceback`` names: the
# inputs, the key and the mode, or the counts.
ERROR_NAMES = {
    "csv-names-and-swiss-roll": ["in0.csv", "inputs[1]"],
    "gmm-em-init-too-few-draws": ["600", "256 x 2 inputs = 512"],
    "msda-gmm-too-few-per-class": ["200 component(s)", "sources[0] has only"],
    "msda-gmm-reads-no-flow": ["'flow'", "method 'gmm'"],
    "msda-empirical-reads-no-gmm": ["'gmm'", "method 'empirical'"],
    "msda-discrete-baseline-reads-no-gmm": ["'gmm'",
                                            "method 'discrete_baseline'"],
    "msda-label-column-without-csv": ["'label_column'", "synthetic task"],
    "msda-task-with-csv": ["'task'", "CSV inputs"],
    "toy-gaussian-noise-std": ["'noise_std'", "base 'gaussian'"],
    "gmm-fewer-components-than-classes": ["n_components 3",
                                          "class count 4"],
    "gmm-em-init-class-drawn-too-few": ["the em init drew class",
                                        "init_samples 256",
                                        "127 components per class"],
    "toy-gmm-too-few-samples": ["need at least 40 points"],
    "toy-gmm-em-init-too-few-draws": ["20 components",
                                      "4 x 2 inputs = 8 draws"],
    "seed-negative": ["seed must be >= 0"],
    "gaussian-std-length": ["inputs[0]: std needs one entry per coordinate"],
    "toy-n-samples-negative": ["n_samples must be >= 1"],
    "toy-n-samples-zero": ["n_samples must be >= 1"],
    "toy-n-family-zero": ["n_family must be >= 1"],
}


def toy_with(**changes):
    """A small toy config with top-level keys changed."""
    return {"command": "toy", "n_family": 2, "n_samples": 32,
            "flow": {"n_particles": 16, "batch_size": 16, "n_iter": 2},
            "gmm": {"n_components": 1, "n_iter": 2}, **changes}


def three_component_gmm_inputs(tmp_path):
    """gmm_json inputs: two 2-D mixtures of three components each."""
    inputs = []
    for i, shift in enumerate((0.0, 4.0)):
        path = tmp_path / f"g{i}.json"
        save_gmm(LabeledGMM(np.full(3, 1 / 3),
                            [[shift + c, -c] for c in range(3)],
                            [np.diag([1.0, 0.5 + 0.25 * c]) for c in range(3)]),
                 path)
        inputs.append({"kind": "gmm_json", "path": str(path)})
    return inputs


def csv_file(tmp_path, text):
    path = tmp_path / "data.csv"
    path.write_text(text)
    return str(path)


def msda_csv_gap(tmp_path):
    """An msda gmm config on two CSV sources, one with labels {0, 2} of
    three classes."""
    paths = []
    for name, labels in (("s0", [0, 1, 2, 0, 1, 2]), ("s1", [0, 2, 0, 2]),
                         ("t", [0, 1, 2, 2, 1, 0])):
        rows = "".join(f"{0.5 * i},{i % 3},{c}\n" for i, c in enumerate(labels))
        path = tmp_path / f"{name}.csv"
        path.write_text("f0,f1,label\n" + rows)
        paths.append(str(path))
    return {"command": "msda", "method": "gmm", "sources_csv": paths[:2],
            "target_csv": paths[2], "gmm": {"n_components": 3, "n_iter": 2}}


CLASS_CENTERS = {"cat": (0.0, 0.0), "dog": (10.0, 0.0), "fish": (0.0, 10.0),
                 "0": (0.0, 0.0), "1": (10.0, 0.0)}


def named_csv(tmp_path, name, classes):
    """Four points near each class's center, labeled by name, in one CSV."""
    rows = "".join(f"{x + 0.1 * i},{y},{c}\n" for c in classes
                   for x, y in [CLASS_CENTERS[c]] for i in range(4))
    path = tmp_path / f"{name}.csv"
    path.write_text("f0,f1,label\n" + rows)
    return str(path)


def named_inputs(tmp_path, *label_sets):
    """barycenter csv inputs, one file per label set."""
    return [{"kind": "csv", "path": named_csv(tmp_path, f"in{i}", classes),
             "label_column": "label"} for i, classes in enumerate(label_sets)]


def labeled_gmm_json(tmp_path):
    """A gmm_json input of two 2-D components with two unnamed classes."""
    path = tmp_path / "labeled_gmm.json"
    save_gmm(LabeledGMM([0.5, 0.5], [CLASS_CENTERS[c] for c in ("cat", "dog")],
                        [np.eye(2)] * 2, nu=np.eye(2)), path)
    return {"kind": "gmm_json", "path": str(path)}


def gmm_json_doc(tmp_path, doc):
    """Two gmm_json inputs that name one file holding the JSON ``doc``."""
    path = tmp_path / "doc_gmm.json"
    path.write_text(json.dumps(doc))
    return [{"kind": "gmm_json", "path": str(path)}] * 2


def labeled_2d_csv(tmp_path):
    """A 2-feature measure saved with its label column (3 CSV columns)."""
    path = tmp_path / "labeled.csv"
    save_csv(EmpiricalMeasure.from_hard_labels(
        np.arange(8.0).reshape(4, 2), np.array([0, 1, 0, 1]), 2), path)
    return str(path)


class TestValidate:
    def test_valid_config(self, tmp_path, capsys):
        path = write_config(tmp_path, "c.json", bary_config(tmp_path / "out"))
        assert main(["validate", path]) == 0
        assert "config ok" in capsys.readouterr().out
        assert not (tmp_path / "out").exists()

    def test_unknown_key_named(self, tmp_path, capsys):
        cfg = bary_config(tmp_path / "out")
        cfg["flow_config"]["n_particle"] = 3
        path = write_config(tmp_path, "c.json", cfg)
        assert main(["validate", path]) == 1
        assert "n_particle" in capsys.readouterr().err

    def test_missing_config_file(self, tmp_path, capsys):
        assert main(["validate", str(tmp_path / "nope.json")]) == 1
        assert "baryflow-error[config]" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, named", [
        pytest.param(["validate", "{path}", "--threads", "2"], "--threads",
                     id="unknown-option"),
        pytest.param(["bogus", "{path}"], "bogus", id="unknown-subcommand"),
        pytest.param(["validate"], "config", id="missing-config-path"),
    ])
    def test_usage_error_is_config_error(self, tmp_path, capsys, argv, named):
        # exit 2 is kept for a numerical failure
        path = write_config(tmp_path, "c.json", bary_config(tmp_path / "out"))
        assert main([a.format(path=path) for a in argv]) == 1
        err = capsys.readouterr().err
        assert "baryflow-error[config]" in err and named in err

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["-h"])
        assert exc.value.code == 0
        assert "usage: baryflow" in capsys.readouterr().out

    @pytest.mark.parametrize("write", [
        lambda p: p.write_text("{not json"),
        lambda p: p.write_bytes(b'{"command": "\xff\xfe"}'),
        lambda p: p.mkdir(),
    ], ids=["invalid-json", "undecodable-bytes", "directory"])
    def test_bad_json(self, tmp_path, capsys, write):
        path = tmp_path / "c.json"
        write(path)
        assert main(["validate", str(path)]) == 1

    def test_command_subcommand_mismatch(self, tmp_path, capsys):
        path = write_config(tmp_path, "c.json", bary_config(tmp_path / "out"))
        assert main(["toy", path]) == 1

    @pytest.mark.parametrize("cfg, bad_key", [
        ({"command": "toy", "flow": {"n_iters": 5}}, "n_iters"),
        ({"command": "msda", "task": {"n_sample": 64}}, "n_sample"),
        ({"command": "gen", "dataset": {"kind": "swiss_roll", "size": 10}},
         "size"),
    ])
    def test_nested_unknown_key(self, tmp_path, capsys, cfg, bad_key):
        cfg = dict(cfg, output_dir=str(tmp_path / "out"))
        path = write_config(tmp_path, "c.json", cfg)
        assert main(["validate", path]) == 1
        assert bad_key in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


    @pytest.mark.parametrize("make_cfg", [
        pytest.param(lambda t: {
            "command": "barycenter", "flow": "empirical",
            "inputs": [{"kind": "csv",
                        "path": csv_file(t, "f0,f1\n1,2\nx,3\n")}]},
            id="csv-non-numeric-cell"),
        pytest.param(lambda t: {
            "command": "barycenter", "flow": "empirical",
            "inputs": [{"kind": "csv", "path": csv_file(t, "f0,f1\n1,2\n"),
                        "label_column": "label"}]},
            id="csv-missing-label-column"),
        pytest.param(lambda t: {
            "command": "gen",
            "dataset": {"kind": "synthetic_msda", "n_classes": "3"}},
            id="gen-n_classes-string"),
        pytest.param(lambda t: {
            "command": "gen", "dataset": {"kind": "synthetic_msda", "n_classes": 1}},
            id="gen-one-class"),
        pytest.param(lambda t: {"command": "msda", "task": {"n_classes": 1}},
                     id="msda-one-class"),
        pytest.param(lambda t: {
            "command": "barycenter", "flow": "empirical",
            "inputs": [{"kind": "swiss_roll", "n": 0}]},
            id="swiss-roll-empty"),
        pytest.param(lambda t: {
            "command": "barycenter", "flow": "gmm",
            "inputs": [{"kind": "swiss_roll", "n": 50,
                        "components_per_class": 0}]},
            id="em-no-components"),
        pytest.param(lambda t: {"command": "toy", "n_family": 0},
                     id="toy-empty-family"),
        pytest.param(lambda t: {"command": "msda", "task": {"k_sources": 0}},
                     id="msda-no-sources"),
    ])
    def test_library_error_is_config_error(self, tmp_path, capsys, make_cfg):
        cfg = dict(make_cfg(tmp_path), output_dir=str(tmp_path / "out"))
        path = write_config(tmp_path, "c.json", cfg)
        assert main(["validate", path]) == 1
        assert "baryflow-error[config]" in capsys.readouterr().err

    @pytest.mark.parametrize("flow, inputs, functional", [
        pytest.param("empirical", [
            {"kind": "gaussian", "mean": [0.0, 0.0]},
            {"kind": "swiss_roll", "n": 40}], {}, id="unlabeled-then-labeled"),
        pytest.param("empirical", [
            {"kind": "swiss_roll", "n": 40, "n_classes": 3},
            {"kind": "swiss_roll", "n": 40, "n_classes": 4}], {},
            id="class-counts-differ"),
        pytest.param("gmm", [
            {"kind": "swiss_roll", "n": 40, "n_classes": 3},
            {"kind": "swiss_roll", "n": 40, "n_classes": 4}], {},
            id="gmm-class-counts-differ"),
        pytest.param("empirical", [
            {"kind": "gaussian", "mean": [0.0]},
            {"kind": "gaussian", "mean": [4.0]}], {"repulsion_weight": 0.1},
            id="repulsion-unlabeled"),
        pytest.param("gmm", [
            {"kind": "gaussian", "mean": [0.0]},
            {"kind": "gaussian", "mean": [4.0]}], {"repulsion_weight": 0.1},
            id="gmm-repulsion-unlabeled"),
        pytest.param("gmm", [
            {"kind": "gaussian", "mean": [0.0]},
            {"kind": "gaussian", "mean": [4.0]}], {"entropy_weight": 0.1},
            id="gmm-entropy-unlabeled"),
    ])
    def test_input_labels_checked_before_run(self, tmp_path, capsys, flow,
                                             inputs, functional):
        cfg = {"command": "barycenter", "flow": flow, "inputs": inputs,
               "functional": functional, "output_dir": str(tmp_path / "out"),
               "flow_config": {"n_iter": 2}}
        path = write_config(tmp_path, "c.json", cfg)
        for subcommand in ("validate", "barycenter"):
            assert main([subcommand, path]) == 1
            assert "baryflow-error[config]" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("make_cfg, code", [
        pytest.param(lambda t: bary_with(label_weight=1.0), 1,
                     id="empirical-label-weight-unlabeled"),
        pytest.param(lambda t: bary_with("gmm", label_weight=1.0), 1,
                     id="gmm-label-weight-unlabeled"),
        pytest.param(lambda t: toy_with(flow={"label_weight": 1.0}), 1,
                     id="toy-flow-label-weight"),
        pytest.param(lambda t: toy_with(gmm={"label_weight": 1.0}), 1,
                     id="toy-gmm-label-weight"),
        pytest.param(lambda t: dict(bary_with(), coordinates=[[0.5], [0.5]]),
                     1, id="coordinates-2d"),
        pytest.param(lambda t: dict(bary_with(), coordinates=[True, False]),
                     1, id="coordinates-bool"),
        pytest.param(lambda t: dict(bary_with(), coordinates=["0.5", 0.5]),
                     1, id="coordinates-string"),
        pytest.param(lambda t: dict(bary_with(), coordinates=None),
                     1, id="coordinates-null"),
        pytest.param(lambda t: toy_with(solvers=[]), 1, id="toy-solvers-empty"),
        pytest.param(lambda t: toy_with(solvers=["wgf", "wgf"]), 1,
                     id="toy-solvers-repeated"),
        pytest.param(lambda t: {"command": "msda", "combos": []}, 1,
                     id="msda-combos-empty"),
        pytest.param(lambda t: {"command": "msda", "combos": ["B", "B+V", "B"]},
                     1, id="msda-combos-repeated"),
        pytest.param(lambda t: bary_with(inputs=gaussian_pair(mean=[True])),
                     1, id="gaussian-mean-bool"),
        pytest.param(lambda t: bary_with(inputs=gaussian_pair(mean=["0.0"])),
                     1, id="gaussian-mean-string"),
        pytest.param(lambda t: bary_with(inputs=gaussian_pair(std=[True])),
                     1, id="gaussian-std-bool"),
        pytest.param(lambda t: bary_with(inputs=gaussian_pair(std=["1.0"])),
                     1, id="gaussian-std-string"),
        pytest.param(lambda t: bary_with(inputs=gaussian_pair(std=True)),
                     1, id="gaussian-std-bool-scalar"),
        pytest.param(lambda t: bary_with(inputs=[
            {"kind": "gaussian", "mean": []},
            {"kind": "gaussian", "mean": []}]), 1, id="gaussian-mean-empty"),
        pytest.param(lambda t: bary_with(inputs=[
            {"kind": "gaussian", "mean": [[0.0]]},
            {"kind": "gaussian", "mean": [[4.0]]}]), 1, id="gaussian-mean-2d"),
        pytest.param(lambda t: toy_with(eval_points=0), 1,
                     id="toy-eval-points-zero"),
        pytest.param(lambda t: toy_with(eval_points=-3), 1,
                     id="toy-eval-points-negative"),
        pytest.param(lambda t: {"command": "gen", "dataset": {
            "kind": "location_scatter", "n": 50, "k": 0}}, 1,
            id="gen-location-scatter-k-zero"),
        pytest.param(lambda t: {"command": "gen", "dataset": {
            "kind": "swiss_roll", "n": 50, "noise_std": -1.0}}, 1,
            id="gen-swiss-roll-noise-negative"),
        pytest.param(lambda t: bary_with(inputs=[
            {"kind": "swiss_roll", "n": 40, "noise_std": float("nan")},
            {"kind": "swiss_roll", "n": 40}]), 1,
            id="swiss-roll-input-noise-nan"),
        pytest.param(lambda t: toy_with(base="swiss_roll", noise_std=-0.5), 1,
                     id="toy-swiss-roll-noise-negative"),
        pytest.param(msda_csv_gap, 1, id="msda-gmm-csv-source-lacks-class"),
        pytest.param(lambda t: bary_with(inputs=[
            {"kind": "csv", "path": csv_file(t, "label\n0\n1\n"),
             "label_column": "label"}] * 2), 1, id="csv-no-feature-column"),
        pytest.param(lambda t: bary_with(inputs=named_inputs(
            t, ["cat", "dog"], ["0", "1"])), 1, id="csv-names-and-integers"),
        pytest.param(lambda t: bary_with(inputs=named_inputs(
            t, ["cat", "dog"]) + [labeled_gmm_json(t)]), 1,
            id="csv-names-and-labeled-gmm-json"),
        pytest.param(lambda t: bary_with(inputs=named_inputs(
            t, ["cat", "dog"]) + [{"kind": "swiss_roll", "n": 40}]), 1,
            id="csv-names-and-swiss-roll"),
        pytest.param(lambda t: bary_with("gmm", n_components=600), 1,
                     id="gmm-em-init-too-few-draws"),
        pytest.param(lambda t: {"command": "msda", "method": "gmm",
                                "gmm": {"n_components": 600,
                                        "init_samples": 512}}, 1,
                     id="msda-gmm-too-few-per-class"),
        pytest.param(lambda t: {"command": "msda", "method": "gmm",
                                "flow": {"n_iter": "bogus"}}, 1,
                     id="msda-gmm-reads-no-flow"),
        pytest.param(lambda t: {"command": "msda", "gmm": {"n_iter": 2}}, 1,
                     id="msda-empirical-reads-no-gmm"),
        pytest.param(lambda t: {"command": "msda",
                                "method": "discrete_baseline",
                                "gmm": {"n_iter": 2}}, 1,
                     id="msda-discrete-baseline-reads-no-gmm"),
        pytest.param(lambda t: {"command": "msda", "label_column": "y"}, 1,
                     id="msda-label-column-without-csv"),
        pytest.param(lambda t: dict(msda_csv_gap(t), task={"n_samples": 64}),
                     1, id="msda-task-with-csv"),
        pytest.param(lambda t: toy_with(noise_std=0.1), 1,
                     id="toy-gaussian-noise-std"),
        pytest.param(lambda t: {"command": "msda", "method": "gmm", "seed": 0,
                                "task": {"n_samples": 4}}, 1,
                     id="msda-gmm-synthetic-source-lacks-class"),
        pytest.param(lambda t: bary_with("gmm", inputs=named_inputs(
            t, ["cat", "dog"], ["dog", "fish"])), 1,
            id="gmm-csv-input-lacks-class"),
        pytest.param(lambda t: bary_with(inputs=[
            {"kind": "csv", "path": csv_file(t, "f0,label\n0,01\n1,1\n2,2\n"),
             "label_column": "label"}] * 2), 1,
            id="csv-non-canonical-integer-label"),
        pytest.param(lambda t: bary_with("gmm", inputs=gmm_json_doc(t, [])), 1,
                     id="gmm-json-not-object"),
        pytest.param(lambda t: bary_with("gmm", inputs=gmm_json_doc(t, {
            "weights": {}, "means": [[0.0]], "cholesky_rows": [[[1.0]]]})), 1,
            id="gmm-json-weights-object"),
        pytest.param(lambda t: bary_with(
            "gmm", inputs=three_component_gmm_inputs(t), n_components=3,
            n_iter=20, step_size=5.0), 2, id="gmm-singular-covariance"),
        pytest.param(lambda t: bary_with(inputs=[5]), 1, id="input-number"),
        pytest.param(lambda t: bary_with(inputs=["kind"]), 1,
                     id="input-string"),
        pytest.param(lambda t: bary_with(inputs=[None]), 1, id="input-null"),
        pytest.param(lambda t: bary_with(inputs=[[1, 2]]), 1, id="input-list"),
        pytest.param(lambda t: bary_with(inputs=swiss_pair(),
                                         label_weight=float("nan")), 1,
                     id="empirical-label-weight-nan"),
        pytest.param(lambda t: bary_with(inputs=swiss_pair(),
                                         label_weight=float("inf")), 1,
                     id="empirical-label-weight-inf"),
        pytest.param(lambda t: bary_with("gmm", inputs=swiss_pair(),
                                         label_weight=float("nan")), 1,
                     id="gmm-label-weight-nan"),
        pytest.param(lambda t: bary_with("gmm", inputs=swiss_pair(),
                                         label_weight=float("inf")), 1,
                     id="gmm-label-weight-inf"),
        pytest.param(lambda t: bary_with("gmm", inputs=swiss_pair(),
                                         step_size=float("nan")), 1,
                     id="gmm-step-size-nan"),
        pytest.param(lambda t: bary_with("gmm", inputs=swiss_pair(),
                                         step_size=float("inf")), 1,
                     id="gmm-step-size-inf"),
        pytest.param(lambda t: bary_with("gmm", inputs=swiss_pair(),
                                         n_components=4, step_size=1e200), 2,
                     id="gmm-step-size-diverges"),
        pytest.param(lambda t: bary_with("gmm", inputs=swiss_pair(),
                                         n_components=3), 1,
                     id="gmm-fewer-components-than-classes"),
        pytest.param(lambda t: bary_with("gmm", inputs=[
            {"kind": "swiss_roll", "n": 400}] * 2, n_components=508), 2,
                     id="gmm-em-init-class-drawn-too-few"),
        pytest.param(lambda t: toy_with(solvers=["wgf_gmm"],
                                        gmm={"n_components": 40}), 1,
                     id="toy-gmm-too-few-samples"),
        pytest.param(lambda t: toy_with(solvers=["wgf_gmm"], gmm={
            "n_components": 20, "init_samples": 4}), 1,
                     id="toy-gmm-em-init-too-few-draws"),
        pytest.param(lambda t: dict(bary_with(), seed=-1), 1,
                     id="seed-negative"),
        pytest.param(lambda t: bary_with(inputs=[
            {"kind": "gaussian", "mean": [0.0, 0.0], "std": [1.0, 1.0, 1.0]},
            {"kind": "gaussian", "mean": [4.0, 0.0]}]), 1,
                     id="gaussian-std-length"),
        pytest.param(lambda t: toy_with(n_samples=-3), 1,
                     id="toy-n-samples-negative"),
        pytest.param(lambda t: toy_with(n_samples=0), 1,
                     id="toy-n-samples-zero"),
        pytest.param(lambda t: toy_with(n_family=0), 1,
                     id="toy-n-family-zero"),
        pytest.param(lambda t: bary_with(inputs=swiss_pair(),
                                         label_weight=1e308), 2,
                     id="empirical-label-weight-diverges"),
    ])
    def test_rejected_without_traceback(self, request, tmp_path, capsys,
                                        make_cfg, code):
        # a config error fails `validate` and the command alike; a numeric
        # failure is found only by running, and exits 2
        out = tmp_path / "out"
        cfg = dict(make_cfg(tmp_path), output_dir=str(out))
        path = write_config(tmp_path, "c.json", cfg)
        assert main(["validate", path]) == (1 if code == 1 else 0)
        with contextlib.ExitStack() as expected:
            for match in RUN_WARNINGS.get(request.node.callspec.id, ()):
                expected.enter_context(pytest.warns(RuntimeWarning,
                                                    match=match))
            assert main([cfg["command"], path]) == code
        tag = "config" if code == 1 else "numeric"
        err = capsys.readouterr().err
        assert f"baryflow-error[{tag}]" in err
        for named in ERROR_NAMES.get(request.node.callspec.id, ()):
            assert named in err
        assert not out.exists()

    @pytest.mark.parametrize("cfg", [
        pytest.param({"command": "gen", "dataset": {
            "kind": "swiss_roll", "n": 50, "n_classes": 0}},
            id="gen-no-classes"),
        pytest.param({"command": "gen", "dataset": {
            "kind": "swiss_roll", "n": 50, "n_classes": -2}},
            id="gen-classes-negative"),
        pytest.param(bary_with(inputs=[
            {"kind": "swiss_roll", "n": 40, "n_classes": 0},
            {"kind": "swiss_roll", "n": 40}]), id="input-no-classes"),
    ])
    def test_swiss_roll_class_count_named(self, tmp_path, capsys, cfg):
        cfg = dict(cfg, output_dir=str(tmp_path / "out"))
        path = write_config(tmp_path, "c.json", cfg)
        for subcommand in ("validate", cfg["command"]):
            assert main([subcommand, path]) == 1
            err = capsys.readouterr().err
            assert "baryflow-error[config]" in err
            assert "n_classes must be >= 1" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("cfg, key", [
        (dict(bary_with(), coordinates=None), "coordinates"),
        (toy_with(solvers=[]), "solvers"),
        (toy_with(solvers=["wgf", "wgf"]), "solvers"),
        (toy_with(solvers=["sgd"]), "solvers"),
        ({"command": "msda", "combos": []}, "combos"),
        ({"command": "msda", "combos": ["B", "B+V", "B"]}, "combos"),
        ({"command": "msda", "combos": ["B+W"]}, "combos"),
    ], ids=["coordinates-null", "solvers-empty", "solvers-repeated",
            "solvers-unknown", "combos-empty", "combos-repeated",
            "combos-unknown"])
    def test_list_error_names_key(self, tmp_path, capsys, cfg, key):
        cfg = dict(cfg, output_dir=str(tmp_path / "out"))
        path = write_config(tmp_path, "c.json", cfg)
        assert main(["validate", path]) == 1
        assert f"key {key!r}" in capsys.readouterr().err

    @pytest.mark.parametrize("first, key", [
        ({"mean": ["0.0"]}, "mean"), ({"std": [True]}, "std"),
        ({"std": True}, "std")],
        ids=["mean-string", "std-bool", "std-scalar-bool"])
    def test_number_list_error_names_input_and_key(self, tmp_path, capsys,
                                                   first, key):
        cfg = dict(bary_with(inputs=gaussian_pair(**first)),
                   output_dir=str(tmp_path / "out"))
        path = write_config(tmp_path, "c.json", cfg)
        assert main(["validate", path]) == 1
        assert f"inputs[0]: key {key!r} must be" in capsys.readouterr().err

    def test_names_and_integers_name_both_files(self, tmp_path, capsys):
        cfg = dict(bary_with(inputs=named_inputs(
            tmp_path, ["cat", "dog"], ["0", "1"])),
            output_dir=str(tmp_path / "out"))
        path = write_config(tmp_path, "c.json", cfg)
        assert main(["validate", path]) == 1
        err = capsys.readouterr().err
        assert "in0.csv" in err and "in1.csv" in err

    @pytest.mark.parametrize("sub", ["", "sub"], ids=["at-file", "under-file"])
    def test_output_dir_not_a_directory(self, tmp_path, capsys, sub):
        blocker = tmp_path / "blocker"
        blocker.write_text("keep\n")
        cfg = {"command": "gen", "output_dir": str(blocker / sub),
               "dataset": {"kind": "swiss_roll", "n": 20}}
        path = write_config(tmp_path, "c.json", cfg)
        for subcommand in ("validate", "gen"):
            assert main([subcommand, path]) == 1
            err = capsys.readouterr().err
            assert "baryflow-error[config]" in err and "output_dir" in err
        assert blocker.read_text() == "keep\n"

    @pytest.mark.parametrize("flow, extra", [
        ("empirical", {"kind": "swiss_roll", "n": 40}),
        ("empirical", {"kind": "csv", "label_column": "label"}),
        ("empirical", {"kind": "csv"}),
        ("gmm", {"kind": "csv"}),
    ])
    def test_ignored_components_per_class(self, tmp_path, capsys, flow, extra):
        d = dict(extra, components_per_class=2)
        if d["kind"] == "csv":
            d["path"] = labeled_2d_csv(tmp_path)
        cfg = {"command": "barycenter", "flow": flow, "inputs": [d],
               "output_dir": str(tmp_path / "out"), "flow_config": {"n_iter": 2}}
        path = write_config(tmp_path, "c.json", cfg)
        assert main(["validate", path]) == 1
        assert "components_per_class" in capsys.readouterr().err

class TestConfigSchema:
    """Each section accepts exactly these keys, and a key left out takes
    the value the library gives it."""

    @pytest.mark.parametrize("cfg, section, keys", [
        pytest.param({"command": "barycenter", "flow": "empirical",
                      "inputs": [{"kind": "gaussian", "mean": [0.0]}]},
                     ("flow_config",),
                     ["batch_size", "init", "label_init",
                      "label_weight", "n_iter", "n_particles", "solver",
                      "step_size"], id="empirical-flow"),
        pytest.param({"command": "barycenter", "flow": "gmm",
                      "inputs": [{"kind": "gaussian", "mean": [0.0]}]},
                     ("flow_config",),
                     ["diag_only", "flow_weights", "init_mode", "init_samples",
                      "label_weight", "mc_samples", "n_components", "n_iter",
                      "step_size"], id="gmm-flow"),
        pytest.param({"command": "barycenter", "flow": "empirical",
                      "inputs": [{"kind": "gaussian", "mean": [0.0]}]},
                     ("functional",),
                     ["entropy_weight", "internal_weight", "repulsion_margin",
                      "repulsion_metric", "repulsion_weight", "target_csv",
                      "target_weight"], id="functional"),
        pytest.param({"command": "msda"}, ("task",),
                     ["class_sep", "class_std", "dim", "k_sources", "n_classes",
                      "n_samples", "source_jitter", "source_spread_deg",
                      "target_rotation_deg"], id="msda-task"),
        pytest.param({"command": "gen", "dataset": {"kind": "synthetic_msda"}},
                     ("dataset",),
                     ["class_sep", "class_std", "dim", "k_sources", "kind",
                      "n_classes", "n_samples", "source_jitter",
                      "source_spread_deg", "target_rotation_deg"],
                     id="gen-synthetic-msda"),
        pytest.param({"command": "gen", "dataset": {"kind": "swiss_roll"}},
                     ("dataset",), ["kind", "n", "n_classes", "noise_std"],
                     id="gen-swiss-roll"),
        pytest.param({"command": "barycenter", "flow": "empirical",
                      "inputs": [{"kind": "swiss_roll"}]},
                     ("inputs", 0),
                     ["components_per_class", "kind", "n", "n_classes",
                      "noise_std"], id="swiss-roll-input"),
    ])
    def test_section_keys(self, tmp_path, capsys, cfg, section, keys):
        cfg = json.loads(json.dumps(cfg))
        cfg["output_dir"] = str(tmp_path / "out")
        d = cfg
        for k in section:
            d = d.setdefault(k, {}) if isinstance(k, str) else d[k]
        d["bogus"] = 1
        path = write_config(tmp_path, "c.json", cfg)
        assert main(["validate", path]) == 1
        err = capsys.readouterr().err
        assert "unknown key(s) ['bogus']" in err
        assert ast.literal_eval(err.split("allowed: ")[1].strip()) == keys

    @pytest.mark.parametrize("fn, section, fixed, required, expected", [
        pytest.param(EmpiricalFlowConfig, {
            "n_particles": 128, "batch_size": 128, "n_iter": 150,
            "step_size": 0.5, "label_weight": 0.0, "init": "gaussian",
            "label_init": "uniform", "solver": "exact"},
            {"coordinates": BarycentricCoordinates.uniform(2), "seed": 0},
            cli.FLOW_CONFIGS["empirical"][1],
            EmpiricalFlowConfig(128, 128, 150, BarycentricCoordinates.uniform(2)),
            id="empirical-flow"),
        pytest.param(GmmFlowConfig, {
            "n_components": 4, "n_iter": 300, "step_size": 0.1,
            "label_weight": 0.0, "mc_samples": 128, "diag_only": False,
            "flow_weights": False, "init_mode": "em", "init_samples": 256},
            {"coordinates": BarycentricCoordinates.uniform(2), "seed": 0},
            cli.FLOW_CONFIGS["gmm"][1],
            GmmFlowConfig(4, 300, BarycentricCoordinates.uniform(2)),
            id="gmm-flow"),
        pytest.param(FunctionalSpec, {
            "entropy_weight": 0.0, "repulsion_weight": 0.0,
            "repulsion_margin": 1.0, "repulsion_metric": "euclidean",
            "target_weight": 0.0, "internal_weight": 0.0},
            {"target_measure": None}, None, FunctionalSpec(), id="functional"),
        pytest.param(synthetic_domain_specs, {
            "n_classes": 3, "dim": 2, "k_sources": 2, "n_samples": 256,
            "class_sep": 5.0, "class_std": 0.8, "target_rotation_deg": 35.0,
            "source_spread_deg": 80.0, "source_jitter": 0.15},
            {"seed": 0}, None, synthetic_domain_specs(seed=0), id="msda-task"),
    ])
    def test_library_defaults(self, fn, section, fixed, required, expected):
        given = cli._build(fn, section, "section", None, (), **fixed)
        omitted = cli._build(fn, {}, "section", required, (), **fixed)
        # fields hold arrays, so compare field by field
        fields = lambda obj: [dataclasses.asdict(o) for o in
                              (obj if isinstance(obj, list) else [obj])]
        np.testing.assert_equal(fields(given), fields(expected))
        np.testing.assert_equal(fields(omitted), fields(expected))


class TestReport:
    def test_git_describe_runs_once_per_process(self, tmp_path, monkeypatch):
        calls = []

        def fake_run(*args, **kwargs):
            calls.append(args)
            return cli.subprocess.CompletedProcess(args, 0, "v1-abc\n", "")

        monkeypatch.setattr(cli.subprocess, "run", fake_run)
        cli._git_describe.cache_clear()
        try:
            for name in ("a", "b"):
                (tmp_path / name).mkdir()
                path = cli.write_report(tmp_path / name, "validate", {}, {},
                                        [], {})
                assert json.loads(path.read_text())["git_describe"] == "v1-abc"
        finally:
            cli._git_describe.cache_clear()
        assert len(calls) == 1


class TestBarycenterCommand:
    def test_minimal_two_gaussian_run(self, tmp_path):
        out = tmp_path / "out"
        path = write_config(tmp_path, "c.json", bary_config(out))
        assert main(["barycenter", path]) == 0
        assert (out / "final_measure.csv").exists()
        assert (out / "trace.csv").exists()
        assert (out / "run_report.json").exists()
        report = json.loads((out / "run_report.json").read_text())
        assert report["schema_version"] == 1
        assert report["config"]["seed"] == 7

    def test_trace_layout(self, tmp_path):
        out = tmp_path / "out"
        path = write_config(tmp_path, "c.json", bary_config(out))
        main(["barycenter", path])
        text = (out / "trace.csv").read_text()
        rows = list(csv.reader(text.splitlines()))
        assert rows[0] == ["iter", "B_hat", "V", "U", "G", "F", "param_norm"]
        assert len(rows) == 27  # header + n_iter + 1 entries

    def test_byte_identical_across_runs(self, tmp_path):
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        p1 = write_config(tmp_path, "c1.json", bary_config(out1))
        p2 = write_config(tmp_path, "c2.json", bary_config(out2))
        main(["barycenter", p1])
        main(["barycenter", p2])
        assert (out1 / "trace.csv").read_bytes() == (out2 / "trace.csv").read_bytes()
        assert (out1 / "final_measure.csv").read_bytes() == \
            (out2 / "final_measure.csv").read_bytes()

    def test_gmm_flow_writes_mixture(self, tmp_path):
        out = tmp_path / "out"
        path = write_config(tmp_path, "c.json", bary_config(out, flow="gmm"))
        assert main(["barycenter", path]) == 0
        mixture = load_gmm(out / "final_mixture.json")
        assert 1.5 <= mixture.means[0, 0] <= 2.5

    def test_malformed_config_exit_1(self, tmp_path, capsys):
        cfg = bary_config(tmp_path / "out")
        cfg["flow"] = "quantum"
        path = write_config(tmp_path, "c.json", cfg)
        assert main(["barycenter", path]) == 1
        assert "flow" in capsys.readouterr().err

    def test_empirical_internal_energy_rejected(self, tmp_path, capsys):
        cfg = bary_config(tmp_path / "out")
        cfg["functional"] = {"internal_weight": 0.1}
        path = write_config(tmp_path, "c.json", cfg)
        assert main(["barycenter", path]) == 1
        assert "internal_weight" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_input_dimensions_differ(self, tmp_path, capsys):
        cfg = bary_config(tmp_path / "out")
        cfg["inputs"][1]["mean"] = [4.0, 0.0]
        path = write_config(tmp_path, "c.json", cfg)
        assert main(["barycenter", path]) == 1
        err = capsys.readouterr().err
        assert "feature dimensions differ" in err
        assert "inputs[1] has 2, inputs[0] has 1" in err
        assert not (tmp_path / "out").exists()

    def test_csv_input(self, tmp_path):
        from baryflow.datasets import save_csv, swiss_roll
        data_path = tmp_path / "data.csv"
        save_csv(swiss_roll(64, seed=0), data_path)
        cfg = {
            "command": "barycenter",
            "seed": 0,
            "output_dir": str(tmp_path / "out"),
            "flow": "empirical",
            "inputs": [{"kind": "csv", "path": str(data_path),
                        "label_column": "label"}],
            "flow_config": {"n_particles": 16, "batch_size": 16, "n_iter": 5,
                            "label_weight": 1.0, "init": "subsample"},
        }
        path = write_config(tmp_path, "c.json", cfg)
        assert main(["barycenter", path]) == 0

    def test_final_measure_keeps_class_names(self, tmp_path):
        out = tmp_path / "out"
        cfg = bary_with(inputs=named_inputs(
            tmp_path, ["cat", "dog"], ["dog", "fish"]),
            n_particles=12, batch_size=8, n_iter=2, label_weight=1.0,
            init="subsample")
        cfg["output_dir"] = str(out)
        path = write_config(tmp_path, "c.json", cfg)
        assert main(["barycenter", path]) == 0
        with open(out / "final_measure.csv", newline="") as fh:
            labels = {row["label"] for row in csv.DictReader(fh)}
        assert labels == {"cat", "dog", "fish"}

    @pytest.mark.parametrize("label_sets, named", [
        pytest.param((["cat", "dog"], ["dog", "fish"]), "inputs[0] has no "
                     "sample of class 'fish'", id="names"),
        pytest.param((["0", "1"], ["1"]), "inputs[1] has no sample of class 0",
                     id="integers"),
    ])
    def test_gmm_input_lacking_class_named(self, tmp_path, capsys, label_sets,
                                           named):
        cfg = bary_with("gmm", inputs=named_inputs(tmp_path, *label_sets))
        path = write_config(tmp_path, "c.json", cfg)
        assert main(["validate", path]) == 1
        assert named in capsys.readouterr().err

    def test_csv_inputs_share_class_names(self, tmp_path):
        # {cat, dog} and {cat, dog, fish} map into one three-class set
        cfg = bary_with(inputs=named_inputs(
            tmp_path, ["cat", "dog"], ["cat", "dog", "fish"]),
            n_particles=8, batch_size=8, n_iter=2, label_weight=1.0)
        cfg["output_dir"] = str(tmp_path / "out")
        path = write_config(tmp_path, "c.json", cfg)
        assert main(["validate", path]) == 0
        assert main(["barycenter", path]) == 0
        assert (tmp_path / "out" / "final_measure.csv").exists()


    def test_gmm_json_inputs(self, tmp_path):
        paths = []
        for mean in (0.0, 4.0):
            path = tmp_path / f"g{mean}.json"
            save_gmm(LabeledGMM([1.0], [[mean]], [[[1.0]]]), path)
            paths.append(str(path))
        cfg = bary_config(tmp_path / "out", flow="gmm")
        cfg["inputs"] = [{"kind": "gmm_json", "path": p} for p in paths]
        path = write_config(tmp_path, "c.json", cfg)
        assert main(["barycenter", path]) == 0
        mixture = load_gmm(tmp_path / "out" / "final_mixture.json")
        assert 1.5 <= mixture.means[0, 0] <= 2.5

    @pytest.mark.parametrize("init_mode", ["em", "random"])
    def test_class_count_from_inputs(self, tmp_path, init_mode):
        # class 2 is too rare to be drawn for the initial state; the state
        # still has one label column per class of the inputs
        cfg = bary_config(tmp_path / "out", flow="gmm")
        cfg["inputs"] = []
        for i, shift in enumerate((0.0, 4.0)):
            path = tmp_path / f"g{i}.json"
            save_gmm(LabeledGMM([0.5, 0.5 - 1e-9, 1e-9],
                                [[shift + c, 0.0] for c in range(3)],
                                [np.eye(2)] * 3, nu=np.eye(3)), path)
            cfg["inputs"].append({"kind": "gmm_json", "path": str(path)})
        cfg["flow_config"] = {"n_components": 3, "n_iter": 5,
                              "label_weight": 1.0, "init_mode": init_mode}
        path = write_config(tmp_path, "c.json", cfg)
        assert main(["barycenter", path]) == 0
        mixture = load_gmm(tmp_path / "out" / "final_mixture.json")
        assert mixture.nu.shape[1] == 3

    def test_unlabeled_csv_gmm_flow(self, tmp_path):
        rng = np.random.default_rng(0)
        paths = []
        for i, shift in enumerate((0.0, 4.0)):
            path = tmp_path / f"d{i}.csv"
            x = np.concatenate([rng.standard_normal(60) - 3.0,
                                rng.standard_normal(60) + 3.0]) + shift
            path.write_text("f0\n" + "".join(f"{v!r}\n" for v in x.tolist()))
            paths.append(str(path))
        cfg = bary_config(tmp_path / "out", flow="gmm")
        cfg["inputs"] = [{"kind": "csv", "path": p} for p in paths]
        cfg["flow_config"] = {"n_components": 2, "n_iter": 20}
        path = write_config(tmp_path, "c.json", cfg)
        assert main(["barycenter", path]) == 0
        mixture = load_gmm(tmp_path / "out" / "final_mixture.json")
        assert mixture.n_components == 2 and mixture.nu is None
        text = (tmp_path / "out" / "trace.csv").read_text()
        rows = list(csv.DictReader(text.splitlines()))
        assert float(rows[-1]["F"]) < float(rows[0]["F"])

    def test_coordinates(self, tmp_path, capsys):
        cfg = bary_config(tmp_path / "out", flow="gmm")
        cfg["coordinates"] = [0.25, 0.75]
        path = write_config(tmp_path, "c.json", cfg)
        assert main(["barycenter", path]) == 0
        mixture = load_gmm(tmp_path / "out" / "final_mixture.json")
        assert 2.5 <= mixture.means[0, 0] <= 3.5

        cfg["coordinates"] = [0.5]
        path = write_config(tmp_path, "c.json", cfg)
        assert main(["barycenter", path]) == 1
        assert "coordinates must be a list of 2 numbers" in capsys.readouterr().err


class TestToyCommand:
    def toy_config(self, out_dir, seed=3):
        return {
            "command": "toy",
            "seed": seed,
            "output_dir": str(out_dir),
            "base": "gaussian",
            "n_family": 3,
            "n_samples": 256,
            "eval_points": 250,
            "solvers": ["wgf", "wgf_gmm", "fixed_point"],
            "flow": {"n_particles": 64, "batch_size": 64, "n_iter": 60},
            "gmm": {"n_components": 1, "n_iter": 120},
        }

    def test_table_schema(self, tmp_path):
        out = tmp_path / "out"
        path = write_config(tmp_path, "c.json", self.toy_config(out))
        assert main(["toy", path]) == 0
        text = (out / "toy_table.csv").read_text()
        rows = list(csv.reader(text.splitlines()))
        assert rows[0] == ["solver", "w2_to_ref"]
        assert [r[0] for r in rows[1:]] == ["init", "wgf", "wgf_gmm",
                                            "fixed_point"]

    def test_deterministic_table(self, tmp_path):
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        p1 = write_config(tmp_path, "c1.json", self.toy_config(out1))
        p2 = write_config(tmp_path, "c2.json", self.toy_config(out2))
        main(["toy", p1])
        main(["toy", p2])
        assert (out1 / "toy_table.csv").read_bytes() == \
            (out2 / "toy_table.csv").read_bytes()

    def test_swiss_roll_base(self, tmp_path):
        cfg = self.toy_config(tmp_path / "out")
        cfg["base"] = "swiss_roll"
        cfg["solvers"] = ["wgf"]
        path = write_config(tmp_path, "c.json", cfg)
        assert main(["toy", path]) == 0


class TestMsdaCommand:
    def msda_config(self, out_dir, seed=0):
        return {
            "command": "msda",
            "seed": seed,
            "output_dir": str(out_dir),
            "method": "empirical",
            "task": {"n_samples": 128},
            "flow": {"n_particles": 64, "batch_size": 64, "n_iter": 40,
                     "label_weight": 8.0, "init": "subsample"},
            "functional": {"repulsion_weight": 0.05, "target_weight": 0.1},
        }

    def test_four_combo_table(self, tmp_path):
        out = tmp_path / "out"
        path = write_config(tmp_path, "c.json", self.msda_config(out))
        assert main(["msda", path]) == 0
        text = (out / "ablation_table.csv").read_text()
        rows = list(csv.reader(text.splitlines()))
        assert rows[0] == ["combo", "accuracy_adapted", "accuracy_source_only"]
        assert [r[0] for r in rows[1:]] == ["B", "B+V", "B+U", "B+V+U"]

    def test_deterministic_table(self, tmp_path):
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        p1 = write_config(tmp_path, "c1.json", self.msda_config(out1))
        p2 = write_config(tmp_path, "c2.json", self.msda_config(out2))
        main(["msda", p1])
        main(["msda", p2])
        assert (out1 / "ablation_table.csv").read_bytes() == \
            (out2 / "ablation_table.csv").read_bytes()

    def test_empirical_internal_energy_rejected(self, tmp_path, capsys):
        cfg = self.msda_config(tmp_path / "out")
        cfg["functional"]["internal_weight"] = 0.1
        path = write_config(tmp_path, "c.json", cfg)
        assert main(["msda", path]) == 1
        assert "internal_weight" in capsys.readouterr().err

    def test_labeled_target_csv_dimension(self, tmp_path, capsys):
        # every column of functional.target_csv is a feature, the label too
        cfg = self.msda_config(tmp_path / "out")
        cfg["functional"]["target_csv"] = labeled_2d_csv(tmp_path)
        path = write_config(tmp_path, "c.json", cfg)
        assert main(["msda", path]) == 1
        err = capsys.readouterr().err
        assert "functional: target_csv has 3, sources[0] has 2" in err
        assert not (tmp_path / "out").exists()

    def test_discrete_baseline_rejects_energies(self, tmp_path, capsys):
        cfg = self.msda_config(tmp_path / "out")
        cfg["method"] = "discrete_baseline"
        path = write_config(tmp_path, "c.json", cfg)
        assert main(["msda", path]) == 1
        assert "discrete_baseline" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_missing_target_path_exit_1(self, tmp_path, capsys):
        cfg = {
            "command": "msda",
            "seed": 0,
            "output_dir": str(tmp_path / "out"),
            "sources_csv": [],
            "target_csv": str(tmp_path / "missing.csv"),
        }
        path = write_config(tmp_path, "c.json", cfg)
        assert main(["msda", path]) == 1
        assert "missing.csv" in capsys.readouterr().err

    def test_csv_mode(self, tmp_path):
        from baryflow.datasets import (
            save_csv,
            synthetic_domain_specs,
            synthetic_msda,
        )
        specs = synthetic_domain_specs(n_samples=128, seed=5)
        data = synthetic_msda(specs, seed=5)
        src_paths = []
        for i, s in enumerate(data.sources):
            p = tmp_path / f"s{i}.csv"
            save_csv(s, p)
            src_paths.append(str(p))
        tgt = EmpiricalMeasure.from_hard_labels(
            data.target_features.points, data.target_labels, 3)
        tgt_path = tmp_path / "t.csv"
        save_csv(tgt, tgt_path)
        cfg = {
            "command": "msda",
            "seed": 0,
            "output_dir": str(tmp_path / "out"),
            "method": "empirical",
            "combos": ["B"],
            "sources_csv": src_paths,
            "target_csv": str(tgt_path),
            "flow": {"n_particles": 64, "batch_size": 64, "n_iter": 30,
                     "label_weight": 8.0, "init": "subsample"},
        }
        path = write_config(tmp_path, "c.json", cfg)
        assert main(["msda", path]) == 0


    def test_csv_class_names_share_ids(self, tmp_path):
        # one name has one id in every file, so a source-only 1-NN
        # classifier of well-separated classes scores every target point
        out = tmp_path / "out"
        cfg = {"command": "msda", "seed": 0, "output_dir": str(out),
               "combos": ["B"],
               "sources_csv": [named_csv(tmp_path, "s0", ["cat", "dog"]),
                               named_csv(tmp_path, "s1", ["dog", "fish"])],
               "target_csv": named_csv(tmp_path, "t", ["cat", "dog", "fish"]),
               "flow": {"n_particles": 16, "batch_size": 16, "n_iter": 2}}
        path = write_config(tmp_path, "c.json", cfg)
        assert main(["msda", path]) == 0
        with open(out / "ablation_table.csv", newline="") as fh:
            (row,) = csv.DictReader(fh)
        assert float(row["accuracy_source_only"]) == 1.0


class TestGenCommand:
    def test_swiss_roll_gen(self, tmp_path):
        out = tmp_path / "out"
        cfg = {"command": "gen", "seed": 1, "output_dir": str(out),
               "dataset": {"kind": "swiss_roll", "n": 100, "noise_std": 0.1}}
        path = write_config(tmp_path, "c.json", cfg)
        assert main(["gen", path]) == 0
        assert (out / "swiss_roll.csv").exists()

    def test_msda_gen_round_trips(self, tmp_path):
        from baryflow.datasets import load_csv
        out = tmp_path / "out"
        cfg = {"command": "gen", "seed": 2, "output_dir": str(out),
               "dataset": {"kind": "synthetic_msda", "n_samples": 64}}
        path = write_config(tmp_path, "c.json", cfg)
        assert main(["gen", path]) == 0
        src, names = load_csv(out / "source_0.csv", label_column="label")
        assert src.n == 64 and names is None

    def test_location_scatter_gen(self, tmp_path):
        out = tmp_path / "out"
        cfg = {"command": "gen", "seed": 3, "output_dir": str(out),
               "dataset": {"kind": "location_scatter", "n": 50, "k": 3}}
        path = write_config(tmp_path, "c.json", cfg)
        assert main(["gen", path]) == 0
        assert sum(1 for _ in out.glob("family_*.csv")) == 3
