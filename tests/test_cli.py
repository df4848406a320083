import contextlib
import copy
import hashlib
import io
import json
import math
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import textwrap
import time
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

import emcurate.volume_io as vio
from emcurate.cli import build_parser, main
from emcurate.config import load_run_config
from emcurate.errors import ShapeError

from conftest import repacked_volume
from oracles import full_grid_nsd

BASE_CFG = {
    "phantom": {
        "dims": [32, 32, 32],
        "spacing": [1.0, 1.0, 1.0],
        "background": {"mean": 20.0, "std": 5.0},
        "structures": [
            {"label": 1, "name": "liver", "kind": "organ", "shape": "ellipsoid",
             "center": [0.30, 0.45, 0.62], "radii": [0.20, 0.17, 0.15],
             "intensity": {"mean": 105.0, "std": 5.0}},
            {"label": 2, "name": "spleen", "kind": "organ", "shape": "ellipsoid",
             "center": [0.72, 0.42, 0.60], "radii": [0.09, 0.08, 0.10],
             "intensity": {"mean": 135.0, "std": 5.0}},
            {"label": 3, "name": "kidney_right", "kind": "organ", "shape": "ellipsoid",
             "center": [0.33, 0.58, 0.36], "radii": [0.06, 0.055, 0.10],
             "intensity": {"mean": 165.0, "std": 5.0}},
            {"label": 4, "name": "kidney_left", "kind": "organ", "shape": "ellipsoid",
             "center": [0.67, 0.58, 0.36], "radii": [0.06, 0.055, 0.10],
             "intensity": {"mean": 165.0, "std": 5.0}},
            {"label": 5, "name": "pancreas", "kind": "organ", "shape": "ellipsoid",
             "center": [0.48, 0.55, 0.48], "radii": [0.17, 0.11, 0.10],
             "intensity": {"mean": 75.0, "std": 5.0}},
            {"label": 6, "name": "aorta", "kind": "vessel", "shape": "cylinder",
             "center": [0.52, 0.30, 0.50], "radii": [0.035, 0.035, 0.36],
             "intensity": {"mean": 210.0, "std": 5.0}},
        ],
        "tumor": {"label": 7, "name": "tumor", "host_label": 5,
                  "count_range": [0, 1], "radius_range": [0.04, 0.052],
                  "intensity_offset": -25.0, "intensity_std": 5.0},
    },
    "noise": {"delete": 0.1, "shift": 0.15, "fragment": 0.05, "spurious": 0.05,
              "boundary_jitter": 0.02, "shift_voxels": [3, 5],
              "tumor_miss": 0.3, "tumor_fp_rate": 0.3},
    "corpus": {"n_cases": 6, "gold_fraction": 0.34},
    "em": {"max_iterations": 2, "convergence_epsilon": 1.0e-4,
           "data_mix": {"labeled": 0.7, "synthetic": 0.2, "selective": 0.1},
           "seed": 0},
    "metrics": {"roc_points": 21},
}


@pytest.fixture()
def cfg_file(tmp_path):
    path = tmp_path / "cfg.yaml"
    path.write_text(yaml.safe_dump(BASE_CFG))
    return str(path)


def tree_digest(root: Path) -> dict:
    out = {}
    for p in sorted(root.rglob("*")):
        if p.is_file():
            out[str(p.relative_to(root))] = hashlib.sha256(p.read_bytes()).hexdigest()
    return out


def _paths(root: Path) -> list[str]:
    return sorted(str(p.relative_to(root)) for p in root.rglob("*"))


def test_generate_writes_expected_files(cfg_file, tmp_path):
    out = tmp_path / "corpus"
    assert main(["generate", "--config", cfg_file, "--out", str(out)]) == 0
    names = {p.name for p in out.iterdir()}
    assert "manifest.json" in names and "injections.jsonl" in names
    cases, catalog = vio.read_corpus(out)
    assert len(cases) == 6
    assert sum(c.meta.is_gold for c in cases) == 3  # ceil(0.34 * 6)


def test_generate_refuses_nonempty_dir_without_force(cfg_file, tmp_path):
    out = tmp_path / "corpus"
    assert main(["generate", "--config", cfg_file, "--out", str(out)]) == 0
    assert main(["generate", "--config", cfg_file, "--out", str(out)]) == 2
    assert main(["generate", "--config", cfg_file, "--out", str(out), "--force"]) == 0


def test_generate_same_seed_same_bytes(cfg_file, tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    assert main(["generate", "--config", cfg_file, "--out", str(a)]) == 0
    assert main(["generate", "--config", cfg_file, "--out", str(b)]) == 0
    assert tree_digest(a) == tree_digest(b)


def test_missing_config_is_config_error(tmp_path):
    assert main(["generate", "--config", str(tmp_path / "nope.yaml"),
                 "--out", str(tmp_path / "x")]) == 2


def test_missing_corpus_is_io_error(cfg_file, tmp_path):
    assert main(["evaluate", "--config", cfg_file, "--corpus",
                 str(tmp_path / "nocorpus"), "--out", str(tmp_path / "o")]) == 3


def _flip_byte(path: Path, offset: int) -> None:
    raw = bytearray(path.read_bytes())
    raw[offset] ^= 0x01
    path.write_bytes(bytes(raw))


def _truncate(path: Path) -> None:
    path.write_bytes(path.read_bytes()[:40])


def _truncate_header(path: Path) -> None:
    """Cut a volume file inside its header and re-sign it in the manifest."""
    path.write_bytes(path.read_bytes()[:20])
    _resign(path)


def _edit_json(edit):
    def corrupt(path: Path) -> None:
        payload = json.loads(path.read_text())
        edit(payload)
        path.write_text(json.dumps(payload))
    return corrupt


CORRUPTIONS = {
    "label_byte": ("case_0001_pseudo.smai", lambda p: _flip_byte(p, 5000)),
    # case_0001 is a gold case: its gold file is byte-equal to its pseudo file
    "gold_byte": ("case_0001_gold.smai", lambda p: _flip_byte(p, 5000)),
    "intensity_byte": ("case_0001_vol.smai", lambda p: _flip_byte(p, 5000)),
    "sidecar_truncated": ("case_0001.json", _truncate),
    "manifest_truncated": ("manifest.json", _truncate),
    "file_not_in_manifest": ("manifest.json",
                             _edit_json(lambda m: m["checksums"].pop("case_0001_vol.smai"))),
    "volume_header_truncated": ("case_0001_vol.smai", _truncate_header),
    # the manifest's checksums omit the sidecar named first
    "sidecar_not_in_manifest": ("case_0001.json", lambda p: _edit_json(
        lambda m: m["checksums"].pop(p.name))(p.parent / "manifest.json")),
    "no_cases": ("manifest.json", _edit_json(lambda m: m.update(case_ids=[]))),
    "checksums_not_a_dict": ("manifest.json",
                             _edit_json(lambda m: m.update(checksums=sorted(m["checksums"])))),
    "catalog_relabelled": ("manifest.json", _edit_json(lambda m: m["catalog"][0].update(label=9))),
    "catalog_label_bool": ("manifest.json",
                           _edit_json(lambda m: m["catalog"][0].update(label=True))),
    "manifest_schema_version": ("manifest.json",
                                _edit_json(lambda m: m.update(schema_version=99))),
    "manifest_unknown_key": ("manifest.json", _edit_json(lambda m: m.update(note="x"))),
}


@pytest.mark.parametrize("corruption", sorted(CORRUPTIONS))
def test_corrupt_corpus_is_io_error(cfg_file, tmp_path, capsys, corruption):
    corpus = tmp_path / "corpus"
    assert main(["generate", "--config", cfg_file, "--out", str(corpus)]) == 0
    name, corrupt = CORRUPTIONS[corruption]
    corrupt(corpus / name)
    out = tmp_path / "eval"
    assert main(["evaluate", "--config", cfg_file, "--corpus", str(corpus),
                 "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert "case_0001" in err or "manifest.json" in err
    assert name in err or not name.endswith(".smai")
    assert "Traceback" not in err
    assert not out.exists()


def test_gold_file_equal_to_pseudo_needs_its_own_checksum(cfg_file, tmp_path, capsys):
    """A gold file byte-equal to its pseudo file is verified by that equality
    only under the manifest's own sha256 for it."""
    corpus = tmp_path / "corpus"
    assert main(["generate", "--config", cfg_file, "--out", str(corpus)]) == 0
    _edit_json(lambda m: m["checksums"].update({"case_0001_gold.smai": "0" * 64}))(
        corpus / "manifest.json")
    out = tmp_path / "eval"
    assert main(["evaluate", "--config", cfg_file, "--corpus", str(corpus),
                 "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert "case_0001_gold.smai: sha256 differs" in err and "Traceback" not in err
    assert not out.exists()


def _resign(path: Path) -> None:
    """Record path's new sha256 in its corpus manifest."""
    manifest_path = path.parent / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    manifest["checksums"][path.name] = hashlib.sha256(path.read_bytes()).hexdigest()
    manifest_path.write_text(json.dumps(manifest))


def _edit_sidecar(edit, case_id: str = "case_0001"):
    """Edit a case's sidecar (case_0001 is a gold case, case_0003 is not) and
    re-sign it in the manifest, so only the sidecar's content is wrong;
    returns the sidecar's name."""
    def corrupt(corpus: Path) -> str:
        sidecar = corpus / f"{case_id}.json"
        _edit_json(edit)(sidecar)
        _resign(sidecar)
        return sidecar.name
    return corrupt


def _duplicate_case_id(corpus: Path) -> str:
    _edit_json(lambda m: m["case_ids"].append("case_0001"))(corpus / "manifest.json")
    return "manifest.json"


SIDECAR_CORRUPTIONS = {
    "missing_files": _edit_sidecar(lambda s: s.pop("files")),
    "missing_volume_file": _edit_sidecar(lambda s: s["files"].pop("volume")),
    "missing_tumor_count": _edit_sidecar(lambda s: s["report"].pop("tumor_count")),
    "bad_sex": _edit_sidecar(lambda s: s["meta"].update(sex="X")),
    "inconsistent_report": _edit_sidecar(lambda s: s["report"].update(tumor_count=-1)),
    "files_not_a_dict": _edit_sidecar(lambda s: s.update(files=["a", "b"])),
    "report_not_a_dict": _edit_sidecar(lambda s: s.update(report=[1])),
    "other_case_id": _edit_sidecar(lambda s: s.update(case_id="case_0002")),
    "other_catalog_id": _edit_sidecar(lambda s: s.update(catalog_id="000000000000")),
    "gold_flag_without_gold_map": _edit_sidecar(
        lambda s: (s["files"].pop("gold"), s["meta"].update(is_gold=True))),
    "duplicate_case_id": _duplicate_case_id,
    "is_gold_string": _edit_sidecar(lambda s: s["meta"].update(is_gold="false"), "case_0003"),
    "is_gold_number": _edit_sidecar(lambda s: s["meta"].update(is_gold=1), "case_0003"),
    "age_fraction": _edit_sidecar(lambda s: s["meta"].update(age=40.7)),
    "age_string": _edit_sidecar(lambda s: s["meta"].update(age="41")),
    "unknown_meta_key": _edit_sidecar(lambda s: s["meta"].update(weight=70)),
    "schema_version": _edit_sidecar(lambda s: s.update(schema_version=99)),
    "unknown_key": _edit_sidecar(lambda s: s.update(note="x")),
    # the unknown role names a listed file, so only the role is wrong
    "unknown_file_role": _edit_sidecar(lambda s: s["files"].update(bogus=s["files"]["gold"])),
}


@pytest.mark.parametrize("corruption", sorted(SIDECAR_CORRUPTIONS))
def test_malformed_sidecar_is_io_error(cfg_file, tmp_path, capsys, corruption):
    corpus = tmp_path / "corpus"
    assert main(["generate", "--config", cfg_file, "--out", str(corpus)]) == 0
    name = SIDECAR_CORRUPTIONS[corruption](corpus)
    out = tmp_path / "eval"
    assert main(["evaluate", "--config", cfg_file, "--corpus", str(corpus),
                 "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert name in err and (corruption != "duplicate_case_id" or "duplicate" in err)
    assert "Traceback" not in err
    assert not out.exists()


def _edit_volume(name: str, edit):
    """Rewrite the volume file name of a corpus as edit(voxels) and re-sign
    it in the manifest, so the file is well formed and only its content is
    wrong."""
    def corrupt(corpus: Path) -> None:
        path = corpus / name
        path.write_bytes(repacked_volume(path.read_bytes(), lambda sp, data: (sp, edit(data))))
        _resign(path)
    return corrupt


def _set_first_voxel(value):
    def edit(data):
        data[0, 0, 0] = value
        return data
    return edit


VOLUME_CONTENT_CORRUPTIONS = {
    "label_outside_catalog": ("case_0001_pseudo.smai", _set_first_voxel(99)),
    "nan_intensity": ("case_0001_vol.smai", _set_first_voxel(np.nan)),
    "pseudo_on_smaller_lattice": ("case_0001_pseudo.smai", lambda d: d[:16, :16, :16]),
}


@pytest.mark.parametrize("corruption", sorted(VOLUME_CONTENT_CORRUPTIONS))
def test_malformed_volume_content_is_io_error(cfg_file, tmp_path, capsys, corruption):
    corpus = tmp_path / "corpus"
    assert main(["generate", "--config", cfg_file, "--out", str(corpus)]) == 0
    name, edit = VOLUME_CONTENT_CORRUPTIONS[corruption]
    _edit_volume(name, edit)(corpus)
    out = tmp_path / "eval"
    assert main(["evaluate", "--config", cfg_file, "--corpus", str(corpus),
                 "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert name in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["audit", "refine", "run-loop"])
def test_corpus_of_another_catalog_is_config_error(cfg_file, tmp_path, capsys, command):
    corpus = tmp_path / "corpus"
    assert main(["generate", "--config", cfg_file, "--out", str(corpus)]) == 0
    cfg = dict(BASE_CFG, phantom=dict(BASE_CFG["phantom"]))
    cfg["phantom"]["structures"] = [dict(s, name="hepar") if s["name"] == "liver" else s
                                    for s in BASE_CFG["phantom"]["structures"]]
    other = tmp_path / "hepar.yaml"
    other.write_text(yaml.safe_dump(cfg))
    out = tmp_path / "out"
    out.mkdir()
    (out / "keep.txt").write_text("previous run")
    argv = [command, "--config", str(other), "--corpus", str(corpus), "--out", str(out)]
    assert main(argv + ["--force"]) == 2
    err = capsys.readouterr().err
    assert "catalog" in err and "Traceback" not in err
    assert [p.name for p in out.iterdir()] == ["keep.txt"]


def _phantom_config(tmp_path: Path, name: str, n_cases: int = 6, **phantom) -> str:
    """BASE_CFG with its phantom fields and case count replaced, written as name."""
    cfg = dict(BASE_CFG, phantom=dict(BASE_CFG["phantom"], **phantom),
               corpus=dict(BASE_CFG["corpus"], n_cases=n_cases))
    path = tmp_path / name
    path.write_text(yaml.safe_dump(cfg))
    return str(path)


def _relattice_case(corpus: Path, case_id: str, edit) -> None:
    """Rewrite every volume of one case as edit(spacing, voxels) ->
    (spacing, voxels) and re-sign it, so each file is well formed, the case's
    maps share the volume's lattice, and only the lattice is new."""
    for path in sorted(corpus.glob(f"{case_id}_*.smai")):
        path.write_bytes(repacked_volume(path.read_bytes(), edit))
        _resign(path)


LATTICE_EDITS = {
    "spacing": lambda spacing, data: ((3.0, 3.0, 3.0), data),
    "dims": lambda spacing, data: (spacing, np.pad(data, ((0, 16), (0, 16), (0, 16)))),
}


@pytest.mark.parametrize("edit", sorted(LATTICE_EDITS))
def test_corpus_of_two_lattices_is_io_error(tmp_path, capsys, edit):
    cfg = _phantom_config(tmp_path, "small.yaml", n_cases=2, dims=[16, 16, 16])
    corpus = tmp_path / "corpus"
    assert main(["generate", "--config", cfg, "--out", str(corpus)]) == 0
    _relattice_case(corpus, "case_0001", LATTICE_EDITS[edit])
    out = tmp_path / "eval"
    assert main(["evaluate", "--config", cfg, "--corpus", str(corpus),
                 "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert "case_0001_vol.smai" in err and "lattice" in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("spacing", [math.inf, math.nan])
def test_corpus_of_non_finite_spacing_is_io_error(tmp_path, capsys, spacing):
    """Every volume of the corpus on one non-finite spacing: no lattice
    differs from another, yet no NSD can be taken at it."""
    cfg = _phantom_config(tmp_path, "small.yaml", n_cases=2, dims=[16, 16, 16])
    corpus = tmp_path / "corpus"
    assert main(["generate", "--config", cfg, "--out", str(corpus)]) == 0
    for case_id in ("case_0000", "case_0001"):
        _relattice_case(corpus, case_id, lambda _, data: ((spacing, 1.0, 1.0), data))
    out = tmp_path / "eval"
    assert main(["evaluate", "--config", cfg, "--corpus", str(corpus),
                 "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert "case_0000_vol.smai: spacing must be a positive finite triple" in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("phantom", [{"dims": [16, 16, 16]}, {"spacing": [1.0, 1.0, 2.0]}],
                         ids=["dims", "spacing"])
def test_config_of_another_lattice_is_config_error(cfg_file, tmp_path, capsys, phantom):
    corpus = tmp_path / "corpus"
    assert main(["generate", "--config", cfg_file, "--out", str(corpus)]) == 0
    other = _phantom_config(tmp_path, "other.yaml", **phantom)
    out = tmp_path / "out"
    out.mkdir()
    (out / "keep.txt").write_text("previous run")
    assert main(["run-loop", "--config", other, "--corpus", str(corpus), "--out", str(out),
                 "--force"]) == 2
    err = capsys.readouterr().err
    assert "lattice" in err and "Traceback" not in err
    assert [p.name for p in out.iterdir()] == ["keep.txt"]


def test_config_lattice_is_compared_at_stored_precision(tmp_path):
    """A volume header stores the spacing in float32: 0.8 mm reads back as
    0.800000011920929 and is still the config's 0.8 mm."""
    cfg = _phantom_config(tmp_path, "fine.yaml", n_cases=2, spacing=[0.8, 0.8, 0.8])
    corpus = tmp_path / "corpus"
    assert main(["generate", "--config", cfg, "--out", str(corpus)]) == 0
    assert main(["audit", "--config", cfg, "--corpus", str(corpus),
                 "--out", str(tmp_path / "audit")]) == 0


def test_invariant_violation_is_exit_4(tmp_path):
    # a corpus whose gold contains zero tumor instances makes the savings
    # ratio undefined -> invariant-violation exit code
    cfg = dict(BASE_CFG)
    cfg["phantom"] = dict(cfg["phantom"])
    cfg["phantom"]["tumor"] = dict(cfg["phantom"]["tumor"], count_range=[0, 0])
    cfg["corpus"] = {"n_cases": 3, "gold_fraction": 1.0}
    path = tmp_path / "notumor.yaml"
    path.write_text(yaml.safe_dump(cfg))
    corpus = tmp_path / "corpus"
    assert main(["generate", "--config", str(path), "--out", str(corpus)]) == 0
    assert main(["roc", "--config", str(path), "--corpus", str(corpus),
                 "--out", str(tmp_path / "roc")]) == 4


def test_roc_without_a_tumor_is_config_error_before_out(tmp_path, capsys):
    cfg = dict(BASE_CFG, phantom={k: v for k, v in BASE_CFG["phantom"].items()
                                  if k != "tumor"})
    path = tmp_path / "organs.yaml"
    path.write_text(yaml.safe_dump(cfg))
    corpus = tmp_path / "corpus"
    assert main(["generate", "--config", str(path), "--out", str(corpus)]) == 0
    out = tmp_path / "roc"
    assert main(["roc", "--config", str(path), "--corpus", str(corpus), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "requires a tumor structure" in err and "Traceback" not in err
    assert not out.exists()


def test_invalid_roc_points_is_config_error(tmp_path, capsys):
    cfg = dict(BASE_CFG, metrics={"roc_points": -1})
    path = tmp_path / "cfg.yaml"
    path.write_text(yaml.safe_dump(cfg))
    assert main(["roc", "--config", str(path), "--corpus", str(tmp_path / "absent"),
                 "--out", str(tmp_path / "roc")]) == 2
    assert "roc_points" in capsys.readouterr().err
    assert not (tmp_path / "roc").exists()


def _gold_corpus(tmp_path, n_cases: int) -> tuple[str, Path]:
    """A BASE_CFG corpus of n_cases gold cases; returns (config path, corpus)."""
    path = tmp_path / "gold.yaml"
    path.write_text(yaml.safe_dump(dict(BASE_CFG, corpus={"n_cases": n_cases,
                                                           "gold_fraction": 1.0})))
    corpus = tmp_path / "corpus"
    assert main(["generate", "--config", str(path), "--out", str(corpus)]) == 0
    return str(path), corpus


@pytest.mark.parametrize("target", ["1.5", "0", "nan"])
def test_roc_target_out_of_range_is_config_error_before_any_work(tmp_path, capsys, target):
    cfg, corpus = _gold_corpus(tmp_path, 2)
    capsys.readouterr()
    out = tmp_path / "roc"
    assert main(["roc", "--config", cfg, "--corpus", str(corpus), "--out", str(out),
                 "--target", target]) == 2
    err = capsys.readouterr().err
    assert "--target" in err and f"got {float(target)}" in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["roc", "evaluate"])
def test_case_without_gold_is_config_error_before_out(tmp_path, capsys, command):
    cfg, corpus = _gold_corpus(tmp_path, 6)
    sidecar = corpus / "case_0005.json"
    _edit_json(lambda s: (s["files"].pop("gold"), s["meta"].update(is_gold=False)))(sidecar)
    _resign(sidecar)
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--corpus", str(corpus), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "case_0005 lacks gold labels" in err and "Traceback" not in err
    assert not out.exists()


def test_audit_and_evaluate(cfg_file, tmp_path):
    corpus = tmp_path / "corpus"
    main(["generate", "--config", cfg_file, "--out", str(corpus)])
    out = tmp_path / "audit"
    assert main(["audit", "--config", cfg_file, "--corpus", str(corpus),
                 "--out", str(out), "--apply"]) == 0
    audit = json.loads((out / "audit.json").read_text())
    assert len(audit["cases"]) == 6
    assert (out / "refined").is_dir()

    ev = tmp_path / "eval"
    assert main(["evaluate", "--config", cfg_file, "--corpus", str(out / "refined"),
                 "--out", str(ev)]) == 0
    payload = json.loads((ev / "evaluation.json").read_text())
    assert 0.0 <= payload["aggregate"]["mean_dsc"] <= 1.0


def test_evaluate_clean_corpus_mean_one(cfg_file, tmp_path):
    cfg = dict(BASE_CFG)
    cfg["corpus"] = {"n_cases": 3, "gold_fraction": 1.0}
    path = tmp_path / "clean.yaml"
    path.write_text(yaml.safe_dump(cfg))
    corpus = tmp_path / "corpus"
    main(["generate", "--config", str(path), "--out", str(corpus)])
    out = tmp_path / "eval"
    assert main(["evaluate", "--config", str(path), "--corpus", str(corpus),
                 "--out", str(out), "--no-nsd"]) == 0
    payload = json.loads((out / "evaluation.json").read_text())
    assert payload["aggregate"]["mean_dsc"] == 1.0


def test_evaluate_scores_nsd_at_the_corpus_spacing(tmp_path):
    cfg = _phantom_config(tmp_path, "aniso.yaml", n_cases=2, dims=[16, 16, 16],
                          spacing=[0.8, 0.8, 2.5])
    corpus = tmp_path / "corpus"
    # seed 2 corrupts structures whose NSD differs between this spacing and 1 mm
    assert main(["generate", "--config", cfg, "--seed", "2", "--out", str(corpus)]) == 0
    assert main(["evaluate", "--config", cfg, "--corpus", str(corpus),
                 "--out", str(tmp_path / "eval")]) == 0
    assert main(["evaluate", "--config", cfg, "--corpus", str(corpus),
                 "--out", str(tmp_path / "eval_no_nsd"), "--no-nsd"]) == 0
    tolerance = load_run_config(cfg).metrics.nsd_tolerance_mm
    cases, catalog = vio.read_corpus(corpus)
    rows = json.loads((tmp_path / "eval" / "evaluation.json").read_text())["cases"]
    rows_no_nsd = json.loads((tmp_path / "eval_no_nsd" / "evaluation.json").read_text())["cases"]
    at_unit_spacing = []
    for case in cases:
        spacing = case.pseudo.spacing  # as stored: float32 of the config's spacing
        assert spacing == pytest.approx((0.8, 0.8, 2.5))
        for s in catalog.labels:
            a, b = case.pseudo.labels == s, case.gold.labels == s
            row = rows[case.case_id][str(s)]
            assert row["nsd"] == full_grid_nsd(a, b, tolerance, spacing)
            assert rows_no_nsd[case.case_id][str(s)] == dict(row, nsd=None)
            at_unit_spacing.append(row["nsd"] == full_grid_nsd(a, b, tolerance, (1.0, 1.0, 1.0)))
    assert not all(at_unit_spacing)


def test_refine_outputs(cfg_file, tmp_path):
    corpus = tmp_path / "corpus"
    main(["generate", "--config", cfg_file, "--out", str(corpus)])
    out = tmp_path / "refine"
    assert main(["refine", "--config", cfg_file, "--corpus", str(corpus),
                 "--out", str(out), "--threads", "2"]) == 0
    stats = json.loads((out / "refine_stats.json").read_text())
    assert stats["structures_audited"] == 6 * 7
    assert (out / "refined" / "manifest.json").exists()
    assert (out / "queue.json").exists()


@pytest.mark.parametrize("out", [None, ""], ids=["unset", "empty"])
def test_no_out_is_config_error(cfg_file, tmp_path, monkeypatch, capsys, out):
    """An empty --out names no directory, not the working directory."""
    monkeypatch.chdir(tmp_path)
    before = _paths(tmp_path)
    assert main(["generate", "--config", cfg_file] + ([] if out is None else ["--out", out])) == 2
    assert "no output directory" in capsys.readouterr().err
    assert _paths(tmp_path) == before


# the ids are the names these cases had when the test also set the thread
# count through the environment
@pytest.mark.parametrize("flag", ["0", "-3"], ids=["0-None", "-3-None"])
def test_thread_count_below_one_is_config_error(cfg_file, tmp_path, capsys, flag):
    argv = ["run-loop", "--config", cfg_file, "--out", str(tmp_path / "run")]
    assert main(argv + ["--threads", flag]) == 2
    assert "must be >= 1" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("command", ["generate", "audit", "roc", "evaluate"])
def test_threads_flag_only_where_it_is_read(command):
    argv = [command, "--out", "o"] + ([] if command == "generate" else ["--corpus", "c"])
    build_parser().parse_args(argv)
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(argv + ["--threads", "2"])
    assert exc.value.code == 2


def test_roc_command(cfg_file, tmp_path):
    cfg = dict(BASE_CFG)
    cfg["corpus"] = {"n_cases": 8, "gold_fraction": 1.0}
    cfg["phantom"] = dict(cfg["phantom"])
    cfg["phantom"]["tumor"] = dict(cfg["phantom"]["tumor"], count_range=[0, 2])
    path = tmp_path / "roc.yaml"
    path.write_text(yaml.safe_dump(cfg))
    corpus = tmp_path / "corpus"
    main(["generate", "--config", str(path), "--out", str(corpus)])
    out = tmp_path / "roc"
    assert main(["roc", "--config", str(path), "--corpus", str(corpus),
                 "--out", str(out), "--target", "0.99"]) == 0
    lines = (out / "roc_curve.csv").read_text().splitlines()
    assert lines[0] == "threshold,sensitivity,fp_per_scan,specificity"
    assert len(lines) == 1 + 21
    policy = json.loads((out / "policy.json").read_text())
    assert policy["feasible"] is True
    assert policy["achieved_sensitivity"] >= 0.99
    savings = json.loads((out / "savings.json").read_text())
    assert 0.0 <= savings["ratio"] <= 1.0


def test_run_loop_and_outputs(cfg_file, tmp_path):
    out = tmp_path / "run"
    assert main(["run-loop", "--config", cfg_file, "--out", str(out),
                 "--seed", "3"]) == 0
    names = {p.name for p in out.iterdir()}
    assert {"config_snapshot.json", "summary.json", "final_corpus"} <= names
    snap = json.loads((out / "config_snapshot.json").read_text())
    assert snap["em"]["seed"] == 3
    assert snap["schema_version"] == 1
    summary = json.loads((out / "summary.json").read_text())
    assert summary["iterations"] >= 1


def test_run_loop_zero_iterations(cfg_file, tmp_path):
    cfg = dict(BASE_CFG)
    cfg["em"] = dict(cfg["em"], max_iterations=0)
    path = tmp_path / "zero.yaml"
    path.write_text(yaml.safe_dump(cfg))
    out = tmp_path / "run"
    assert main(["run-loop", "--config", str(path), "--out", str(out)]) == 0
    names = {p.name for p in out.iterdir()}
    assert "model_000.json" in names
    assert not any(n.startswith("iteration_") for n in names)


def test_run_loop_missing_corpus_keeps_previous_run(cfg_file, tmp_path, capsys):
    out = tmp_path / "run"
    out.mkdir()
    (out / "summary.json").write_text("{}")
    assert main(["run-loop", "--config", cfg_file, "--corpus", str(tmp_path / "nocorpus"),
                 "--out", str(out), "--force"]) == 3
    assert "Traceback" not in capsys.readouterr().err
    assert (out / "summary.json").read_text() == "{}"


def test_run_loop_byte_identical_across_threads(cfg_file, tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    assert main(["run-loop", "--config", cfg_file, "--out", str(a),
                 "--threads", "1"]) == 0
    assert main(["run-loop", "--config", cfg_file, "--out", str(b),
                 "--threads", "4"]) == 0
    assert tree_digest(a) == tree_digest(b)


def test_run_loop_timing_adds_only_timing_jsonl(cfg_file, tmp_path):
    plain, timed = tmp_path / "plain", tmp_path / "timed"
    argv = ["run-loop", "--config", cfg_file, "--threads", "1", "--out"]
    assert main(argv + [str(plain)]) == 0
    assert main(argv + [str(timed), "--timing"]) == 0
    rows = [json.loads(line) for line in (timed / "timing.jsonl").read_text().splitlines()]
    iterations = json.loads((plain / "summary.json").read_text())["iterations"]
    assert [row["iteration"] for row in rows] == list(range(1, iterations + 1))
    phases = ["expectation_s", "maximization_s", "gold_metrics_s", "records_s"]
    for row in rows:
        assert set(row) == {"iteration", "wall_clock_s", *phases}
        assert row["wall_clock_s"] > 0
        assert all(row[k] >= 0 for k in phases)
        assert sum(row[k] for k in phases) <= row["wall_clock_s"]
    digest = tree_digest(timed)
    del digest["timing.jsonl"]
    assert digest == tree_digest(plain)


BAD_LOOP_SETTINGS = {
    "unknown_oracle": {"oracle": {"kind": "bogus"}},
    "oracle_accuracy": {"oracle": {"accuracy": 2}},
    "negative_annealing_weight": {"em": dict(BASE_CFG["em"], annealing={"weight": -1.0})},
    "interactive_oracle_without_terminal": {"oracle": {"kind": "interactive"}},
    "unrunnable_judge_command": {"judge": {"command": ["/nonexistent/judge"]}},
}
# settings checked when the judge or oracle is built: the error names the
# setting, not the config file
BUILD_TIME_ERRORS = {"interactive_oracle_without_terminal": "terminal",
                     "unrunnable_judge_command": "judge.command"}


@pytest.mark.parametrize("setting", sorted(BAD_LOOP_SETTINGS))
def test_bad_loop_setting_exits_2_before_out_is_touched(cfg_file, tmp_path, capsys, setting):
    corpus = tmp_path / "corpus"
    assert main(["generate", "--config", cfg_file, "--out", str(corpus)]) == 0
    cfg = tmp_path / "bad.yaml"
    cfg.write_text(yaml.safe_dump({**BASE_CFG, **BAD_LOOP_SETTINGS[setting]}))
    run, refined = tmp_path / "run", tmp_path / "refine"
    run.mkdir()
    (run / "summary.json").write_text("previous run")
    common = ["--config", str(cfg), "--corpus", str(corpus), "--threads", "1", "--out"]
    assert main(["run-loop", *common, str(run), "--force"]) == 2
    assert main(["refine", *common, str(refined)]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.count(BUILD_TIME_ERRORS.get(setting, str(cfg))) == 2
    assert [p.name for p in run.iterdir()] == ["summary.json"]
    assert (run / "summary.json").read_text() == "previous run"
    assert not refined.exists()


# answers every request with a tie, then sleeps after stdin closes, so it
# outlives a command that never closes it
LINGERING_JUDGE = textwrap.dedent("""
    import json, os, sys, time
    with open(sys.argv[1], "w") as fh:
        fh.write(str(os.getpid()))
    for line in sys.stdin:
        print(json.dumps({"id": json.loads(line)["id"], "preference": "tie"}), flush=True)
    time.sleep(1)
""")


def _failing_change_count(pid_file: Path):
    """A change count that raises once the judge has started."""
    from emcurate.loop import changed_structures

    def count(before, after):
        if pid_file.exists():
            raise ShapeError("injected after judging")
        return changed_structures(before, after)

    return count


@pytest.mark.parametrize("fails", [False, True], ids=["ok", "error_exit"])
@pytest.mark.parametrize("command", ["refine", "run-loop"])
def test_external_judge_child_ends_with_the_command(tmp_path, monkeypatch, command, fails):
    pid_file = tmp_path / "judge.pid"
    raw = copy.deepcopy(BASE_CFG)
    raw["judge"] = {"command": [sys.executable, "-u", "-c", LINGERING_JUDGE, str(pid_file)]}
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(yaml.safe_dump(raw))
    corpus = tmp_path / "corpus"
    assert main(["generate", "--config", str(cfg), "--out", str(corpus)]) == 0
    if fails:  # both commands count each case's changes after its judge requests
        monkeypatch.setattr("emcurate.loop.changed_structures", _failing_change_count(pid_file))
    assert main([command, "--config", str(cfg), "--corpus", str(corpus), "--threads", "1",
                 "--out", str(tmp_path / "out")]) == (4 if fails else 0)
    pid = int(pid_file.read_text())  # the judge was started
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return
    os.kill(pid, signal.SIGKILL)
    pytest.fail(f"judge process {pid} outlived {command}")


# writes its pid file once asked, never answers, and exits when its input closes
SILENT_JUDGE = textwrap.dedent("""
    import os, sys
    sys.stdin.readline()
    with open(sys.argv[1], "w") as fh:
        fh.write(str(os.getpid()))
    sys.stdin.read()
""")


def test_ctrl_c_ends_run_loop_with_one_line(tmp_path):
    """SIGINT while run-loop waits on its judge: exit 130, one stderr line,
    no traceback, and the judge child ended."""
    pid_file = tmp_path / "judge.pid"
    raw = copy.deepcopy(BASE_CFG)
    raw["judge"] = {"timeout_s": 120.0,
                    "command": [sys.executable, "-u", "-c", SILENT_JUDGE, str(pid_file)]}
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(yaml.safe_dump(raw))
    out = tmp_path / "out"
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.Popen(  # SIGINT acts as at a terminal even if this process ignores it
        [sys.executable, "-m", "emcurate.cli", "run-loop", "--config", str(cfg), "--out",
         str(out), "--threads", "1"], env=env, stderr=subprocess.PIPE, text=True,
        preexec_fn=lambda: signal.signal(signal.SIGINT, signal.SIG_DFL))
    try:
        deadline = time.monotonic() + 120
        while not ((out / "model_000.json").exists() and pid_file.exists()):
            assert proc.poll() is None and time.monotonic() < deadline
            time.sleep(0.05)
        proc.send_signal(signal.SIGINT)
        _, err = proc.communicate(timeout=60)
    finally:
        proc.kill()
        proc.wait()
    assert proc.returncode == 130
    assert err == "interrupted\n"
    with pytest.raises(ProcessLookupError):
        os.kill(int(pid_file.read_text()), 0)


# logs each request and answers by a hash of its id, so a request that
# changes its id or its place in the sequence changes the refined corpus
HASHING_JUDGE = textwrap.dedent("""
    import hashlib, json, sys
    with open(sys.argv[1], "a") as log:
        for line in sys.stdin:
            log.write(line)
            log.flush()
            request_id = json.loads(line)["id"]
            pick = hashlib.sha256(request_id.encode()).digest()[0] % 3
            print(json.dumps({"id": request_id, "preference": ("first", "second", "tie")[pick]}),
                  flush=True)
""")


def test_refine_judge_requests_do_not_depend_on_the_thread_count(tmp_path):
    requests = tmp_path / "requests.jsonl"
    raw = copy.deepcopy(BASE_CFG)
    raw["corpus"]["n_cases"] = 24
    raw["judge"] = {"command": [sys.executable, "-u", "-c", HASHING_JUDGE, str(requests)]}
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(yaml.safe_dump(raw))
    corpus = tmp_path / "corpus"
    assert main(["generate", "--config", str(cfg), "--out", str(corpus)]) == 0
    runs = []
    for run, threads in enumerate(["1", "2", "2"]):
        out = tmp_path / f"out_{run}"
        assert main(["refine", "--config", str(cfg), "--corpus", str(corpus),
                     "--threads", threads, "--out", str(out)]) == 0
        runs.append((tree_digest(out), requests.read_text()))
        requests.unlink()
    case_ids = {json.loads(line)["id"].split("/")[0] for line in runs[0][1].splitlines()}
    assert len(case_ids) > 1
    assert runs[1] == runs[0]
    assert runs[2] == runs[0]


def test_review_scripted(tmp_path, monkeypatch, capsys):
    from emcurate.loop import EscalationEntry, EscalationReason, save_queue
    overlay = np.zeros((3, 3), bool)
    overlay[1, 1] = True
    qpath = tmp_path / "q.json"
    save_queue(qpath, [EscalationEntry(
        case_id="c", structure=1, reason=EscalationReason.EXPERT_TIE,
        overlays=[overlay, ~overlay])])
    answers = iter(["2"])
    monkeypatch.setattr("builtins.input", lambda prompt="": next(answers))
    dpath = tmp_path / "d.jsonl"
    assert main(["review", "--queue", str(qpath), "--decisions", str(dpath),
                 "--allow-pipe"]) == 0
    rows = [json.loads(line) for line in dpath.read_text().splitlines()]
    assert rows == [{"case_id": "c", "structure": 1, "chosen": 1,
                     "source": "interactive"}]


def test_review_end_of_input_skips_the_rest(tmp_path, monkeypatch, capsys):
    from emcurate.loop import EscalationEntry, EscalationReason, save_queue
    overlay = np.zeros((3, 3), bool)
    overlay[1, 1] = True
    qpath = tmp_path / "q.json"
    save_queue(qpath, [EscalationEntry(case_id=f"c{i}", structure=1,
                                       reason=EscalationReason.EXPERT_TIE,
                                       overlays=[overlay, ~overlay]) for i in range(3)])
    monkeypatch.setattr(sys, "stdin", io.StringIO("1\n"))
    dpath = tmp_path / "d.jsonl"
    assert main(["review", "--queue", str(qpath), "--decisions", str(dpath),
                 "--allow-pipe"]) == 0
    rows = [json.loads(line) for line in dpath.read_text().splitlines()]
    assert rows == [{"case_id": f"c{i}", "structure": 1, "chosen": chosen,
                     "source": "interactive"} for i, chosen in enumerate([0, None, None])]
    # piped input echoes no newline, so each prompt line must be ended for
    # the next header to start its own line
    headers = [line for line in capsys.readouterr().out.splitlines() if "case c" in line]
    assert headers == [f"case c{i}  structure 1  [expert_tie]" for i in range(3)]


def test_review_of_empty_refine_queue(tmp_path, monkeypatch):
    cfg = dict(BASE_CFG, noise={k: 0.0 if isinstance(v, float) else v
                                for k, v in BASE_CFG["noise"].items()})
    path = tmp_path / "clean.yaml"
    path.write_text(yaml.safe_dump(cfg))
    corpus = tmp_path / "corpus"
    assert main(["generate", "--config", str(path), "--out", str(corpus)]) == 0
    out = tmp_path / "refine"
    assert main(["refine", "--config", str(path), "--corpus", str(corpus),
                 "--out", str(out), "--threads", "1"]) == 0
    qpath = out / "queue.json"
    assert json.loads(qpath.read_text())["entries"] == []

    def no_prompt(prompt=""):
        raise AssertionError("an empty queue must not prompt")

    monkeypatch.setattr("builtins.input", no_prompt)
    dpath = tmp_path / "d.jsonl"
    assert main(["review", "--queue", str(qpath), "--decisions", str(dpath),
                 "--allow-pipe"]) == 0
    assert dpath.read_text() == ""


QUEUE_ROW = {"case_id": "c", "structure": 1, "reason": "expert_tie", "width": 3,
             "height": 3, "overlays": ["0:4 1:1 0:4", "1:4 0:1 1:4"]}


def _first_overlay(rle: str):
    return lambda q: q["entries"][0]["overlays"].__setitem__(0, rle)


QUEUE_CORRUPTIONS = {
    "missing_key": lambda q: q["entries"][0].pop("overlays"),
    "bogus_reason": lambda q: q["entries"][0].update(reason="bogus"),
    "short_rle": _first_overlay("0:4 1:1"),
    "entries_not_a_list": lambda q: q.update(entries=3),
    "structure_string": lambda q: q["entries"][0].update(structure="3"),
    "structure_fraction": lambda q: q["entries"][0].update(structure=2.9),
    "unknown_row_key": lambda q: q["entries"][0].update(note="x"),
    "rle_negative_count": _first_overlay("1:12 0:-3"),
    "rle_value_2": _first_overlay("2:9"),
    "rle_past_the_overlay": _first_overlay("0:4 1:9"),
    "negative_size": lambda q: q["entries"][0].update(width=-3, height=-3),
    "one_overlay": lambda q: q["entries"][0].update(overlays=["0:4 1:1 0:4"]),
    "schema_version": lambda q: q.update(schema_version=99),
    "unknown_key": lambda q: q.update(note="x"),
}


@pytest.mark.parametrize("corruption", sorted(QUEUE_CORRUPTIONS))
def test_malformed_queue_is_io_error(tmp_path, monkeypatch, capsys, corruption):
    qpath = tmp_path / "q.json"
    qpath.write_text(json.dumps({"schema_version": 1, "entries": [dict(QUEUE_ROW)]}))
    _edit_json(QUEUE_CORRUPTIONS[corruption])(qpath)
    monkeypatch.setattr("builtins.input", lambda prompt="": "1")
    dpath = tmp_path / "d.jsonl"
    assert main(["review", "--queue", str(qpath), "--decisions", str(dpath),
                 "--allow-pipe"]) == 3
    err = capsys.readouterr().err
    assert str(qpath) in err
    assert "Traceback" not in err
    assert not dpath.exists()


def test_roc_csv_matches_pinned_fixture(tmp_path):
    """Regression: the shipped ROC fixture corpus reproduces the pinned CSV,
    threshold policy and savings byte for byte (the values behind the curve
    are oracle-checked in acceptance)."""
    fixtures = Path(__file__).parent / "fixtures"
    cfg = str(fixtures / "roc_fixture_config.yaml")
    corpus = tmp_path / "corpus"
    out = tmp_path / "roc"
    assert main(["generate", "--config", cfg, "--out", str(corpus)]) == 0
    assert main(["roc", "--config", cfg, "--corpus", str(corpus),
                 "--out", str(out)]) == 0
    for name, pinned in (("roc_curve.csv", "roc_curve.csv"), ("policy.json", "roc_policy.json"),
                         ("savings.json", "roc_savings.json")):
        assert (out / name).read_bytes() == (fixtures / pinned).read_bytes(), name


E_STEP_FIXTURE = Path(__file__).parent / "fixtures" / "e_step_run"


def test_e_step_outputs_match_pinned_fixture(tmp_path):
    """The E-step files no benchmark digest covers (change logs, resolutions,
    the queue, refine stats and the iteration reports' change fractions)
    match files pinned byte for byte, on a corpus whose run has judge
    replacements and keeps and an escalation the oracle answers."""
    actions = {json.loads(line)["action"]
               for line in (E_STEP_FIXTURE / "refine" / "changes.jsonl").open()}
    assert {"expert_replace", "expert_keep", "escalated_1"} <= actions
    raw = copy.deepcopy(BASE_CFG)
    raw["corpus"]["n_cases"] = 16
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(yaml.safe_dump(raw))
    corpus = tmp_path / "corpus"
    common = ["--config", str(cfg), "--seed", "16"]
    assert main(["generate", *common, "--out", str(corpus)]) == 0
    for command in ("refine", "run-loop"):
        assert main([command, *common, "--threads", "1", "--corpus", str(corpus),
                     "--out", str(tmp_path / command.replace("-", "_"))]) == 0
    pinned = [p for p in sorted(E_STEP_FIXTURE.rglob("*")) if p.is_file()]
    assert len(pinned) == 8
    for p in pinned:
        rel = p.relative_to(E_STEP_FIXTURE)
        assert (tmp_path / rel).read_bytes() == p.read_bytes(), rel


TREE_DIGESTS = Path(__file__).parent / "fixtures" / "tree_digests.json"
TREE_COMMANDS = (("generate", "corpus", []), ("audit", "audit", ["--apply"]),
                 ("refine", "refine", ["--threads", "1"]),
                 ("run-loop", "run_loop", ["--threads", "1"]),
                 ("evaluate", "evaluate", []), ("roc", "roc", []))


def test_every_command_tree_matches_pinned_digests(tmp_path):
    """Every file that generate, audit --apply, refine, run-loop, evaluate
    and roc write, each run once on the E-step fixture's config, has the
    sha256 pinned in tree_digests.json. A command that changes its outputs
    on purpose edits that file; the digests this run saw are written beside
    its trees, for that edit."""
    raw = copy.deepcopy(BASE_CFG)
    raw["corpus"]["n_cases"] = 16
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(yaml.safe_dump(raw))
    runs = tmp_path / "runs"
    for command, out, extra in TREE_COMMANDS:
        source = [] if command == "generate" else ["--corpus", str(runs / "corpus")]
        assert main([command, "--config", str(cfg), "--seed", "16", *extra, *source,
                     "--out", str(runs / out)]) == 0, command
    got = tree_digest(runs)
    (tmp_path / "tree_digests.json").write_text(json.dumps(got, indent=2, sort_keys=True) + "\n")
    pinned = json.loads(TREE_DIGESTS.read_text())
    differ = sorted(name for name in got.keys() | pinned.keys()
                    if got.get(name) != pinned.get(name))
    assert not differ, (f"{len(differ)} files differ from the pinned digests: {differ} "
                        f"(this run's digests: {tmp_path / 'tree_digests.json'})")


def test_json_artifacts_carry_schema_version(cfg_file, tmp_path):
    corpus = tmp_path / "corpus"
    main(["generate", "--config", cfg_file, "--out", str(corpus)])
    for name in ("manifest.json", "case_0000.json"):
        payload = json.loads((corpus / name).read_text())
        assert payload["schema_version"] == 1


GENERATE_CONFIG = Path(__file__).parent / "fixtures" / "generate_tree_config.yaml"
GENERATE_TREE = Path(__file__).parent / "fixtures" / "generate_tree"


def test_generate_tree_matches_pinned_fixture(tmp_path):
    """generate writes the pinned manifest, sidecars and injection log byte
    for byte; the manifest's checksums pin the volume files. The corpus is
    2 cases at 16^3, one gold, both with a tumor and a logged tumor op."""
    corpus = tmp_path / "corpus"
    assert main(["generate", "--config", str(GENERATE_CONFIG), "--out", str(corpus)]) == 0
    pinned = sorted(p.name for p in GENERATE_TREE.iterdir())
    assert pinned == ["case_0000.json", "case_0001.json", "injections.jsonl", "manifest.json"]
    assert sorted(p.name for p in corpus.iterdir() if p.suffix != ".smai") == pinned
    for name in pinned:
        assert (corpus / name).read_bytes() == (GENERATE_TREE / name).read_bytes(), name


# Property tests: one edit to one record file, a key deleted or its value
# replaced by one of RETYPES, ends in exit 0, or in exit 2 or 3 naming the
# edited file, never in a traceback. A sidecar or volume file counts as
# named by its case id ("case case_0001 lacks gold labels"; an edited
# volume's lattice is reported on its case's label maps).
_DELETE = object()
RETYPES = (_DELETE, None, True, False, 0, -1, 2.5, "x", "3", [], [1], {}, {"k": 1})


def _key_paths(value, path=()) -> list[tuple]:
    """Every key path into a parsed JSON or YAML value (not the root)."""
    if isinstance(value, dict):
        items = list(value.items())
    elif isinstance(value, list):
        items = list(enumerate(value))
    else:
        return []
    return [p for k, v in items for p in [path + (k,)] + _key_paths(v, path + (k,))]


@st.composite
def record_edits(draw, payload, sections=None):
    """(key path, new value or _DELETE) into payload, under one of ``sections``
    when given."""
    paths = [p for p in _key_paths(payload) if sections is None or p[0] in sections]
    return draw(st.sampled_from(paths)), draw(st.sampled_from(RETYPES))


def _apply(payload, path, new):
    payload = copy.deepcopy(payload)
    parent = payload
    for key in path[:-1]:
        parent = parent[key]
    if new is _DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = new
    return payload


def _run(argv) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    return code, err.getvalue()


def _assert_exit(code: int, err: str, name: str, errors: tuple[int, ...]) -> None:
    assert "Traceback" not in err, err
    assert code == 0 or (code in errors and name in err), (code, err)


@pytest.fixture(scope="module")
def tree_corpus(tmp_path_factory) -> Path:
    corpus = tmp_path_factory.mktemp("tree") / "corpus"
    assert main(["generate", "--config", str(GENERATE_CONFIG), "--out", str(corpus)]) == 0
    return corpus


_CORPUS_RECORDS = ("manifest.json", "case_0000.json", "case_0001.json")


@settings(max_examples=120)
@given(data=st.data(), name=st.sampled_from(_CORPUS_RECORDS))
def test_any_edited_corpus_record_exits_0_2_or_3(tree_corpus, data, name):
    payload = json.loads((tree_corpus / name).read_text())
    path, new = data.draw(record_edits(payload))
    with tempfile.TemporaryDirectory() as tmp:
        corpus = Path(tmp) / "corpus"
        shutil.copytree(tree_corpus, corpus)
        (corpus / name).write_text(json.dumps(_apply(payload, path, new)))
        if name != "manifest.json":
            _resign(corpus / name)
        code, err = _run(["evaluate", "--config", str(GENERATE_CONFIG), "--corpus",
                          str(corpus), "--out", str(Path(tmp) / "eval")])
    _assert_exit(code, err, name if name == "manifest.json" else Path(name).stem, (2, 3))


# new values per volume header field: magic, version, dtype, dims, spacing;
# field -1 truncates the payload by one voxel instead
_HEADER_VALUES = ((b"SMAX",), (0, 2), (0, 1, 2, 3), *[(0, 1, 15, 17, 2**32 - 1)] * 3,
                  *[(0.0, -1.0, 2.0, math.nan, math.inf)] * 3)


@settings(max_examples=60)
@given(data=st.data(), case_id=st.sampled_from(("case_0000", "case_0001")),
       role=st.sampled_from(("vol", "pseudo", "gold")), field=st.integers(-1, 8))
def test_any_edited_volume_header_exits_0_or_3(tree_corpus, data, case_id, role, field):
    name = f"{case_id}_{role}.smai"
    raw = (tree_corpus / name).read_bytes()
    if field < 0:
        raw = raw[:-4]
    else:
        header = list(vio._HEADER.unpack_from(raw))
        header[field] = data.draw(st.sampled_from(_HEADER_VALUES[field]))
        raw = vio._HEADER.pack(*header) + raw[vio._HEADER.size:]
    with tempfile.TemporaryDirectory() as tmp:
        corpus = Path(tmp) / "corpus"
        shutil.copytree(tree_corpus, corpus)
        (corpus / name).write_bytes(raw)
        _resign(corpus / name)
        code, err = _run(["evaluate", "--config", str(GENERATE_CONFIG), "--corpus",
                          str(corpus), "--out", str(Path(tmp) / "eval")])
    _assert_exit(code, err, case_id, (3,))


_QUEUE = {"schema_version": 1,
          "entries": [QUEUE_ROW, dict(QUEUE_ROW, case_id="d", structure=2, width=2, height=1,
                                      overlays=["1:2", "0:1 1:1"])]}


@settings(max_examples=100)
@given(edit=record_edits(_QUEUE))
def test_any_edited_queue_exits_0_or_3(edit):
    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch("builtins.input", lambda prompt="": "1"):
        qpath = Path(tmp) / "q.json"
        qpath.write_text(json.dumps(_apply(_QUEUE, *edit)))
        code, err = _run(["review", "--queue", str(qpath), "--decisions",
                          str(Path(tmp) / "d.jsonl"), "--allow-pipe"])
    _assert_exit(code, err, str(qpath), (3,))


_CONFIG = yaml.safe_load(GENERATE_CONFIG.read_text())


@settings(max_examples=100)
@given(edit=record_edits(_CONFIG))
def test_any_edited_config_exits_0_or_2(edit):
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "cfg.yaml"
        cfg.write_text(yaml.safe_dump(_apply(_CONFIG, *edit)))
        code, err = _run(["generate", "--config", str(cfg), "--out", str(Path(tmp) / "c")])
    _assert_exit(code, err, str(cfg), (2,))


# _CONFIG with the sections that only run-loop reads, at their packaged defaults.
# Edits leave phantom, noise and corpus alone: run-loop builds its corpus from
# them as generate does, and the generate test above edits them.
_PACKAGED = yaml.safe_load((Path(vio.__file__).parent / "data" / "default_run.yaml").read_text())
_LOOP_CONFIG = {**copy.deepcopy(_CONFIG),
                **{k: _PACKAGED[k] for k in ("judge", "oracle", "synthetic")}}
_LOOP_CONFIG["em"]["annealing"] = _PACKAGED["em"]["annealing"]


@settings(max_examples=80)
@given(edit=record_edits(_LOOP_CONFIG, ("em", "metrics", "judge", "oracle", "synthetic")))
def test_any_edited_config_runs_the_loop_or_exits_2(edit):
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "cfg.yaml"
        cfg.write_text(yaml.safe_dump(_apply(_LOOP_CONFIG, *edit)))
        code, err = _run(["run-loop", "--threads", "1", "--config", str(cfg),
                          "--out", str(Path(tmp) / "run")])
    _assert_exit(code, err, str(cfg), (2,))


# The extra arguments of each command that writes a directory; "{corpus}"
# stands for the input corpus.
OUT_COMMANDS = {
    "generate": [],
    "audit": ["--corpus", "{corpus}", "--apply"],
    "refine": ["--corpus", "{corpus}", "--threads", "1"],
    "roc": ["--corpus", "{corpus}"],
    "run-loop": ["--corpus", "{corpus}", "--threads", "1"],
    "evaluate": ["--corpus", "{corpus}"],
}


@pytest.fixture(scope="module")
def gold_tree_corpus(tmp_path_factory) -> tuple[str, Path]:
    """The generate-tree config with 4 gold cases, and its corpus."""
    root = tmp_path_factory.mktemp("out_rule")
    cfg = root / "cfg.yaml"
    cfg.write_text(yaml.safe_dump(dict(_CONFIG, corpus={"n_cases": 4, "gold_fraction": 1.0})))
    corpus = root / "corpus"
    assert main(["generate", "--config", str(cfg), "--out", str(corpus)]) == 0
    return str(cfg), corpus


def _out_argv(command: str, cfg: str, corpus: Path, out: Path) -> list[str]:
    return [command, "--config", cfg, "--out", str(out),
            *(arg.format(corpus=corpus) for arg in OUT_COMMANDS[command])]


@pytest.mark.parametrize("command", sorted(OUT_COMMANDS))
def test_nonempty_out_needs_force_and_then_equals_a_fresh_run(gold_tree_corpus, tmp_path,
                                                              capsys, command):
    cfg, corpus = gold_tree_corpus
    fresh, out = tmp_path / "fresh", tmp_path / "out"
    assert main(_out_argv(command, cfg, corpus, fresh)) == 0
    shutil.copytree(fresh, out)  # a previous run, with files this run does not write
    (out / "stale").mkdir()
    (out / "stale" / "case_0009.json").write_text("previous run")
    (out / "case_0009_vol.smai").write_text("previous run")
    before = tree_digest(out), _paths(out)
    capsys.readouterr()
    assert main(_out_argv(command, cfg, corpus, out)) == 2
    err = capsys.readouterr().err
    assert "--force" in err and "Traceback" not in err
    assert (tree_digest(out), _paths(out)) == before
    assert main(_out_argv(command, cfg, corpus, out) + ["--force"]) == 0
    assert (tree_digest(out), _paths(out)) == (tree_digest(fresh), _paths(fresh))


@pytest.mark.parametrize("force", [False, True], ids=["plain", "force"])
@pytest.mark.parametrize("holder", ["corpus", "parent", "link_to_parent"])
@pytest.mark.parametrize("command", sorted(set(OUT_COMMANDS) - {"generate"}))
def test_out_holding_the_corpus_exits_2(gold_tree_corpus, tmp_path, capsys, command, holder,
                                        force):
    cfg, packaged = gold_tree_corpus
    corpus = tmp_path / "data" / "corpus"
    shutil.copytree(packaged, corpus)
    (tmp_path / "link_to_parent").symlink_to(corpus.parent)
    out = {"corpus": corpus, "parent": corpus.parent,
           "link_to_parent": tmp_path / "link_to_parent"}[holder]
    before = tree_digest(tmp_path), _paths(tmp_path)
    capsys.readouterr()
    assert main(_out_argv(command, cfg, corpus, out) + (["--force"] if force else [])) == 2
    err = capsys.readouterr().err
    assert "holds the input corpus" in err and "Traceback" not in err
    assert (tree_digest(tmp_path), _paths(tmp_path)) == before


def test_force_removes_a_link_in_out_and_keeps_its_target(gold_tree_corpus, tmp_path):
    cfg, corpus = gold_tree_corpus
    out = tmp_path / "out"
    out.mkdir()
    (out / "corpus_link").symlink_to(corpus)
    before = tree_digest(corpus)
    assert main(_out_argv("evaluate", cfg, corpus, out) + ["--force"]) == 0
    assert _paths(out) == ["evaluation.json"]
    assert tree_digest(corpus) == before
