import contextlib
import io
import json
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import emcurate.volume_io as vio
from emcurate import VolumeFormatError, VoxelGrid, generate_case, generate_corpus
from emcurate.cli import main

from conftest import (CAT4, intensities_for, label_volumes, make_case, make_label_map,
                      repacked_volume)


def test_voxel_grid_round_trip(tmp_path, run_cfg):
    case = generate_case(run_cfg.phantom, 5)
    path = tmp_path / "vol.smai"
    path.write_bytes(vio.encode_volume(case.volume))
    back = vio.decode_volume(path.read_bytes(), path)
    assert type(back) is VoxelGrid
    assert back.dims == case.volume.dims
    assert back.spacing == case.volume.spacing
    assert np.array_equal(back.data, case.volume.data)


def test_label_map_round_trip(tmp_path, run_cfg):
    case = generate_case(run_cfg.phantom, 5)
    path = tmp_path / "lab.smai"
    path.write_bytes(vio.encode_volume(case.gold))
    back = vio.decode_volume(path.read_bytes(), path, run_cfg.catalog)
    assert back.catalog == run_cfg.catalog
    assert np.array_equal(back.labels, case.gold.labels)


@given(volumes=label_volumes(), spacing=st.tuples(*[st.floats(0.01, 100.0)] * 3),
       seed=st.integers(0, 2**32 - 1))
def test_volume_round_trip(volumes, spacing, seed):
    """decode_volume(encode_volume(v)) is v, for intensities and for labels,
    on a random lattice, with the spacing the header stores in float32."""
    labels = volumes[0]
    grid = VoxelGrid(dims=labels.shape, spacing=spacing,
                     data=intensities_for(labels, np.random.default_rng(seed)))
    for volume, catalog in ((grid, None), (make_label_map(labels, CAT4, spacing), CAT4)):
        back = vio.decode_volume(vio.encode_volume(volume), "v.smai", catalog)
        assert type(back) is type(volume)
        assert (back.dims, back.spacing) == vio.stored_lattice(volume.dims, volume.spacing)
        if catalog is None:
            assert np.array_equal(back.data, volume.data)
        else:
            assert back.catalog == CAT4 and np.array_equal(back.labels, volume.labels)


def test_header_layout_bit_exact():
    grid = VoxelGrid(dims=(2, 1, 1), spacing=(1.0, 2.0, 3.0),
                     data=np.array([[[1.0]], [[2.0]]], dtype=np.float32))
    raw = vio.encode_volume(grid)
    assert raw[:4] == b"SMAI"
    assert int.from_bytes(raw[4:6], "little") == 1          # format version
    assert raw[6] == 1                                      # dtype f32
    assert int.from_bytes(raw[7:11], "little") == 2         # nx
    assert np.frombuffer(raw[19:31], dtype="<f4").tolist() == [1.0, 2.0, 3.0]
    assert np.frombuffer(raw[31:], dtype="<f4").tolist() == [1.0, 2.0]


def test_x_fastest_payload_order():
    data = np.arange(8, dtype=np.float32).reshape(2, 2, 2)  # voxel values 0..7
    raw = vio.encode_volume(VoxelGrid(dims=(2, 2, 2), spacing=(1, 1, 1), data=data))
    flat = np.frombuffer(raw[31:], dtype="<f4")
    # x fastest: index = ix + 2*(iy + 2*iz)
    expected = [data[ix, iy, iz] for iz in range(2) for iy in range(2) for ix in range(2)]
    assert flat.tolist() == expected


def _first_voxel(value):
    def edit(spacing, data):
        data[0, 0, 0] = value
        return spacing, data
    return edit


@pytest.mark.parametrize("corruption", ["magic", "version", "dtype", "truncate", "nan_intensity",
                                        "label_outside_catalog", "labels_as_intensities"])
def test_corrupt_files_rejected(tmp_path, run_cfg, corruption):
    case = generate_case(run_cfg.phantom, 1)
    labels = corruption in ("label_outside_catalog", "labels_as_intensities")
    raw = bytearray(vio.encode_volume(case.pseudo if labels else case.volume))
    if corruption == "magic":
        raw[:4] = b"NOPE"
    elif corruption == "version":
        raw[4] = 99
    elif corruption == "dtype":
        raw[6] = 7
    elif corruption == "truncate":
        raw = raw[:100]
    elif corruption == "nan_intensity":
        raw = repacked_volume(bytes(raw), _first_voxel(np.nan))
    elif corruption == "label_outside_catalog":
        raw = repacked_volume(bytes(raw), _first_voxel(len(run_cfg.catalog.entries) + 1))
    path = tmp_path / "case.smai"
    path.write_bytes(bytes(raw))
    catalog = run_cfg.catalog if corruption == "label_outside_catalog" else None
    with pytest.raises(VolumeFormatError, match=re.escape(str(path))):
        vio.decode_volume(path.read_bytes(), path, catalog)


def test_corpus_round_trip_and_manifest(tmp_path, run_cfg):
    cases, _ = generate_corpus(run_cfg.phantom, run_cfg.noise, 3, 0.5, seed=9)
    manifest = vio.write_corpus(tmp_path / "corpus", cases, run_cfg.catalog)
    assert manifest["case_ids"] == ["case_0000", "case_0001", "case_0002"]
    back, catalog = vio.read_corpus(tmp_path / "corpus")
    assert catalog.catalog_id == run_cfg.catalog.catalog_id
    for orig, loaded in zip(cases, back):
        assert loaded.case_id == orig.case_id
        assert np.array_equal(loaded.pseudo.labels, orig.pseudo.labels)
        assert np.array_equal(loaded.gold.labels, orig.gold.labels)
        assert np.array_equal(loaded.volume.data, orig.volume.data)
        assert loaded.report == orig.report
        assert loaded.meta == orig.meta


def test_read_corpus_shares_gold_only_when_byte_equal(tmp_path, run_cfg):
    """A case's gold is its pseudo LabelMap itself exactly when the two files
    hold the same bytes, and every decoded volume encodes to its own file's
    bytes."""
    cases, _ = generate_corpus(run_cfg.phantom, run_cfg.noise, 4, 0.5, seed=9)
    vio.write_corpus(tmp_path, cases, run_cfg.catalog)
    back, _ = vio.read_corpus(tmp_path)
    shared = []
    for case in back:
        files = json.loads((tmp_path / f"{case.case_id}.json").read_text())["files"]
        same = (tmp_path / files["gold"]).read_bytes() == (tmp_path / files["pseudo"]).read_bytes()
        shared.append(case.gold is case.pseudo)
        assert shared[-1] == same
        for role, volume in (("volume", case.volume), ("pseudo", case.pseudo),
                             ("gold", case.gold)):
            assert vio.encode_volume(volume) == (tmp_path / files[role]).read_bytes()
    assert True in shared and False in shared


def test_rewrite_same_corpus_identical_checksums(tmp_path, run_cfg):
    cases, _ = generate_corpus(run_cfg.phantom, run_cfg.noise, 2, 0.0, seed=4)
    m1 = vio.write_corpus(tmp_path / "a", cases, run_cfg.catalog)
    cases2, _ = generate_corpus(run_cfg.phantom, run_cfg.noise, 2, 0.0, seed=4)
    m2 = vio.write_corpus(tmp_path / "b", cases2, run_cfg.catalog)
    assert m1["checksums"] == m2["checksums"]


@st.composite
def corpora(draw):
    """1-3 small CAT4 cases of one lattice, some with gold labels, some of
    those equal to the pseudo labels (so the two files are byte-equal)."""
    n = draw(st.integers(1, 3))
    volumes = draw(label_volumes(n=2 * n))
    spacing = draw(st.sampled_from([(1.0, 1.0, 1.0), (0.75, 0.75, 2.5)]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    cases = []
    for i in range(n):
        pseudo, gold = volumes[2 * i], volumes[2 * i + draw(st.integers(0, 1))]
        has_gold = draw(st.booleans())
        cases.append(make_case(intensities_for(pseudo, rng), pseudo, CAT4, case_id=f"case_{i:04d}",
                               gold_labels=gold if has_gold else None,
                               tumor_count=draw(st.integers(0, 2)), spacing=spacing,
                               is_gold=has_gold and draw(st.booleans())))
    return cases


@given(cases=corpora(), which=st.integers(0, 2**16), offset=st.integers(0, 2**16),
       bit=st.integers(0, 7))
def test_corpus_round_trip_and_any_flipped_byte_exits_3(cases, which, offset, bit):
    with tempfile.TemporaryDirectory() as tmp:
        corpus = Path(tmp) / "corpus"
        manifest = vio.write_corpus(corpus, cases, CAT4)
        assert json.loads((corpus / "manifest.json").read_text()) == \
            {"schema_version": vio.SCHEMA_VERSION, **manifest}
        back, catalog = vio.read_corpus(corpus)
        assert catalog == CAT4
        assert [c.case_id for c in back] == [c.case_id for c in cases]
        for orig, loaded in zip(cases, back):
            assert np.array_equal(loaded.volume.data, orig.volume.data)
            assert loaded.volume.spacing == orig.volume.spacing
            assert np.array_equal(loaded.pseudo.labels, orig.pseudo.labels)
            assert (loaded.gold is None) == (orig.gold is None)
            if orig.gold is not None:
                assert np.array_equal(loaded.gold.labels, orig.gold.labels)
            assert (loaded.report, loaded.meta) == (orig.report, orig.meta)

        listed = sorted(manifest["checksums"])
        path = corpus / listed[which % len(listed)]
        raw = bytearray(path.read_bytes())
        raw[offset % len(raw)] ^= 1 << bit
        path.write_bytes(bytes(raw))
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main(["evaluate", "--corpus", str(corpus), "--out", str(Path(tmp) / "eval"),
                         "--no-nsd"])
        assert code == 3
        assert path.name in err.getvalue() and "Traceback" not in err.getvalue()
