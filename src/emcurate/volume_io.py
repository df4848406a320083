"""On-disk formats: binary volumes, JSON sidecars, corpus directories.

Binary volume layout (little-endian throughout)::

    magic     4 bytes  b"SMAI"
    version   u16      currently 1
    dtype     u8       1 = f32 intensities, 2 = u16 labels
    dims      3 x u32  (nx, ny, nz)
    spacing   3 x f32  mm per voxel
    payload   raw voxels, x fastest: index = ix + nx*(iy + ny*iz)

One codec reads and writes it: ``encode_volume`` turns a VoxelGrid or a
LabelMap into these bytes, and ``decode_volume`` turns them back, raising a
VolumeFormatError that names the file for anything it cannot decode.

Each case additionally gets a JSON sidecar (<case_id>.json) holding the
report, metadata and relative file paths; a corpus directory carries a
manifest.json with the catalog and per-file sha256 checksums so byte-level
reproducibility can be asserted cheaply.

Records are dataclasses: they are written with ``dataclasses.asdict`` and
read back through ``decode``, the strict decoder that run configs share.
"""

from __future__ import annotations

import hashlib
import json
import math
import struct
from dataclasses import MISSING, asdict, fields, is_dataclass
from pathlib import Path
from typing import Iterable, Optional, Union, get_args, get_origin, get_type_hints

import numpy as np

from .errors import CatalogError, ConfigError, ShapeError, VolumeFormatError
from .grid import (
    CaseMeta,
    CaseRecord,
    LabelMap,
    StructureCatalog,
    StructuredReport,
    StructureEntry,
    VoxelGrid,
)

MAGIC = b"SMAI"
FORMAT_VERSION = 1
DTYPE_F32 = 1
DTYPE_U16 = 2
SCHEMA_VERSION = 1

_HEADER = struct.Struct("<4sHB3I3f")


def canonical_json(obj) -> str:
    """The one JSON encoding of every artifact: sorted keys, no whitespace."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def write_json(path: Union[str, Path], obj: dict) -> bytes:
    """Write a JSON artifact, stamped with SCHEMA_VERSION unless it has one;
    returns the bytes written."""
    raw = (canonical_json({"schema_version": SCHEMA_VERSION, **obj}) + "\n").encode()
    Path(path).write_bytes(raw)
    return raw


def write_jsonl(path: Union[str, Path], rows: Iterable[dict], append: bool = False) -> None:
    """Write (or append) one canonical JSON object per line; rows are not stamped."""
    with Path(path).open("a" if append else "w") as fh:
        for row in rows:
            fh.write(canonical_json(row) + "\n")


def check_record(record, path, error: type[Exception] = ConfigError) -> dict:
    """``record``, the top level of the config or JSON file at ``path``: a
    mapping whose schema_version is absent or SCHEMA_VERSION, else ``error``."""
    if not isinstance(record, dict):
        raise error(f"{path} must be a mapping")
    version = record.get("schema_version", SCHEMA_VERSION)
    if type(version) is not int or version != SCHEMA_VERSION:
        raise error(f"{path}: schema_version must be {SCHEMA_VERSION}, got {version!r}")
    return record


def read_json(path: Union[str, Path], raw: Optional[bytes] = None) -> dict:
    """The JSON record at ``path`` (see ``check_record``); ``raw`` is its
    bytes when already read."""
    try:
        record = json.loads(Path(path).read_bytes() if raw is None else raw)
    except ValueError as exc:
        raise VolumeFormatError(f"{path}: malformed JSON: {exc}") from None
    return check_record(record, path, VolumeFormatError)


def decode_mapping(value, where: str, allowed) -> dict:
    """The mapping at ``where`` ({} when absent or null), keys in ``allowed`` only."""
    if value is None:
        return {}
    if not isinstance(value, dict):
        raise ConfigError(f"'{where}' must be a mapping, got {value!r}")
    for key in value:
        if key not in allowed:
            raise ConfigError(f"unknown key '{where}.{key}'" if where else f"unknown key '{key}'")
    return value


def decode(hint, value, where: str):
    """``value``, parsed from a config or JSON record file, converted to the
    declared type ``hint``; a dataclass is built from the mapping at
    ``where``. Every failure is a ConfigError naming its key path."""
    try:
        return _coerce(hint, value, where)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{where}: {exc}") from None


def _coerce(hint, value, where: str):
    if is_dataclass(hint):
        return _section(hint, value, where)
    if get_origin(hint) is Union:  # Optional[X]
        return None if value is None else _coerce(get_args(hint)[0], value, where)
    if get_origin(hint) is tuple:
        kinds = get_args(hint)
        if not isinstance(value, list):
            raise TypeError(f"expected a list, got {value!r}")
        kinds = (kinds[0],) * len(value) if kinds[-1] is Ellipsis else kinds
        if len(value) != len(kinds):
            raise ValueError(f"expected {len(kinds)} values, got {len(value)}")
        return tuple(_coerce(k, v, f"{where}[{i}]") for i, (k, v) in enumerate(zip(kinds, value)))
    if get_origin(hint) is dict:
        if not isinstance(value, dict):
            raise TypeError(f"expected a mapping, got {value!r}")
        key_hint, value_hint = get_args(hint)
        return {_coerce(key_hint, k, where): _coerce(value_hint, v, f"{where}.{k}")
                for k, v in value.items()}
    # no implicit conversion to or from bool, nor to str, nor from str to a number
    if (hint is bool) != isinstance(value, bool) or (hint is str and not isinstance(value, str)):
        raise TypeError(f"expected {hint.__name__}, got {value!r}")
    if hint in (int, float):
        if not isinstance(value, (int, float)):
            raise TypeError(f"expected a number, got {value!r}")
        if isinstance(value, float) and not math.isfinite(value):
            raise ValueError(f"expected a finite number, got {value!r}")
        if hint is int and isinstance(value, float) and not value.is_integer():
            raise ValueError(f"expected an integer, got {value!r}")
    return hint(value)


def _section(cls, value, where: str):
    """Build the dataclass ``cls`` from the mapping at ``where``, whose keys
    are its field names: an absent key keeps its default; a missing required
    key, an unknown key, an unconvertible value or one ``cls`` rejects (its
    validator names the field; this adds ``where``) is a ConfigError."""
    hints = get_type_hints(cls)
    kwargs = {}
    for name, v in decode_mapping(value, where, [f.name for f in fields(cls)]).items():
        try:
            kwargs[name] = _coerce(hints[name], v, f"{where}.{name}")
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"{where}.{name}: {exc}") from None
    for f in fields(cls):
        if f.name not in kwargs and f.default is MISSING and f.default_factory is MISSING:
            raise ConfigError(f"missing key '{where}.{f.name}'")
    try:
        return cls(**kwargs)
    except ConfigError as exc:
        raise ConfigError(f"{where}.{exc}") from None


def stored_lattice(dims, spacing) -> tuple[tuple[int, ...], tuple[float, ...]]:
    """(dims, spacing) as a volume header stores them: spacing in float32."""
    return tuple(map(int, dims)), struct.unpack("<3f", struct.pack("<3f", *map(float, spacing)))


def encode_volume(volume: Union[VoxelGrid, LabelMap]) -> bytes:
    """The volume file of ``volume``: the header, then the x-fastest payload,
    labels for a LabelMap and intensities for a VoxelGrid."""
    if isinstance(volume, LabelMap):
        dtype_code, payload = DTYPE_U16, volume.labels
    else:
        dtype_code, payload = DTYPE_F32, volume.data
    header = _HEADER.pack(MAGIC, FORMAT_VERSION, dtype_code, *volume.dims, *volume.spacing)
    return header + payload.tobytes(order="F")


def decode_volume(raw: bytes, path: Union[str, Path], catalog: Optional[StructureCatalog] = None
                  ) -> Union[VoxelGrid, LabelMap]:
    """The volume in ``raw``, the bytes of the volume file at ``path``: a
    LabelMap over ``catalog``, or a VoxelGrid when none is given. A bad
    header, the other type's dtype code, a payload of the wrong size and
    content the type rejects are each a VolumeFormatError naming ``path``."""
    if len(raw) < _HEADER.size:
        raise VolumeFormatError(f"{path}: truncated header")
    magic, version, dtype_code, nx, ny, nz, sx, sy, sz = _HEADER.unpack_from(raw)
    if magic != MAGIC:
        raise VolumeFormatError(f"{path}: bad magic {magic!r}")
    if version != FORMAT_VERSION:
        raise VolumeFormatError(f"{path}: unsupported format version {version}")
    kind, code, np_dtype = ("an intensity", DTYPE_F32, np.dtype("<f4")) if catalog is None \
        else ("a label", DTYPE_U16, np.dtype("<u2"))
    if dtype_code != code:
        raise VolumeFormatError(f"{path}: dtype code {dtype_code}, expected {kind} volume")
    dims, spacing = (nx, ny, nz), (sx, sy, sz)
    size, expected = len(raw) - _HEADER.size, nx * ny * nz * np_dtype.itemsize
    if size != expected:
        raise VolumeFormatError(f"{path}: payload is {size} bytes, expected {expected}")
    data = np.frombuffer(raw, dtype=np_dtype, offset=_HEADER.size).reshape(dims, order="F")
    try:
        if catalog is None:
            return VoxelGrid(dims=dims, spacing=spacing, data=data)
        return LabelMap(dims=dims, spacing=spacing, labels=data, catalog=catalog)
    except (ShapeError, CatalogError) as exc:
        raise VolumeFormatError(f"{path}: {exc}") from None


def write_case(out_dir: Union[str, Path], case: CaseRecord) -> dict[str, str]:
    """Write one case (volume, label maps, sidecar); returns the sha256 of
    each written file's bytes by relative file name."""
    out_dir = Path(out_dir)
    files = {"volume": f"{case.case_id}_vol.smai", "pseudo": f"{case.case_id}_pseudo.smai"}
    volumes = [case.volume, case.pseudo]
    if case.gold is not None:
        files["gold"] = f"{case.case_id}_gold.smai"
        volumes.append(case.gold)
    written = {}
    # each file is written right after it is encoded, while its bytes are in cache
    for name, volume in zip(files.values(), volumes):
        written[name] = encode_volume(volume)
        (out_dir / name).write_bytes(written[name])
    sidecar = {
        "case_id": case.case_id,
        "report": asdict(case.report),
        "meta": asdict(case.meta),
        "files": files,
        "catalog_id": case.pseudo.catalog_id,
    }
    written[f"{case.case_id}.json"] = write_json(out_dir / f"{case.case_id}.json", sidecar)
    return {name: hashlib.sha256(raw).hexdigest() for name, raw in written.items()}


def read_case(corpus_dir: Union[str, Path], case_id: str, catalog: StructureCatalog,
              checksums: dict[str, str], lattice: Optional[tuple] = None) -> CaseRecord:
    """One case of a corpus directory; each file's bytes must have the sha256
    that ``checksums`` (the manifest's) lists for its name and the sidecar
    must carry ``catalog``'s id. A volume that decode_volume rejects, a label
    map off the volume's lattice or a volume off the given ``lattice``
    ``(dims, spacing)`` is a VolumeFormatError naming its file.

    A gold file whose bytes equal the pseudo file's, under the same listed
    sha256, is verified by that comparison: the pseudo bytes have just been
    hashed to that sha256. Equal bytes decode to equal labels, so the case's
    gold is the pseudo LabelMap itself, as generate_case builds gold cases;
    any other gold file is hashed and decoded on its own."""
    corpus_dir = Path(corpus_dir)

    def read(name: str) -> bytes:
        path = corpus_dir / name
        if name not in checksums:
            raise VolumeFormatError(f"{path}: not listed in manifest.json")
        return path.read_bytes()

    def verified(name: str, raw: bytes) -> bytes:
        if hashlib.sha256(raw).hexdigest() != checksums[name]:
            raise VolumeFormatError(f"{corpus_dir / name}: sha256 differs from manifest.json")
        return raw

    sidecar_path = corpus_dir / f"{case_id}.json"
    sidecar = read_json(sidecar_path, verified(f"{case_id}.json", read(f"{case_id}.json")))
    try:
        decode_mapping(sidecar, "", ("schema_version", "case_id", "catalog_id", "files",
                                     "report", "meta"))
        if sidecar["case_id"] != case_id:
            raise ValueError(f"case_id {sidecar['case_id']!r} != manifest.json id {case_id!r}")
        if sidecar["catalog_id"] != catalog.catalog_id:
            raise ValueError(f"catalog_id {sidecar['catalog_id']!r} != manifest.json catalog "
                             f"{catalog.catalog_id!r}")
        files = decode(dict[str, str], decode_mapping(sidecar["files"], "files",
                                                      ("volume", "pseudo", "gold")), "files")
        if not {"volume", "pseudo"} <= files.keys():
            raise ValueError(f"files {sorted(files)} lack a volume or pseudo file")
        for name in files.values():
            if name not in checksums:
                raise ValueError(f"{name!r} is not listed in manifest.json")
        report = decode(StructuredReport, sidecar["report"], "report")
        meta = decode(CaseMeta, sidecar["meta"], "meta")
    # ShapeError: a report whose fields contradict each other
    except (KeyError, TypeError, ValueError, ConfigError, ShapeError) as exc:
        raise VolumeFormatError(f"{sidecar_path}: malformed case sidecar: {exc!r}") from None

    volume = decode_volume(verified(files["volume"], read(files["volume"])),
                           corpus_dir / files["volume"])
    if lattice is not None and (volume.dims, volume.spacing) != lattice:
        raise VolumeFormatError(f"{corpus_dir / files['volume']}: lattice {volume.dims} x "
                                f"{volume.spacing} differs from the corpus's "
                                f"{lattice[0]} x {lattice[1]}")
    pseudo_raw = read(files["pseudo"])
    maps = {"pseudo": decode_volume(verified(files["pseudo"], pseudo_raw),
                                    corpus_dir / files["pseudo"], catalog)}
    if "gold" in files:
        gold_raw = read(files["gold"])
        if checksums[files["gold"]] == checksums[files["pseudo"]] and gold_raw == pseudo_raw:
            maps["gold"] = maps["pseudo"]
        else:
            maps["gold"] = decode_volume(verified(files["gold"], gold_raw),
                                         corpus_dir / files["gold"], catalog)
    for role, m in maps.items():
        if (m.dims, m.spacing) != (volume.dims, volume.spacing):
            raise VolumeFormatError(f"{corpus_dir / files[role]}: lattice {m.dims} x {m.spacing} "
                                    f"differs from the volume's {volume.dims} x {volume.spacing}")
    try:
        return CaseRecord(case_id=case_id, volume=volume, pseudo=maps["pseudo"],
                          gold=maps.get("gold"), report=report, meta=meta)
    except ShapeError as exc:  # is_gold without a gold map
        raise VolumeFormatError(f"{sidecar_path}: malformed case sidecar: {exc}") from None


def write_corpus(out_dir: Union[str, Path], cases: list[CaseRecord],
                 catalog: StructureCatalog) -> dict:
    """Write a corpus directory with a checksummed manifest; returns the manifest."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    checksums: dict[str, str] = {}
    for case in cases:
        checksums.update(write_case(out_dir, case))
    manifest = {
        "catalog": [asdict(e) for e in catalog.entries],
        "case_ids": [c.case_id for c in cases],
        "checksums": dict(sorted(checksums.items())),
    }
    write_json(out_dir / "manifest.json", manifest)
    return manifest


def read_corpus(corpus_dir: Union[str, Path]) -> tuple[list[CaseRecord], StructureCatalog]:
    """Read a corpus directory, checking every file against the manifest's sha256.

    A corpus holds one lattice: every case's (dims, spacing) must be the
    first case's, since learned boxes are voxel coordinates and the corpus's
    NSD statistics pool scores taken at one spacing."""
    path = Path(corpus_dir) / "manifest.json"
    manifest = read_json(path)
    try:
        decode_mapping(manifest, "", ("schema_version", "catalog", "case_ids", "checksums"))
        catalog = StructureCatalog(decode(tuple[StructureEntry, ...], manifest["catalog"],
                                          "catalog"))
        case_ids = decode(tuple[str, ...], manifest["case_ids"], "case_ids")
        checksums = decode(dict[str, str], manifest["checksums"], "checksums")
        if not case_ids:
            raise ValueError("no case ids")
        if len(set(case_ids)) != len(case_ids):
            raise ValueError("duplicate case ids")
    # CatalogError: catalog labels that are not 1, 2, ... in order
    except (KeyError, TypeError, ValueError, ConfigError, CatalogError) as exc:
        raise VolumeFormatError(f"{path}: malformed manifest: {exc!r}") from None
    first = read_case(path.parent, case_ids[0], catalog, checksums)
    lattice = (first.volume.dims, first.volume.spacing)
    cases = [first] + [read_case(path.parent, cid, catalog, checksums, lattice)
                       for cid in case_ids[1:]]
    return cases, catalog
