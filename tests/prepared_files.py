"""A prepared directory's column files (format 5) member by member, for
tests that build, edit or damage them.

The writer here follows the format's documented recipe on its own: an
uncompressed zip of one .npy file (version 1.0) per member, in order, each
dated 1980-01-01 00:00:00. It can also write what save_prepared never does
(a compressed member, an object array, raw .npy bytes), so that tests can
hand load_prepared hostile files.
"""

from __future__ import annotations

import io
import zipfile
from pathlib import Path
from typing import Callable

import numpy as np

ZIP_TIME = (1980, 1, 1, 0, 0, 0)


def read_members(path: Path) -> dict[str, np.ndarray]:
    """Each member of the .npz at path, as a writable array, in the file's order."""
    with np.load(path, allow_pickle=False) as npz:
        return {name: npz[name].copy() for name in npz.files}


def npy(array) -> bytes:
    """array as a .npy file (version 1.0); object arrays pickled."""
    out = io.BytesIO()
    np.lib.format.write_array(out, np.asarray(array), version=(1, 0), allow_pickle=True)
    return out.getvalue()


def npz_bytes(members: dict, compression: int = zipfile.ZIP_STORED) -> bytes:
    """A zip of one NAME.npy per member, in order: an array, or a .npy file's bytes."""
    out = io.BytesIO()
    with zipfile.ZipFile(out, "w") as zf:
        for name, content in members.items():
            info = zipfile.ZipInfo(f"{name}.npy", ZIP_TIME)
            info.compress_type = compression
            zf.writestr(info, content if isinstance(content, bytes) else npy(content))
    return out.getvalue()


def write_members(path: Path, members: dict, compression: int = zipfile.ZIP_STORED) -> None:
    path.write_bytes(npz_bytes(members, compression))


def edit_members(path: Path, edit: Callable[[dict], object]) -> None:
    """Rewrites the .npz at path with edit applied to its members in place."""
    members = read_members(path)
    edit(members)
    write_members(path, members)


def token_seqs(members: dict) -> list[list[list[int]]]:
    """Each day's documents, as lists of token ids, from days.npz's members."""
    flat = members["token_ids"].tolist()
    docs, at = [], 0
    for n in members["doc_lengths"].tolist():
        docs.append(flat[at : at + n])
        at += n
    days, at = [], 0
    for n in members["doc_counts"].tolist():
        days.append(docs[at : at + n])
        at += n
    return days


def set_token_seqs(members: dict, seqs: list[list[list[int]]]) -> None:
    """members' doc_counts, doc_lengths and token_ids set to hold seqs, the
    ids in token_ids' dtype."""
    docs = [doc for day in seqs for doc in day]
    members["doc_counts"] = np.array([len(day) for day in seqs], "<i4")
    members["doc_lengths"] = np.array([len(doc) for doc in docs], "<i4")
    members["token_ids"] = np.array([t for doc in docs for t in doc],
                                    members["token_ids"].dtype)
