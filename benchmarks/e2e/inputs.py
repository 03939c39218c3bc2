"""Benchmark-owned workload inputs: seeded graphs, a KONECT writer, a stream script.

Nothing here imports ``repro``.  The generator is a Chung-Lu power law
(Zipf weights ``w_i ~ (i + 1)^(-1/(gamma - 1))``, shuffled so vertex ids
carry no degree information, endpoint pairs drawn with replacement and
de-duplicated in draw order) over the shapes in ``shapes.py``.

Every input is a pure function of ``(seed, name, scale)``: the same seed
writes byte-identical files, another seed writes different ones.
"""

from __future__ import annotations

import json
import zlib
from pathlib import Path

import numpy as np

from shapes import SHAPES, SUITE

#: stream script shape: inserts per batch, dense-block shape, deletes and
#: reads per batch, and the period of the dense community blocks
STREAM_INSERTS = 500
STREAM_BLOCK = (20, 25)
STREAM_DELETES = 200
STREAM_READS = 100
STREAM_BLOCK_EVERY = 4


def rng_for(seed: int, name: str) -> np.random.Generator:
    """Independent, stable stream per (seed, input name)."""
    return np.random.default_rng([int(seed), zlib.crc32(name.encode())])


def shape_of(name: str, scale: float = 1.0) -> tuple[int, int, int, float, float]:
    """``SHAPES[name]`` with vertex and edge counts multiplied by ``scale``."""
    n_left, n_right, n_edges, gl, gr = SHAPES[name]
    if scale == 1.0:
        return n_left, n_right, n_edges, gl, gr
    return (
        max(8, int(n_left * scale)),
        max(8, int(n_right * scale)),
        max(16, int(n_edges * scale)),
        gl,
        gr,
    )


def chung_lu_edges(
    rng: np.random.Generator,
    n_left: int,
    n_right: int,
    n_edges: int,
    gamma_left: float,
    gamma_right: float,
) -> np.ndarray:
    """Sorted, duplicate-free ``(e, 2)`` int64 edge array, ``e <= n_edges``."""
    lw = np.arange(1, n_left + 1, dtype=np.float64) ** (-1.0 / (gamma_left - 1.0))
    rw = np.arange(1, n_right + 1, dtype=np.float64) ** (-1.0 / (gamma_right - 1.0))
    rng.shuffle(lw)
    rng.shuffle(rw)
    lp, rp = lw / lw.sum(), rw / rw.sum()
    keys = np.empty(0, dtype=np.int64)
    for _ in range(64):
        need = n_edges - keys.size
        if need <= 0:
            break
        draw = int(need * 1.3) + 16
        rows = rng.choice(n_left, size=draw, p=lp).astype(np.int64)
        cols = rng.choice(n_right, size=draw, p=rp).astype(np.int64)
        keys = np.concatenate([keys, rows * n_right + cols])
        _, first = np.unique(keys, return_index=True)
        first.sort()
        keys = keys[first]
    keys = np.sort(keys[:n_edges])
    return np.stack([keys // n_right, keys % n_right], axis=1)


def graph_edges(name: str, seed: int, scale: float = 1.0) -> tuple[np.ndarray, int, int]:
    """``(edges, n_left, n_right)`` of the named graph for ``seed``."""
    n_left, n_right, n_edges, gl, gr = shape_of(name, scale)
    edges = chung_lu_edges(rng_for(seed, name), n_left, n_right, n_edges, gl, gr)
    return edges, n_left, n_right


def write_konect(path: Path, edges: np.ndarray, n_left: int, n_right: int) -> None:
    """KONECT bipartite dialect: ``%`` header with sizes, 1-based ids."""
    body = "\n".join(f"{u} {v}" for u, v in (edges + 1).tolist())
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("% bip unweighted\n")
        fh.write(f"% {len(edges)} {n_left} {n_right}\n")
        fh.write(body + "\n")


def stream_script(
    edges: np.ndarray, n_left: int, n_right: int, seed: int, n_batches: int
) -> dict[str, np.ndarray]:
    """Insert/delete batches over ``edges``, with the reads of each batch.

    Every ``STREAM_BLOCK_EVERY``-th batch inserts a dense community block;
    the others insert uniformly random edges.  Deletes are always edges
    present at that point of the script, which the generator knows because
    it replays the same key set the oracle later replays.

    Returns flat arrays: ``edits`` holds every batch's inserts then deletes,
    ``counts[i] = (n_insert, n_delete)``, ``reads[i]`` the left vertices
    read after batch ``i``.
    """
    rng = rng_for(seed, "stream")
    keys = edges[:, 0] * n_right + edges[:, 1]
    bl, br = (min(STREAM_BLOCK[0], n_left), min(STREAM_BLOCK[1], n_right))
    parts, counts, reads = [], [], []
    for i in range(n_batches):
        if i % STREAM_BLOCK_EVERY == STREAM_BLOCK_EVERY - 1:
            us = rng.choice(n_left, size=bl, replace=False)
            vs = rng.choice(n_right, size=br, replace=False)
            ins = np.stack(np.meshgrid(us, vs, indexing="ij"), axis=-1).reshape(-1, 2)
        else:
            ins = np.stack(
                [
                    rng.integers(0, n_left, STREAM_INSERTS),
                    rng.integers(0, n_right, STREAM_INSERTS),
                ],
                axis=1,
            )
        gone = keys[rng.choice(keys.size, size=min(STREAM_DELETES, keys.size), replace=False)]
        dele = np.stack([gone // n_right, gone % n_right], axis=1)
        keys = apply_batch(keys, n_right, ins, dele)
        parts += [ins.astype(np.int64), dele.astype(np.int64)]
        counts.append((len(ins), len(dele)))
        reads.append(rng.integers(0, n_left, size=STREAM_READS))
    return {
        "edits": np.concatenate(parts) if parts else np.empty((0, 2), np.int64),
        "counts": np.asarray(counts, dtype=np.int64).reshape(-1, 2),
        "reads": np.asarray(reads, dtype=np.int64).reshape(-1, STREAM_READS),
    }


def apply_batch(keys: np.ndarray, n_right: int, ins: np.ndarray, dele: np.ndarray) -> np.ndarray:
    """Sorted key set after deleting ``dele`` then inserting ``ins``.

    Deletes go first, then inserts, the order ``StreamingButterflyCounter``
    documents for one batch.  Both are binary searches into the sorted
    keys, so one batch costs O(batch · log E) plus one copy.
    """
    gone = np.unique(dele[:, 0] * n_right + dele[:, 1])
    keys = np.delete(keys, _positions_of(keys, gone))
    new = np.unique(ins[:, 0] * n_right + ins[:, 1])
    pos = np.searchsorted(keys, new)
    fresh = np.ones(new.size, dtype=bool)
    fresh[_hits(keys, new, pos)] = False
    return np.insert(keys, pos[fresh], new[fresh])


def _hits(keys: np.ndarray, values: np.ndarray, pos: np.ndarray) -> np.ndarray:
    """Indices into ``values`` of those found in sorted ``keys`` at ``pos``."""
    inside = np.nonzero(pos < keys.size)[0]
    return inside[keys[pos[inside]] == values[inside]]


def _positions_of(keys: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Positions in sorted ``keys`` of the ``values`` present there."""
    pos = np.searchsorted(keys, values)
    return pos[_hits(keys, values, pos)]


def iter_batches(script: dict[str, np.ndarray]):
    """Yield ``(insert, delete)`` arrays of each batch of a stream script."""
    edits, pos = script["edits"], 0
    for n_ins, n_del in script["counts"].tolist():
        yield edits[pos : pos + n_ins], edits[pos + n_ins : pos + n_ins + n_del]
        pos += n_ins + n_del


def write_inputs(
    directory: Path, workload: str, seed: int, scale: float, stream_batches: int
) -> None:
    """Write one workload's inputs under ``directory`` (created if needed).

    - ``<graph>.npy``: ``(e, 2)`` int64 edges; ``manifest.json`` holds sides
    - ``skewed.konect``: the KONECT file the CLI parses (cli_count)
    - ``stream_{edits,counts,reads}.npy``: the batch script (stream_mixed)
    """
    directory.mkdir(parents=True, exist_ok=True)
    names = {
        "cli_count": ["skewed"],
        "count_suite": list(SUITE) + ["skewed"],
        "peel_tip": ["occupations"],
        "stream_mixed": ["skewed"],
    }[workload]
    manifest = {}
    for name in names:
        edges, n_left, n_right = graph_edges(name, seed, scale)
        np.save(directory / f"{name}.npy", edges)
        manifest[name] = [n_left, n_right]
        if workload == "cli_count":
            write_konect(directory / f"{name}.konect", edges, n_left, n_right)
        if workload == "stream_mixed":
            script = stream_script(edges, n_left, n_right, seed, stream_batches)
            for key, arr in script.items():
                np.save(directory / f"stream_{key}.npy", arr)
    (directory / "manifest.json").write_text(json.dumps(manifest, sort_keys=True))


def load_graph(directory: Path, name: str) -> tuple[np.ndarray, int, int]:
    """Read back one graph written by :func:`write_inputs`."""
    n_left, n_right = json.loads((directory / "manifest.json").read_text())[name]
    return np.load(directory / f"{name}.npy"), n_left, n_right


def load_script(directory: Path) -> dict[str, np.ndarray]:
    """Read back the stream script written by :func:`write_inputs`."""
    return {key: np.load(directory / f"stream_{key}.npy") for key in ("edits", "counts", "reads")}


if __name__ == "__main__":
    import sys

    out_dir, workload, seed, scale, batches = sys.argv[1:6]
    write_inputs(Path(out_dir), workload, int(seed), float(scale), int(batches))
