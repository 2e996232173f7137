"""Idempotent exactly-once Parquet sink (SURVEY.md §4.2).

The reference inherits exactly-once from Kafka transactions; here it is
a manifest-commit protocol: write to a temp path, fsync, atomic rename,
then atomically record the epoch in a per-epoch manifest file.  A
re-run of an epoch with the same input and watermark produces the same
bytes (rows are sorted deterministically before writing) and is a no-op
if the manifest entry exists.  Readers only see manifest-committed
epochs — a crash mid-write leaves temp files, never partial output.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil

import pyarrow as pa
import pyarrow.parquet as pq

__all__ = ["ExactlyOnceParquetSink"]


def _fsync_path(path: str) -> None:
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


class ExactlyOnceParquetSink:
    def __init__(self, out_dir: str, name: str = "agg"):
        self.root = os.path.join(out_dir, name)
        self.manifest_dir = os.path.join(self.root, "_manifest")
        self.tmp_dir = os.path.join(self.root, "_tmp")
        os.makedirs(self.manifest_dir, exist_ok=True)
        os.makedirs(self.tmp_dir, exist_ok=True)

    # -- manifest ----------------------------------------------------------

    def _manifest_path(self, epoch: int) -> str:
        return os.path.join(self.manifest_dir, f"epoch-{epoch:06d}.json")

    def committed_epochs(self) -> list[int]:
        out = []
        for f in os.listdir(self.manifest_dir):
            if f.startswith("epoch-") and f.endswith(".json"):
                out.append(int(f[len("epoch-") : -len(".json")]))
        return sorted(out)

    def _write_manifest(self, epoch: int, entry: dict) -> None:
        tmp = os.path.join(self.tmp_dir, f"manifest-{epoch:06d}.json")
        with open(tmp, "w") as f:
            json.dump(entry, f)
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, self._manifest_path(epoch))
        _fsync_path(self.manifest_dir)

    # -- small-table commit (window aggregates) ----------------------------

    def commit(self, epoch: int, table: pa.Table, sort_by: list[str] | None = None) -> bool:
        """Commit one epoch's (small) result table.  Returns False if the
        epoch was already committed (idempotent re-execution)."""
        if os.path.exists(self._manifest_path(epoch)):
            return False
        if sort_by:
            table = table.sort_by([(c, "ascending") for c in sort_by])
        part_dir = os.path.join(self.root, f"epoch={epoch:06d}")
        tmp = os.path.join(self.tmp_dir, f"epoch-{epoch:06d}.parquet")
        pq.write_table(table, tmp)
        with open(tmp, "rb") as f:
            digest = hashlib.sha256(f.read()).hexdigest()
        _fsync_path(tmp)  # data durable BEFORE the manifest references it
        os.makedirs(part_dir, exist_ok=True)
        os.replace(tmp, os.path.join(part_dir, "part-0.parquet"))
        _fsync_path(part_dir)
        self._write_manifest(
            epoch, {"rows": table.num_rows, "sha256": digest, "kind": "table"}
        )
        return True

    # -- dataset commit (large passthrough output) -------------------------

    def commit_dataset(self, epoch: int, blocks) -> bool:
        """Commit one epoch's large output (the per-row passthrough,
        too large for a single driver-side table), given as its blocks:
        Arrow tables in a deterministic order, fetched one at a time.
        Each non-empty block becomes ``part-NNNNN.parquet`` in block
        order in a temp dir, renamed into place atomically; the
        manifest records the rows and each file's sha256 (``files``).
        Returns False, consuming no block, if the epoch was already
        committed."""
        if os.path.exists(self._manifest_path(epoch)):
            return False
        part_dir = os.path.join(self.root, f"epoch={epoch:06d}")
        tmp_dir = os.path.join(self.tmp_dir, f"epoch-{epoch:06d}.dir")
        shutil.rmtree(tmp_dir, ignore_errors=True)
        shutil.rmtree(part_dir, ignore_errors=True)
        os.makedirs(tmp_dir, exist_ok=True)  # an all-filtered epoch writes no files
        files, n = {}, 0
        for block in blocks:
            if not block.num_rows:
                continue
            name = f"part-{len(files):05d}.parquet"
            fp = os.path.join(tmp_dir, name)
            pq.write_table(block, fp)
            with open(fp, "rb") as f:
                files[name] = hashlib.sha256(f.read()).hexdigest()
            _fsync_path(fp)  # data durable BEFORE the manifest
            n += block.num_rows
        _fsync_path(tmp_dir)
        os.replace(tmp_dir, part_dir)
        _fsync_path(os.path.dirname(part_dir))
        self._write_manifest(epoch, {"rows": n, "files": files, "kind": "dataset"})
        return True

    # -- reads -------------------------------------------------------------

    def committed_paths(self) -> list[str]:
        paths = []
        for e in self.committed_epochs():
            d = os.path.join(self.root, f"epoch={e:06d}")
            paths.extend(
                os.path.join(d, f) for f in sorted(os.listdir(d)) if f.endswith(".parquet")
            )
        return paths

    def read_all(self) -> pa.Table:
        paths = self.committed_paths()
        if not paths:
            return pa.table({})
        return pa.concat_tables([pq.read_table(p) for p in paths], promote_options="default")
