"""JSON-lines store that memoizes the cup products ``multiply`` is asked for.

One file per flag variety, one record per product asked for: a miss
computes that one product and adds its record.  Records carry the cache
version; stale-version, torn or malformed lines make the whole file a miss,
and files are replaced atomically, so deleting or damaging a cache
directory can never change a result, only a runtime.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

from .errors import UsageError

CACHE_VERSION = 1

# names the Schubert basis convention the constants were computed in
BASIS_TAG = "point-at-identity"


class JsonlStore:
    def __init__(self, directory):
        self.directory = Path(directory)

    def _path(self, kind, rank, excluded):
        name = f"schubert-{kind}{rank}-P{excluded}-{BASIS_TAG}"
        return self.directory / f"{name}.jsonl"

    def load_structure_constants(self, kind, rank, excluded):
        """(u word, v word) -> {w word: int}, or None when absent/stale/torn."""
        try:
            text = self._path(kind, rank, excluded).read_text()
        except (OSError, UnicodeDecodeError):  # absent, unreadable or not UTF-8
            return None
        table = {}
        for line in text.splitlines():
            if not line.strip():
                continue
            try:
                rec = json.loads(line)
                if rec.get("cache_version") != CACHE_VERSION:
                    return None
                table[(rec["u"], rec["v"])] = {
                    w: int(c) for w, c in rec["coeffs"].items()
                }
            except (ValueError, KeyError, TypeError, AttributeError):
                return None
        return table

    def save_structure_constants(self, kind, rank, excluded, table):
        path = self._path(kind, rank, excluded)
        lines = []
        for (u, v) in sorted(table):
            lines.append(json.dumps(
                {
                    "cache_version": CACHE_VERSION,
                    "u": u,
                    "v": v,
                    "coeffs": dict(sorted(table[(u, v)].items())),
                },
                sort_keys=True,
            ))
        # a reader never sees a half-written file
        tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
        try:
            self.directory.mkdir(parents=True, exist_ok=True)
            try:
                tmp.write_text("\n".join(lines) + "\n")
                os.replace(tmp, path)
            finally:
                tmp.unlink(missing_ok=True)
        except OSError as e:
            raise UsageError(f"cache directory {str(self.directory)!r} is not "
                             f"usable: {e.strerror or e}") from None
