"""Content digests over materialised query results.

One digest definition shared by every consumer that makes a
byte-identity claim: the ``repro bench`` harness compares engine
variants with it, the sharded cluster bench compares merged partials
against single-node runs, and the query server returns it with every
response so clients (and the CI smoke gate) can hold served results to
the single-shot CLI bar without shipping the rows twice.
"""

from __future__ import annotations

import hashlib


def results_digest(results: dict) -> str:
    """Engine-independent digest of every materialised dataset's rows.

    *results* is the ``{output name: Dataset}`` mapping an interpreter
    run produces.  blake2b over ``name NUL row digest`` per output in
    name order: names participate so renaming an output changes the
    digest even when the rows do not, and each dataset's rows enter
    through its memoised :meth:`~repro.gdm.dataset.Dataset.row_digest`,
    so digesting a served result-cache hit costs one lookup per output.
    """
    h = hashlib.blake2b(digest_size=16)
    for name in sorted(results):
        h.update(f"{name}\0{results[name].row_digest()}".encode())
    return h.hexdigest()
