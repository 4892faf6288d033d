"""Golden SHIP accounting for the six curated TPC-H queries.

Each entry pins one compliant plan (policy set CR, scale 0.002) run on
one operator backend under one wire format: a digest of the result rows
in order, the logical bytes shipped, the wire bytes, the chunk count and
``shipping_seconds`` (the paper's α + β·bytes cost).  The table was
recorded when the engine still had a separate sequential execution path,
and the fragment scheduler must reproduce it exactly.  Seconds compare
at 1e-9 relative: a streamed transfer sums per-chunk times, which rounds
differently from one α + β·bytes product at about 1e-16.
"""

import hashlib
import math

import pytest

from repro.execution import ExecutionEngine, ShipConfig
from repro.optimizer import CompliantOptimizer
from repro.tpch import QUERIES, curated_policies

#: Wire formats: the engine default and the CLI default (256-row chunks,
#: per-column compression).
WIRES = {
    "monolithic": ShipConfig(),
    "stream256-auto": ShipConfig(chunk_rows=256, compression="auto"),
}

#: (query, backend, wire) -> (row digest, logical bytes, wire bytes,
#: chunks, shipping seconds).
GOLDEN = {
    ('Q2', 'row', 'monolithic'): ('4f53cda18c2baa0c', 43283, 43283, 7, 0.6750442605698586),
    ('Q2', 'row', 'stream256-auto'): ('4f53cda18c2baa0c', 43283, 24972, 13, 0.6739035482369706),
    ('Q2', 'batch', 'monolithic'): ('4f53cda18c2baa0c', 43283, 43283, 7, 0.6750442605698586),
    ('Q2', 'batch', 'stream256-auto'): ('4f53cda18c2baa0c', 43283, 24972, 13, 0.6739035482369706),
    ('Q3', 'row', 'monolithic'): ('925944da463b3614', 171808, 171808, 1, 0.0315615167003666),
    ('Q3', 'row', 'stream256-auto'): ('925944da463b3614', 171808, 100792, 24, 0.030509829062838688),
    ('Q3', 'batch', 'monolithic'): ('925944da463b3614', 171808, 171808, 1, 0.0315615167003666),
    ('Q3', 'batch', 'stream256-auto'): ('925944da463b3614', 171808, 100792, 24, 0.030509829062838688),
    ('Q5', 'row', 'monolithic'): ('2baceeeb4b592779', 6578, 6578, 3, 0.1743541871692817),
    ('Q5', 'row', 'stream256-auto'): ('2baceeeb4b592779', 6578, 2514, 3, 0.17429236467483575),
    ('Q5', 'batch', 'monolithic'): ('2baceeeb4b592779', 6578, 6578, 3, 0.1743541871692817),
    ('Q5', 'batch', 'stream256-auto'): ('2baceeeb4b592779', 6578, 2514, 3, 0.17429236467483575),
    ('Q8', 'row', 'monolithic'): ('4f53cda18c2baa0c', 4377, 4377, 6, 0.4142172162366985),
    ('Q8', 'row', 'stream256-auto'): ('4f53cda18c2baa0c', 4377, 2084, 6, 0.4141788021144404),
    ('Q8', 'batch', 'monolithic'): ('4f53cda18c2baa0c', 4377, 4377, 6, 0.4142172162366985),
    ('Q8', 'batch', 'stream256-auto'): ('4f53cda18c2baa0c', 4377, 2084, 6, 0.4141788021144404),
    ('Q9', 'row', 'monolithic'): ('750dd8cfbe3c299a', 100726, 100726, 5, 0.38322804558545825),
    ('Q9', 'row', 'stream256-auto'): ('750dd8cfbe3c299a', 100726, 42284, 13, 0.38149671253171297),
    ('Q9', 'batch', 'monolithic'): ('750dd8cfbe3c299a', 100726, 100726, 5, 0.38322804558545825),
    ('Q9', 'batch', 'stream256-auto'): ('750dd8cfbe3c299a', 100726, 42284, 13, 0.38149671253171297),
    ('Q10', 'row', 'monolithic'): ('aed6f8ceeb81acc6', 102177, 102177, 2, 0.10696690941447137),
    ('Q10', 'row', 'stream256-auto'): ('aed6f8ceeb81acc6', 102177, 62081, 17, 0.10637312114824518),
    ('Q10', 'batch', 'monolithic'): ('aed6f8ceeb81acc6', 102177, 102177, 2, 0.10696690941447137),
    ('Q10', 'batch', 'stream256-auto'): ('aed6f8ceeb81acc6', 102177, 62081, 17, 0.10637312114824518),
}


@pytest.fixture(scope="module")
def optimized(tpch_small, tpch_network):
    catalog, _database = tpch_small
    optimizer = CompliantOptimizer(
        catalog, curated_policies(catalog, "CR"), tpch_network
    )
    return {name: optimizer.optimize(sql).plan for name, sql in QUERIES.items()}


@pytest.mark.parametrize("key", sorted(GOLDEN), ids="-".join)
def test_ship_accounting_matches_golden(tpch_small, tpch_network, optimized, key):
    name, backend, wire = key
    _catalog, database = tpch_small
    engine = ExecutionEngine(
        database, tpch_network, executor=backend, ship=WIRES[wire]
    )
    result = engine.execute(optimized[name])
    metrics = result.metrics
    digest, logical, wire_bytes, chunks, seconds = GOLDEN[key]
    assert hashlib.sha256(repr(result.rows).encode()).hexdigest()[:16] == digest
    assert metrics.total_bytes_shipped == logical
    assert metrics.total_wire_bytes_shipped == wire_bytes
    assert metrics.total_chunks_shipped == chunks
    assert math.isclose(metrics.shipping_seconds, seconds, rel_tol=1e-9)
