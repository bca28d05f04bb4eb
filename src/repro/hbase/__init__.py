"""An in-process reproduction of the HBase storage model.

MoDisSENSE keeps its write-heavy repositories (social graph, texts,
visits, GPS traces) in HBase and answers personalized queries through
region **coprocessors** (paper Sections 2.1–2.2).  This package rebuilds
the pieces of HBase those designs depend on:

- byte-ordered row keys with composite-key helpers (:mod:`bytes_util`);
- versioned cells in column families (:mod:`cell`);
- an LSM write path: sorted memstore, immutable store files, flush and
  compaction (:mod:`memstore`, :mod:`hfile`, :mod:`region`);
- range-partitioned regions with pre-splitting and scans with
  server-side filters (:mod:`region`, :mod:`table`, :mod:`filters`);
- coprocessor endpoints that execute aggregation inside each region
  (:mod:`coprocessor`);
- a cluster-level client that fans coprocessor calls out across regions
  in parallel and accounts their simulated cost (:mod:`client`).
"""

from .bytes_util import (
    encode_int,
    decode_int,
    encode_int_desc,
    decode_int_desc,
    compose_key,
    split_key,
    next_prefix,
)
from .cell import Cell
from .memstore import MemStore
from .hfile import StoreFile
from .filters import (
    ScanFilter,
    PrefixFilter,
    RowRangeFilter,
    ColumnFilter,
    ValuePredicateFilter,
    TimestampRangeFilter,
    AndFilter,
)
from .region import Region
from .wal import RegionWALHandle, ServerWAL, WALRecord
from .table import HTable, TableDescriptor
from .cancellation import CancellationToken
from .coprocessor import Coprocessor, CoprocessorContext, CorruptPartial
from .cache import RegionScanCache
from .client import HBaseCluster, CoprocessorCallResult

__all__ = [
    "encode_int",
    "decode_int",
    "encode_int_desc",
    "decode_int_desc",
    "compose_key",
    "split_key",
    "next_prefix",
    "Cell",
    "MemStore",
    "StoreFile",
    "ScanFilter",
    "PrefixFilter",
    "RowRangeFilter",
    "ColumnFilter",
    "ValuePredicateFilter",
    "TimestampRangeFilter",
    "AndFilter",
    "Region",
    "WALRecord",
    "ServerWAL",
    "RegionWALHandle",
    "HTable",
    "TableDescriptor",
    "CancellationToken",
    "Coprocessor",
    "CoprocessorContext",
    "CorruptPartial",
    "RegionScanCache",
    "HBaseCluster",
    "CoprocessorCallResult",
]
