"""Dictionary-encoded columnar blocks.

The tuple engine materialises every intermediate row as a python tuple
of decoded term strings; this package gives the same rows a second,
compact currency: a :class:`~repro.columnar.block.ColumnBlock` holds a
relation as parallel arrays of integer term ids, in the numbering the
§5.1 store's :class:`repro.rdf.dictionary.Dictionary` gave every term
at load.  Two consumers share the representation:

* :mod:`repro.columnar.engine` evaluates the physical task specs
  (``ChainMapSpec`` / ``MapOnlySpec`` / ``StarReduceSpec``) entirely in
  id space — selection is id comparison, the star join sorts and
  probes id columns, projection slices columns — and hands blocks, not
  rows, to the next task: the MapReduce engine exchanges them as
  opaque chunks, the answer stays a block, and terms are decoded once,
  when the service builds the outcome.
  Answers and counters stay bit-identical to the tuple kernels (this
  is the ``columnar`` execution backend, the one engine the query
  service and every shard worker run);
* :mod:`repro.columnar.wire` frames what crosses the RPC boundary as
  one pickle plus one id buffer in that same numbering (every shard
  worker holds a replica of the store's dictionary), replacing pickled
  tuple lists as the shard wire format.

The kernels are bulk numpy operators over int64 arrays
(:mod:`repro.columnar.kernels`), the one implementation; numpy is a
requirement of the package.
"""

from repro.columnar.block import ColumnBlock, to_blocks, to_rows

__all__ = ["ColumnBlock", "to_blocks", "to_rows"]
