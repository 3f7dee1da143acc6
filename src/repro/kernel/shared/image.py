"""Abstraction images as code maps, for every array engine.

:class:`SharedImage` maps concrete codes to abstract codes batch by
batch: the identity as the codes themselves, a batch
:attr:`~repro.core.abstraction.AbstractionFunction.array_mapping`
through the codec of :mod:`repro.kernel.vector.lower` (decode value
columns, map them, encode the image columns), or — for small spaces
only — the dense scalar-loop table.  Images outside the abstract
schema encode as ``-1``, the scalar path's ``StateSpaceError``
convention, so every downstream comparison (``legitimate[image]``
gathers, invisible-step masks) sees the scalar table's values.

The shared engine evaluates it per code chunk; the vector engine
evaluates it once over ``arange(size)`` and keeps the table.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

import numpy as np

from ...core.abstraction import AbstractionFunction
from ..engine import image_codes
from ..interner import StateInterner
from ..vector.analyze import domain_type
from ..vector.lower import decode_columns, encode_columns, var_codecs

__all__ = ["SharedImage", "shared_image_unsupported_reason"]

#: A batch column map: concrete value columns in, abstract ones out.
ColumnMap = Callable[[Dict[str, np.ndarray]], Dict[str, np.ndarray]]


def _identity(columns: Dict[str, np.ndarray]) -> Dict[str, np.ndarray]:
    return columns


def _batch_mapping(
    concrete: StateInterner,
    abstract: StateInterner,
    alpha: Optional[AbstractionFunction],
) -> Optional[ColumnMap]:
    """The image as a batch column map, or ``None`` when it has none.

    The identity (``alpha is None`` on compatible schemas) is
    :func:`_identity`.  Otherwise ``alpha`` needs an ``array_mapping``,
    int/bool domains on both sides, and image columns covering the
    abstract schema (probed on one code).
    """
    if alpha is None and concrete.schema.compatible_with(abstract.schema):
        return _identity
    mapping = getattr(alpha, "array_mapping", None)
    if mapping is None or not all(
        domain_type(domain) is not None
        for domain in concrete.schema.domains + abstract.schema.domains
    ):
        return None
    schema = concrete.schema
    probe = mapping(  # code 0: every variable at its first value
        {
            name: np.asarray(domain[:1])
            for name, domain in zip(schema.names, schema.domains)
        }
    )
    return mapping if set(probe) == set(abstract.schema.names) else None


def shared_image_unsupported_reason(
    concrete: StateInterner,
    abstract: StateInterner,
    alpha: Optional[AbstractionFunction],
    dense_ceiling: int,
) -> Optional[str]:
    """Why the image cannot be streamed (``None`` = it can).

    Streaming needs a batch column map, or a space small enough
    (``<= dense_ceiling``) for the scalar-loop dense table.
    """
    if _batch_mapping(concrete, abstract, alpha) is not None:
        return None
    if concrete.size <= dense_ceiling:
        return None
    return (
        "abstraction has no batch array form and the state space is too "
        "large for the scalar image table"
    )


class SharedImage:
    """``image.of(codes)`` — abstract codes of a concrete code batch.

    Strategies: identity, batch column map, dense scalar table (small
    spaces only — the shared engine gates via
    :func:`shared_image_unsupported_reason`).
    """

    def __init__(
        self,
        concrete: StateInterner,
        abstract: StateInterner,
        alpha: Optional[AbstractionFunction],
    ):
        mapping = _batch_mapping(concrete, abstract, alpha)
        self._identity = mapping is _identity
        self._table: Optional[np.ndarray] = None
        if mapping is None:
            self._table = np.asarray(
                image_codes(concrete, abstract, alpha), dtype=np.int64
            )
        elif not self._identity:
            self._mapping = mapping
            self._concrete = var_codecs(concrete)
            self._abstract = var_codecs(abstract)

    def of(self, codes: np.ndarray) -> np.ndarray:
        """Abstract codes of ``codes`` (``-1`` = outside the schema)."""
        if self._identity:
            return codes
        if self._table is not None:
            return self._table[codes]
        image_columns = self._mapping(decode_columns(self._concrete, codes))
        return encode_columns(self._abstract, image_columns, int(codes.shape[0]))
