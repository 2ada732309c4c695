"""Elastic Router: the intra-FPGA multi-VC message crossbar (paper §V-B).

In an example single-role deployment the ER is instantiated with 4 ports —
PCIe DMA, Role, DRAM, and Remote (to LTL) — which is exactly how
:mod:`repro.fpga.shell` wires it.
"""

from .compose import ComposedNetwork, Envelope, MeshNetwork, RingNetwork
from .credits import (
    CreditError,
    CreditPool,
    ElasticCreditPool,
    StaticCreditPool,
    make_credit_pool,
)
from .elastic_router import (
    DEFAULT_FREQ_HZ,
    ElasticRouter,
    Message,
    RouterStats,
)

__all__ = [
    "ComposedNetwork",
    "CreditError",
    "CreditPool",
    "DEFAULT_FREQ_HZ",
    "ElasticCreditPool",
    "ElasticRouter",
    "Envelope",
    "MeshNetwork",
    "Message",
    "RingNetwork",
    "RouterStats",
    "StaticCreditPool",
    "make_credit_pool",
]
