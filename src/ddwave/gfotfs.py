"""Globally filtered delay-Doppler transceiver.

Replaces the OFDM modem of the SC-FDMA route with the subband filter bank:
the interleaver has already made frequency-Doppler bins adjacent, so subband
filtering acts across the Doppler dimension as well as the frequency one. No
CP is used; the filter ramp is the inter-frame guard.

``GfOtfsModem(geom, n_sc_rb, filter_len, atten_db)`` builds its bank with
``FilterBankSpec.chebyshev`` over all M*N frequency-Doppler bins.
"""

from __future__ import annotations

import numpy as np

from .scfdma import ProbedModem
from .transforms import FrameGeometry, to_delay_doppler, to_frequency_doppler
from .ufmc import FilterBankSpec, UfmcOperators, ufmc_analyze


class GfOtfsModem(ProbedModem):
    """Subband-filtered transceiver with predistortion.

    Its effective channel is Gamma^H R_u H T_u Gamma.
    """

    def __init__(self, geom: FrameGeometry, n_sc_rb: int = 4, filter_len: int = 1,
                 atten_db: float = 60.0):
        self.geom = geom
        self.bank = FilterBankSpec.chebyshev(geom.n_sc, n_sc_rb, filter_len, atten_db)
        self.tu = UfmcOperators(self.bank).tu
        self.rx_len = self.bank.out_len

    def modulate(self, d) -> np.ndarray:
        """Predistorted, normalized subband synthesis of Gamma d."""
        return self.tu @ to_frequency_doppler(d, self.geom)

    def demodulate(self, r) -> np.ndarray:
        """Subband analysis followed by the inverse frequency-Doppler route."""
        return to_delay_doppler(ufmc_analyze(r, self.bank), self.geom)
