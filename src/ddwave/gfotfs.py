"""Globally filtered delay-Doppler transceiver.

Replaces the OFDM modem of the SC-FDMA route with the subband filter bank:
the interleaver has already made frequency-Doppler bins adjacent, so subband
filtering acts across the Doppler dimension as well as the frequency one. No
CP is used; the filter ramp is the inter-frame guard.

``GfOtfsModem(geom, n_sc_rb, filter_len, atten_db)`` builds its bank with
``FilterBankSpec.chebyshev`` over all M*N frequency-Doppler bins. Its chain
T_u Gamma is (T_u F_MN) zak_modulate, since Gamma = F_MN zak_modulate, so it
runs the shared chain of :class:`ddwave.scfdma.Modem` on the Zak maps like
every other scheme, between two sparse operators: ``tx`` = T_u F_MN, the
bank's predistorted synthesis built in closed form, and ``rx``, its tail
fold. Its detector is the shared banded Cholesky of K K^H, K = rx H tx,
which is an exact band in the residue order of the subband stride n/n_sc_rb.
"""

from __future__ import annotations

from .detect import residue_order
from .scfdma import Modem
from .transforms import FrameGeometry
from .ufmc import FilterBankSpec, UfmcOperators, analysis_fold


class GfOtfsModem(Modem):
    """Subband-filtered transceiver with predistortion.

    Its effective channel is Gamma^H F rx H T_u Gamma, where F rx = R_u. As
    Gamma = F Z with Z = zak_modulate, that is Z^H K Z with K = rx H tx and
    ``tx`` = T_u F, the bank's sparse modulator: the chain's maps are the Zak maps.
    (T_u F)[t, s] is nonzero only at s = t mod n/n_sc_rb, the fold keeps
    t mod n/n_sc_rb and H shifts by tau_l, so K K^H is a band of at most
    (2 tau_max + 1) n_sc_rb - 1 rows in the residue order p = n/n_sc_rb.
    """

    def __init__(self, geom: FrameGeometry, n_sc_rb: int = 4, filter_len: int = 1,
                 atten_db: float = 60.0):
        self.geom = geom
        self.bank = FilterBankSpec.chebyshev(geom.n_sc, n_sc_rb, filter_len, atten_db)
        self.tx = UfmcOperators(self.bank).tx
        self.rx_len = self.bank.out_len
        self.rx = analysis_fold(self.bank)
        self.order = residue_order(geom.n_sc, geom.n_sc // n_sc_rb)
