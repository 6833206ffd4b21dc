"""Secrecy metrics for kappa-mu wiretap fading channels.

Analytical SPSC and secure-outage evaluations (series, closed form,
quadrature), a Monte Carlo oracle, channel sampling and envelope-trace
parameter fitting, on pure-Python series kernels.
"""
from kmusec._backend import backend_name
from kmusec.errors import ConvergenceError, QuadratureError
from kmusec.fading import (ClusterSpec, KappaMuParams, envelope_pdf,
                           make_special_case, sample_snr, snr_cdf, snr_pdf)
from kmusec.montecarlo import McEstimate, mc_all, mc_sop_both, mc_spsc
from kmusec.secrecy import (EvalResult, WiretapPair, secrecy_capacity,
                            series_many, sop_exact, sop_exact_many, sop_lower,
                            spsc_closed_form,
                            spsc_rayleigh_reference, spsc_rice_reference,
                            spsc_series)
from kmusec.specfun import (DEFAULT_CONTROL, SeriesControl, bessel_i,
                            bessel_i_scaled, gauss_2f1, log_gamma, marcum_q,
                            marcum_q_detail, marcum_q_reference,
                            upper_incomplete_gamma)

__version__ = "0.1.0"

__all__ = [
    "ClusterSpec",
    "ConvergenceError",
    "DEFAULT_CONTROL",
    "EvalResult",
    "KappaMuParams",
    "McEstimate",
    "QuadratureError",
    "SeriesControl",
    "WiretapPair",
    "backend_name",
    "bessel_i",
    "bessel_i_scaled",
    "envelope_pdf",
    "gauss_2f1",
    "log_gamma",
    "make_special_case",
    "marcum_q",
    "marcum_q_detail",
    "marcum_q_reference",
    "mc_all",
    "mc_sop_both",
    "mc_spsc",
    "sample_snr",
    "secrecy_capacity",
    "series_many",
    "snr_cdf",
    "snr_pdf",
    "sop_exact",
    "sop_exact_many",
    "sop_lower",
    "spsc_closed_form",
    "spsc_rayleigh_reference",
    "spsc_rice_reference",
    "spsc_series",
    "upper_incomplete_gamma",
    "__version__",
]
