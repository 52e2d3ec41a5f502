"""Secrecy-rate analysis for cooperative jamming against coexisting active
and passive eavesdroppers: two-fold zero-forcing beamforming, closed-form
outage/secrecy-outage expressions, power-allocation optimizers, and a
Monte Carlo oracle validating every closed form."""

from .beamform import (
    BeamformerSet, complement_projector, compose_an, make_beamformer_set,
    mrt_null_beam, multi_mrt_beams, passive_null_basis,
)
from .closedform import (
    DerivedRatios, OutageMetrics, ThetaProfile, active_sop_theta_profile,
    cdf_snr_active, cdf_snr_active_imperfect, cdf_snr_active_multi, cdf_snr_bob,
    cdf_snr_passive, cdf_snr_passive_multi, derived_ratios, min_pa, outage_metrics,
    sop_active, sop_active_dtheta, sop_active_imperfect, sop_active_imperfect_drho,
    sop_active_multi, sop_passive, sop_passive_dtheta, sop_passive_multi,
    transmission_outage, transmission_outage_an_leakage,
    transmission_outage_noise_limited,
)
from .errors import (
    AlphaZero, AntennaCountTooSmall, ConfigError, DegenerateChannel,
    DegenerateDistributionWarning, DimensionMismatch, NonPositive, RangeError,
    RankDeficient, SecrateError, Undefined, ZeroVector,
)
from .model import PowerSplit, SystemParams, db_to_linear, make_split, validate
from .montecarlo import (
    McEstimate, estimate_outages, ks_statistic, sample_channels,
    snr_active, snr_bob, snr_passive, snr_samples, verification_rows,
)
from .optimizer import (
    OptResult, ThetaInterval, grid_search_oracle, maximize_for,
    maximize_secrecy_rate, maximize_secrecy_rate_imperfect,
    maximize_secrecy_rate_multi, theta_floor_active,
    theta_interval_active_imperfect, theta_interval_passive,
)

__version__ = "0.1.0"
