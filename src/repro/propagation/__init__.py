"""Radio propagation substrate: path loss, shadowing, fading, and fitting.

This package implements the "path loss - shadowing - fading" model of
Section 2 / the appendix of the paper, plus the auxiliary models (two-ray
ground reflection, knife-edge diffraction) discussed there, and the censored
maximum-likelihood estimator used to fit the model to testbed RSSI data
(Figure 14).
"""

from .channel import ChannelModel, LinkBudget, NormalizedChannel, ShadowingTable
from .diffraction import fresnel_v, knife_edge_loss_db, knife_edge_loss_db_exact
from .fading import RayleighFading, RicianFading, effective_wideband_sigma_db
from .fitting import PropagationFit, fit_path_loss_shadowing, predict_rssi_db
from .pathloss import (
    LogDistancePathLoss,
    free_space_path_loss_db,
    path_gain,
    path_loss_db,
)
from .shadowing import ShadowingModel, combined_sigma_db
from .tworay import TwoRayGroundModel

__all__ = [
    "ChannelModel",
    "LinkBudget",
    "NormalizedChannel",
    "ShadowingTable",
    "LogDistancePathLoss",
    "free_space_path_loss_db",
    "path_gain",
    "path_loss_db",
    "ShadowingModel",
    "combined_sigma_db",
    "RayleighFading",
    "RicianFading",
    "effective_wideband_sigma_db",
    "TwoRayGroundModel",
    "fresnel_v",
    "knife_edge_loss_db",
    "knife_edge_loss_db_exact",
    "PropagationFit",
    "fit_path_loss_shadowing",
    "predict_rssi_db",
]
